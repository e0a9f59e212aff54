"""Kernel-method pipeline for the generating functions

    G_r(x, v) = sum_{n >= r+3} sum_{i=2}^{r+2} g_{n,r}(1i) v^{i-2} x^n,

where g_{n,r}(1i) counts permutations of length n whose flattening starts
1, i and has exactly r occurrences of 13-2.

With s = 1 - x and t = 1 - 2x, G_r satisfies a functional equation whose
kernel factor is (1 - s v).  Solving it once for the base case gives
G_0 = 4x^3/t, and substituting the kernel root v = 1/s turns the equation
into an explicit recurrence expressing G_r through G_0, ..., G_{r-1} plus
finite boundary data (the values g_{r+2,r}(1i) and g_{n+3,j}(1k) with
n <= r-2).  Every quantity on this route lies in Z[x, v][1/s, 1/t] and is
carried exactly as a ``RationalGF``: an integer numerator over
s^a t^b, and a polynomial in x and v, such as H_r, is a ``RationalGF``
over s^0 t^0.  Substituting v = 1/s is Horner's rule on the numerator, the
kernel is divided out exactly, and each G_r is brought to the denominator
s^{2r-1} t^{r+1} by exact division, so the rationality theorem is proved
for each r by integer arithmetic, with no truncated series.

From G_r the pipeline extracts the integer polynomial

    P_r(x, v) = s^{2r-1} t^{r+1} / (2 x^{r+3}) * G_r(x, v),

its structured decomposition

    P_r = 2 c_{r,0}(x) + sum_{l=1}^{r} c_{r,l}(x) s^{l-1} t^l v^l,

and the rational closed form G_r = 2 x^{r+3} P_r / (s^{2r-1} t^{r+1}).
Each G_r is expanded once through the pipeline's order and compared,
coefficient by coefficient, with the insertion count
(``flatperm.insertion``), a route independent of the recurrence tables
that feed the boundary data; each closed form must then equal its G_r
exactly, over one denominator.  The pipeline hands out its expansions
as plain integer coefficients and builds no truncated series.
"""

from __future__ import annotations

from typing import NamedTuple

from ._common import default_order, min_order
from .algebra import (
    P_ZERO,
    ConsistencyError,
    InexactDivisionError,
    IntPoly,
    RationalGF,
    _times,
)
from .insertion import InsertionCount
from .recurrence import GTable

S_POLY = IntPoly([1, -1])   # s = 1 - x
T_POLY = IntPoly([1, -2])   # t = 1 - 2x
ONE_MINUS_V = RationalGF([[1], [-1]])
TWO_MINUS_V = RationalGF([[2], [-1]])
KERNEL = RationalGF([[1], S_POLY * -1])  # 1 - s v
G_0 = RationalGF([IntPoly.term(4, 3)], 0, 1)  # 4x^3/t

DEFAULT_R_MAX = 6


def _times_s(p: IntPoly) -> IntPoly:
    """s p, as one shift-and-subtract pass."""
    return IntPoly(_times(p.coeffs, 1))


def _times_t(p: IntPoly) -> IntPoly:
    """t p, as one shift-and-subtract pass."""
    return IntPoly(_times(p.coeffs, 2))


def t_poly(h: int) -> RationalGF:
    """The kernel-quotient polynomial

        T_h(x, v) = 1 - (1 - 2x)(1 - v) sum_{k=0}^{h-1} (1 - x)^k v^k,

    an integer polynomial of v-degree h, a ``RationalGF`` over s^0 t^0.
    The per-cell reference for route one of ``Pipeline.htilde_over_kernel``
    in the tests multiplies by it once per inner boundary cell."""
    if h < 1:
        raise ValueError("h must be >= 1")
    geo = RationalGF([S_POLY**k for k in range(h)])
    return RationalGF([[1]]) - geo * ONE_MINUS_V * T_POLY


class BoundaryData(NamedTuple):
    """Finite boundary data feeding the recurrence for G_r: the top row
    g_{r+2,r}(1i) for 2 <= i <= r+2, and the inner values g_{n+3,j}(1k)
    for 0 <= j <= n <= r-2, 2 <= k <= j+2, as H_r and route one read them:
    inner[h][n] = [v^h] sum_{j=0}^{n} v^{r-j} G_{n+3,j}(v) for 0 <= h <= r and
    0 <= n <= r-2, with G_{n+3,j}(v) = sum_k g_{n+3,j}(1k) v^{k-2}."""

    top_row: tuple[int, ...]
    inner: tuple[tuple[int, ...], ...]

    def top(self, i: int) -> int:
        return self.top_row[i - 2]


class Pipeline:
    """Memoized exact computation of G_r, P_r, the c tables and the
    rational closed forms for all r up to r_max, each G_r cross-checked
    against the insertion count through one order (default
    4 * r_max + 10, at least 4 * r_max + 3).

    Every stage re-verifies itself: the two independent routes to
    H~_r/(1 - sv) must agree exactly (H~_r is memoised, like the boundary
    data, P_r and the c tables, but only once they agree, so a reader
    after the derivation of G_r, such as the ``verify`` line that compares
    the routes, finds it compared already), kernel divisions must leave no
    remainder, each G_{r-1}(x, 1/s) must divide down exactly to
    s^(2r-2) t^r, so that G_r lands on the denominator s^(2r-1) t^(r+1),
    where the derivation certifies that G_r has v-degree r and a numerator
    divisible by x^(r+3) (P_r adds its x-degree bound), the c tables (by
    ``RationalGF.with_denominator``) must be divisible and of bounded
    degree exactly where claimed, and every coefficient of G_r through the
    order is compared with the insertion count
    ``InsertionCount(r_max, order)``, cut at q^r_max.  The
    count is built at the first comparison, so a pipeline that only reads
    boundary data never builds it.  Each failure raises
    ``ConsistencyError`` naming r; so do the two identities a caller may
    ask for, ``check_functional_equation`` and ``check_kernel_root``, which
    return None when they hold.

    The boundary data (n <= r_max + 2) come from a ``GTable``: the one
    passed as ``table`` (the ``verify`` suites pass their shared table),
    or else a full ``GTable(r_max + 2)`` of the pipeline's own (as for the
    ``ctable`` and ``rational`` commands).  So the boundary data and the
    values they are checked against come from different routes.  Each
    top-row cell is checked once, for oddness (r >= 1) and positivity
    (r >= 4), before any inner layer is read.  Each inner cell is read
    once, as its layer n joins the sums Y_d[n] over k - j = d; an odd cell
    (j >= 1) raises before its layer is kept.

    The pipeline never calls the enumeration oracle: comparisons of its
    values with ``perms.distribution`` live in ``flatperm.checks``.
    """

    def __init__(
        self,
        r_max: int = DEFAULT_R_MAX,
        order: int | None = None,
        table: GTable | None = None,
    ):
        if r_max < 0:
            raise ValueError("r_max must be >= 0")
        self.r_max = r_max
        self.order = default_order(r_max) if order is None else order
        if self.order < min_order(r_max):
            raise ValueError(
                f"order {self.order} too small for r_max {r_max}: need at least "
                f"{min_order(r_max)} so that the count cross-check covers the numerator of G_r"
            )
        self.table = table if table is not None else GTable(r_max + 2)
        self._count: InsertionCount | None = None
        self._boundary: dict[int, BoundaryData] = {}
        self._layers: list[list[int]] = []
        self._htilde: dict[int, RationalGF] = {}
        self._g: list[RationalGF] = []
        # The running sums V_r (over s^(2r-3) t^r) and K_r (over
        # s^(2r-1) t^r) of the recurrence for G_r, for the next r to derive.
        self._v_sum = self._k_sum = RationalGF()
        self._p: dict[int, tuple[IntPoly, ...]] = {}
        self._c: dict[int, tuple[IntPoly, ...]] = {}

    def _check_r(self, r: int) -> None:
        if not 0 <= r <= self.r_max:
            raise ValueError(f"r must lie in [0, {self.r_max}] for this pipeline")

    # -- boundary data ----------------------------------------------------

    def boundary(self, r: int) -> BoundaryData:
        self._check_r(r)
        if r in self._boundary:
            return self._boundary[r]
        top = tuple(self.table.coeff(r + 2, r, i) for i in range(2, r + 3))
        for i, c in enumerate(top, 2):
            if c % 2 and r >= 1 or c < 1 and r >= 4:
                what = "odd entry in the top boundary row" if c % 2 else "non-positive top boundary entry"
                raise ConsistencyError(f"{what} for r={r}: g_{{{r + 2},{r}}}(1{i}) = {c}")
        layers = self._layers
        while len(layers) < r - 1:
            n = len(layers)
            sums = [0] * (n + 1)  # [2 - d] = Y_d[n], the cells with k - j = d
            for j in range(n + 1):
                for k in range(2, j + 3):
                    c = self.table.coeff(n + 3, j, k)
                    if j and c % 2:
                        raise ConsistencyError(
                            f"odd inner boundary entry for r={r}: g_{{{n + 3},{j}}}(1{k}) = {c}"
                        )
                    sums[j - k + 2] += c
            layers.append(sums)
        # h = r - j + k - 2, so inner[h] = Y_(h-r+2), which layer n holds
        # at index r - h once r - h <= n.
        inner = tuple(
            tuple(layers[n][r - h] if r - h <= n else 0 for n in range(r - 1))
            for h in range(r + 1)
        )
        data = BoundaryData(top, inner)
        self._boundary[r] = data
        return data

    # -- the H and H~ layers ----------------------------------------------

    def h_poly(self, r: int) -> RationalGF:
        """H_r(x, v), the exact bivariate polynomial (over s^0 t^0)

            x^r (2-v) G_{r+2,r}(1) - x^r v G_{r+2,r}(v)
              - x (1-v) sum_{n=0}^{r-2} sum_{j=0}^{n} v^{r-j} G_{n+3,j}(v) x^n.
        """
        bd = self.boundary(r)
        top = RationalGF([c] for c in bd.top_row)  # sum_i g_{r+2,r}(1i) v^{i-2}
        h = (TWO_MINUS_V * sum(bd.top_row)).shift(x=r) - top.shift(x=r, v=1)
        inner = RationalGF(bd.inner)
        return h - (inner - inner.shift(v=1)).shift(x=1)  # (1 - v) X = X - vX

    def htilde_over_kernel(self, r: int) -> RationalGF:
        """H~_r(x, v)/(1 - sv), computed two independent ways.

        Route one assembles the expanded form directly from boundary data:

            (x^r/t) sum_{i=2}^{r+2} g_{r+2,r}(1i) s^{1-i} (1 + t sum_{k<=i-2} (sv)^k)
            - (1/t) sum_h s^{-h} T_h(x, v) sum_n inner[h][n] x^{n+1}.

        The inner cells enter only through the boundary data's sums by h
        (``BoundaryData``), so route one takes X_h = -sum_n inner[h][n] x^{n+1}
        (the sign of the cells included) as it stands.  Route one builds
        the numerator over the single denominator s^(r+1) t column by
        column, with O(r) passes in all:

        - top row: D_0 = sum_i g_{r+2,r}(1i) s^(r+2-i) by Horner, and
          D_k = s (D_{k-1} - g_{r+2,r}(1,k+1) s^r); column k gets
          x^r t D_k and column 0 gets 2 x^r s D_0 (1 + t = 2s);
        - inner cells: E = sum_h s^(r+1-h) X_h by Horner, F_1 = E - s^r X_1
          and F_k = s F_{k-1} - s^r X_k; column k gets t (x F_k + s^r X_k)
          and column 0 gets 2x E (1 - t = 2x).

        The tests keep a per-cell sum, one T_h (``t_poly``) per inner cell
        read from the table, as the reference for this form.

        Route two forms H~_r = H_r(x,v) - (2-v)(s/t) H_r(x, 1/s) and divides
        out the kernel factor exactly.  The two must be equal as exact
        values over one denominator, and the value is memoised only once
        they agree, so a disagreement raises on every call.
        """
        self._check_r(r)
        if r in self._htilde:
            return self._htilde[r]
        bd = self.boundary(r)
        s_r = S_POLY**r
        d = IntPoly()
        for i in range(2, r + 3):
            d = _times_s(d) + IntPoly([bd.top(i)])  # D_0 by Horner
        xh = [-IntPoly(cs).shift(1) for cs in bd.inner]  # X_h
        f = IntPoly()
        for x_h in xh:
            f = _times_s(f) + x_h  # E / s by Horner
        cols = [(_times_s(d).shift(r) + _times_s(f).shift(1)) * 2]
        for k in range(1, r + 1):
            d = _times_s(d - s_r * bd.top(k + 1))
            s_x = s_r * xh[k]
            f = _times_s(f) - s_x
            cols.append(_times_t(d.shift(r) + f.shift(1) + s_x))
        expanded = RationalGF(cols, r + 1, 1)

        hv = self.h_poly(r)
        at_root = hv.at_v_sinv()
        # (2 - v) a = 2a - va: a shift in v, no product.
        divided = (hv - (at_root * 2 - at_root.shift(v=1)).over(-1, 1)).div_kernel()

        if expanded != divided:
            raise ConsistencyError(f"the two routes to H~_{r}/(1-sv) disagree")
        self._htilde[r] = expanded
        return expanded

    # -- G_r ----------------------------------------------------------------

    def g_exact(self, r: int) -> RationalGF:
        """G_r(x, v) exactly, over s^(2r-1) t^(r+1) (over t for r = 0).

        G_0 = 4x^3/t.  For r >= 1 the solved functional equation gives

            G_r = [ x(1-v) V_r + x^2 (2-v) K_r / t ] / (1 - sv)
                  + x^3 * (H~_r/(1 - sv)),
            V_r = sum_{j<r} v^{r-j} G_j,   K_r = sum_{j<r} s^{j-r} G_j(x, 1/s),

        where the bracket is divided by the kernel exactly.  The sums are
        kept Horner style, V_r = v (V_{r-1} + G_{r-1}) and
        K_r = (K_{r-1} + G_{r-1}(x, 1/s))/s, so each r adds one term to
        each.  G_{r-1}(x, 1/s) is first divided exactly down to
        s^(2r-2) t^r, so K_r stays over s^(2r-1) t^r, the denominator the
        kernel-root identity gives it, and the bracket's quotient lands on
        G_r's own denominator s^(2r-1) t^(r+1).  The expansion of G_r
        through the order is compared with the insertion count:
        [x^n v^{i-2}] G_r = g_{n,r}(1i).
        """
        self._check_r(r)
        while len(self._g) <= r:
            self._derive_next()
        return self._g[r]

    def _derive_next(self) -> None:
        r = len(self._g)
        v_sum, k_sum = self._v_sum, self._k_sum
        if r == 0:
            g = G_0
        else:
            prev = self._g[-1]
            v_sum = (v_sum + prev).shift(v=1)
            try:
                at_root = prev.at_v_sinv().with_denominator(2 * r - 2, r)
            except InexactDivisionError as exc:
                raise ConsistencyError(
                    f"G_{r - 1}(x, 1/s) does not divide down to s^{2 * r - 2} t^{r}: {exc}"
                ) from exc
            k_sum = (k_sum + at_root).over(1)
            # (1 - v) V = V - vV and (2 - v) K = 2K - vK: shifts in v, no product.
            bracket = (v_sum - v_sum.shift(v=1)).shift(x=1) + (
                k_sum * 2 - k_sum.shift(v=1)
            ).over(0, 1).shift(x=2)
            # With K_r over s^(2r-1) t^r, the bracket and its quotient are
            # over G_r's own denominator; the sum with H~_r (over s^(r+1) t)
            # lowers only at r = 1, where H~_1 carries s^2.
            g = bracket.div_kernel()
            g = (g + self.htilde_over_kernel(r).shift(x=3)).with_denominator(2 * r - 1, r + 1)
        if g.vdegree != r:
            raise ConsistencyError(f"G_{r} has v-degree {g.vdegree}, expected {r}")
        # s^a t^b has constant term 1: each column's expansion starts where the column does.
        for k, num in enumerate(g.numerator):
            for m, c in enumerate(num.coeffs[: r + 3]):
                if c:
                    raise ConsistencyError(f"G_{r} has a nonzero coefficient at x^{m} v^{k} below x^{r + 3}")
        self._verify_against_count(r, g)
        self._v_sum, self._k_sum = v_sum, k_sum
        self._g.append(g)

    def _verify_against_count(self, r: int, g: RationalGF) -> None:
        """Compare [x^m v^(i-2)] G_r with the count's g_{m,r}(1i) for every
        m from r + 3 through the order, one column (r, i) at a time; the
        per-cell loop runs only to name the first wrong cell."""
        if self._count is None:
            self._count = InsertionCount(self.r_max, self.order)
        low = r + 3
        for i, coeffs in enumerate(g.expand_coeffs(self.order), 2):
            column = self._count.column(r, i, low)
            if coeffs[low:] == column:
                continue
            for m, (c, want) in enumerate(zip(coeffs[low:], column), low):
                if c != want:
                    raise ConsistencyError(
                        f"[x^{m} v^{i - 2}] G_{r} = {c} but the insertion count "
                        f"gives {want} (n={m}, r={r}, i={i})"
                    )

    def g_series(self, r: int) -> tuple[tuple[int, ...], ...]:
        """G_r(x, v) expanded through the pipeline's order: one tuple of
        the coefficients of x^0 .. x^order per power of v, up to the
        v-degree of G_r."""
        return tuple(map(tuple, self.g_exact(r).expand_coeffs(self.order)))

    # -- extraction ---------------------------------------------------------

    def p_poly(self, r: int) -> tuple[IntPoly, ...]:
        """The certified integer polynomial P_r(x, v): the numerator of G_r
        over s^(2r-1) t^(r+1) (of v-degree r and divisible by x^(r+3), as the
        derivation certifies) divided exactly by 2 x^(r+3), of x-degree at
        most 3r - 1: a tuple of polynomials in x, [v^l] P_r for 0 <= l <= r."""
        self._check_r(r)
        if r < 1:
            raise ValueError("P_r is defined for r >= 1 only")
        if r in self._p:
            return self._p[r]
        cols = []
        for k, num in enumerate(self.g_exact(r).numerator):
            col = IntPoly(num.coeffs[r + 3 :]).divexact_const(2)
            if col.degree > 3 * r - 1:
                raise ConsistencyError(
                    f"v^{k} coefficient of P_{r} has a nonzero term at x^{col.degree}, "
                    f"beyond the degree bound {3 * r - 1}"
                )
            cols.append(col)
        self._p[r] = tuple(cols)
        return self._p[r]

    def c_table(self, r: int) -> tuple[IntPoly, ...]:
        """The polynomials c_{r,0}, ..., c_{r,r} of P_r.

        Decompose P_r as 2c_{r,0} + sum_l c_{r,l} s^{l-1} t^l v^l, a change
        of denominator: p_l = [v^l] P_r over s^(l-1) t^l is lowered to
        s^0 t^0 by ``RationalGF.with_denominator``, whose exact passes raise
        InexactDivisionError on a remainder.  Then re-verify the
        decomposition, each c_{r,l} with l >= 1 lifted back (shift-and-subtract
        passes, so the division and the rebuild run different code); the
        value c_{r,0}(1/2) = 2^{1-r}; and the degree pattern."""
        self._check_r(r)
        if r in self._c:
            return self._c[r]
        p = self.p_poly(r)
        polys = [p[0].divexact_const(2)]
        for ell in range(1, r + 1):  # each numerator holds one column, or none for zero
            polys += RationalGF([p[ell]], ell - 1, ell).with_denominator(0, 0).numerator or [P_ZERO]
            rebuilt = RationalGF([polys[ell]]).with_denominator(ell - 1, ell).numerator or [P_ZERO]
            if rebuilt[0] != p[ell]:
                raise ConsistencyError(f"c-decomposition of P_{r} failed to rebuild [v^{ell}] P_{r}")
        # c_{r,0}(1/2) = 2^(1-r), both sides times 2^top: integers for
        # top >= deg c_{r,0} and top >= r - 1.
        c0 = polys[0].coeffs
        top = max(len(c0) - 1, r - 1)
        if sum(c << (top - k) for k, c in enumerate(c0)) != 1 << (top + 1 - r):
            raise ConsistencyError(f"c({r},0)(1/2) != 2^(1-{r})")
        for ell in range(r + 1):
            bound = 3 * r - 1 if ell == 0 else 3 * r - 2 * ell
            deg = polys[ell].degree
            if deg > bound or (r >= 4 and deg != bound):
                raise ConsistencyError(
                    f"deg c({r},{ell}) = {deg}, bound {bound} (exact for r >= 4)"
                )
        self._c[r] = tuple(polys)
        return self._c[r]

    def rational_gf(self, r: int) -> RationalGF:
        """G_r as the closed form 2 x^{r+3} P_r / (s^{2r-1} t^{r+1})
        (4x^3/t for r = 0), which must equal G_r exactly: equal numerators
        over one denominator, so the closed form agrees with G_r, and
        through G_r with the insertion count, at every order."""
        self._check_r(r)
        if r == 0:
            gf = G_0
        else:
            gf = RationalGF(self.p_poly(r), 2 * r - 1, r + 1).shift(x=r + 3) * 2
        if gf != self.g_exact(r):
            raise ConsistencyError(f"the rational closed form of G_{r} differs from G_{r}")
        return gf

    # -- identity checks ------------------------------------------------------

    def check_functional_equation(self, r: int) -> None:
        """The pre-kernel functional equation for G_r, compared exactly
        over one denominator; raises ``ConsistencyError`` unless it holds:

            (1 - v + vx) G_r = x(1-v) sum_{j<r} v^{r-j} G_j
                               + x(2-v) G_r(x, 1) + x^3 H_r.
        """
        self._check_r(r)
        g = self.g_exact(r)
        acc = RationalGF()
        for j in range(r):
            acc = acc + self.g_exact(j).shift(v=r - j)
        rhs = (acc * ONE_MINUS_V + g.at_v_one() * TWO_MINUS_V).shift(x=1)
        rhs = rhs + self.h_poly(r).shift(x=3)
        if g * KERNEL != rhs:
            raise ConsistencyError(f"the pre-kernel functional equation fails for G_{r}")

    def check_kernel_root(self, r: int) -> None:
        """The kernel-root consequence of the functional equation, compared
        exactly; raises ``ConsistencyError`` unless it holds:

            G_r(x, 1) = (x/t) sum_{j<r} s^{j-r} G_j(x, 1/s)
                        - (x^2 s / t) H_r(x, 1/s).
        """
        self._check_r(r)
        acc = RationalGF()
        for j in range(r):
            acc = acc + self.g_exact(j).at_v_sinv().over(r - j)
        h_at = self.h_poly(r).at_v_sinv()
        rhs = acc.over(0, 1).shift(x=1) - h_at.over(-1, 1).shift(x=2)
        if self.g_exact(r).at_v_one() != rhs:
            raise ConsistencyError(f"the kernel-root identity fails for G_{r}")
