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
s^a t^b.  Substituting v = 1/s is Horner's rule on the numerator, the
kernel is divided out exactly, and each G_r is brought to the denominator
s^{2r-1} t^{r+1} by exact division, so the rationality theorem is proved
for each r by integer arithmetic, with no truncated series.

From G_r the pipeline extracts the integer polynomial

    P_r(x, v) = s^{2r-1} t^{r+1} / (2 x^{r+3}) * G_r(x, v),

its structured decomposition

    P_r = 2 c_{r,0}(x) + sum_{l=1}^{r} c_{r,l}(x) s^{l-1} t^l v^l,

and the rational closed form G_r = 2 x^{r+3} P_r / (s^{2r-1} t^{r+1}).
Each G_r and each closed form is expanded through the pipeline's order
and compared, coefficient by coefficient, with the independent recurrence
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ConsistencyError, IntPoly, RationalGF, VPoly, XVPoly
from .recurrence import GTable

S_POLY = IntPoly([1, -1])   # s = 1 - x
T_POLY = IntPoly([1, -2])   # t = 1 - 2x
ONE_MINUS_V = XVPoly([[1], [-1]])
TWO_MINUS_V = XVPoly([[2], [-1]])
KERNEL = XVPoly([[1], S_POLY * -1])  # 1 - s v
G_0 = RationalGF(XVPoly([IntPoly.term(4, 3)]), 0, 1)  # 4x^3/t

DEFAULT_R_MAX = 6


def default_order(r: int) -> int:
    """Default order 4r + 10 of the table cross-check: the numerator
    2x^(r+3) P_r of G_r has x-degree at most 4r + 2, and eight more
    coefficients are compared past it."""
    return 4 * r + 10


def min_order(r: int) -> int:
    """Smallest order 4r + 3 accepted for the table cross-check: the
    coefficients x^0 .. x^(4r+3) of G_r outnumber those of its numerator
    2x^(r+3) P_r (x-degree at most 4r + 2), so over the known denominator
    s^(2r-1) t^(r+1) the compared coefficients alone determine G_r."""
    return 4 * r + 3


def t_poly(h: int) -> XVPoly:
    """The kernel-quotient polynomial

        T_h(x, v) = 1 - (1 - 2x)(1 - v) sum_{k=0}^{h-1} (1 - x)^k v^k,

    an integer polynomial of v-degree h.  Route one of
    ``Pipeline.htilde_over_kernel`` forms each product T_h X_h from this
    definition directly."""
    if h < 1:
        raise ValueError("h must be >= 1")
    geo = XVPoly([S_POLY**k for k in range(h)])
    return XVPoly([IntPoly([1])]) - geo * ONE_MINUS_V * XVPoly([T_POLY])


@dataclass(frozen=True)
class BoundaryData:
    """Finite boundary data feeding the recurrence for G_r: the top row
    g_{r+2,r}(1i) for 2 <= i <= r+2, and the inner values g_{n+3,j}(1k)
    for 0 <= j <= n <= r-2, 2 <= k <= j+2."""

    r: int
    top_row: tuple[int, ...]
    inner: dict[tuple[int, int, int], int]

    def top(self, i: int) -> int:
        return self.top_row[i - 2]

    def top_poly(self) -> XVPoly:
        """sum_i g_{r+2,r}(1i) v^{i-2} as a polynomial in v alone."""
        return XVPoly([IntPoly([c]) for c in self.top_row])


@dataclass(frozen=True)
class CTable:
    """The polynomials c_{r,0}, ..., c_{r,r} of the structured expansion
    of P_r(x, v)."""

    r: int
    polys: tuple[IntPoly, ...]

    def __getitem__(self, ell: int) -> IntPoly:
        return self.polys[ell]


class Pipeline:
    """Memoized exact computation of G_r, P_r, the c tables and the
    rational closed forms for all r up to r_max, each G_r cross-checked
    against the recurrence tables through one order (default
    4 * r_max + 10, at least 4 * r_max + 3).

    Every stage re-verifies itself: the two independent routes to
    H~_r/(1 - sv) must agree exactly, kernel divisions must leave no
    remainder, each G_r must divide down exactly to the denominator
    s^(2r-1) t^(r+1), extracted polynomials must be divisible and of
    bounded degree exactly where claimed, and every coefficient of G_r
    through the order is compared with the q-polynomial recurrence tables.

    The tables are read only at q^r with r <= r_max.  Given no ``table``
    (as for the ``ctable`` and ``rational`` commands), the pipeline builds
    its own ``GTable(2, q_top=r_max)``, kept only through q^r_max.  A
    caller that passes a table (the ``verify`` suites pass one full
    table) has the pipeline checked against full q-polynomials.

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
                f"{min_order(r_max)} so that the table cross-check covers the numerator of G_r"
            )
        self.table = table if table is not None else GTable(2, q_top=r_max)
        self._boundary: dict[int, BoundaryData] = {}
        self._g: list[RationalGF] = []
        # The running sums V_r and K_r of the recurrence for G_r, for the
        # next r to derive.
        self._v_sum = self._k_sum = RationalGF(XVPoly())
        self._p: dict[int, XVPoly] = {}
        self._c: dict[int, CTable] = {}

    def _check_r(self, r: int) -> None:
        if not 0 <= r <= self.r_max:
            raise ValueError(f"r must lie in [0, {self.r_max}] for this pipeline")

    # -- boundary data ----------------------------------------------------

    def boundary(self, r: int) -> BoundaryData:
        self._check_r(r)
        if r in self._boundary:
            return self._boundary[r]
        top = tuple(self.table.coeff(r + 2, r, i) for i in range(2, r + 3))
        inner = {
            (n, j, k): self.table.coeff(n + 3, j, k)
            for n in range(r - 1)
            for j in range(n + 1)
            for k in range(2, j + 3)
        }
        if r >= 1 and any(c % 2 for c in top):
            raise ConsistencyError(f"odd entry in the top boundary row for r={r}")
        if any(v % 2 for (n, j, k), v in inner.items() if j >= 1):
            raise ConsistencyError(f"odd inner boundary entry for r={r}")
        if r >= 4 and any(c < 1 for c in top):
            raise ConsistencyError(f"non-positive top boundary entry for r={r}")
        data = BoundaryData(r, top, inner)
        self._boundary[r] = data
        return data

    # -- the H and H~ layers ----------------------------------------------

    def h_poly(self, r: int) -> XVPoly:
        """H_r(x, v), the exact bivariate polynomial

            x^r (2-v) G_{r+2,r}(1) - x^r v G_{r+2,r}(v)
              - x (1-v) sum_{n=0}^{r-2} sum_{j=0}^{n} v^{r-j} G_{n+3,j}(v) x^n.
        """
        bd = self.boundary(r)
        top = bd.top_poly()
        top_at_1 = sum(bd.top_row)
        h = (TWO_MINUS_V * top_at_1).shift_x(r) - top.shift_v(1).shift_x(r)
        inner_sum = [[0] * max(r - 1, 0) for _ in range(r + 1)]  # [v-power][x-power]
        for (n, j, k), val in bd.inner.items():
            inner_sum[r - j + k - 2][n] += val
        return h - (ONE_MINUS_V * XVPoly(inner_sum)).shift_x(1)

    def htilde_over_kernel(self, r: int) -> RationalGF:
        """H~_r(x, v)/(1 - sv), computed two independent ways.

        Route one assembles the expanded form directly from boundary data:

            (x^r/t) sum_{i=2}^{r+2} g_{r+2,r}(1i) s^{1-i} (1 + t sum_{k<=i-2} (sv)^k)
            - (1/t) sum_h s^{-h} T_h(x, v) sum_{n,j,k: r-j+k-2 = h} g_{n+3,j}(1k) x^{n+1}.

        The inner cells depend on (j, k) only through h = r-j+k-2, which
        takes at most r - 1 values, so their x^{n+1} terms are summed into
        one polynomial X_h per h.  Each T_h X_h is formed from the
        definition of T_h as X_h - (1-v) sum_{k<h} v^k s^k t X_h, one
        product by s per power.  The terms are summed in ascending powers
        of s, so each addition lifts the running sum by one pass per new
        power.

        Route two forms H~_r = H_r(x,v) - (2-v)(s/t) H_r(x, 1/s) and divides
        out the kernel factor exactly.  The two must be equal as exact
        values over one denominator.
        """
        self._check_r(r)
        bd = self.boundary(r)

        terms = []
        vpart = [IntPoly([2, -2])]  # v^0 of 1 + t*sum: 1 + t = 2 - 2x
        ts = T_POLY
        for i in range(2, r + 3):
            if i > 2:
                ts = ts * S_POLY  # t s^(i-2), the v^(i-2) part of 1 + t*sum
                vpart.append(ts)
            gi = bd.top(i)
            if gi:
                terms.append(RationalGF(XVPoly(vpart).shift_x(r) * gi, i - 1, 1))
        by_h: dict[int, list[int]] = {}
        for (m, j, k), val in bd.inner.items():
            if val:
                by_h.setdefault(r - j + k - 2, [0] * r)[m + 1] -= val
        for h, xpoly in by_h.items():
            geo = [IntPoly(xpoly) * T_POLY]
            for _ in range(h - 1):
                geo.append(geo[-1] * S_POLY)
            th_x = XVPoly([xpoly]) - XVPoly(geo) + XVPoly(geo).shift_v(1)
            terms.append(RationalGF(th_x, h, 1))
        expanded = RationalGF(XVPoly())
        for term in sorted(terms, key=lambda gf: gf.s_power):
            expanded = expanded + term

        hv = RationalGF(self.h_poly(r))
        divided = (hv - (hv.at_v_sinv() * TWO_MINUS_V).over(-1, 1)).div_kernel()

        if expanded != divided:
            raise ConsistencyError(f"the two routes to H~_{r}/(1-sv) disagree")
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
        each.  G_r is then divided exactly down to s^(2r-1) t^(r+1), and its
        expansion through the order is compared with the q-polynomial
        recurrence: [x^n v^{i-2}] G_r = g_{n,r}(1i).
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
            k_sum = (k_sum + prev.at_v_sinv()).over(1)
            bracket = (v_sum * ONE_MINUS_V).shift(x=1) + (k_sum * TWO_MINUS_V).over(0, 1).shift(x=2)
            # The bracket's quotient divides down on its own; the sum needs
            # the second step only at r = 1, where H~_1 carries s^2.
            g = bracket.div_kernel().with_denominator(2 * r - 1, r + 1)
            g = (g + self.htilde_over_kernel(r).shift(x=3)).with_denominator(2 * r - 1, r + 1)
        if g.vdegree > r:
            raise ConsistencyError(f"G_{r} has v-degree {g.vdegree} > {r}")
        self._verify_against_table(r, g)
        self._v_sum, self._k_sum = v_sum, k_sum
        self._g.append(g)

    def _verify_against_table(self, r: int, g: RationalGF) -> None:
        series = g.expand(self.order)
        for i in range(2, r + 3):
            coeffs = series.coeff(i - 2).coeffs
            for m in range(min(r + 3, self.order + 1)):
                if coeffs[m] != 0:
                    raise ConsistencyError(
                        f"G_{r} has a nonzero coefficient at x^{m} below x^{r + 3}"
                    )
            for m in range(r + 3, self.order + 1):
                want = self.table.coeff(m, r, i)
                if coeffs[m] != want:
                    raise ConsistencyError(
                        f"[x^{m} v^{i - 2}] G_{r} = {coeffs[m]} but the recurrence "
                        f"gives {want} (n={m}, r={r}, i={i})"
                    )

    def g_series(self, r: int) -> VPoly:
        """G_r(x, v) expanded through the pipeline's order, as a
        v-polynomial over truncated integer series."""
        return self.g_exact(r).expand(self.order)

    # -- extraction ---------------------------------------------------------

    def p_poly(self, r: int) -> XVPoly:
        """The certified integer polynomial P_r(x, v), of v-degree exactly
        r and x-degree at most 3r - 1: the numerator of G_r over
        s^(2r-1) t^(r+1), divided exactly by 2 x^(r+3)."""
        self._check_r(r)
        if r < 1:
            raise ValueError("P_r is defined for r >= 1 only")
        if r in self._p:
            return self._p[r]
        cols = []
        for k, num in enumerate(self.g_exact(r).numerator.vcoeffs):
            if any(num.coeffs[: r + 3]):
                raise ConsistencyError(
                    f"v^{k} coefficient of the numerator of G_{r} is not divisible by x^{r + 3}"
                )
            col = IntPoly(num.coeffs[r + 3 :]).divexact_const(2)
            if col.degree > 3 * r - 1:
                raise ConsistencyError(
                    f"v^{k} coefficient has a nonzero term at x^{col.degree}, "
                    f"beyond the degree bound {3 * r - 1}"
                )
            cols.append(col)
        p = XVPoly(cols)
        if p.vdegree != r:
            raise ConsistencyError(f"P_{r} has v-degree {p.vdegree}, expected {r}")
        self._p[r] = p
        return p

    def c_table(self, r: int) -> CTable:
        """Decompose P_r as 2c_{r,0} + sum_l c_{r,l} s^{l-1} t^l v^l by
        checked-exact divisions, then re-verify the decomposition, the
        value c_{r,0}(1/2) = 2^{1-r}, and the degree pattern."""
        self._check_r(r)
        if r in self._c:
            return self._c[r]
        p = self.p_poly(r)
        polys = [p.coeff(0).divexact_const(2)]
        for ell in range(1, r + 1):
            polys.append(p.coeff(ell).divexact(S_POLY ** (ell - 1) * T_POLY**ell))
        ct = CTable(r, tuple(polys))

        rebuilt = XVPoly([polys[0] * 2]) + XVPoly(
            [IntPoly()]
            + [polys[ell] * (S_POLY ** (ell - 1) * T_POLY**ell) for ell in range(1, r + 1)]
        )
        if rebuilt != p:
            raise ConsistencyError(f"c-decomposition of P_{r} failed to rebuild P_{r}")
        if polys[0].eval_at(Fraction(1, 2)) != Fraction(2) ** (1 - r):
            raise ConsistencyError(f"c({r},0)(1/2) != 2^(1-{r})")
        for ell in range(r + 1):
            bound = 3 * r - 1 if ell == 0 else 3 * r - 2 * ell
            deg = polys[ell].degree
            if deg > bound or (r >= 4 and deg != bound):
                raise ConsistencyError(
                    f"deg c({r},{ell}) = {deg}, bound {bound} (exact for r >= 4)"
                )
        self._c[r] = ct
        return ct

    def rational_gf(self, r: int) -> RationalGF:
        """G_r as the closed form 2 x^{r+3} P_r / (s^{2r-1} t^{r+1})
        (4x^3/t for r = 0), re-expanded through the order and compared
        with the recurrence tables."""
        self._check_r(r)
        if r == 0:
            gf = G_0
        else:
            gf = RationalGF(self.p_poly(r).shift_x(r + 3) * 2, 2 * r - 1, r + 1)
        self._verify_against_table(r, gf)
        return gf

    # -- identity checks ------------------------------------------------------

    def check_functional_equation(self, r: int) -> bool:
        """The pre-kernel functional equation for G_r as an exact identity,
        both sides over one denominator:

            (1 - v + vx) G_r = x(1-v) sum_{j<r} v^{r-j} G_j
                               + x(2-v) G_r(x, 1) + x^3 H_r.
        """
        self._check_r(r)
        g = self.g_exact(r)
        acc = RationalGF(XVPoly())
        for j in range(r):
            acc = acc + self.g_exact(j).shift(v=r - j)
        rhs = (acc * ONE_MINUS_V + g.at_v_one() * TWO_MINUS_V).shift(x=1)
        rhs = rhs + RationalGF(self.h_poly(r)).shift(x=3)
        return g * KERNEL == rhs

    def check_kernel_root(self, r: int) -> bool:
        """The kernel-root consequence of the functional equation, as an
        exact identity:

            G_r(x, 1) = (x/t) sum_{j<r} s^{j-r} G_j(x, 1/s)
                        - (x^2 s / t) H_r(x, 1/s).
        """
        self._check_r(r)
        acc = RationalGF(XVPoly())
        for j in range(r):
            acc = acc + self.g_exact(j).at_v_sinv().over(r - j)
        h_at = RationalGF(self.h_poly(r)).at_v_sinv()
        rhs = acc.over(0, 1).shift(x=1) - h_at.over(-1, 1).shift(x=2)
        return self.g_exact(r).at_v_one() == rhs
