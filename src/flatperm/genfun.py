"""Kernel-method pipeline for the generating functions

    G_r(x, v) = sum_{n >= r+3} sum_{i=2}^{r+2} g_{n,r}(1i) v^{i-2} x^n,

where g_{n,r}(1i) counts permutations of length n whose flattening starts
1, i and has exactly r occurrences of 13-2.

With s = 1 - x and t = 1 - 2x (both units of the integer series ring),
G_r satisfies a functional equation whose kernel factor is (1 - s v).
Solving it once for the base case gives G_0 = 4x^3/t, and substituting
the kernel root v = 1/s turns the equation into an explicit recurrence
expressing G_r through G_1, ..., G_{r-1} plus finite boundary data (the
values g_{r+2,r}(1i) and g_{n+3,j}(1k) with n <= r-2).  Every division on
this route is by a unit series, a power of x, or the constant 2, so the
whole computation stays in exact integers and any structural failure is
detected, not rounded away.

From G_r the pipeline certifies and extracts the integer polynomial

    P_r(x, v) = s^{2r-1} t^{r+1} / (2 x^{r+3}) * G_r(x, v),

its structured decomposition

    P_r = 2 c_{r,0}(x) + sum_{l=1}^{r} c_{r,l}(x) s^{l-1} t^l v^l,

and the rational closed form G_r = 2 x^{r+3} P_r / (s^{2r-1} t^{r+1}),
each re-verified against the independent recurrence tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    ConsistencyError,
    IntPoly,
    VPoly,
    XSeries,
    XVPoly,
    vpoly_div_kernel,
    xvpoly_extract_from_series,
)
from .recurrence import GTable

S_POLY = IntPoly([1, -1])   # s = 1 - x
T_POLY = IntPoly([1, -2])   # t = 1 - 2x

DEFAULT_R_MAX = 6


def default_order(r: int) -> int:
    """Truncation order 4r + 10: enough for the degree-(4r+2) numerator of
    G_r plus eight guard coefficients to make vanishing-tail checks real."""
    return 4 * r + 10


def min_order(r: int) -> int:
    """Smallest truncation order 4r + 3 at which the vanishing-tail check
    on P_r sees a coefficient: P_r is read off x^(r+3) .. x^order of
    s^(2r-1) t^(r+1) G_r and has x-degree at most 3r - 1, so its tail
    starts at x^(4r+3)."""
    return 4 * r + 3


def t_poly(h: int) -> XVPoly:
    """The kernel-quotient polynomial

        T_h(x, v) = 1 - (1 - 2x)(1 - v) sum_{k=0}^{h-1} (1 - x)^k v^k,

    an integer polynomial of v-degree h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    geo = XVPoly([S_POLY**k for k in range(h)])
    one_minus_v = XVPoly([IntPoly([1]), IntPoly([-1])])
    return XVPoly([IntPoly([1])]) - geo * one_minus_v * XVPoly([T_POLY])


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

    def inner_poly(self, n: int, j: int) -> XVPoly:
        """sum_k g_{n+3,j}(1k) v^{k-2} for one inner (n, j) cell."""
        return XVPoly([IntPoly([self.inner[n, j, k]]) for k in range(2, j + 3)])


@dataclass(frozen=True)
class CTable:
    """The polynomials c_{r,0}, ..., c_{r,r} of the structured expansion
    of P_r(x, v)."""

    r: int
    polys: tuple[IntPoly, ...]

    def __getitem__(self, ell: int) -> IntPoly:
        return self.polys[ell]


@dataclass(frozen=True)
class RationalGF:
    """G_r as the rational function

        numerator / ((1 - x)^s_power (1 - 2x)^t_power),

    with numerator = 2 x^{r+3} P_r(x, v) (or 4x^3 for r = 0)."""

    r: int
    numerator: XVPoly
    s_power: int
    t_power: int

    def expand(self, order: int) -> VPoly:
        """Re-expand the rational form as a truncated series in x."""
        s_inv = XSeries(S_POLY, order).inverse()
        t_inv = XSeries(T_POLY, order).inverse()
        factor = XSeries.one(order)
        for _ in range(self.s_power):
            factor = factor * s_inv
        for _ in range(self.t_power):
            factor = factor * t_inv
        return self.numerator.to_vpoly(order) * factor


class Pipeline:
    """Memoized exact computation of G_r, P_r, the c tables and the
    rational closed forms for all r up to r_max, at one unified
    truncation order (default 4 * r_max + 10, at least 4 * r_max + 3).

    Every stage re-verifies itself: the two independent routes to
    H~_r/(1 - sv) must agree, kernel divisions must leave no remainder,
    extracted polynomials must have even/vanishing parts exactly where
    claimed, and all series coefficients are compared against the
    q-polynomial recurrence tables.

    The tables are read only at q^r with r <= r_max.  Given no ``table``
    (as for the ``ctable`` and ``rational`` commands), the pipeline builds
    its own ``GTable(2, q_top=r_max)``, kept only through q^r_max.  A
    caller that passes a table (the ``verify`` suites pass the full shared
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
                f"order {self.order} too small for r_max {r_max}: "
                f"need at least {min_order(r_max)} so that the vanishing-tail checks see a coefficient"
            )
        self.table = table if table is not None else GTable(2, q_top=r_max)
        n = self.order
        self.s = XSeries(S_POLY, n)
        self.t = XSeries(T_POLY, n)
        self.s_inv = self.s.inverse()
        self.t_inv = self.t.inverse()
        self._s_inv_pows: list[XSeries] = [XSeries.one(n)]
        self._boundary: dict[int, BoundaryData] = {}
        self._g: dict[int, VPoly] = {}
        self._g_at_sinv: dict[int, XSeries] = {}
        self._p: dict[int, XVPoly] = {}
        self._c: dict[int, CTable] = {}

    # -- helpers ----------------------------------------------------------

    def _sinv_pow(self, m: int) -> XSeries:
        while len(self._s_inv_pows) <= m:
            self._s_inv_pows.append(self._s_inv_pows[-1] * self.s_inv)
        return self._s_inv_pows[m]

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
        two_minus_v = XVPoly([IntPoly([2]), IntPoly([-1])])
        one_minus_v = XVPoly([IntPoly([1]), IntPoly([-1])])
        top = bd.top_poly()
        top_at_1 = sum(bd.top_row)
        h = (two_minus_v * top_at_1).shift_x(r) - top.shift_v(1).shift_x(r)
        inner_sum = XVPoly()
        for n in range(r - 1):
            for j in range(n + 1):
                inner_sum = inner_sum + bd.inner_poly(n, j).shift_v(r - j).shift_x(n)
        return h - (one_minus_v * inner_sum).shift_x(1)

    def h_series(self, r: int) -> VPoly:
        """H_r at the pipeline truncation order."""
        return self.h_poly(r).to_vpoly(self.order)

    def htilde_over_kernel(self, r: int) -> VPoly:
        """H~_r(x, v)/(1 - sv), computed two independent ways.

        Route one assembles the expanded form directly from boundary data:

            (x^r/t) sum_{i=2}^{r+2} g_{r+2,r}(1i) s^{1-i} (1 + t sum_{k<=i-2} (sv)^k)
            - (1/t) sum_h s^{-h} T_h(x, v) sum_{n,j,k: r-j+k-2 = h} g_{n+3,j}(1k) x^{n+1}.

        The inner cells depend on (j, k) only through h = r-j+k-2, which
        takes at most r - 1 values, so their x^{n+1} terms are summed into
        one polynomial per h and T_h is multiplied in once per h.

        Route two forms H~_r = H_r(x,v) - (2-v)(s/t) H_r(x, 1/s) and divides
        out the kernel factor by exact long division.  The two must agree
        coefficient-for-coefficient up to truncation.
        """
        self._check_r(r)
        bd = self.boundary(r)
        n = self.order

        expanded = VPoly.zero(n)
        for i in range(2, r + 3):
            gi = bd.top(i)
            if gi == 0:
                continue
            base = (self.t_inv * gi * self._sinv_pow(i - 1)).mul_xpow(r)
            vpart = [base * IntPoly([2, -2])]  # v^0 of 1 + t*sum: 1 + t = 2 - 2x
            for k in range(1, i - 1):
                vpart.append(base * (T_POLY * S_POLY**k))
            expanded = expanded + VPoly(vpart, n)
        by_h: dict[int, IntPoly] = {}
        for (m, j, k), val in bd.inner.items():
            if val:
                h = r - j + k - 2
                by_h[h] = by_h.get(h, IntPoly()) + IntPoly.term(val, m + 1)
        for h, xpoly in by_h.items():
            factor = self.t_inv * self._sinv_pow(h) * xpoly
            expanded = expanded - t_poly(h).to_vpoly(n) * factor

        hv = self.h_series(r)
        h_at_sinv = hv.subst_v(self.s_inv)
        w = h_at_sinv * self.s * self.t_inv
        htilde = hv - VPoly([w * 2, -w], n)
        divided = vpoly_div_kernel(htilde, self.s, r)

        if not expanded.matches(divided):
            raise ConsistencyError(
                f"the two routes to H~_{r}/(1-sv) disagree at order {n}"
            )
        return expanded

    # -- the G series -------------------------------------------------------

    def g_series(self, r: int) -> VPoly:
        """G_r(x, v) as a v-polynomial over truncated integer series.

        G_0 = 4x^3/t.  For r >= 1 the solved functional equation gives

            G_r = [ (4x^4/t)((1-v)v^r + x(2-v)/(s^r t))
                    + x sum_{j=1}^{r-1} ((1-v)v^{r-j} G_j + x(2-v) G_j(x,1/s)/(s^{r-j} t))
                  ] / (1 - sv)
                  + x^3 * (H~_r/(1 - sv)),

        where the bracket is divided by the kernel exactly.  Every series
        coefficient through the truncation order is then compared with the
        q-polynomial recurrence: [x^n v^{i-2}] G_r = g_{n,r}(1i).
        """
        self._check_r(r)
        if r in self._g:
            return self._g[r]
        n = self.order
        if r == 0:
            g = VPoly([XSeries(IntPoly.term(4, 3), n).divexact(self.t)], n)
        else:
            w = self.t_inv.mul_xpow(4) * 4
            bracket = VPoly([w], n).shift_v(r) - VPoly([w], n).shift_v(r + 1)
            u = w * self._sinv_pow(r) * self.t_inv
            bracket = bracket + VPoly([(u * 2).mul_xpow(1), -u.mul_xpow(1)], n)
            for j in range(1, r):
                gj = self.g_series(j)
                bracket = bracket + (gj.shift_v(r - j) - gj.shift_v(r - j + 1)).mul_xpow(1)
                uj = self.g_at_sinv(j) * self._sinv_pow(r - j) * self.t_inv
                bracket = bracket + VPoly([(uj * 2).mul_xpow(2), -uj.mul_xpow(2)], n)
            g = vpoly_div_kernel(bracket, self.s, r) + self.htilde_over_kernel(r).mul_xpow(3)

        if g.vdegree > r:
            raise ConsistencyError(f"G_{r} has v-degree {g.vdegree} > {r}")
        self._verify_g_against_table(r, g)
        self._g[r] = g
        return g

    def _verify_g_against_table(self, r: int, g: VPoly) -> None:
        for i in range(2, r + 3):
            series = g.coeff(i - 2)
            for m in range(min(r + 3, self.order + 1)):
                if series.coeffs[m] != 0:
                    raise ConsistencyError(
                        f"G_{r} has a nonzero coefficient at x^{m} below x^{r + 3}"
                    )
            for m in range(r + 3, self.order + 1):
                want = self.table.coeff(m, r, i)
                if series.coeffs[m] != want:
                    raise ConsistencyError(
                        f"[x^{m} v^{i - 2}] G_{r} = {series.coeffs[m]} "
                        f"but the recurrence gives {want}"
                    )

    def g_at_sinv(self, r: int) -> XSeries:
        """G_r(x, 1/s), memoized."""
        if r not in self._g_at_sinv:
            self._g_at_sinv[r] = self.g_series(r).subst_v(self.s_inv)
        return self._g_at_sinv[r]

    # -- extraction ---------------------------------------------------------

    def p_poly(self, r: int) -> XVPoly:
        """The certified integer polynomial P_r(x, v), of v-degree exactly
        r and x-degree at most 3r - 1."""
        self._check_r(r)
        if r < 1:
            raise ValueError("P_r is defined for r >= 1 only")
        if r in self._p:
            return self._p[r]
        pre = XVPoly([S_POLY ** (2 * r - 1) * T_POLY ** (r + 1)])
        p = xvpoly_extract_from_series(
            self.g_series(r),
            pre,
            divide_x_power=r + 3,
            divide_const=2,
            degree_bound_x=3 * r - 1,
        )
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
        """Package G_r as a rational function and re-expand it, checking
        the expansion against the series route."""
        self._check_r(r)
        if r == 0:
            gf = RationalGF(0, XVPoly([IntPoly.term(4, 3)]), 0, 1)
        else:
            gf = RationalGF(r, self.p_poly(r).shift_x(r + 3) * 2, 2 * r - 1, r + 1)
        if not gf.expand(self.order).matches(self.g_series(r)):
            raise ConsistencyError(f"rational form of G_{r} fails to re-expand")
        return gf

    # -- identity checks and reports ----------------------------------------

    def check_functional_equation(self, r: int) -> bool:
        """The pre-kernel functional equation for G_r as a truncated-series
        identity:

            (1 - v + vx) G_r = x(1-v) sum_{j<r} v^{r-j} G_j
                               + x(2-v) G_r(x, 1) + x^3 H_r.
        """
        self._check_r(r)
        n = self.order
        g = self.g_series(r)
        lhs = g * VPoly([XSeries.one(n), -self.s], n)
        acc = VPoly.zero(n)
        for j in range(r):
            acc = acc + self.g_series(j).shift_v(r - j)
        one_minus_v = VPoly([XSeries.one(n), -XSeries.one(n)], n)
        rhs = (one_minus_v * acc).mul_xpow(1)
        g1 = g.eval_v_one()
        rhs = rhs + VPoly([(g1 * 2).mul_xpow(1), -g1.mul_xpow(1)], n)
        rhs = rhs + self.h_series(r).mul_xpow(3)
        return lhs.matches(rhs)

    def check_kernel_root(self, r: int) -> bool:
        """The kernel-root consequence of the functional equation:

            G_r(x, 1) = (x/t) sum_{j<r} s^{j-r} G_j(x, 1/s)
                        - (x^2 s / t) H_r(x, 1/s).
        """
        self._check_r(r)
        lhs = self.g_series(r).eval_v_one()
        acc = XSeries.zero(self.order)
        for j in range(r):
            acc = acc + self._sinv_pow(r - j) * self.g_at_sinv(j)
        rhs = (self.t_inv * acc).mul_xpow(1)
        h_at = self.h_series(r).subst_v(self.s_inv)
        rhs = rhs - (h_at * self.s * self.t_inv).mul_xpow(2)
        return lhs.matches(rhs)
