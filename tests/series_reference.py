"""The truncated-series derivation of G_r, kept as the test reference for
the exact kernel route in ``flatperm.genfun``.

Every quantity is a polynomial in v over integer series in x cut at one
order: 1/s and 1/t are unit-series inverses, v = 1/s is substituted by
``VPoly.subst_v``, the kernel is divided out by ``vpoly_div_kernel``, and
P_r is read off s^(2r-1) t^(r+1) G_r by ``xvpoly_extract_from_series``,
whose vanishing tail stands in for the exact divisibility of the exact
route.  It reads the boundary cells from the pipeline's table, one at a
time, and shares only that table, H_r and T_h with the pipeline it is
compared with.
"""

from __future__ import annotations

from flatperm.algebra import (
    ConsistencyError,
    IntPoly,
    RationalGF,
    VPoly,
    XSeries,
    vpoly_div_kernel,
    xvpoly_extract_from_series,
)
from flatperm.genfun import S_POLY, T_POLY, Pipeline, t_poly


def columns(g: VPoly) -> tuple[tuple[int, ...], ...]:
    """The series coefficients of g as plain integers, one tuple of x^0 ..
    x^order per power of v up to its v-degree: the form in which
    ``RationalGF.expand_coeffs`` and ``Pipeline.g_series`` hand them out,
    so the two compare with ``==``."""
    return tuple(s.coeffs for s in g.coeffs)


def to_vpoly(cols, order: int) -> VPoly:
    """Numerator columns, one per power of v, as series cut at order."""
    return VPoly((XSeries(p, order) for p in cols), order)


def expand_by_products(gf: RationalGF, order: int) -> VPoly:
    """N / (s^a t^b) through x^order as series products: the reference
    for ``RationalGF.expand_coeffs``."""
    s_inv = XSeries(S_POLY, order).inverse()
    t_inv = XSeries(T_POLY, order).inverse()
    factor = XSeries.one(order)
    for _ in range(gf.s_power):
        factor = factor * s_inv
    for _ in range(gf.t_power):
        factor = factor * t_inv
    return to_vpoly(gf.numerator, order) * factor


class SeriesPipeline:
    """G_r, H~_r/(1 - sv) and P_r as truncated series, at the order of the
    exact pipeline ``pl`` and from its boundary data."""

    def __init__(self, pl: Pipeline):
        self.pl = pl
        n = self.order = pl.order
        self.s = XSeries(S_POLY, n)
        self.t = XSeries(T_POLY, n)
        self.s_inv = self.s.inverse()
        self.t_inv = self.t.inverse()
        self._s_inv_pows = [XSeries.one(n)]
        self._g: dict[int, VPoly] = {}

    def sinv_pow(self, m: int) -> XSeries:
        while len(self._s_inv_pows) <= m:
            self._s_inv_pows.append(self._s_inv_pows[-1] * self.s_inv)
        return self._s_inv_pows[m]

    def htilde_over_kernel(self, r: int) -> VPoly:
        """Route one (per-h groups) and route two (series kernel division),
        which must agree through the order."""
        n = self.order
        expanded = VPoly.zero(n)
        for i in range(2, r + 3):
            gi = self.pl.table.coeff(r + 2, r, i)
            if gi == 0:
                continue
            base = (self.t_inv * gi * self.sinv_pow(i - 1)).mul_xpow(r)
            vpart = [base * IntPoly([2, -2])]
            for k in range(1, i - 1):
                vpart.append(base * (T_POLY * S_POLY**k))
            expanded = expanded + VPoly(vpart, n)
        by_h: dict[int, IntPoly] = {}
        for m in range(r - 1):
            for j in range(m + 1):
                for k in range(2, j + 3):
                    val = self.pl.table.coeff(m + 3, j, k)
                    if val:
                        h = r - j + k - 2
                        by_h[h] = by_h.get(h, IntPoly()) + IntPoly.term(val, m + 1)
        for h, xpoly in by_h.items():
            factor = self.t_inv * self.sinv_pow(h) * xpoly
            expanded = expanded - to_vpoly(t_poly(h).numerator, n) * factor

        hv = to_vpoly(self.pl.h_poly(r).numerator, n)
        w = hv.subst_v(self.s_inv) * self.s * self.t_inv
        divided = vpoly_div_kernel(hv - VPoly([w * 2, -w], n), self.s, r)
        if not expanded.matches(divided):
            raise ConsistencyError(f"the two series routes to H~_{r}/(1-sv) disagree")
        return expanded

    def g_series(self, r: int) -> VPoly:
        if r in self._g:
            return self._g[r]
        n = self.order
        if r == 0:
            g = VPoly([XSeries(IntPoly.term(4, 3), n).divexact(self.t)], n)
        else:
            w = self.t_inv.mul_xpow(4) * 4
            bracket = VPoly([w], n).shift_v(r) - VPoly([w], n).shift_v(r + 1)
            u = w * self.sinv_pow(r) * self.t_inv
            bracket = bracket + VPoly([(u * 2).mul_xpow(1), -u.mul_xpow(1)], n)
            for j in range(1, r):
                gj = self.g_series(j)
                bracket = bracket + (gj.shift_v(r - j) - gj.shift_v(r - j + 1)).mul_xpow(1)
                uj = gj.subst_v(self.s_inv) * self.sinv_pow(r - j) * self.t_inv
                bracket = bracket + VPoly([(uj * 2).mul_xpow(2), -uj.mul_xpow(2)], n)
            g = vpoly_div_kernel(bracket, self.s, r) + self.htilde_over_kernel(r).mul_xpow(3)
        self._g[r] = g
        return g

    def p_poly(self, r: int) -> tuple[IntPoly, ...]:
        pre = [S_POLY ** (2 * r - 1) * T_POLY ** (r + 1)]
        return xvpoly_extract_from_series(
            self.g_series(r), pre, divide_x_power=r + 3, divide_const=2, degree_bound_x=3 * r - 1
        )
