"""Every raise site of the kernel pipeline can fail.

Each row plants the smallest fault that reaches one ``ConsistencyError``
in ``flatperm.genfun`` that no other test reaches: a coefficient of a
memoised numerator off by 2 (H~_r, G_r or P_r), one pass of the c-table
rebuild off by 2, or one boundary cell of the table set to 0.  The
message must name r, and the v-power or l where it has one.
"""

from __future__ import annotations

import pytest

from flatperm import genfun
from flatperm.algebra import ConsistencyError, IntPoly, RationalGF
from flatperm.genfun import S_POLY, T_POLY, Pipeline
from flatperm.recurrence import GTable


def _bump(cols, k: int, power: int, by: int = 2) -> list[IntPoly]:
    """The columns cols with [x^power v^k] off by ``by``."""
    cols = list(cols) + [IntPoly()] * (k + 1 - len(cols))
    cols[k] = cols[k] + IntPoly.term(by, power)
    return cols


def _htilde_off(k: int, power: int):
    """H~_r, memoised after its routes agree, off by 2 x^power v^k; G_r
    reads it."""
    def plant(pl, r, monkeypatch):
        ht = pl.htilde_over_kernel(r)
        pl._htilde[r] = RationalGF(_bump(ht.numerator, k, power), ht.s_power, ht.t_power)
        return pl.g_exact
    return plant


def _g_off(k: int, power: int):
    """The numerator of the memoised G_r off by 2 x^power v^k; P_r reads
    it."""
    def plant(pl, r, monkeypatch):
        g = pl.g_exact(r)
        pl._g[r] = RationalGF(_bump(g.numerator, k, power), g.s_power, g.t_power)
        return pl.p_poly
    return plant


def _p_off(ell: int, delta):
    """The memoised P_r with delta(p_ell) added to [v^ell] P_r; the c
    table reads it."""
    def plant(pl, r, monkeypatch):
        p = list(pl.p_poly(r))
        p[ell] = p[ell] + delta(p[ell])
        pl._p[r] = tuple(p)
        return pl.c_table
    return plant


def _drop_top_of_c(ell: int):
    """The change to p_ell that drops the top term of c(r, ell), the
    quotient of p_ell by s^(l-1) t^l."""
    factor = S_POLY ** (ell - 1) * T_POLY**ell

    def delta(p_ell):
        c = p_ell.divexact(factor)
        return factor * IntPoly.term(-c.coeffs[-1], c.degree)
    return delta


def _rebuild_off(pl, r, monkeypatch):
    """Every product by s in the c-table rebuild off by 2 in its constant
    term; only [v^l] P_r for l >= 2 is rebuilt with such a product."""
    pl.p_poly(r)
    real = genfun._times

    def off(cs, k):
        out = real(cs, k)
        if k == 1:
            out[0] += 2
        return out

    monkeypatch.setattr(genfun, "_times", off)
    return pl.c_table


def _top_cell_zero(cell):
    """A full table whose coefficient at cell (n, r, k) reads 0."""
    class Zeroed(GTable):
        def coeff(self, n, r, k=None):
            return 0 if (n, r, k) == cell else super().coeff(n, r, k)

    def plant(pl, r, monkeypatch):
        return Pipeline(r, table=Zeroed(r + 2)).boundary
    return plant


ROWS = [
    # (row id, r, plant, message)
    ("G_r v-degree", 3, _htilde_off(4, 0), r"G_3 has v-degree 4 > 3"),
    ("G_r below x^(r+3)", 2, _htilde_off(1, 0), r"G_2 has a nonzero coefficient at x\^3 v\^1 below x\^5"),
    ("P_r x^(r+3) divisibility", 3, _g_off(1, 5),
     r"v\^1 coefficient of the numerator of G_3 is not divisible by x\^6"),
    ("P_r degree bound", 3, _g_off(2, 15),
     r"v\^2 coefficient of P_3 has a nonzero term at x\^9, beyond the degree bound 8"),
    ("P_r v-degree", 3, _g_off(4, 6), r"P_3 has v-degree 4, expected 3"),
    ("c rebuild", 3, _rebuild_off, r"c-decomposition of P_3 failed to rebuild \[v\^2\] P_3"),
    ("c(r,0)(1/2)", 3, _p_off(0, lambda p: IntPoly.term(2, 1)), r"c\(3,0\)\(1/2\) != 2\^\(1-3\)"),
    ("c degree above its bound", 4, _p_off(2, lambda p: S_POLY * T_POLY**2 * IntPoly.term(2, 9)),
     r"deg c\(4,2\) = 9, bound 8 \(exact for r >= 4\)"),
    ("c degree below its bound", 4, _p_off(4, _drop_top_of_c(4)),
     r"deg c\(4,4\) = [0-3], bound 4 \(exact for r >= 4\)"),
    ("non-positive top boundary entry", 4, _top_cell_zero((6, 4, 3)),
     r"non-positive top boundary entry for r=4"),
]


@pytest.mark.parametrize("r, plant, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_fault_reaches_its_raise_site(table, monkeypatch, r, plant, message):
    read = plant(Pipeline(r, table=table), r, monkeypatch)
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        read(r)

