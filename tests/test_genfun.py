from __future__ import annotations

from fractions import Fraction

import pytest

from flatperm._reference import REFERENCE_CTABLES
from flatperm.algebra import IntPoly, VPoly, XSeries, XVPoly
from flatperm.genfun import S_POLY, T_POLY, Pipeline, default_order, t_poly


class TestTPoly:
    def test_smallest(self):
        assert t_poly(1) == XVPoly([IntPoly([0, 2]), T_POLY])

    @pytest.mark.parametrize("h", range(1, 9))
    def test_coefficient_structure(self, h):
        th = t_poly(h)
        assert th.vdegree == h
        assert th.coeff(0) == IntPoly([0, 2])
        assert th.coeff(h) == T_POLY * S_POLY ** (h - 1)
        for i in range(1, h):
            assert th.coeff(i) == T_POLY * S_POLY ** (i - 1) * IntPoly([0, 1])

    def test_rejects_h_zero(self):
        with pytest.raises(ValueError):
            t_poly(0)


class TestBoundary:
    def test_r0(self, pipeline6):
        bd = pipeline6.boundary(0)
        assert bd.top_row == (2,)
        assert bd.inner == {}

    def test_r1(self, pipeline6):
        assert pipeline6.boundary(1).top_row == (0, 2)

    def test_r4_parity_and_positivity(self, pipeline6):
        bd = pipeline6.boundary(4)
        assert all(c % 2 == 0 and c >= 1 for c in bd.top_row)
        assert all(v % 2 == 0 for (n, j, k), v in bd.inner.items() if j >= 1)

    def test_oracle_cross_check(self, table):
        pl = Pipeline(r_max=2, table=table, oracle_check=True)
        bd = pl.boundary(2)
        assert bd.top_row[0] == table.coeff(4, 2, 2)


class TestHLayer:
    def test_h0(self, pipeline6):
        assert pipeline6.h_poly(0) == XVPoly([[4], [-4]])

    def test_h1(self, pipeline6):
        # 2x (1 - v)(2 + v)
        assert pipeline6.h_poly(1) == XVPoly([[0, 4], [0, -2], [0, -2]])

    def test_h2(self, pipeline6):
        assert pipeline6.h_poly(2) == XVPoly(
            [[0, 0, 12], [0, 0, -6], [0, -4], [0, 4, -6]]
        )

    def test_htilde_r0_is_4_over_t(self, pipeline6):
        ht = pipeline6.htilde_over_kernel(0)
        assert ht.vdegree == 0
        assert ht.coeff(0).coeffs[:5] == (4, 8, 16, 32, 64)

    def test_htilde_r1(self, pipeline6):
        # 2x (2 + t v) / (s t)
        ht = pipeline6.htilde_over_kernel(1)
        st_inv = (pipeline6.s * pipeline6.t).inverse()
        assert ht.vdegree == 1
        assert ht.coeff(0) == (st_inv * 4).mul_xpow(1)
        assert ht.coeff(1) == (st_inv * T_POLY * 2).mul_xpow(1)

    @pytest.mark.parametrize("r", range(0, 5))
    def test_dual_routes_never_disagree(self, pipeline6, r):
        pipeline6.htilde_over_kernel(r)  # raises on mismatch

    @pytest.mark.parametrize("r", range(0, 7))
    def test_route_one_grouped_by_h_matches_per_cell(self, pipeline6, r):
        assert pipeline6.order == default_order(6)
        got = pipeline6.htilde_over_kernel(r)
        want = _route_one_per_cell(pipeline6, r)
        assert got.order == want.order and got.matches(want)


def _route_one_per_cell(pl: Pipeline, r: int) -> VPoly:
    """Route one to H~_r/(1 - sv) with one T_h multiply per inner boundary
    cell: the reference for the grouped form in Pipeline.htilde_over_kernel."""
    bd = pl.boundary(r)
    n = pl.order
    sinv_pows = [XSeries.one(n)]
    for _ in range(r + 1):
        sinv_pows.append(sinv_pows[-1] * pl.s_inv)
    expanded = VPoly.zero(n)
    for i in range(2, r + 3):
        gi = bd.top(i)
        if gi == 0:
            continue
        base = (pl.t_inv * gi * sinv_pows[i - 1]).mul_xpow(r)
        vpart = [base * IntPoly([2, -2])]
        for k in range(1, i - 1):
            vpart.append(base * (T_POLY * S_POLY**k))
        expanded = expanded + VPoly(vpart, n)
    for (m, j, k), val in bd.inner.items():
        if val == 0:
            continue
        h = r - j + k - 2
        factor = (pl.t_inv * val * sinv_pows[h]).mul_xpow(m + 1)
        expanded = expanded - t_poly(h).to_vpoly(n) * factor
    return expanded


class TestGSeries:
    def test_r0(self, pipeline6):
        g0 = pipeline6.g_series(0)
        assert g0.vdegree == 0
        assert all(
            g0.coeff(0).coeff(n) == (2 ** (n - 1) if n >= 3 else 0)
            for n in range(pipeline6.order + 1)
        )

    def test_r1_x4_row(self, pipeline6):
        g1 = pipeline6.g_series(1)
        assert g1.coeff(0).coeff(4) == 4
        assert g1.coeff(1).coeff(4) == 6

    @pytest.mark.parametrize("r", range(0, 5))
    def test_degree_and_low_order(self, pipeline6, table, r):
        g = pipeline6.g_series(r)
        assert g.vdegree == (r if r >= 1 else 0)
        for k in range(g.vdegree + 1):
            assert all(g.coeff(k).coeff(m) == 0 for m in range(r + 3))
        # the series starts at x^(r+3) exactly
        assert sum(g.coeff(k).coeff(r + 3) for k in range(g.vdegree + 1)) > 0

    @pytest.mark.parametrize("r", range(1, 4))
    def test_parity(self, pipeline6, r):
        g = pipeline6.g_series(r)
        for k in range(g.vdegree + 1):
            assert all(c % 2 == 0 for c in g.coeff(k).coeffs)

    def test_matches_oracle(self, pipeline6, table):
        import flatperm.perms as perms

        for r in range(0, 4):
            g = pipeline6.g_series(r)
            for n in range(r + 3, 8):
                for i in range(2, r + 3):
                    want = perms.distribution(n, (1, i)).count(r)
                    assert g.coeff(i - 2).coeff(n) == want, (r, n, i)


class TestPPoly:
    def test_p1(self, pipeline6):
        assert pipeline6.p_poly(1) == XVPoly([[2], IntPoly([3, -2]) * T_POLY])

    @pytest.mark.parametrize("r", range(1, 6))
    def test_v_degree(self, pipeline6, r):
        assert pipeline6.p_poly(r).vdegree == r

    def test_r0_rejected(self, pipeline6):
        with pytest.raises(ValueError):
            pipeline6.p_poly(0)


class TestCTable:
    def test_r1(self, pipeline6):
        ct = pipeline6.c_table(1)
        assert ct[0] == IntPoly([1])
        assert ct[1] == IntPoly([3, -2])

    @pytest.mark.parametrize("r", range(1, 4))
    def test_matches_reference(self, pipeline6, r):
        ct = pipeline6.c_table(r)
        assert [list(p.coeffs) for p in ct.polys] == REFERENCE_CTABLES[r]

    @pytest.mark.parametrize("r", range(1, 6))
    def test_value_at_half(self, pipeline6, r):
        assert pipeline6.c_table(r)[0].eval_at(Fraction(1, 2)) == Fraction(2) ** (1 - r)

    def test_degree_equalities_at_r4(self, pipeline6):
        ct = pipeline6.c_table(4)
        assert ct[0].degree == 11
        assert [ct[ell].degree for ell in range(1, 5)] == [10, 8, 6, 4]


class TestRationalForm:
    def test_r0_special_case(self, pipeline6):
        gf = pipeline6.rational_gf(0)
        assert gf.numerator == XVPoly([IntPoly.term(4, 3)])
        assert (gf.s_power, gf.t_power) == (0, 1)

    def test_r1_shape(self, pipeline6):
        gf = pipeline6.rational_gf(1)
        assert (gf.s_power, gf.t_power) == (1, 2)
        assert gf.numerator == pipeline6.p_poly(1).shift_x(4) * 2

    @pytest.mark.parametrize("r", range(0, 4))
    def test_round_trip(self, pipeline6, r):
        gf = pipeline6.rational_gf(r)  # construction re-expands and compares
        assert gf.expand(12).matches(pipeline6.g_series(r))


class TestIdentities:
    @pytest.mark.parametrize("r", range(0, 4))
    def test_functional_equation(self, pipeline6, r):
        assert pipeline6.check_functional_equation(r)

    @pytest.mark.parametrize("r", range(0, 4))
    def test_kernel_root(self, pipeline6, r):
        assert pipeline6.check_kernel_root(r)


class TestStructureReport:
    def test_r_le_4(self, pipeline6):
        report = pipeline6.verify_structure(4)
        assert report.passed
        entry = report.entries[-1]
        assert entry.r == 4
        assert entry.top_row_positive and entry.witness_counts_ok

    def test_below_threshold_not_asserted(self, pipeline6):
        report = pipeline6.verify_structure(2)
        assert all(e.top_row_positive is None for e in report.entries)


class TestPipelineGuards:
    def test_r_out_of_range(self, pipeline6):
        with pytest.raises(ValueError):
            pipeline6.g_series(7)

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            Pipeline(r_max=4, order=5)

    def test_order_guard_is_4r_plus_3(self):
        with pytest.raises(ValueError):
            Pipeline(r_max=4, order=18)
        assert Pipeline(r_max=4, order=19).c_table(4).polys == tuple(
            IntPoly(cs) for cs in REFERENCE_CTABLES[4]
        )

    def test_table_choice(self, table):
        own = Pipeline(r_max=3)
        assert own.table.q_top == 3
        assert Pipeline(r_max=3, table=table).table is table
        assert table.q_top is None
