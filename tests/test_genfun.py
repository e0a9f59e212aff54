from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import pytest

from flatperm import constructions, perms
from flatperm._reference import REFERENCE_CTABLES
from flatperm import algebra, genfun
from flatperm.cli import PIPELINE_RMAX
from flatperm.algebra import (
    ConsistencyError,
    InexactDivisionError,
    IntPoly,
    RationalGF,
    VPoly,
    XSeries,
)
from flatperm.genfun import S_POLY, T_POLY, BoundaryData, Pipeline, t_poly
from flatperm.insertion import InsertionCount
from flatperm.recurrence import GTable
from series_reference import SeriesPipeline, columns, expand_by_products


def _plain(gf: RationalGF, order: int) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, gf.expand_coeffs(order)))


class TestTPoly:
    def test_smallest(self):
        th = t_poly(1)
        assert (th.numerator, th.s_power, th.t_power) == ((IntPoly([0, 2]), T_POLY), 0, 0)

    @pytest.mark.parametrize("h", range(1, 9))
    def test_coefficient_structure(self, h):
        th = t_poly(h)
        assert (th.vdegree, th.s_power, th.t_power) == (h, 0, 0)
        assert th.numerator[0] == IntPoly([0, 2])
        assert th.numerator[h] == T_POLY * S_POLY ** (h - 1)
        for i in range(1, h):
            assert th.numerator[i] == T_POLY * S_POLY ** (i - 1) * IntPoly([0, 1])

    def test_rejects_h_zero(self):
        with pytest.raises(ValueError):
            t_poly(0)


def _inner_cells(r: int):
    """The (n, j, k) of the inner boundary cells g_{n+3,j}(1k) of G_r."""
    return [(n, j, k) for n in range(r - 1) for j in range(n + 1) for k in range(2, j + 3)]


def _odd_table(*cells):
    """A full GTable(9) whose coefficient at each (n, r, k) in cells is 1
    too large."""

    class Odd(GTable):
        def coeff(self, n, r, k=None):
            return super().coeff(n, r, k) + ((n, r, k) in cells)

    return Odd(9)


class TestBoundary:
    def test_r0(self, pipeline6):
        bd = pipeline6.boundary(0)
        assert bd.top_row == (2,)
        assert bd.inner == ((),)

    def test_r1(self, pipeline6):
        assert pipeline6.boundary(1).top_row == (0, 2)
        assert pipeline6.boundary(1).inner == ((), ())

    def test_r4_parity_and_positivity(self, pipeline6):
        bd = pipeline6.boundary(4)
        assert all(c % 2 == 0 and c >= 1 for c in bd.top_row)
        assert all(pipeline6.table.coeff(n + 3, j, k) % 2 == 0 for n, j, k in _inner_cells(4) if j >= 1)

    def test_oracle_cross_check(self, table):
        for r in (2, 4):
            bd = Pipeline(r_max=r, table=table).boundary(r)
            assert bd.top_row == tuple(perms.distribution(r + 2, (1, i)).count(r) for i in range(2, r + 3))
            want = [[0] * (r - 1) for _ in range(r + 1)]  # [h][n], summed cell by cell
            for n, j, k in _inner_cells(r):
                want[r - j + k - 2][n] += perms.distribution(n + 3, (1, k)).count(j)
            assert bd.inner == tuple(map(tuple, want)), r
            assert bd.top_row[0] == table.coeff(r + 2, r, 2)

    def test_each_cell_read_once(self, monkeypatch):
        """A derivation reads each boundary cell once: c_table(12) reads
        the r + 1 top-row cells of each 1 <= r <= 12 and the inner cells
        of the layers n <= 10, 90 + 286 = 376 ``GTable.coeff`` calls, and
        the boundary data of every r <= 12 adds only the top cell of r = 0."""
        real, calls = GTable.coeff, []

        def counted(self, n, r, k=None):
            calls.append((n, r, k))
            return real(self, n, r, k)

        monkeypatch.setattr(GTable, "coeff", counted)
        pl = Pipeline(12)
        pl.c_table(12)
        assert len(calls) == len(set(calls)) == 376
        for r in range(13):
            pl.boundary(r)
        assert len(calls) == len(set(calls)) == 377

    def test_layers_grow_with_r(self, table):
        """Boundary data for r and then r + 1 agree with one read at r + 1
        alone: each r adds one layer to the sums."""
        grown = Pipeline(r_max=7, table=table)
        for r in range(8):
            assert grown.boundary(r) == Pipeline(r_max=r, table=table).boundary(r)

    def test_odd_inner_cell_raises_on_every_call(self):
        # g_{5,1}(13) is the inner cell (n, j, k) = (2, 1, 3), first read for r = 4.
        pl = Pipeline(r_max=5, table=_odd_table((5, 1, 3)))
        assert pl.boundary(3).inner
        for r in (4, 4, 5):
            message = rf"^odd inner boundary entry for r={r}: g_\{{5,1\}}\(13\) = 15$"
            with pytest.raises(ConsistencyError, match=message):
                pl.boundary(r)

    def test_odd_top_row_raised_before_odd_inner_cell(self):
        pl = Pipeline(r_max=4, table=_odd_table((5, 1, 3), (6, 4, 3)))
        message = r"^odd entry in the top boundary row for r=4: g_\{6,4\}\(13\) = 5$"
        with pytest.raises(ConsistencyError, match=message):
            pl.boundary(4)


class TestHLayer:
    @staticmethod
    def _polynomial(gf: RationalGF) -> tuple[IntPoly, ...]:
        """The numerator of gf, which must be a polynomial over s^0 t^0."""
        assert (gf.s_power, gf.t_power) == (0, 0)
        return gf.numerator

    def test_h0(self, pipeline6):
        assert self._polynomial(pipeline6.h_poly(0)) == (IntPoly([4]), IntPoly([-4]))

    def test_h1(self, pipeline6):
        # 2x (1 - v)(2 + v)
        assert self._polynomial(pipeline6.h_poly(1)) == RationalGF([[0, 4], [0, -2], [0, -2]]).numerator

    def test_h2(self, pipeline6):
        assert self._polynomial(pipeline6.h_poly(2)) == RationalGF(
            [[0, 0, 12], [0, 0, -6], [0, -4], [0, 4, -6]]
        ).numerator

    def test_htilde_r0_is_4_over_t(self, pipeline6):
        ht = pipeline6.htilde_over_kernel(0)
        assert ht == RationalGF([[4]], 0, 1)
        assert ht.expand_coeffs(4) == [[4, 8, 16, 32, 64]]

    def test_htilde_r1(self, pipeline6):
        # 2x (2 + t v) / (s t)
        ht = pipeline6.htilde_over_kernel(1)
        assert ht.vdegree == 1
        assert ht == RationalGF([[0, 4], T_POLY * IntPoly([0, 2])], 1, 1)

    @pytest.mark.parametrize("r", range(0, 5))
    def test_dual_routes_never_disagree(self, pipeline6, r):
        pipeline6.htilde_over_kernel(r)  # raises on mismatch

    @pytest.mark.parametrize("r", range(0, 13))
    def test_route_one_grouped_by_h_matches_per_cell(self, table, r):
        pl = Pipeline(r_max=r, table=table)
        assert pl.htilde_over_kernel(r) == _route_one_per_cell(pl, r)

    def test_corrupted_top_row_makes_routes_disagree(self, table, monkeypatch):
        # Route one reads the top row entry by entry; route two reads it
        # through H_r, so a changed entry is seen by route one alone.
        real = BoundaryData.top
        monkeypatch.setattr(BoundaryData, "top", lambda bd, i: real(bd, i) + 2 * (i == 3))
        with pytest.raises(ConsistencyError, match="routes to H~_3/\\(1-sv\\) disagree"):
            Pipeline(r_max=3, table=table).htilde_over_kernel(3)


def _route_one_per_cell(pl: Pipeline, r: int) -> RationalGF:
    """Route one to H~_r/(1 - sv) with one T_h multiply per inner boundary
    cell, summed in cell order: the reference for the column-by-column
    form in Pipeline.htilde_over_kernel."""
    total = RationalGF()
    for i in range(2, r + 3):
        vpart = [IntPoly([2, -2])] + [T_POLY * S_POLY**k for k in range(1, i - 1)]
        total = total + RationalGF(vpart, i - 1, 1).shift(x=r) * pl.table.coeff(r + 2, r, i)
    for m, j, k in _inner_cells(r):
        h = r - j + k - 2
        total = total - (t_poly(h) * IntPoly.term(pl.table.coeff(m + 3, j, k), m + 1)).over(h, 1)
    return total


class TestKernelStep:
    """Each step keeps K_r over s^(2r-1) t^r, and divides the kernel out
    of a bracket already over G_r's denominator s^(2r-1) t^(r+1)."""

    def test_denominators_stay_reduced(self, table, monkeypatch):
        divided = []
        real = RationalGF.div_kernel

        def spy(self):
            divided.append((self.s_power, self.t_power))
            return real(self)

        monkeypatch.setattr(RationalGF, "div_kernel", spy)
        pl = Pipeline(r_max=10, table=table)
        for r in range(1, 11):
            divided.clear()
            pl.g_exact(r)
            k_sum = pl._k_sum
            assert (k_sum.s_power, k_sum.t_power) == (2 * r - 1, r)
            direct = RationalGF()
            for j in range(r):
                direct = direct + pl.g_exact(j).at_v_sinv().over(r - j)
            assert k_sum == direct
            assert (2 * r - 1, r + 1) in divided
            assert max(s for s, _ in divided) == 2 * r - 1
            g = pl.g_exact(r)
            assert (g.s_power, g.t_power) == (2 * r - 1, r + 1)

    @pytest.mark.parametrize("r", [3, 4, 6])
    def test_perturbed_numerator_fails_the_k_division(self, table, r):
        pl = Pipeline(r_max=r, table=table)
        prev = pl.g_exact(r - 1)
        cols = list(prev.numerator)
        cols[-1] = cols[-1] + IntPoly.term(2, r + 3)
        pl._g[-1] = RationalGF(cols, prev.s_power, prev.t_power)
        with pytest.raises(ConsistencyError, match=rf"G_{r - 1}\(x, 1/s\) does not divide down"):
            pl.g_exact(r)


class TestGSeries:
    def test_r0(self, pipeline6):
        assert pipeline6.g_series(0) == (
            tuple(2 ** (n - 1) if n >= 3 else 0 for n in range(pipeline6.order + 1)),
        )

    def test_r1_x4_row(self, pipeline6):
        g1 = pipeline6.g_series(1)
        assert g1[0][4] == 4
        assert g1[1][4] == 6

    @pytest.mark.parametrize("r", range(0, 5))
    def test_degree_and_low_order(self, pipeline6, table, r):
        g = pipeline6.g_series(r)
        assert len(g) - 1 == (r if r >= 1 else 0)
        for coeffs in g:
            assert len(coeffs) == pipeline6.order + 1
            assert all(coeffs[m] == 0 for m in range(r + 3))
        # the series starts at x^(r+3) exactly
        assert sum(coeffs[r + 3] for coeffs in g) > 0

    @pytest.mark.parametrize("r", range(1, 4))
    def test_parity(self, pipeline6, r):
        for coeffs in pipeline6.g_series(r):
            assert all(c % 2 == 0 for c in coeffs)

    def test_matches_oracle(self, pipeline6, table):
        for r in range(0, 4):
            g = pipeline6.g_series(r)
            for n in range(r + 3, 8):
                for i in range(2, r + 3):
                    want = perms.distribution(n, (1, i)).count(r)
                    assert g[i - 2][n] == want, (r, n, i)


class TestPPoly:
    def test_p1(self, pipeline6):
        assert pipeline6.p_poly(1) == (IntPoly([2]), IntPoly([3, -2]) * T_POLY)

    @pytest.mark.parametrize("r", range(1, 6))
    def test_v_degree(self, pipeline6, r):
        p = pipeline6.p_poly(r)
        assert len(p) == r + 1 and p[r] and all(type(col) is IntPoly for col in p)

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
        assert [list(p.coeffs) for p in ct] == REFERENCE_CTABLES[r]

    @pytest.mark.parametrize("r", range(1, 6))
    def test_value_at_half(self, pipeline6, r):
        c0 = pipeline6.c_table(r)[0].coeffs
        assert sum(c * Fraction(1, 2) ** k for k, c in enumerate(c0)) == Fraction(2) ** (1 - r)

    def test_degree_equalities_at_r4(self, pipeline6):
        ct = pipeline6.c_table(4)
        assert ct[0].degree == 11
        assert [ct[ell].degree for ell in range(1, 5)] == [10, 8, 6, 4]


    @pytest.fixture(scope="class")
    def pipeline12(self, table):
        return Pipeline(12, table=table)

    def test_matches_divexact_decomposition(self, pipeline12):
        """c_table brings each column of P_r from s^(l-1) t^l to s^0 t^0
        with RationalGF.with_denominator; the reference divides by
        s^(l-1) t^l in one IntPoly.divexact."""
        for r in range(1, 13):
            p = pipeline12.p_poly(r)
            want = [p[0].divexact_const(2)] + [
                p[ell].divexact(S_POLY ** (ell - 1) * T_POLY**ell) for ell in range(1, r + 1)
            ]
            assert list(pipeline12.c_table(r)) == want, r

    @pytest.mark.parametrize("ell", range(5))
    def test_off_by_one_column_raises(self, table, monkeypatch, ell):
        """[x^0 v^ell] P_4 one too large: c_(4,0) is then not an integer
        (ell = 0), or p_ell is not divisible by s^(ell-1) t^ell."""
        real = Pipeline.p_poly

        def off_by_one(self, r):
            cols = list(real(self, r))
            cols[ell] = cols[ell] + IntPoly([1])
            return tuple(cols)

        monkeypatch.setattr(Pipeline, "p_poly", off_by_one)
        with pytest.raises(InexactDivisionError):
            Pipeline(4, table=table).c_table(4)

    def test_zero_column_gives_the_zero_polynomial(self, table):
        """A zero [v^2] P_3 has an empty numerator over s t^2; its c column
        is the zero polynomial, and the rebuild reads it back as zero.  The
        degree pattern is exact only from r = 4, so nothing else raises."""
        pl = Pipeline(3, table=table)
        p = list(pl.p_poly(3))
        p[2] = IntPoly()
        pl._p[3] = tuple(p)
        assert pl.c_table(3)[2] == IntPoly()


def _c_top(r: int) -> list[int]:
    """The coefficients of c_{r,r}(x) = sum_{k=0}^{r} (-1)^k C(r+k, k)
    C(2r+1, r-k) x^k, the closed form of the top column of P_r."""
    return [(-1) ** k * math.comb(r + k, k) * math.comb(2 * r + 1, r - k) for k in range(r + 1)]


def _q0_slice(m_max: int) -> list[list[int]]:
    """f0(m, p) for m <= m_max and p <= m: the insertion recurrence at
    q = 0, where T vanishes, f0(0, 0) = 1 and
    f0(m, p) = 2 f0(m-1, 0) + sum_{p'=1}^{min(p, m-1)} f0(m-1, p')."""
    rows = [[1]]
    for m in range(1, m_max + 1):
        prev, s, row = rows[-1], 0, []
        for p in range(m + 1):
            if 1 <= p <= m - 1:
                s += prev[p]
            row.append(2 * prev[0] + s)
        rows.append(row)
    return rows


class TestTopColumn:
    """[v^r] G_r = 2 x^(r+3) c_{r,r}(x) / ((1-x)^r (1-2x)) counts the
    flattenings that start 1, r+2 with exactly r occurrences: the ascent
    1, r+2 makes all r of them, so the column is the q = 0 slice of the
    insertion count, [x^n] = f0(n-2, r)."""

    def test_closed_form_matches_the_pipeline_to_the_cap(self):
        pipeline = Pipeline(PIPELINE_RMAX)
        for r in range(1, PIPELINE_RMAX + 1):
            assert pipeline.c_table(r)[r] == IntPoly(_c_top(r)), r

    def test_closed_form_expands_to_the_q0_slice(self):
        """Through n = 60, from n = r + 3: the term at n = r + 2 is
        boundary data, not part of G_r."""
        n_max = 60
        f0 = _q0_slice(n_max - 2)
        for r in range(1, 13):
            series = [0] * (r + 3) + [2 * c for c in _c_top(r)]
            series = series[: n_max + 1] + [0] * (n_max + 1 - len(series))
            for _ in range(r):  # / (1 - x)
                series = list(accumulate(series))
            series = list(accumulate(series, lambda acc, c: 2 * acc + c))  # / (1 - 2x)
            assert series == [0] * (r + 3) + [f0[n - 2][r] for n in range(r + 3, n_max + 1)], r


class TestRationalForm:
    def test_r0_special_case(self, pipeline6):
        gf = pipeline6.rational_gf(0)
        assert gf.numerator == (IntPoly.term(4, 3),)
        assert (gf.s_power, gf.t_power) == (0, 1)

    def test_r1_shape(self, pipeline6):
        gf = pipeline6.rational_gf(1)
        assert (gf.s_power, gf.t_power) == (1, 2)
        assert gf.numerator == tuple(p.shift(4) * 2 for p in pipeline6.p_poly(1))

    @pytest.mark.parametrize("r, k", [(1, 0), (1, 1), (2, 1), (4, 4)])
    def test_closed_form_off_by_one_raises(self, table, monkeypatch, r, k):
        """[x^0 v^k] P_r one too large: the closed form built from it then
        differs from G_r, and only the exact comparison sees that."""
        real = Pipeline.p_poly

        def off_by_one(self, j):
            cols = list(real(self, j))
            cols[k] = cols[k] + IntPoly([1])
            return tuple(cols)

        monkeypatch.setattr(Pipeline, "p_poly", off_by_one)
        with pytest.raises(ConsistencyError, match=rf"closed form of G_{r} differs from G_{r}$"):
            Pipeline(r, table=table).rational_gf(r)

    @pytest.mark.parametrize("r", range(0, 4))
    def test_round_trip(self, pipeline6, r):
        gf = pipeline6.rational_gf(r)  # construction compares it with G_r
        assert _plain(gf, pipeline6.order) == pipeline6.g_series(r)


class TestIdentities:
    """Each identity returns None when it holds and raises a message that
    names G_r when it does not."""

    @pytest.mark.parametrize("r", range(0, 4))
    def test_functional_equation(self, pipeline6, r):
        assert pipeline6.check_functional_equation(r) is None

    @pytest.mark.parametrize("r", range(0, 4))
    def test_kernel_root(self, pipeline6, r):
        assert pipeline6.check_kernel_root(r) is None

    IDENTITY = {
        "check_functional_equation": "the pre-kernel functional equation",
        "check_kernel_root": "the kernel-root identity",
    }

    @pytest.mark.parametrize("check", list(IDENTITY))
    def test_corrupted_g_fails_the_identity(self, table, monkeypatch, check):
        pl = Pipeline(r_max=3, table=table)
        real = pl.g_exact
        bump = RationalGF([IntPoly.term(2, 8)], 5, 4)
        monkeypatch.setattr(pl, "g_exact", lambda j: real(j) + bump if j == 3 else real(j))
        assert getattr(pl, check)(2) is None
        with pytest.raises(ConsistencyError, match=f"^{self.IDENTITY[check]} fails for G_3$"):
            getattr(pl, check)(3)


class TestSeriesReference:
    """The exact route against the truncated-series derivation it replaced."""

    @pytest.fixture(scope="class")
    def pair(self, table):
        pl = Pipeline(r_max=8, table=table)
        return pl, SeriesPipeline(pl)

    @pytest.mark.parametrize("r", range(0, 9))
    def test_same_values(self, pair, r):
        pl, ref = pair
        assert ref.order == 4 * 8 + 10
        g = pl.g_series(r)
        assert all(len(coeffs) == ref.order + 1 for coeffs in g)
        assert g == columns(ref.g_series(r))
        assert _plain(pl.htilde_over_kernel(r), ref.order) == columns(ref.htilde_over_kernel(r))
        gf = pl.rational_gf(r)
        assert _plain(gf, ref.order) == columns(expand_by_products(gf, ref.order))
        if r == 0:
            assert (gf.numerator, gf.s_power, gf.t_power) == ((IntPoly.term(4, 3),), 0, 1)
            return
        p = ref.p_poly(r)
        assert pl.p_poly(r) == p
        assert len(p) == r + 1
        closed = tuple(col.shift(r + 3) * 2 for col in p)
        assert (gf.numerator, gf.s_power, gf.t_power) == (closed, 2 * r - 1, r + 1)
        want = [p[0].divexact_const(2)] + [
            p[ell].divexact(S_POLY ** (ell - 1) * T_POLY**ell) for ell in range(1, r + 1)
        ]
        assert list(pl.c_table(r)) == want


def _refuse(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return fail


def test_exact_route_needs_no_series_arithmetic(table, monkeypatch):
    """With a full table (integer polynomials in q), computing G_r, P_r,
    the c tables and the closed forms forms no series product and divides
    no series."""
    for owner, name in [
        (algebra, "vpoly_div_kernel"),
        (algebra, "xvpoly_extract_from_series"),
        (VPoly, "subst_v"),
        (VPoly, "__mul__"),
        (XSeries, "divexact"),
        (XSeries, "__mul__"),
    ]:
        monkeypatch.setattr(owner, name, _refuse(name))
    pl = Pipeline(r_max=6, table=table)
    assert [list(p.coeffs) for p in pl.c_table(5)] == REFERENCE_CTABLES[5]
    assert len(pl.c_table(6)) == 7  # c_table checks itself and raises on a failure
    assert pl.rational_gf(6).numerator == tuple(p.shift(9) * 2 for p in pl.p_poly(6))


def test_fresh_pipeline_needs_no_series_division(monkeypatch):
    for owner, name in [
        (algebra, "vpoly_div_kernel"),
        (algebra, "xvpoly_extract_from_series"),
        (VPoly, "subst_v"),
        (XSeries, "divexact"),
    ]:
        monkeypatch.setattr(owner, name, _refuse(name))
    pl = Pipeline(r_max=6)
    assert [list(p.coeffs) for p in pl.c_table(5)] == REFERENCE_CTABLES[5]
    assert len(pl.c_table(6)) == 7
    assert pl.rational_gf(6).numerator == tuple(p.shift(9) * 2 for p in pl.p_poly(6))


def test_table_off_by_two_names_the_cell():
    """g_{4,2}(13) is in the top boundary row of G_2; the count then
    disagrees with the G_2 it feeds at its first coefficient."""
    class OffByTwo(GTable):
        def coeff(self, n, r, k=None):
            return super().coeff(n, r, k) + 2 * ((n, r, k) == (4, 2, 3))

    with pytest.raises(ConsistencyError, match=r"G_2 .*\(n=5, r=2, i=2\)"):
        Pipeline(r_max=2, table=OffByTwo(9)).g_exact(2)


def test_count_off_by_two_names_the_cell(monkeypatch):
    class OffByTwo(InsertionCount):
        def column(self, r, k, n_lo):
            cells = super().column(r, k, n_lo)
            if (r, k) == (2, 3) and 0 <= 10 - n_lo < len(cells):
                cells[10 - n_lo] += 2
            return cells

    monkeypatch.setattr(genfun, "InsertionCount", OffByTwo)
    with pytest.raises(ConsistencyError, match=r"G_2 .*\(n=10, r=2, i=3\)"):
        Pipeline(r_max=2, table=GTable(9)).g_exact(2)


def test_count_is_built_at_the_first_cross_check(monkeypatch):
    pl = Pipeline(r_max=3)
    pl.htilde_over_kernel(3)  # boundary data and both H~ routes only
    assert pl._count is None
    pl.g_exact(0)
    assert (pl._count.top, pl._count.n_max) == (3, pl.order)


class TestStructure:
    def test_r_le_4(self, pipeline6):
        for r in range(1, 5):
            pipeline6.c_table(r)  # raises on integrality, v-degree, c_{r,0}(1/2), degrees
        assert all(c >= 1 for c in pipeline6.boundary(4).top_row)
        for i in range(5):
            w = constructions.witness_perm(4, i)
            assert constructions.count_13_2(w) == 4 and w[1] == i + 2


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
        assert Pipeline(r_max=4, order=19).c_table(4) == tuple(
            IntPoly(cs) for cs in REFERENCE_CTABLES[4]
        )

    def test_table_choice(self, table):
        own = Pipeline(r_max=3)
        assert type(own.table) is GTable and own.table.n_max >= 3 + 2
        assert Pipeline(r_max=3, table=table).table is table
