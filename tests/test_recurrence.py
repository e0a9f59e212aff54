from __future__ import annotations

import math
from fractions import Fraction

import pytest

from flatperm import perms
from flatperm.algebra import ConsistencyError, IntPoly, XSeries
from flatperm.checks import a_sum
from flatperm.recurrence import (
    GTable,
    a_poly,
    a_rows,
    avoider_count,
    average_occurrences,
    b_poly,
    b_poly_alt,
    harmonic,
    verify_a_closed_form,
)

Q = IntPoly([0, 1])
ONE_MINUS_Q = IntPoly([1, -1])


class TestBTable:
    def test_b32(self):
        assert b_poly(3, 2) == IntPoly([2])

    @pytest.mark.parametrize("n", range(3, 13))
    def test_top_column_is_two(self, n):
        assert b_poly(n, n - 1) == IntPoly([2])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_first_column_is_n(self, n):
        assert b_poly(n, 1) == IntPoly([n])

    def test_two_routes_agree(self):
        for n in range(2, 15):
            for j in range(1, n):
                assert b_poly(n, j) == b_poly_alt(n, j), (n, j)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            b_poly(4, 4)


class TestATable:
    def test_first_rows(self):
        assert a_poly(2, 1) == IntPoly([1])
        assert a_poly(3, 1) == IntPoly([1])
        assert a_poly(3, 2) == IntPoly([2])
        assert a_poly(4, 2) == IntPoly([3, 2])
        assert a_poly(4, 3) == IntPoly([2])

    def test_vanishes_outside_range(self):
        for k in range(2, 10):
            assert a_poly(k, 0) == IntPoly()
            assert a_poly(k, k) == IntPoly()
            assert a_poly(k, k + 3) == IntPoly()

    def test_first_column_is_one(self):
        for k in range(2, 13):
            assert a_poly(k, 1) == IntPoly([1])

    def test_rows_hold_every_entry(self):
        rows = a_rows(12)
        assert rows[:2] == [[], []]
        for k in range(2, 13):
            assert rows[k] == [a_poly(k, j) for j in range(1, k)]

    def test_bad_index(self):
        with pytest.raises(ValueError):
            a_poly(1, 1)


class TestGTable:
    def test_base_values(self, table):
        assert table.g(1) == IntPoly([1])
        assert table.g(2) == IntPoly([2])
        assert table.g(3) == IntPoly([4, 2])
        assert table.g(4) == IntPoly([8, 10, 6])

    def test_prefix_base_values(self, table):
        assert table.g1k(3, 2) == IntPoly([4])
        assert table.g1k(3, 3) == IntPoly([0, 2])
        assert table.g1k(4, 3) == IntPoly([0, 6])

    def test_mass_and_nonnegativity(self, table):
        for n in range(1, 13):
            g = table.g(n)
            assert sum(g.coeffs) == math.factorial(n)
            assert all(c >= 0 for c in g.coeffs)

    def test_prefix_polynomials_sum_to_g(self, table):
        for n in range(2, 13):
            total = IntPoly()
            for k in range(2, n + 1):
                total = total + table.g1k(n, k)
            assert total == table.g(n)

    def test_prefix12_doubles(self, table):
        for n in range(2, 13):
            assert table.g1k(n, 2) == table.g(n - 1) * 2

    def test_oracle_agreement_small(self, table):
        for n in range(1, 8):
            assert perms.distribution(n).coeff_list() == list(table.g(n).coeffs)
            for k in range(2, n + 1):
                assert perms.distribution(n, (1, k)).coeff_list() == list(
                    table.g1k(n, k).coeffs
                )

    def test_three_term_recurrence(self, table):
        for n in range(5, 13):
            for k in range(5, n + 1):
                rhs = (
                    IntPoly([1, 1]) * table.g1k(n, k - 1)
                    - Q * table.g1k(n, k - 2)
                    - ONE_MINUS_Q * table.g1k(n - 1, k - 1)
                )
                assert table.g1k(n, k) == rhs, (n, k)

    def test_initial_forms(self, table):
        for n in range(3, 13):
            assert table.g1k(n, 3) == table.g(n - 1) - 2 * ONE_MINUS_Q * table.g(n - 2)
        for n in range(4, 13):
            want = (
                table.g(n - 1)
                - ONE_MINUS_Q * IntPoly([3, 2]) * table.g(n - 2)
                + 2 * ONE_MINUS_Q * ONE_MINUS_Q * table.g(n - 3)
            )
            assert table.g1k(n, 4) == want

    def test_prefix_recurrence(self, table):
        for n in range(3, 13):
            for i in range(3, n + 1):
                rhs = table.g(n - 1)
                for j in range(2, i):
                    rhs = rhs + (IntPoly.term(1, i - j) - IntPoly([1])) * table.g1k(n - 1, j)
                assert table.g1k(n, i) == rhs, (n, i)

    def test_parity(self, table):
        for n in range(2, 13):
            for k in range(2, n + 1):
                poly = table.g1k(n, k)
                assert all(poly[r] % 2 == 0 for r in range(1, poly.degree + 1)), (n, k)


class TestShortRules:
    """The rows g_n(12), g_n(13), ... grown by the short rules against the
    a-sum reference kept in ``checks``."""

    def test_rows_match_a_sum_in_full(self, table):
        a = a_rows(30)
        for n in range(3, 31):
            for k in range(3, n + 1):
                assert table.g1k(n, k) == a_sum(table, n, a[k]), (n, k)

    @pytest.mark.parametrize("top", [0, 1, 5, 12])
    def test_rows_match_a_sum_when_cut(self, top):
        cut, a = GTable(30, q_top=top), a_rows(30)
        for n in range(3, 31):
            for k in range(3, n + 1):
                got, want = cut.g1k(n, k), a_sum(cut, n, a[k])
                assert isinstance(want, XSeries) and got == want, (n, k)

    def test_rows_grow_only_as_far_as_asked(self):
        table = GTable(12)
        table.g1k(12, 4)
        assert len(table._rows[12]) == 3
        assert table.g1k(12, 6) == a_sum(table, 12, a_rows(6)[6])
        assert len(table._rows[12]) == 5


class TestCoefficients:
    def test_examples(self, table):
        assert table.coeff(3, 1, 3) == 2
        assert table.coeff(6, 0) == 32

    def test_vanishing_for_large_prefix_letter(self, table):
        for n in range(3, 11):
            for r in range(0, 5):
                for k in range(r + 3, n + 1):
                    assert table.coeff(n, r, k) == 0, (n, r, k)

    def test_k_beyond_n_is_zero(self, table):
        assert table.coeff(4, 1, 9) == 0


class TestTruncatedTable:
    @pytest.mark.parametrize("top", [0, 1, 5, 12])
    def test_agrees_with_full_table(self, table, top):
        cut = GTable(30, q_top=top)
        cases = [((n,), cut.g(n), table.g(n)) for n in range(1, 31)] + [
            ((n, k), cut.g1k(n, k), table.g1k(n, k)) for n in range(2, 31) for k in range(2, n + 1)
        ]
        for where, got, want in cases:
            # An XSeries of order top stores exactly q^0 .. q^top.
            assert isinstance(got, XSeries) and got.order == top, where
            assert [got[r] for r in range(top + 1)] == [want[r] for r in range(top + 1)], where

    def test_coeff_above_q_top_raises(self):
        cut = GTable(8, q_top=3)
        assert cut.coeff(8, 3, 5) == GTable(8).coeff(8, 3, 5)
        with pytest.raises(IndexError):
            cut.coeff(8, 4)
        with pytest.raises(IndexError):
            cut.coeff(8, 4, 5)
        with pytest.raises(IndexError):
            cut.coeff(4, 4, 9)

    def test_rejects_negative_q_top(self):
        with pytest.raises(ValueError):
            GTable(2, q_top=-1)

    def test_truncated_b_rows(self):
        for n in range(2, 15):
            for j in range(1, n):
                assert b_poly(n, j, 2) == IntPoly(b_poly(n, j).coeffs[:3]), (n, j)


class TestAvoiders:
    def test_examples(self):
        assert avoider_count(1) == 1
        assert avoider_count(5) == 16

    def test_powers_of_two(self):
        for n in range(1, 31):
            assert avoider_count(n) == 2 ** (n - 1)

    def test_oracle_agreement(self):
        for n in range(1, 8):
            assert avoider_count(n) == perms.distribution(n).count(0)

    def test_matches_rational_reference(self):
        for n in range(1, 61):
            assert avoider_count(n) == _avoider_count_fraction(n), n


def _avoider_count_fraction(n: int) -> Fraction:
    """The q = 0 recurrence with b_{m,j}(0) = ((m-1+j)/j) C(m-2, j-1) formed
    over Fractions: the reference for the integer form in avoider_count."""
    f = [Fraction(1)]
    for m in range(2, n + 1):
        f.append(sum(
            Fraction(m - 1 + j, j) * math.comb(m - 2, j - 1) * (-1) ** (j - 1) * f[m - 1 - j]
            for j in range(1, m)
        ))
    return f[n - 1]


class TestAverage:
    def test_small_values(self, table):
        assert average_occurrences(1, table) == 0
        assert average_occurrences(2, table) == 0
        assert average_occurrences(3, table) == Fraction(1, 3)

    def test_closed_form_through_20(self, table):
        for n in range(1, 21):
            value = average_occurrences(n, table)
            assert value == Fraction(n * n + 3 * n + 8, 12) - harmonic(n)

    def test_oracle_agreement(self, table):
        for n in range(1, 8):
            d = perms.distribution(n)
            mean = Fraction(
                sum(r * c for r, c in d.counts.items()), math.factorial(n)
            )
            assert mean == average_occurrences(n, table)


class TestClosedForm:
    def test_matches_through_12(self, table):
        report = verify_a_closed_form(12, 12)
        assert report.passed, report.mismatches[:3]

    def test_b_column_sum_example(self):
        # b(7,6) as a column sum over the a-table equals the direct value.
        total = IntPoly()
        for k in range(2, 8):
            total = total + a_poly(k, 6)
        assert total == b_poly(7, 6) == IntPoly([2])


def test_negative_coefficient_is_loud():
    with pytest.raises((ConsistencyError, ValueError)):
        avoider_count(0)
