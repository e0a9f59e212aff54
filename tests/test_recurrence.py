from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

import pytest

from flatperm import perms, recurrence
from flatperm.algebra import ConsistencyError, IntPoly
from flatperm.checks import a_sum
from flatperm.insertion import InsertionCount
from flatperm.recurrence import (
    GTable,
    a_rows,
    avoider_count,
    average_occurrences,
    b_poly,
    b_poly_alt,
    harmonic,
    verify_a_closed_form,
)
from packed_reference import packed_dot

Q = IntPoly([0, 1])
ONE_MINUS_Q = IntPoly([1, -1])
Q_MINUS_1 = IntPoly([-1, 1])


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
        rows = a_rows(4)
        assert rows[2] == [IntPoly([1])]
        assert rows[3] == [IntPoly([1]), IntPoly([2])]
        assert rows[4][1] == IntPoly([3, 2])
        assert rows[4][2] == IntPoly([2])

    def test_first_column_is_one(self):
        rows = a_rows(12)
        for k in range(2, 13):
            assert rows[k][0] == IntPoly([1])

    def test_rows_hold_every_entry(self):
        rows = a_rows(12)
        assert rows[:2] == [[], []]
        for k in range(2, 13):
            assert len(rows[k]) == k - 1
            assert a_rows(k) == rows[: k + 1]


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

    def test_column_matches_schoolbook_b_sum(self):
        full, want = GTable(60), _b_sum_column(60)
        for n in range(1, 61):
            assert full.g(n) == want[n], n

    def test_column_matches_triple_product_packed_dot(self):
        """The packed Horner b-sum against the triple-product reference,
        which packs each (q-1)^(j-1) and sums n - 1 triple products."""
        full, qm1 = GTable(30), [IntPoly([1])]
        for m in range(2, 31):
            qm1.append(qm1[-1] * IntPoly([-1, 1]))
            want = packed_dot((qm1[j - 1], b_poly(m, j), full.g(m - j)) for j in range(1, m))
            assert full.g(m) == want == _b_sum_column(30)[m], m

    @pytest.mark.parametrize("b_71, message", [
        (IntPoly([-7]), "g_7 has a negative coefficient"),
        (IntPoly([8]), "g_7(1) != 7!"),
    ])
    def test_corrupted_b_row_is_caught(self, monkeypatch, b_71, message):
        """b_{7,1} = -7 makes g_7 = true g_7 - 14 g_6, whose constant term
        64 - 14*32 is negative; b_{7,1} = 8 adds g_6, which keeps every
        coefficient nonnegative but adds 6! to the mass."""
        real = recurrence.b_poly

        def corrupted(n, j, top=None):
            return b_71 if (n, j) == (7, 1) else real(n, j, top)

        monkeypatch.setattr(recurrence, "b_poly", corrupted)
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            GTable(9)

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

    # The short rules as products of polynomials, against the table's
    # fused passes.

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
            assert table.g1k(n, 3) == table.g(n - 1) - 2 * ONE_MINUS_Q * table.g(n - 2), n
        for n in range(4, 13):
            want = (
                table.g(n - 1)
                - ONE_MINUS_Q * IntPoly([3, 2]) * table.g(n - 2)
                + 2 * ONE_MINUS_Q * ONE_MINUS_Q * table.g(n - 3)
            )
            assert table.g1k(n, 4) == want, n

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
    """The rows g_n(12), g_n(13), ... grown by the short rules, and those
    of the insertion count cut at q^top, against the a-sum reference
    kept in ``checks``."""

    def test_rows_match_a_sum_in_full(self, table):
        a = a_rows(30)
        for n in range(3, 31):
            for k in range(3, n + 1):
                assert table.g1k(n, k) == a_sum(table, n, a[k]), (n, k)

    def test_a_sum_matches_the_factor_form(self, table):
        """The a-sum by Horner's rule in q - 1 against the sum of the
        factors a_{k,j} (q-1)^(j-1) g_{n-j}, each power formed whole."""
        a = a_rows(14)
        for n in range(3, 15):
            for k in range(3, n + 1):
                want = IntPoly()
                for j, a_kj in enumerate(a[k], 1):
                    want = want + a_kj * Q_MINUS_1 ** (j - 1) * table.g(n - j)
                assert a_sum(table, n, a[k]) == want, (n, k)

    @pytest.mark.parametrize("top", [0, 1, 5, 12])
    def test_rows_match_a_sum_when_cut(self, table, top):
        cut, a = InsertionCount(top, 30), a_rows(30)
        for n in range(3, 31):
            for k in range(3, n + 1):
                want = a_sum(table, n, a[k])
                assert _cut_g1k(cut, n, k) == [want[r] for r in range(top + 1)], (n, k)

    def test_rows_grow_only_as_far_as_asked(self):
        table = GTable(12)
        table.g1k(12, 4)
        assert len(table._rows[12]) == 3
        assert table.g1k(12, 6) == a_sum(table, 12, a_rows(6)[6])
        assert len(table._rows[12]) == 5


class TestCoefficients:
    def test_examples(self, table):
        assert table.coeff(3, 1, 3) == 2
        assert table.g(6)[0] == 32

    def test_vanishing_for_large_prefix_letter(self, table):
        """q^(k-2) divides g_n(1k), as the insertion count's
        g_n(1k) = q^(k-2) f(n-2, k-2) says."""
        for n in range(3, 31):
            for k in range(3, n + 1):
                assert all(table.coeff(n, r, k) == 0 for r in range(k - 2)), (n, k)

    def test_k_beyond_n_is_zero(self, table):
        assert table.coeff(4, 1, 9) == 0


class TestTruncatedTable:
    """Counts cut at q^top: the insertion count, which reads g_n(1k) only
    through q^top, and the cut rows of b_poly."""

    @pytest.mark.parametrize("top", [0, 1, 5, 12, 40])
    def test_agrees_with_full_table(self, table, top):
        """Every g_n(1k), n <= 30, and g_n as their sum."""
        cut = InsertionCount(top, 30)
        for n in range(2, 31):
            total = [0] * (top + 1)
            for k in range(2, n + 1):
                cells, want = _cut_g1k(cut, n, k), table.g1k(n, k)
                assert cells == [want[r] for r in range(top + 1)], (n, k)
                total = [a + b for a, b in zip(total, cells)]
            assert total == [table.g(n)[r] for r in range(top + 1)], n

    def test_coeff_above_q_top_raises(self):
        cut = InsertionCount(3, 8)
        assert cut.column(3, 5, 8) == [GTable(8).coeff(8, 3, 5)]
        with pytest.raises(IndexError):
            cut.column(4, 2, 8)
        with pytest.raises(IndexError):
            cut.column(4, 5, 8)
        with pytest.raises(IndexError):
            cut.column(4, 9, 4)

    @pytest.mark.parametrize("top", [0, 1, 2, 5, 12, 40])
    def test_column_matches_b_sum(self, top):
        """The count's g_n = f(n-1, 0), read as g_(n+1)(12) / 2, against
        the schoolbook b-sum, cut at q^top; q^40 cuts nothing for n <= 13."""
        cut, want = InsertionCount(top, 61), _b_sum_column(60)
        columns = [cut.column(r, 2, 2) for r in range(top + 1)]
        for n in range(1, 61):
            assert [col[n - 1] // 2 for col in columns] == [want[n][r] for r in range(top + 1)], n

    def test_cut_column_forms_no_b_row(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("b_poly called by the insertion count")

        monkeypatch.setattr(recurrence, "b_poly", refuse)
        cut = InsertionCount(12, 60)
        assert cut.n_max == 60 and cut.column(0, 2, 60) == [2**59]

    def test_rejects_negative_q_top(self):
        with pytest.raises(ValueError):
            InsertionCount(-1, 5)

    def test_truncated_b_rows(self):
        for n in range(2, 15):
            for j in range(1, n):
                assert b_poly(n, j, 2) == IntPoly(b_poly(n, j).coeffs[:3]), (n, j)


def _cut_g1k(cut: InsertionCount, n: int, k: int) -> list[int]:
    """[q^r] g_n(1k) for r <= cut.top, as the count's column reads give it."""
    return [cut.column(r, k, n)[0] for r in range(cut.top + 1)]


@functools.lru_cache(maxsize=None)
def _b_sum_column(n_max: int) -> list[IntPoly]:
    """g_1 .. g_n_max by the schoolbook b-sum g_m = sum_j b_{m,j}
    (q-1)^(j-1) g_(m-j): the reference for the full table's packed b-sum
    and for the insertion count's column."""
    zero, one = IntPoly(), IntPoly([1])
    g, qm1 = [zero, one], [one]
    for m in range(2, n_max + 1):
        qm1.append(qm1[-1] * IntPoly([-1, 1]))
        total = zero
        for j in range(1, m):
            total = total + qm1[j - 1] * b_poly(m, j) * g[m - j]
        g.append(total)
    return g


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

    def test_integer_check_gives_the_oracle_total(self, table):
        for n in range(1, 8):
            d = perms.distribution(n)
            assert recurrence.check_average(n, table) == sum(r * c for r, c in d.counts.items())

    def test_integer_check_raises_on_an_off_table(self):
        class OffByTwo(GTable):
            def g(self, n):
                return super().g(n) + IntPoly.term(2, 3)

        with pytest.raises(ConsistencyError, match=r"^average for n=9: table gives \d+/\d+, closed form"):
            recurrence.check_average(9, OffByTwo(9))


class TestClosedForm:
    def test_matches_through_12(self, table):
        assert verify_a_closed_form(12, 12) is None

    def test_first_mismatch_raises_its_index(self, monkeypatch):
        """b_poly_alt off by one at (15, 14) is the one mismatch through 15."""
        real = recurrence.b_poly_alt
        monkeypatch.setattr(recurrence, "b_poly_alt",
                            lambda n, j: real(n, j) + IntPoly([int((n, j) == (15, 14))]))
        message = "b(15,14): column sum IntPoly([2]), b_poly IntPoly([2]), b_poly_alt IntPoly([3])"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            verify_a_closed_form(15, 15)

    @staticmethod
    def _times_denominator(A):
        """The array A multiplied by D = 1 - (1+q)x + qx^2 - xy, entry by
        entry, through the corner of A."""
        D = {(0, 0): IntPoly([1]), (1, 0): IntPoly([-1, -1]), (2, 0): Q, (1, 1): IntPoly([-1])}
        return [
            [
                sum((d * A[i - di][j - dj] for (di, dj), d in D.items() if di <= i and dj <= j), IntPoly())
                for j in range(len(A[i]))
            ]
            for i in range(len(A))
        ]

    @staticmethod
    def _numerator():
        """N = 1 - qx + xy as an array through x^13 y^13."""
        N = {(0, 0): IntPoly([1]), (1, 0): IntPoly([0, -1]), (1, 1): IntPoly([1])}
        return [[N.get((i, j), IntPoly()) for j in range(14)] for i in range(14)]

    def test_series_times_denominator_is_numerator(self):
        """A(x, y) D = N through x^13 y^13, read with no a_{k,j}."""
        assert self._times_denominator(recurrence._a_series(13, 13)) == self._numerator()

    def test_series_off_by_one_does_not_multiply_back(self):
        A = recurrence._a_series(13, 13)
        A[7][4] = A[7][4] + IntPoly([1])
        assert self._times_denominator(A) != self._numerator()

    def test_b_column_sum_example(self):
        # b(7,6) as a column sum over the a-table equals the direct value.
        total = sum((row[5] for row in a_rows(7) if len(row) > 5), IntPoly())
        assert total == b_poly(7, 6) == IntPoly([2])


def test_negative_coefficient_is_loud():
    with pytest.raises((ConsistencyError, ValueError)):
        avoider_count(0)
