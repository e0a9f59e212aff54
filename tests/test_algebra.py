from __future__ import annotations

import doctest
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatperm import algebra
from flatperm.algebra import (
    ConsistencyError,
    InexactDivisionError,
    IntPoly,
    RationalGF,
    VPoly,
    XSeries,
    numerator_json,
    poly_json,
    vpoly_div_kernel,
    xvpoly_extract_from_series,
)
from packed_reference import packed_dot
from series_reference import columns, expand_by_products

coeffs = st.lists(st.integers(-9, 9), max_size=6)
polys = coeffs.map(IntPoly)

ORDER = 8


def series(cs) -> XSeries:
    return XSeries(cs, ORDER)


series_strategy = st.lists(st.integers(-9, 9), max_size=ORDER + 1).map(series)
unit_series = st.tuples(st.sampled_from([1, -1]), st.lists(st.integers(-9, 9), max_size=ORDER)).map(
    lambda t: XSeries([t[0]] + t[1], ORDER)
)

S_POLY = IntPoly([1, -1])   # s = 1 - x
T_POLY = IntPoly([1, -2])   # t = 1 - 2x
S = XSeries(S_POLY, ORDER)
T = XSeries(T_POLY, ORDER)


def test_docstring_examples():
    assert doctest.testmod(algebra).failed == 0


class TestIntPoly:
    def test_normalization(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).degree == -1
        assert not IntPoly()

    def test_getitem_past_degree(self):
        assert IntPoly([5])[3] == 0

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_divexact_round_trip(self, a, b):
        if not b:
            return
        assert (a * b).divexact(b) == a

    def test_divexact_failure(self):
        with pytest.raises(InexactDivisionError):
            IntPoly([1, 1]).divexact(IntPoly([0, 2]))
        with pytest.raises(InexactDivisionError):
            IntPoly([1]).divexact(IntPoly([0, 1]))

    @given(polys, polys, st.sampled_from([1, -1, 2, -3, 4]), st.booleans())
    def test_divexact_matches_fraction_reference(self, a, b, lead, exact):
        divisor = b + IntPoly.term(lead, b.degree + 1)
        dividend = a * divisor if exact else a
        try:
            want = _divexact_fraction(dividend, divisor)
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError):
                dividend.divexact(divisor)
        else:
            assert dividend.divexact(divisor) == want

    @given(polys, polys)
    def test_sum_and_difference_match_coefficient_loops(self, a, b):
        assert a + b == _loop_combination(a, b, 1)
        assert a - b == _loop_combination(a, b, -1)
        assert -a == _loop_combination(IntPoly(), a, -1)

    @given(st.integers(0, 4), coeffs, coeffs, st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=4))
    def test_cancelling_leading_terms_are_dropped(self, n, lo_a, lo_b, top):
        """a and b share their top coefficients (up to sign), so a - b and
        a + (-b) lose them; the result must be normalized like a loop's."""
        lo_a, lo_b = (lo_a + [0] * n)[:n], (lo_b + [0] * n)[:n]
        a, b, nb = IntPoly(lo_a + top), IntPoly(lo_b + top), IntPoly(lo_b + [-c for c in top])
        for got, want in ((a - b, _loop_combination(a, b, -1)), (a + nb, _loop_combination(a, nb, 1))):
            assert got == want
            assert got.degree < n and (not got.coeffs or got.coeffs[-1])

    @given(polys, st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)))
    def test_product_by_an_integer_matches_a_loop(self, a, k):
        want = IntPoly([c * k for c in a.coeffs])
        assert a * k == k * a == want
        assert (a * k).coeffs == want.coeffs

    def test_pow(self):
        assert IntPoly([-1, 1]) ** 3 == IntPoly([-1, 3, -3, 1])
        assert IntPoly([2]) ** 0 == IntPoly([1])


class TestXSeries:
    def test_known_division(self):
        # 4x^3 / (1 - 2x) at order 5
        quotient = XSeries([0, 0, 0, 4], 5).divexact(XSeries([1, -2], 5))
        assert quotient.coeffs == (0, 0, 0, 4, 8, 16)

    def test_self_division(self):
        assert T.divexact(T).coeffs[0] == 1
        assert all(c == 0 for c in T.divexact(T).coeffs[1:])

    def test_cancellation(self):
        assert (S * T).divexact(T) == S

    @given(series_strategy, unit_series)
    def test_divexact_inverts_multiplication(self, a, b):
        assert (a * b).divexact(b) == a

    @given(series_strategy, series_strategy, series_strategy)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(series_strategy, series_strategy, st.integers(0, ORDER))
    def test_truncation_consistency(self, a, b, m):
        assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)
        assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)

    def test_non_unit_divisor_rejected(self):
        with pytest.raises(ValueError):
            S.divexact(XSeries([2, 1], ORDER))
        with pytest.raises(ValueError):
            S.divexact(XSeries([0, 1], ORDER))

    def test_inverse(self):
        assert S.inverse().coeffs == (1,) * (ORDER + 1)
        assert (S * S.inverse()).coeffs == (1,) + (0,) * ORDER

    def test_divexact_xpow(self):
        assert XSeries([0, 0, 6, 2], 5).divexact_xpow(2).coeffs == (6, 2, 0, 0)
        with pytest.raises(InexactDivisionError):
            XSeries([1, 2], 5).divexact_xpow(1)

    def test_divexact_const(self):
        assert XSeries([2, 4], 3).divexact_const(2).coeffs == (1, 2, 0, 0)
        with pytest.raises(InexactDivisionError):
            XSeries([1, 2], 3).divexact_const(2)

    def test_coeff_beyond_order_raises(self):
        with pytest.raises(IndexError):
            S.coeff(ORDER + 1)
        assert S[ORDER + 1] == 0 and S[1] == S.coeff(1) == -1

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            XSeries([1], -1)

    @given(polys, polys, st.integers(0, 12), st.integers(0, 12))
    def test_mul_is_cut_product(self, a, b, m, n):
        assert a * b == IntPoly(_double_loop_product(a.coeffs, b.coeffs))
        sa, sb = XSeries(a, m), XSeries(b, n)
        assert sa * sb == XSeries((a * b).coeffs, min(m, n))
        assert sa * b == b * sa == XSeries((a * b).coeffs, m)

    @given(polys, polys, st.integers(0, 12))
    def test_mixed_add_sub_give_series(self, a, b, m):
        sa = XSeries(a, m)
        assert sa + b == b + sa == XSeries((a + b).coeffs, m)
        assert sa - b == XSeries((a - b).coeffs, m)
        assert b - sa == XSeries((b - a).coeffs, m)

    def test_matches_uses_common_order(self):
        assert XSeries([1, 2, 3], 2).matches(XSeries([1, 2], 1))
        assert not XSeries([1, 2], 2).matches(XSeries([1, 3], 2))


class TestVPoly:
    def test_kernel_division_round_trip(self):
        c0 = S * 3
        c1 = T
        q = VPoly([c0, c1])
        kernel = VPoly([XSeries.one(ORDER), -S])
        assert vpoly_div_kernel(kernel * q, S, 1).matches(q)

    def test_kernel_division_of_kernel(self):
        kernel = VPoly([XSeries.one(ORDER), -S])
        result = vpoly_div_kernel(kernel, S, 0)
        assert result.vdegree == 0
        assert result.coeff(0).coeffs == (1,) + (0,) * ORDER

    def test_kernel_division_detects_remainder(self):
        bad = VPoly([XSeries.one(ORDER), XSeries.one(ORDER)])
        with pytest.raises(ConsistencyError):
            vpoly_div_kernel(bad, S, 1)

    def test_substitute_geometric(self):
        v = VPoly([XSeries.zero(ORDER), XSeries.one(ORDER)])  # the monomial v
        assert v.subst_v(S.inverse()).coeffs == (1,) * (ORDER + 1)

    def test_substitute_constant(self):
        g0 = VPoly([T.inverse() * 4])
        assert g0.subst_v(S).matches(T.inverse() * 4)

    def test_substitute_scaled(self):
        two_v = VPoly([XSeries.zero(ORDER), XSeries([2], ORDER)])
        expected = S.inverse() * 2
        assert two_v.subst_v(S.inverse()) == expected

    def test_addition_pads(self):
        a = VPoly([S])
        b = VPoly([XSeries.zero(ORDER), T])
        total = a + b
        assert total.coeff(0) == S and total.coeff(1) == T

    def test_normalizes_top_zeros(self):
        p = VPoly([S, XSeries.zero(ORDER)])
        assert p.vdegree == 0


class TestXVPoly:
    """Polynomials in x and v: ``RationalGF`` values over s^0 t^0, their
    numerators' JSON matrix, and the series extraction that returns one
    as columns."""

    def test_arithmetic_and_shape(self):
        p = RationalGF([[1, 2], [0, 3]])  # (1 + 2x) + 3x v
        q = p * p
        assert (q.vdegree, q.s_power, q.t_power) == (2, 0, 0)
        assert q.numerator == (IntPoly([1, 4, 4]), IntPoly([0, 6, 12]), IntPoly([0, 0, 9]))

    def test_matrix_row_major(self):
        assert numerator_json(RationalGF([[1, 2], [0, 3]]).numerator)["matrix"] == [["1", "0"], ["2", "3"]]
        assert numerator_json(RationalGF([[0, 0, 5]]).numerator)["matrix"] == [["0"], ["0"], ["5"]]
        assert numerator_json(RationalGF([[], [7]]).numerator)["matrix"] == [["0", "7"]]

    def test_extraction_trivial(self):
        g = VPoly([XSeries([0, 0, 0, 2], ORDER)])  # 2x^3
        out = xvpoly_extract_from_series(
            g, [IntPoly([1])], divide_x_power=3, divide_const=2, degree_bound_x=0
        )
        assert out == (IntPoly([1]),)

    def test_extraction_detects_tail(self):
        g = VPoly([XSeries([0, 0, 0, 2, 2], ORDER)])  # 2x^3 (1 + x)
        with pytest.raises(ConsistencyError):
            xvpoly_extract_from_series(g, [IntPoly([1])], 3, 2, 0)

    def test_extraction_detects_odd(self):
        g = VPoly([XSeries([0, 0, 0, 3], ORDER)])
        with pytest.raises(InexactDivisionError):
            xvpoly_extract_from_series(g, [IntPoly([1])], 3, 2, 0)

    def test_json_forms(self):
        assert poly_json(IntPoly([4, 2]), "q") == {"var": "q", "coeffs": ["4", "2"]}
        assert numerator_json(RationalGF([[1], [0, -3]]).numerator) == {
            "vars": ["x", "v"],
            "matrix": [["1", "0"], ["0", "-3"]],
        }
        for zero in (RationalGF(), RationalGF([[], [0, 0]]), RationalGF([[1]]) - RationalGF([[1]])):
            assert zero.numerator == ()
            assert numerator_json(zero.numerator) == {"vars": ["x", "v"], "matrix": [["0"]]}


numerators = st.lists(polys, max_size=4)
rationals = st.builds(RationalGF, numerators, st.integers(0, 3), st.integers(0, 3))
KERNEL = RationalGF([[1], [-1, 1]])   # 1 - sv


def _plain(gf: RationalGF) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, gf.expand_coeffs(ORDER)))


def _series(gf: RationalGF) -> VPoly:
    """gf expanded through ORDER, as the series reference's type."""
    return VPoly([XSeries(cs, ORDER) for cs in gf.expand_coeffs(ORDER)], ORDER)


class TestRationalGF:
    @given(rationals, st.integers(0, 3), st.integers(0, 3))
    def test_lift_then_divide_round_trip(self, gf, i, j):
        up = gf.with_denominator(gf.s_power + i, gf.t_power + j)
        assert up == gf and up.numerator == (gf * (S_POLY**i * T_POLY**j)).numerator
        back = up.with_denominator(gf.s_power, gf.t_power)
        assert back.numerator == gf.numerator

    @given(rationals)
    def test_expand_matches_series_products(self, gf):
        assert _plain(gf) == columns(expand_by_products(gf, ORDER))
        assert all(len(cs) == ORDER + 1 for cs in _plain(gf))

    @given(rationals)
    def test_at_v_sinv_matches_series_substitution(self, gf):
        want = expand_by_products(gf, ORDER).subst_v(S.inverse())
        assert _plain(gf.at_v_sinv()) == columns(VPoly([want], ORDER))

    @given(rationals, rationals)
    def test_sum_matches_series_sum(self, a, b):
        assert _series(a + b).matches(_series(a) + _series(b))
        assert (a - b) + b == a

    @given(rationals, rationals)
    def test_product_matches_series_product(self, a, b):
        prod = a * b
        assert (prod.s_power, prod.t_power) == (a.s_power + b.s_power, a.t_power + b.t_power)
        assert _series(prod).matches(_series(a) * _series(b))
        assert prod == b * a

    @given(rationals, st.integers(0, 4), st.integers(0, 3))
    def test_shift_matches_shifted_series(self, gf, i, j):
        assert _series(gf.shift(x=i, v=j)).matches(_series(gf).mul_xpow(i).shift_v(j))

    @given(st.lists(coeffs, max_size=4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    def test_columns_from_lists_or_polys_drop_zero_tops(self, cols, pad, s_power, t_power):
        want = [IntPoly(cs) for cs in cols]
        while want and not want[-1]:
            want.pop()
        padded = cols + [[0] * k for k in range(pad)]
        from_lists = RationalGF(padded, s_power, t_power)
        from_polys = RationalGF(map(IntPoly, padded), s_power, t_power)
        assert from_lists.numerator == from_polys.numerator == tuple(want)
        assert from_lists == from_polys
        assert all(type(p) is IntPoly for p in from_lists.numerator)
        assert from_lists.vdegree == len(want) - 1

    @given(rationals)
    def test_kernel_division_inverts_multiplication(self, gf):
        assert (gf * KERNEL).div_kernel().numerator == gf.numerator

    def test_kernel_remainder_raises(self):
        with pytest.raises(ConsistencyError, match="remainder at v\\^1"):
            RationalGF([[1], [1]]).div_kernel()  # 1 + v

    @pytest.mark.parametrize("s_power, t_power", [(1, 0), (0, 1)])
    def test_inexact_normalisation_raises(self, s_power, t_power):
        gf = RationalGF([[1, 0, 1]], s_power, t_power)  # 1 + x^2 over s or t
        with pytest.raises(InexactDivisionError):
            gf.with_denominator(0, 0)

    def test_over_with_negative_power_multiplies(self):
        gf = RationalGF([[3]], 0, 1).over(-2, 1)  # 3 s^2 / t^2
        assert (gf.numerator, gf.s_power, gf.t_power) == ((S_POLY**2 * 3,), 0, 2)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            RationalGF([[1]], -1, 0)


#: Signed polynomials whose coefficients span one to eleven bytes.
wide_polys = st.lists(
    st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80)), max_size=6
).map(IntPoly)


class TestPackedDot:
    @given(st.lists(st.tuples(wide_polys, wide_polys, wide_polys), max_size=5))
    def test_matches_convolve_sums(self, triples):
        want = IntPoly()
        for a, b, c in triples:
            want = want + IntPoly(algebra._convolve(algebra._convolve(a.coeffs, b.coeffs), c.coeffs))
        assert packed_dot(triples) == want

    @pytest.mark.parametrize("sign", [1, -1])
    def test_single_coefficients_fill_their_slot(self, sign):
        """With one coefficient per operand the width bound is attained, so
        every magnitude 2^e - 1 and 2^e is at the edge of some width."""
        for e in range(70):
            for value in (2**e - 1, 2**e):
                for a, b in ((1, value), (value, 1), (-1, -value)):
                    got = packed_dot([(IntPoly([a]), IntPoly([sign * b]), IntPoly([1]))])
                    assert got == IntPoly([sign * a * b]), (e, value, a)

    def test_negative_and_cancelling_sums(self):
        q_minus_1, two, one_plus_q = IntPoly([-1, 1]), IntPoly([2]), IntPoly([1, 1])
        assert packed_dot([(q_minus_1, two, one_plus_q)]) == IntPoly([-2, 0, 2])
        assert packed_dot([(q_minus_1, two, one_plus_q), (-q_minus_1, two, one_plus_q)]) == IntPoly()
        big = IntPoly([2**64, -(2**64)])
        assert packed_dot([(big, big, big)]) == big * big * big

    def test_zero_operand_drops_its_term(self):
        a, b, g = IntPoly([3, -1]), IntPoly([2]), IntPoly([1, 5, 7])
        assert packed_dot([]) == packed_dot([(a, b, IntPoly())]) == IntPoly()
        assert packed_dot([(a, b, IntPoly()), (a, b, g), (IntPoly(), b, g)]) == a * b * g

    def test_unpack_rejects_a_value_outside_its_slots(self):
        # Two one-byte slots hold d0 + 256 d1 for digits in [-128, 128).
        assert algebra._unpack(-1, 1, 2) == [-1, 0]
        assert algebra._unpack(127 + 256 * 127, 1, 2) == [127, 127]
        assert algebra._unpack(-128 - 256 * 128, 1, 2) == [-128, -128]
        for total in (128 + 256 * 127, -129 - 256 * 128):
            with pytest.raises(ConsistencyError, match="outside its 2 slots"):
                algebra._unpack(total, 1, 2)


def _loop_combination(a: IntPoly, b: IntPoly, sign: int) -> IntPoly:
    """Reference for IntPoly + and -: a + sign b, one coefficient at a
    time."""
    out = [0] * max(len(a.coeffs), len(b.coeffs))
    for i, c in enumerate(a.coeffs):
        out[i] += c
    for i, c in enumerate(b.coeffs):
        out[i] += sign * c
    return IntPoly(out)


def _double_loop_product(a, b) -> list[int]:
    """Reference product: every a_i * b_j added into x^(i+j)."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    return out


def _divexact_fraction(dividend: IntPoly, divisor: IntPoly) -> IntPoly:
    """Reference for IntPoly.divexact: long division over Fractions, then a
    check that the remainder is zero and the quotient integral."""
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if not dividend:
        return IntPoly()
    if dividend.degree < divisor.degree:
        raise InexactDivisionError("degree too small")
    dd = divisor.degree
    rem = [Fraction(c) for c in dividend.coeffs]
    lead = Fraction(divisor.coeffs[-1])
    q = [Fraction(0)] * (dividend.degree - dd + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + dd] / lead
        q[k] = c
        if c:
            for i, dc in enumerate(divisor.coeffs):
                rem[k + i] -= c * dc
    if any(rem):
        raise InexactDivisionError("nonzero polynomial remainder")
    if any(f.denominator != 1 for f in q):
        raise InexactDivisionError("quotient has non-integer coefficients")
    return IntPoly(int(f) for f in q)


def test_fraction_arithmetic_is_exact():
    a, b = Fraction(22, 7), Fraction(-355, 113)
    assert (a / b) * (b / a) == 1
    assert a + b - b == a
