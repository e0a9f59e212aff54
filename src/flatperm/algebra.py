"""Exact algebra substrate: integer polynomials, truncated integer power
series in x, polynomials in v over such series, and the exact values
N(x, v)/((1-x)^a (1-2x)^b) of ``RationalGF``.  A polynomial in x and v is
a ``RationalGF`` over s^0 t^0.

Everything is arbitrary precision (Python ints) and every division is
checked: dividing by a unit series, by a power of x, by a constant, by a
polynomial, by 1 - x or 1 - 2x, or by the kernel 1 - (1-x)v either
succeeds exactly or raises.  Nothing is evaluated at a rational number:
``Pipeline.c_table`` certifies c_{r,0}(1/2) = 2^(1-r) in integers, both
sides scaled by a power of two.

The kernel pipeline runs on ``RationalGF`` alone and hands out its
expansions as plain coefficient lists (``RationalGF.expand_coeffs``).
``XSeries``, ``VPoly``, ``vpoly_div_kernel`` and
``xvpoly_extract_from_series`` are the truncated-series forms of its
steps; no code in the package calls them, and they remain only for the
test reference in ``tests/series_reference.py`` and the benchmark's span
tracer.

``IntPoly`` and ``XSeries`` share one core for their dense coefficient
vectors: one schoolbook product with a top cut, one exact division by a
constant, and ``[]`` coefficient access.  Every linear pass runs at C
level, as one ``map`` or ``accumulate`` over the coefficient tuples: an
``IntPoly`` sum or difference, a negation, a product by an integer, and
``_times`` and ``_over``, the product by and the exact quotient by 1 - x
or 1 - 2x.  Callers whose factor is fixed and short (s, t, q, 1 + q,
1 - v, 2 - v) use these passes and shifts instead of a product.

Mixing ``IntPoly`` and ``XSeries`` gives an ``XSeries`` at the series'
order, whichever side each operand is on: an ``XSeries`` accepts an
``IntPoly`` in ``+``, ``-`` and ``*``, and ``IntPoly``'s binary
operators return ``NotImplemented`` for an ``XSeries``, so Python hands
the operation to the series.  ``_pack`` and ``_unpack`` evaluate
coefficients at a power of two and read them back as signed digits
(Kronecker substitution); the recurrence table's b-sum is their one
user.

>>> IntPoly([1, 2]) * XSeries([1, 1, 1], 2)
XSeries([1, 3, 3], order=2)
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Union

# Defined in _common, so the CLI can catch them without loading this module.
from ._common import ConsistencyError, InexactDivisionError


def _convolve(a, b, top: int | None = None, zero=0) -> list:
    """The schoolbook product of the coefficient sequences a and b, formed
    only through index top (the whole product when top is None).  The
    outer loop runs over the shorter operand, whose zero entries are
    skipped; every coefficient ring here is commutative, so either order
    gives the same product.  ``zero`` is the coefficient ring's zero: 0
    for integers, or a zero series or polynomial for polynomials in v."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if top is None:
        top = len(a) + len(b) - 2
    out = [zero] * min(len(a) + len(b) - 1, top + 1)
    for i, c in enumerate(a[: top + 1]):
        if c:
            for j, d in enumerate(b[: top + 1 - i], i):
                out[j] += c * d
    return out


def _pack(coeffs, width: int) -> int:
    """The signed coefficients evaluated at 2^(8 width): each one in a slot
    of ``width`` bytes, which must hold its magnitude."""
    if min(coeffs) >= 0:
        slots = map(int.to_bytes, coeffs, repeat(width), repeat("little"))
        return int.from_bytes(b"".join(slots), "little")
    pos = b"".join(max(c, 0).to_bytes(width, "little") for c in coeffs)
    negs = b"".join(max(-c, 0).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(negs, "little")


def _unpack(total: int, width: int, length: int) -> list[int]:
    """The signed digits of ``total`` in ``length`` slots of ``width``
    bytes, each in [-2^(w-1), 2^(w-1)) for w = 8 width: 2^(w-1) is added to
    every slot, and the shifted slots are read as unsigned.  Raises
    ConsistencyError when the shifted value does not fit the slots."""
    half = 1 << (8 * width - 1)
    total += int.from_bytes(half.to_bytes(width, "little") * length, "little")
    if not 0 <= total < 1 << (8 * width * length):
        raise ConsistencyError(f"packed sum falls outside its {length} slots of {8 * width} bits")
    data = total.to_bytes(width * length, "little")
    return [
        int.from_bytes(data[i: i + width], "little") - half
        for i in range(0, width * length, width)
    ]


# ---------------------------------------------------------------------------
# Dense integer coefficient vectors: polynomials and truncated series in x
# ---------------------------------------------------------------------------

class _Dense:
    """The core shared by IntPoly and XSeries: a tuple ``coeffs`` of
    integer coefficients in ascending powers.  Each subclass defines
    ``_with(coeffs)``, a value of its own kind (and order) holding other
    coefficients."""

    __slots__ = ("coeffs",)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __getitem__(self, power: int) -> int:
        """The stored coefficient of x**power; 0 past the stored ones (for
        a series, ``XSeries.coeff`` is the read that checks the order)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __neg__(self):
        return self._with(map(neg, self.coeffs))

    def divexact_const(self, c: int):
        """Divide every coefficient by the integer c; raises
        InexactDivisionError if one is not divisible."""
        if c == 0:
            raise ZeroDivisionError
        out = []
        for a in self.coeffs:
            quo, rem = divmod(a, c)
            if rem:
                raise InexactDivisionError(f"coefficient {a} not divisible by {c}")
            out.append(quo)
        return self._with(out)


class IntPoly(_Dense):
    """Dense univariate polynomial with integer coefficients.

    Coefficients are stored in ascending power order and normalized so the
    highest stored coefficient is nonzero; the zero polynomial stores
    nothing and has degree -1.

    >>> p = IntPoly([4, 2])          # 4 + 2q
    >>> p * IntPoly([-1, 1])         # times (q - 1)
    IntPoly([-4, 2, 2])
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def _with(self, coeffs: Iterable[int]) -> IntPoly:
        return IntPoly(coeffs)

    @classmethod
    def term(cls, coeff: int, power: int = 0) -> IntPoly:
        """coeff * x**power."""
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __add__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(chain(map(add, a, b), a[len(b):]))

    def __sub__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return IntPoly(chain(map(sub, a, b), a[len(b):], map(neg, b[len(a):])))

    def __mul__(self, other: Union[IntPoly, int]) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(map(mul, self.coeffs, repeat(other)))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(_convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> IntPoly:
        if exponent < 0:
            raise ValueError("negative exponent")
        result = IntPoly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, k: int) -> IntPoly:
        """Multiply by x**k."""
        if not k or not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def divexact(self, divisor: IntPoly) -> IntPoly:
        """Exact quotient by integer long division; raises InexactDivisionError
        at the first step the leading coefficient does not divide, or on a
        nonzero remainder."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return IntPoly()
        dd = divisor.degree
        if self.degree < dd:
            raise InexactDivisionError(f"degree {self.degree} < divisor degree {dd}")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        q = [0] * (self.degree - dd + 1)
        for k in range(len(q) - 1, -1, -1):
            c, r = divmod(rem[k + dd], lead)
            if r:
                raise InexactDivisionError(f"quotient coefficient of x^{k} is not an integer")
            q[k] = c
            if c:
                for i, dc in enumerate(divisor.coeffs, k):
                    rem[i] -= c * dc
        if any(rem):
            raise InexactDivisionError("nonzero polynomial remainder")
        return IntPoly(q)


P_ZERO = IntPoly()


# ---------------------------------------------------------------------------
# Truncated integer power series in x
# ---------------------------------------------------------------------------

class XSeries(_Dense):
    """Integer power series in x known exactly through x**order, built from
    any coefficient iterable (an IntPoly included).

    Arithmetic results carry the minimum order of the operands; an
    ``IntPoly`` operand counts as a series at the other operand's order.
    A series is invertible iff its constant term is +1 or -1 (the units
    of the integer series ring); every other division must be requested
    as a checked exact division and raises if it fails.
    """

    __slots__ = ("order",)

    def __init__(self, coeffs: Iterable[int], order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs)[: order + 1]
        cs.extend([0] * (order + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    def _with(self, coeffs: Iterable[int]) -> XSeries:
        return XSeries(coeffs, self.order)

    def _series(self, other: Union[XSeries, IntPoly]) -> XSeries:
        """other as a series: an IntPoly is taken at this series' order."""
        return XSeries(other.coeffs, self.order) if isinstance(other, IntPoly) else other

    @classmethod
    def zero(cls, order: int) -> XSeries:
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> XSeries:
        return cls((1,), order)

    def coeff(self, k: int) -> int:
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, XSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"XSeries([{head}{tail}], order={self.order})"

    def matches(self, other: XSeries) -> bool:
        """Equality through the common truncation order."""
        m = min(self.order, other.order)
        return self.coeffs[: m + 1] == other.coeffs[: m + 1]

    def truncate(self, order: int) -> XSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        if order == self.order:
            return self
        return XSeries(self.coeffs, order)

    def __add__(self, other: Union[XSeries, IntPoly]) -> XSeries:
        other = self._series(other)
        return XSeries(map(add, self.coeffs, other.coeffs), min(self.order, other.order))

    __radd__ = __add__

    def __sub__(self, other: Union[XSeries, IntPoly]) -> XSeries:
        other = self._series(other)
        return XSeries(map(sub, self.coeffs, other.coeffs), min(self.order, other.order))

    def __rsub__(self, other: IntPoly) -> XSeries:
        return self._series(other) - self

    def __mul__(self, other: Union[XSeries, IntPoly, int]) -> XSeries:
        if isinstance(other, int):
            return XSeries((c * other for c in self.coeffs), self.order)
        m = self.order if isinstance(other, IntPoly) else min(self.order, other.order)
        return XSeries(_convolve(self.coeffs, other.coeffs, m), m)

    __rmul__ = __mul__

    def mul_xpow(self, k: int) -> XSeries:
        """Multiply by x**k, keeping the same truncation order."""
        if k == 0:
            return self
        return XSeries((0,) * k + self.coeffs, self.order)

    def divexact_xpow(self, k: int) -> XSeries:
        """Divide by x**k; the k lowest coefficients must vanish.  The
        result is only known through order - k."""
        if k == 0:
            return self
        if k > self.order:
            raise ValueError("dividing past the truncation order")
        if any(self.coeffs[:k]):
            raise InexactDivisionError(f"series not divisible by x^{k}")
        return XSeries(self.coeffs[k:], self.order - k)

    def divexact(self, divisor: XSeries) -> XSeries:
        """Exact quotient q with q * divisor == self up to truncation.

        The divisor must be a unit (constant term +-1); every coefficient
        of the quotient is then forced and integral.
        """
        if divisor.coeffs[0] not in (1, -1):
            raise ValueError("divisor is not a unit series (constant term must be +-1)")
        m = min(self.order, divisor.order)
        lead = divisor.coeffs[0]
        out = [0] * (m + 1)
        for k in range(m + 1):
            acc = self.coeffs[k]
            for i in range(k):
                q = out[i]
                if q:
                    acc -= q * divisor.coeffs[k - i]
            out[k] = acc * lead  # 1/lead == lead for lead in {1, -1}
        return XSeries(out, m)

    def inverse(self) -> XSeries:
        return XSeries.one(self.order).divexact(self)


# ---------------------------------------------------------------------------
# Polynomials in v over truncated series
# ---------------------------------------------------------------------------

class VPoly:
    """Polynomial in v with XSeries coefficients sharing one truncation
    order; normalized so the top v-coefficient is not identically zero."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[XSeries], order: int | None = None):
        vs = list(coeffs)
        if order is None:
            if not vs:
                raise ValueError("order is required for an empty VPoly")
            order = min(s.order for s in vs)
        if any(s.order < order for s in vs):
            raise ValueError("coefficient order below the requested VPoly order")
        vs = [s.truncate(order) for s in vs]
        while vs and not vs[-1]:
            vs.pop()
        self.coeffs = tuple(vs)
        self.order = order

    @classmethod
    def zero(cls, order: int) -> VPoly:
        return cls((), order)

    @property
    def vdegree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> XSeries:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return XSeries.zero(self.order)

    def __repr__(self) -> str:
        return f"VPoly(vdegree={self.vdegree}, order={self.order})"

    def matches(self, other: VPoly) -> bool:
        """Coefficient-wise equality through the common truncation order."""
        for k in range(max(self.vdegree, other.vdegree) + 1):
            if not self.coeff(k).matches(other.coeff(k)):
                return False
        return True

    def __neg__(self) -> VPoly:
        return VPoly((-s for s in self.coeffs), self.order)

    def __add__(self, other: VPoly) -> VPoly:
        m = min(self.order, other.order)
        n = max(len(self.coeffs), len(other.coeffs))
        return VPoly(
            ((self.coeff(k) + other.coeff(k)).truncate(m) for k in range(n)), m
        )

    def __sub__(self, other: VPoly) -> VPoly:
        return self + (-other)

    def __mul__(self, other: Union[VPoly, XSeries, IntPoly, int]) -> VPoly:
        m = self.order if isinstance(other, (IntPoly, int)) else min(self.order, other.order)
        if not isinstance(other, VPoly):
            return VPoly((s * other for s in self.coeffs), m)
        return VPoly(_convolve(self.coeffs, other.coeffs, zero=XSeries.zero(m)), m)

    __rmul__ = __mul__

    def mul_xpow(self, k: int) -> VPoly:
        return VPoly((s.mul_xpow(k) for s in self.coeffs), self.order)

    def shift_v(self, k: int) -> VPoly:
        if self.is_zero() or k == 0:
            return self
        pad = [XSeries.zero(self.order)] * k
        return VPoly(pad + list(self.coeffs), self.order)

    def subst_v(self, w: XSeries) -> XSeries:
        """Substitute the series w for v (Horner's rule)."""
        m = min(self.order, w.order)
        acc = XSeries.zero(m)
        for s in reversed(self.coeffs):
            acc = acc * w + s.truncate(m)
        return acc


def vpoly_div_kernel(b: VPoly, s: XSeries, vdeg: int) -> VPoly:
    """Exact quotient of b by the kernel factor (1 - s*v).

    Long division from the top v-degree, using the unit leading
    coefficient -s; a nonzero remainder means the claimed divisibility is
    false and raises ConsistencyError.  The quotient is re-multiplied by
    the kernel as an independent confirmation, and its v-degree must not
    exceed vdeg.
    """
    order = min(b.order, s.order)
    neg_s = (-s).truncate(order)
    cols = [c.truncate(order) for c in b.coeffs]
    d = len(cols) - 1
    if d < 0:
        return VPoly.zero(order)
    quot = [XSeries.zero(order)] * d
    for k in range(d - 1, -1, -1):
        qk = cols[k + 1].divexact(neg_s)
        quot[k] = qk
        cols[k] = cols[k] - qk
        cols[k + 1] = XSeries.zero(order)
    if cols[0]:
        raise ConsistencyError("kernel division left a nonzero remainder")
    q = VPoly(quot, order)
    kernel = VPoly([XSeries.one(order), neg_s], order)
    if not (kernel * q).matches(VPoly(b.coeffs, order)):
        raise ConsistencyError("kernel quotient failed re-multiplication check")
    if q.vdegree > vdeg:
        raise ConsistencyError(f"kernel quotient v-degree {q.vdegree} exceeds {vdeg}")
    return q


# ---------------------------------------------------------------------------
# Exact rational functions N(x, v) / ((1 - x)^a (1 - 2x)^b)
# ---------------------------------------------------------------------------

def _times(cs, k: int) -> list[int]:
    """The coefficients of (1 - kx) p, p's being cs: one shift-and-subtract
    pass."""
    shifted = chain((0,), cs)
    if k == 2:
        shifted = map(add, shifted, chain((0,), cs))
    return list(map(sub, chain(cs, (0,)), shifted))


def _over(cs, k: int) -> list[int]:
    """The coefficients of p / (1 - kx), p's being cs, exactly: the quotient
    runs Q_m = p_m + k Q_(m-1) (prefix sums for k = 1, doubling for k = 2),
    and its term at the degree of p, the remainder, must vanish."""
    q = list(accumulate(cs, (lambda acc, c: 2 * acc + c) if k == 2 else None))
    if q and q[-1]:
        raise InexactDivisionError(f"polynomial not divisible by {'1 - x' if k == 1 else '1 - 2x'}")
    return q[:-1]


class RationalGF:
    """The exact value N(x, v) / (s^s_power t^t_power), s = 1 - x and
    t = 1 - 2x, with N an integer polynomial in x and v: an element of
    Z[x, v][1/s, 1/t], the ring in which the kernel method for G_r runs.
    A polynomial in x and v is the value over s^0 t^0.

    ``numerator`` holds N as a tuple of ``IntPoly`` columns, one per power
    of v, with no zero top column; it is built from ``IntPoly``s or from
    coefficient iterables.  Multiplying by x^k or v^k shifts N; dividing
    by s or t raises an exponent.  Lifting to a larger denominator
    multiplies N by s or t, one shift-and-subtract pass per power, and
    lowering it divides exactly, by prefix sums for s and doubling for t,
    raising InexactDivisionError on a remainder.  Sums lift both terms to
    the larger exponents, products convolve the numerators and add the
    exponents, and two values are equal when their numerators are over a
    common denominator.

    >>> g0 = RationalGF([[0, 0, 0, 4]], 0, 1)    # 4x^3 / (1 - 2x)
    >>> g0.expand_coeffs(5)
    [[0, 0, 0, 4, 8, 16]]
    >>> g0 == RationalGF([[0, 0, 0, 4, -4]], 1, 1)
    True
    """

    __slots__ = ("numerator", "s_power", "t_power")

    def __init__(self, numerator: Iterable = (), s_power: int = 0, t_power: int = 0):
        if s_power < 0 or t_power < 0:
            raise ValueError("denominator exponents must be >= 0")
        cols = [p if isinstance(p, IntPoly) else IntPoly(p) for p in numerator]
        while cols and not cols[-1]:
            cols.pop()
        self.numerator = tuple(cols)
        self.s_power = s_power
        self.t_power = t_power

    def __repr__(self) -> str:
        cols = [list(p.coeffs) for p in self.numerator]
        return f"RationalGF({cols}, s_power={self.s_power}, t_power={self.t_power})"

    @property
    def vdegree(self) -> int:
        return len(self.numerator) - 1

    def with_denominator(self, s_power: int, t_power: int) -> RationalGF:
        """The same value over s^s_power t^t_power."""
        if (s_power, t_power) == (self.s_power, self.t_power):
            return self
        cols = [p.coeffs for p in self.numerator]
        for k, old, new in ((1, self.s_power, s_power), (2, self.t_power, t_power)):
            step = _times if new > old else _over
            for _ in range(abs(new - old)):
                cols = [step(cs, k) for cs in cols]
        return RationalGF(cols, s_power, t_power)

    def over(self, s_power: int = 0, t_power: int = 0) -> RationalGF:
        """This value divided by s^s_power t^t_power; a negative power
        multiplies."""
        base = self.with_denominator(max(self.s_power, -s_power), max(self.t_power, -t_power))
        return RationalGF(base.numerator, base.s_power + s_power, base.t_power + t_power)

    def shift(self, x: int = 0, v: int = 0) -> RationalGF:
        """This value times x^x v^v."""
        cols = [p.shift(x) for p in self.numerator]
        if cols and v:
            cols[:0] = [P_ZERO] * v
        return RationalGF(cols, self.s_power, self.t_power)

    def _common(self, other: RationalGF) -> tuple[tuple[IntPoly, ...], tuple[IntPoly, ...], int, int]:
        a = max(self.s_power, other.s_power)
        b = max(self.t_power, other.t_power)
        return self.with_denominator(a, b).numerator, other.with_denominator(a, b).numerator, a, b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalGF):
            return NotImplemented
        mine, theirs, _, _ = self._common(other)
        return mine == theirs

    __hash__ = None  # equal values may have different numerators

    def __neg__(self) -> RationalGF:
        return RationalGF([-p for p in self.numerator], self.s_power, self.t_power)

    def __add__(self, other: RationalGF) -> RationalGF:
        mine, theirs, a, b = self._common(other)
        if len(mine) < len(theirs):
            mine, theirs = theirs, mine
        return RationalGF([*map(add, mine, theirs), *mine[len(theirs):]], a, b)

    def __sub__(self, other: RationalGF) -> RationalGF:
        return self + (-other)

    def __mul__(self, other: Union[RationalGF, IntPoly, int]) -> RationalGF:
        if isinstance(other, RationalGF):
            cols = _convolve(self.numerator, other.numerator, zero=P_ZERO)
            return RationalGF(cols, self.s_power + other.s_power, self.t_power + other.t_power)
        return RationalGF([p * other for p in self.numerator], self.s_power, self.t_power)

    def at_v_one(self) -> RationalGF:
        """The value at v = 1."""
        return RationalGF([sum(self.numerator, P_ZERO)], self.s_power, self.t_power)

    def _s_sweep(self) -> list[IntPoly]:
        """Q_0 = N_0 and Q_k = N_k + s Q_(k-1) over the numerator N, of
        v-degree d: Q_d = sum_k N_k s^(d-k) is Horner's rule for N at
        v = 1/s, times s^d, and Q_0 .. Q_(d-1) are the quotient of N by
        the kernel 1 - sv, with Q_d its remainder."""
        return list(accumulate(self.numerator, lambda q, p: p + IntPoly(_times(q.coeffs, 1))))

    def at_v_sinv(self) -> RationalGF:
        """The value at v = 1/s: the last term Q_d of the s-sweep, with d
        added to the power of s."""
        if not self.numerator:
            return self
        return RationalGF(self._s_sweep()[-1:], self.s_power + self.vdegree, self.t_power)

    def div_kernel(self) -> RationalGF:
        """The exact quotient by the kernel 1 - sv, from the bottom: the
        s-sweep Q_0 .. Q_(d-1).  A nonzero remainder Q_d raises
        ConsistencyError."""
        quot = self._s_sweep()
        if quot and quot.pop():
            raise ConsistencyError(f"kernel division left a nonzero remainder at v^{self.vdegree}")
        return RationalGF(quot, self.s_power, self.t_power)

    def expand_coeffs(self, order: int) -> list[list[int]]:
        """The power series in x through x**order as plain coefficient
        lists, one per v-power of the numerator: one prefix-sum pass per
        power of s and one doubling pass per power of t.

        >>> RationalGF([[1]], 1, 1).expand_coeffs(4)  # 1/(st)
        [[1, 3, 7, 15, 31]]
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        out = []
        for p in self.numerator:
            cs = list(p.coeffs[: order + 1])
            cs.extend([0] * (order + 1 - len(cs)))
            if self.t_power:
                # A doubling pass on c_m is a prefix sum on c_m / 2^m: run
                # the sums on c_m 2^(order-m) and scale back exactly.
                cs = [c << (order - m) for m, c in enumerate(cs)]
                for _ in range(self.t_power):
                    cs = accumulate(cs)
                cs = [c >> (order - m) for m, c in enumerate(cs)]
            for _ in range(self.s_power):
                cs = accumulate(cs)
            out.append(list(cs))
        return out


def xvpoly_extract_from_series(
    g: VPoly,
    pre_factor_num: Iterable[IntPoly],
    divide_x_power: int,
    divide_const: int,
    degree_bound_x: int,
) -> tuple[IntPoly, ...]:
    """Multiply g by an exact polynomial prefactor, given by its columns in
    v, and certify the result is ``divide_const * x**divide_x_power``
    times an integer polynomial of x-degree at most degree_bound_x, whose
    columns in v are returned.

    Each v-coefficient series must be divisible by the stated power of x
    and by the constant, and every surviving coefficient past the degree
    bound (through the truncation order) must vanish; any violation raises.
    """
    prod = g * VPoly((XSeries(p, g.order) for p in pre_factor_num), g.order)
    out: list[IntPoly] = []
    for k in range(prod.vdegree + 1):
        series = prod.coeff(k)
        series = series.divexact_xpow(divide_x_power)
        series = series.divexact_const(divide_const)
        tail = series.coeffs[degree_bound_x + 1 :]
        if any(tail):
            bad = degree_bound_x + 1 + next(i for i, c in enumerate(tail) if c)
            raise ConsistencyError(
                f"v^{k} coefficient has a nonzero term at x^{bad}, "
                f"beyond the degree bound {degree_bound_x}"
            )
        out.append(IntPoly(series.coeffs[: degree_bound_x + 1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Canonical JSON forms (decimal-string coefficients)
# ---------------------------------------------------------------------------

def poly_json(p: IntPoly, var: str) -> dict:
    return {"var": var, "coeffs": [str(c) for c in p.coeffs]}


def numerator_json(cols: tuple[IntPoly, ...]) -> dict:
    """The columns of a ``RationalGF`` numerator as a dense matrix, row i
    and column j holding [x^i v^j]; the zero numerator is [["0"]]."""
    cols = cols or (P_ZERO,)
    rows = max(len(p.coeffs) for p in cols) or 1
    return {"vars": ["x", "v"], "matrix": [[str(p[i]) for p in cols] for i in range(rows)]}
