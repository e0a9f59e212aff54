"""Exact algebra substrate: integer polynomials, truncated integer power
series in x, polynomials in v over such series, and bivariate (x, v)
integer polynomials.

Everything is arbitrary precision (Python ints) and every division is
checked: dividing by a unit series, by a power of x, by a constant, or by
a polynomial either succeeds exactly or raises.  ``IntPoly.eval_at`` is
also exact at ``fractions.Fraction`` points.

``IntPoly`` and ``XSeries`` share one core for their dense coefficient
vectors: one schoolbook product with a top cut, one exact division by a
constant, and ``[]`` coefficient access.  Mixing the two gives an
``XSeries`` at the series' order, whichever side each operand is on: an
``XSeries`` accepts an ``IntPoly`` in ``+``, ``-`` and ``*``, and
``IntPoly``'s binary operators return ``NotImplemented`` for an
``XSeries``, so Python hands the operation to the series.

>>> IntPoly([1, 2]) * XSeries([1, 1, 1], 2)
XSeries([1, 3, 3], order=2)
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, Iterator, Union


class ConsistencyError(ArithmeticError):
    """An exact structural check failed (divisibility, vanishing tail,
    nonzero remainder, or a mismatch between two routes to one value)."""


class InexactDivisionError(ConsistencyError):
    """A division that was required to be exact left a remainder."""


def _convolve(a, b, top: int | None = None, zero=0) -> list:
    """The schoolbook product of the coefficient sequences a and b, formed
    only through index top (the whole product when top is None).  Zero
    entries of a are skipped.  ``zero`` is the coefficient ring's zero:
    0 for integers, or a zero series or polynomial for polynomials in v."""
    if not a or not b:
        return []
    if top is None:
        top = len(a) + len(b) - 2
    out = [zero] * min(len(a) + len(b) - 1, top + 1)
    for i, c in enumerate(a[: top + 1]):
        if c:
            for j, d in enumerate(b[: top + 1 - i], i):
                out[j] += c * d
    return out


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
        return self._with(-c for c in self.coeffs)

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
        if coeff == 0:
            return cls()
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __add__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union[IntPoly, int]) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
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
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def derivative(self) -> IntPoly:
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def eval_at(self, point):
        """Evaluate by Horner's rule; exact for int or Fraction points."""
        acc = point * 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

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

    def format(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = var if i == 1 else f"{var}^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


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

    __slots__ = ("vcoeffs", "order")

    def __init__(self, vcoeffs: Iterable[XSeries], order: int | None = None):
        vs = list(vcoeffs)
        if order is None:
            if not vs:
                raise ValueError("order is required for an empty VPoly")
            order = min(s.order for s in vs)
        if any(s.order < order for s in vs):
            raise ValueError("coefficient order below the requested VPoly order")
        vs = [s.truncate(order) for s in vs]
        while vs and not vs[-1]:
            vs.pop()
        self.vcoeffs = tuple(vs)
        self.order = order

    @classmethod
    def zero(cls, order: int) -> VPoly:
        return cls((), order)

    @property
    def vdegree(self) -> int:
        return len(self.vcoeffs) - 1

    def is_zero(self) -> bool:
        return not self.vcoeffs

    def coeff(self, k: int) -> XSeries:
        if 0 <= k < len(self.vcoeffs):
            return self.vcoeffs[k]
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
        return VPoly((-s for s in self.vcoeffs), self.order)

    def __add__(self, other: VPoly) -> VPoly:
        m = min(self.order, other.order)
        n = max(len(self.vcoeffs), len(other.vcoeffs))
        return VPoly(
            ((self.coeff(k) + other.coeff(k)).truncate(m) for k in range(n)), m
        )

    def __sub__(self, other: VPoly) -> VPoly:
        return self + (-other)

    def __mul__(self, other: Union[VPoly, XSeries, IntPoly, int]) -> VPoly:
        m = self.order if isinstance(other, (IntPoly, int)) else min(self.order, other.order)
        if not isinstance(other, VPoly):
            return VPoly((s * other for s in self.vcoeffs), m)
        return VPoly(_convolve(self.vcoeffs, other.vcoeffs, zero=XSeries.zero(m)), m)

    __rmul__ = __mul__

    def mul_xpow(self, k: int) -> VPoly:
        return VPoly((s.mul_xpow(k) for s in self.vcoeffs), self.order)

    def shift_v(self, k: int) -> VPoly:
        if self.is_zero() or k == 0:
            return self
        pad = [XSeries.zero(self.order)] * k
        return VPoly(pad + list(self.vcoeffs), self.order)

    def eval_v_one(self) -> XSeries:
        acc = XSeries.zero(self.order)
        for s in self.vcoeffs:
            acc = acc + s
        return acc

    def subst_v(self, w: XSeries) -> XSeries:
        """Substitute the series w for v (Horner's rule)."""
        m = min(self.order, w.order)
        acc = XSeries.zero(m)
        for s in reversed(self.vcoeffs):
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
    cols = [c.truncate(order) for c in b.vcoeffs]
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
    if not (kernel * q).matches(VPoly(b.vcoeffs, order)):
        raise ConsistencyError("kernel quotient failed re-multiplication check")
    if q.vdegree > vdeg:
        raise ConsistencyError(f"kernel quotient v-degree {q.vdegree} exceeds {vdeg}")
    return q


# ---------------------------------------------------------------------------
# Bivariate integer polynomials in (x, v)
# ---------------------------------------------------------------------------

class XVPoly:
    """Integer polynomial in x and v, stored as one x-polynomial per
    v-power and normalized in v."""

    __slots__ = ("vcoeffs",)

    def __init__(self, vcoeffs: Iterable[Union[IntPoly, Iterable[int]]] = ()):
        vs = [c if isinstance(c, IntPoly) else IntPoly(c) for c in vcoeffs]
        while vs and not vs[-1]:
            vs.pop()
        self.vcoeffs = tuple(vs)

    @property
    def vdegree(self) -> int:
        return len(self.vcoeffs) - 1

    @property
    def xdegree(self) -> int:
        return max((p.degree for p in self.vcoeffs), default=-1)

    def is_zero(self) -> bool:
        return not self.vcoeffs

    def coeff(self, vpow: int) -> IntPoly:
        if 0 <= vpow < len(self.vcoeffs):
            return self.vcoeffs[vpow]
        return P_ZERO

    def __eq__(self, other: object) -> bool:
        return isinstance(other, XVPoly) and self.vcoeffs == other.vcoeffs

    def __hash__(self) -> int:
        return hash(self.vcoeffs)

    def __repr__(self) -> str:
        return f"XVPoly(vdegree={self.vdegree}, xdegree={self.xdegree})"

    def __neg__(self) -> XVPoly:
        return XVPoly(-p for p in self.vcoeffs)

    def __add__(self, other: XVPoly) -> XVPoly:
        n = max(len(self.vcoeffs), len(other.vcoeffs))
        return XVPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other: XVPoly) -> XVPoly:
        return self + (-other)

    def __mul__(self, other: Union[XVPoly, IntPoly, int]) -> XVPoly:
        if isinstance(other, (IntPoly, int)):
            return XVPoly(p * other for p in self.vcoeffs)
        return XVPoly(_convolve(self.vcoeffs, other.vcoeffs, zero=P_ZERO))

    __rmul__ = __mul__

    def shift_x(self, k: int) -> XVPoly:
        return XVPoly(p.shift(k) for p in self.vcoeffs)

    def shift_v(self, k: int) -> XVPoly:
        if self.is_zero() or k == 0:
            return self
        return XVPoly([P_ZERO] * k + list(self.vcoeffs))

    def to_vpoly(self, order: int) -> VPoly:
        return VPoly((XSeries(p, order) for p in self.vcoeffs), order)

    def matrix(self) -> list[list[int]]:
        """Dense coefficient matrix, row-major: matrix[i][j] = [x^i v^j]."""
        xd = max(self.xdegree, 0)
        vd = max(self.vdegree, 0)
        return [[self.coeff(j)[i] for j in range(vd + 1)] for i in range(xd + 1)]


def xvpoly_extract_from_series(
    g: VPoly,
    pre_factor_num: XVPoly,
    divide_x_power: int,
    divide_const: int,
    degree_bound_x: int,
) -> XVPoly:
    """Multiply g by an exact polynomial prefactor and certify the result
    is ``divide_const * x**divide_x_power`` times an integer polynomial of
    x-degree at most degree_bound_x.

    Each v-coefficient series must be divisible by the stated power of x
    and by the constant, and every surviving coefficient past the degree
    bound (through the truncation order) must vanish; any violation raises.
    """
    prod = g * pre_factor_num.to_vpoly(g.order)
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
    return XVPoly(out)


# ---------------------------------------------------------------------------
# Canonical JSON forms (decimal-string coefficients)
# ---------------------------------------------------------------------------

def poly_json(p: IntPoly, var: str) -> dict:
    return {"var": var, "coeffs": [str(c) for c in p.coeffs]}


def xvpoly_json(p: XVPoly) -> dict:
    return {
        "vars": ["x", "v"],
        "matrix": [[str(c) for c in row] for row in p.matrix()],
    }
