"""Exact q-polynomial recurrences for the 13-2 statistic on flattened
permutations.

g_n is the polynomial whose q^r coefficient counts the permutations of
length n whose flattening has exactly r occurrences of 13-2; g_n(1k)
restricts to flattenings starting with the letters 1, k.  Both families
are generated here from pure recurrences:

    g_n      = sum_{j=1}^{n-1} b_{n,j} (q-1)^{j-1} g_{n-j},
    g_n(12)  = 2 g_{n-1},
    g_n(1k)  = sum_{j=1}^{k-1} a_{k,j} (q-1)^{j-1} g_{n-j}   (3 <= k <= n),

with the integer-polynomial coefficient tables a_{k,j} and b_{n,j} built
below.  Derived exact facts (the 2^{n-1} avoider count, the harmonic-
number average) are recomputed from independent identities and asserted,
never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import ConsistencyError, IntPoly

#: q and (q - 1) as polynomials.
Q = IntPoly([0, 1])
Q_MINUS_1 = IntPoly([-1, 1])


def _binom(m: int, k: int) -> int:
    """Binomial coefficient with C(m, -1) = 1 iff m = -1 (else 0), the
    convention under which the j = 1 column of b reduces to the constant n."""
    if k < 0:
        return 1 if (k == -1 and m == -1) else 0
    if m < 0:
        return 0
    return math.comb(m, k) if k <= m else 0


def b_poly(n: int, j: int, top: int | None = None) -> IntPoly:
    """The coefficient polynomial b_{n,j}:

        b_{n,j} = sum_{k=0}^{n-1-j} ((n-1+j-k)/j) C(j+k-2, j-2) C(n-2-k, j-1) q^k,

    with b_{n,1} = n (the j = 1 column collapses to a constant).  The
    division by j is carried out exactly per coefficient and must leave an
    integer; a fractional result raises.  With ``top`` given, only the
    coefficients of q^0 .. q^top are formed.
    """
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must lie in [1, {n - 1}]")
    if j == 1:
        return IntPoly([n])
    coeffs = []
    for k in range(n - j if top is None else min(n - j, top + 1)):
        num = (n - 1 + j - k) * _binom(j + k - 2, j - 2) * _binom(n - 2 - k, j - 1)
        c, rem = divmod(num, j)
        if rem:
            raise ConsistencyError(
                f"b({n},{j}) coefficient of q^{k} is not an integer: {Fraction(num, j)}"
            )
        coeffs.append(c)
    return IntPoly(coeffs)


def b_poly_alt(n: int, j: int) -> IntPoly:
    """Second, manifestly integral route to b_{n,j}:

        sum_k C(j+k-2, j-2) (C(n-k-2, j-1) + C(n-k-1, j)) q^k.

    Kept separate from b_poly so the two can be compared.
    """
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must lie in [1, {n - 1}]")
    coeffs = [
        _binom(j + k - 2, j - 2) * (_binom(n - k - 2, j - 1) + _binom(n - k - 1, j))
        for k in range(n - j)
    ]
    return IntPoly(coeffs)


class GTable:
    """Bottom-up tables of g_n and g_n(1k), growable on demand.

    The g column is filled eagerly through n_max at construction; the
    g_n(1k) entries and the a_{k,j} rows are computed lazily and cached.

    With ``q_top`` unset (the default) every polynomial is kept in full
    and each g_n is checked for nonnegative coefficients summing to n!.
    This full table backs ``gpoly``, ``distribution``, ``average``, the
    ``verify`` suites and any ``Pipeline`` given a table explicitly.

    With ``q_top`` set, every g_n, g_n(1k), (q-1)^e power and b_{m,j} row
    is kept only through q^q_top (products are cut with
    ``IntPoly.mul_trunc``), which is all a kernel pipeline through
    r_max = q_top reads; ``Pipeline`` builds such a table for itself when
    it is given none.  Nonnegativity is checked on the kept coefficients;
    the n! mass needs the whole polynomial and is checked in full mode
    only.  ``coeff`` raises IndexError for a power above q_top.  The
    a_{k,j} rows are always kept in full.
    """

    def __init__(self, n_max: int = 2, q_top: int | None = None):
        if q_top is not None and q_top < 0:
            raise ValueError("q_top must be >= 0")
        self.q_top = q_top
        self._g: list[IntPoly] = [IntPoly(), IntPoly([1])]  # index 0 unused
        self._g1k: dict[tuple[int, int], IntPoly] = {}
        # a rows: index k -> {j: IntPoly}; rows 0, 1 unused.
        self._a: list[dict[int, IntPoly]] = [
            {},
            {},
            {1: IntPoly([1])},
            {1: IntPoly([1]), 2: IntPoly([2])},
        ]
        self._qm1_pows: list[IntPoly] = [IntPoly([1])]
        self.ensure(n_max)

    @property
    def n_max(self) -> int:
        return len(self._g) - 1

    def _mul(self, a: IntPoly, b: IntPoly) -> IntPoly:
        return a * b if self.q_top is None else a.mul_trunc(b, self.q_top)

    def _qm1(self, e: int) -> IntPoly:
        while len(self._qm1_pows) <= e:
            self._qm1_pows.append(self._mul(self._qm1_pows[-1], Q_MINUS_1))
        return self._qm1_pows[e]

    def ensure(self, n: int) -> None:
        while self.n_max < n:
            m = self.n_max + 1
            total = IntPoly()
            for j in range(1, m):
                b = b_poly(m, j, self.q_top)
                total = total + self._mul(self._mul(b, self._qm1(j - 1)), self._g[m - j])
            if any(c < 0 for c in total.coeffs):
                raise ConsistencyError(f"g_{m} has a negative coefficient")
            if self.q_top is None and sum(total.coeffs) != math.factorial(m):
                raise ConsistencyError(f"g_{m}(1) != {m}!")
            self._g.append(total)

    def g(self, n: int) -> IntPoly:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.ensure(n)
        return self._g[n]

    def a_poly(self, k: int, j: int) -> IntPoly:
        """a_{k,j} for k >= 2; zero outside 1 <= j <= k-1."""
        if k < 2:
            raise ValueError("k must be >= 2")
        if j <= 0 or j >= k:
            return IntPoly()
        while len(self._a) <= k:
            m = len(self._a)
            prev, prev2 = self._a[m - 1], self._a[m - 2]
            row = {}
            one_plus_q = IntPoly([1, 1])
            for jj in range(1, m):
                val = (
                    one_plus_q * prev.get(jj, IntPoly())
                    - Q * prev2.get(jj, IntPoly())
                    + prev.get(jj - 1, IntPoly())
                )
                if val:
                    row[jj] = val
            self._a.append(row)
        return self._a[k].get(j, IntPoly())

    def g1k(self, n: int, k: int) -> IntPoly:
        """g_n(1k) for 2 <= k <= n."""
        if not 2 <= k <= n:
            raise ValueError(f"k must lie in [2, {n}]")
        key = (n, k)
        cached = self._g1k.get(key)
        if cached is not None:
            return cached
        if k == 2:
            val = self.g(n - 1) * 2 if n >= 2 else IntPoly()
        else:
            val = IntPoly()
            for j in range(1, k):
                a = self.a_poly(k, j)
                if a:
                    val = val + self._mul(self._mul(a, self._qm1(j - 1)), self.g(n - j))
        self._g1k[key] = val
        return val

    def coeff(self, n: int, r: int, k: int | None = None) -> int:
        """[q^r] g_n, or [q^r] g_n(1k) when k is given.  Returns 0 for any
        k beyond n (no flattening of length n starts 1, k then); raises
        IndexError when r lies above the table's q_top."""
        if r < 0:
            raise ValueError("r must be >= 0")
        if self.q_top is not None and r > self.q_top:
            raise IndexError(f"q^{r} lies above this table's truncation q^{self.q_top}")
        if k is None:
            return self.g(n)[r]
        if k > n:
            return 0
        return self.g1k(n, k)[r]


# A lazily grown table shared by the convenience functions and the CLI.
_shared: GTable | None = None


def shared_table(n_min: int = 2) -> GTable:
    global _shared
    if _shared is None:
        _shared = GTable(n_min)
    else:
        _shared.ensure(n_min)
    return _shared


def g_poly(n: int, table: GTable | None = None) -> IntPoly:
    return (table or shared_table(n)).g(n)


def avoider_count(n: int) -> int:
    """Number of permutations of length n whose flattening avoids 13-2.

    Computed through the q = 0 specialization of the g recurrence,

        f_m = sum_{j=1}^{m-1} b_{m,j}(0) (-1)^{j-1} f_{m-j},

    with b_{m,j}(0) = ((m-1+j)/j) C(m-2, j-1) taken from ``b_poly``, whose
    exact integer division raises on a remainder, and asserted against the
    closed value 2^{n-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    f = [1]
    for m in range(2, n + 1):
        f.append(sum(
            b_poly(m, j, 0)[0] * (-1) ** (j - 1) * f[m - 1 - j] for j in range(1, m)
        ))
    result = f[n - 1]
    if result != 2 ** (n - 1):
        raise ConsistencyError(f"avoider recurrence gave {result}, expected 2^{n - 1}")
    return result


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def average_occurrences(n: int, table: GTable | None = None) -> Fraction:
    """Mean number of 13-2 occurrences over flattenings of S_n, computed
    as g_n'(1)/n! and asserted equal to (n^2 + 3n + 8)/12 - H_n."""
    g = g_poly(n, table)
    mean = Fraction(g.derivative().eval_at(1), math.factorial(n))
    closed = Fraction(n * n + 3 * n + 8, 12) - harmonic(n)
    if mean != closed:
        raise ConsistencyError(f"average for n={n}: table gives {mean}, closed form {closed}")
    return mean


# ---------------------------------------------------------------------------
# Closed form for the a and b tables
# ---------------------------------------------------------------------------

@dataclass
class ClosedFormReport:
    """Outcome of checking the rational closed form

        A(x, y) = (1 - qx + xy) / ((1 - x)(1 - qx) - xy)

    against the recurrence tables: [x^{k-2} y^{j-1}] A = a_{k,j}, and the
    column sums over k <= n reproduce b_{n,j} for j >= 2."""

    k_max: int
    n_max: int
    mismatches: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def _a_series(x_top: int, y_top: int) -> list[list[IntPoly]]:
    """Taylor coefficients of A(x, y) as IntPoly-in-q entries A[i][j]."""
    zero = IntPoly()
    one_plus_q = IntPoly([1, 1])
    # Inverse E of the denominator 1 - (1+q)x + qx^2 - xy, then A = numerator * E.
    E = [[zero] * (y_top + 1) for _ in range(x_top + 1)]
    E[0][0] = IntPoly([1])
    for i in range(x_top + 1):
        for j in range(y_top + 1):
            if i == j == 0:
                continue
            val = zero
            if i >= 1:
                val = val + one_plus_q * E[i - 1][j]
            if i >= 2:
                val = val - Q * E[i - 2][j]
            if i >= 1 and j >= 1:
                val = val + E[i - 1][j - 1]
            E[i][j] = val
    A = [[zero] * (y_top + 1) for _ in range(x_top + 1)]
    for i in range(x_top + 1):
        for j in range(y_top + 1):
            val = E[i][j]
            if i >= 1:
                val = val - Q * E[i - 1][j]
            if i >= 1 and j >= 1:
                val = val + E[i - 1][j - 1]
            A[i][j] = val
    return A


def verify_a_closed_form(
    k_max: int = 15, n_max: int = 15, table: GTable | None = None
) -> ClosedFormReport:
    """Expand the closed form of A(x, y) and compare every coefficient
    with the a recurrence, then compare the partial column sums with
    b_poly (and its alternative form).  Returns a report listing the first
    mismatching indices, if any."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    table = table or shared_table(2)
    top = max(k_max, n_max)
    A = _a_series(top - 2, top - 2)
    report = ClosedFormReport(k_max, n_max)
    for k in range(2, k_max + 1):
        for j in range(1, top - 1 + 1):
            want = table.a_poly(k, j)
            got = A[k - 2][j - 1] if j - 1 <= top - 2 else IntPoly()
            if want != got:
                report.mismatches.append(f"a({k},{j}): series {got!r} != recurrence {want!r}")
    for n in range(3, n_max + 1):
        for j in range(2, n):
            total = IntPoly()
            for k in range(j + 1, n + 1):  # a_{k,j} = 0 for k <= j
                total = total + A[k - 2][j - 1]
            want = b_poly(n, j)
            if total != want or want != b_poly_alt(n, j):
                report.mismatches.append(f"b({n},{j}): column sum {total!r} != {want!r}")
    return report
