"""Exact q-polynomial recurrences for the 13-2 statistic on flattened
permutations.

g_n is the polynomial whose q^r coefficient counts the permutations of
length n whose flattening has exactly r occurrences of 13-2; g_n(1k)
restricts to flattenings starting with the letters 1, k.  ``GTable``
generates both from pure recurrences: the column g_n by the b-sum

    g_n = sum_{j=1}^{n-1} b_{n,j} (q-1)^{j-1} g_{n-j},

and each row g_n(12), g_n(13), ... by the paper's short rules

    g_n(12) = 2 g_{n-1},
    g_n(13) = g_{n-1} - 2(1-q) g_{n-2},
    g_n(14) = g_{n-1} - (1-q)(3+2q) g_{n-2} + 2(1-q)^2 g_{n-3},
    g_n(1k) = (1+q) g_n(1,k-1) - q g_n(1,k-2) - (1-q) g_{n-1}(1,k-1)   (k >= 5).

The integer-polynomial coefficients b_{n,j} (a closed form) and a_{k,j}
(a recurrence) are module functions.  The a-sum

    g_n(1k) = sum_{j=1}^{k-1} a_{k,j} (q-1)^{j-1} g_{n-j}   (3 <= k <= n)

is not used by the table; ``flatperm.checks`` keeps it as the independent
reference for the short rules.  Derived exact facts (the 2^{n-1} avoider
count, the harmonic-number average) are recomputed from independent
identities and asserted, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import ConsistencyError, IntPoly, XSeries

#: q, q - 1, 1 + q and 1 - q as polynomials.
Q = IntPoly([0, 1])
Q_MINUS_1 = IntPoly([-1, 1])
ONE_PLUS_Q = IntPoly([1, 1])
ONE_MINUS_Q = IntPoly([1, -1])


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


def a_rows(k_max: int) -> list[list[IntPoly]]:
    """The coefficient polynomials a_{k,j} as rows: ``a_rows(k_max)[k]``
    is [a_{k,1}, ..., a_{k,k-1}] for 2 <= k <= k_max (rows 0 and 1 are
    empty), from a_{2,1} = a_{3,1} = 1, a_{3,2} = 2 and, for k >= 4,

        a_{k,j} = (1+q) a_{k-1,j} - q a_{k-2,j} + a_{k-1,j-1}.
    """
    zero = IntPoly()
    rows = [[], [], [IntPoly([1])], [IntPoly([1]), IntPoly([2])]]
    for k in range(4, k_max + 1):
        prev, prev2 = rows[k - 1] + [zero], rows[k - 2] + [zero, zero]
        rows.append([
            ONE_PLUS_Q * prev[i] - Q * prev2[i] + (prev[i - 1] if i else zero)
            for i in range(k - 1)
        ])
    return rows[: k_max + 1]


def a_poly(k: int, j: int) -> IntPoly:
    """a_{k,j} for k >= 2; zero outside 1 <= j <= k-1.  Each call grows
    the rows of ``a_rows`` through k afresh."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return a_rows(k)[k][j - 1] if 1 <= j < k else IntPoly()


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

    The g column is filled eagerly through n_max at construction, each
    g_n by the b-sum.  The row g_n(12), g_n(13), ... of one n is grown
    lazily by the short rules, only through the largest k asked for, and
    memoized per n:

        g_n(12) = 2 g_{n-1},
        g_n(13) = g_{n-1} - 2(1-q) g_{n-2},
        g_n(14) = g_{n-1} - (1-q)(3+2q) g_{n-2} + 2(1-q)^2 g_{n-3},
        g_n(1k) = (1+q) g_n(1,k-1) - q g_n(1,k-2) - (1-q) g_{n-1}(1,k-1)
                                                              (k >= 5),

    so each entry costs a few products by a polynomial of degree at most
    2.  The column is not taken as the row sum, which would build every
    row through k = n.  A table grows as it is read, so give each thread
    its own.

    With ``q_top`` unset (the default) every polynomial is kept in full
    and each g_n is checked for nonnegative coefficients summing to n!.
    This full table backs ``gpoly``, ``distribution``, ``average``, the
    ``verify`` suites and any ``Pipeline`` given a table explicitly.

    With ``q_top`` set, the table holds ``XSeries`` in q of order q_top:
    every g_n, g_n(1k) and (q-1)^e power is such a series, and each b_{m,j}
    row is formed only through q^q_top.  The products are the same ``*``
    as in full mode, with the series on the left, so they are cut at
    q^q_top; that is all a kernel pipeline through r_max = q_top reads, and
    ``Pipeline`` builds such a table for itself when it is given none.
    Nonnegativity is checked on the kept coefficients; the n! mass needs
    the whole polynomial and is checked in full mode only.  ``coeff``
    raises IndexError for a power above q_top.
    """

    def __init__(self, n_max: int = 2, q_top: int | None = None):
        if q_top is not None and q_top < 0:
            raise ValueError("q_top must be >= 0")
        self.q_top = q_top
        if q_top is None:
            self._zero, one = IntPoly(), IntPoly([1])
        else:
            self._zero, one = XSeries.zero(q_top), XSeries.one(q_top)
        self._g = [self._zero, one]  # index 0 unused
        self._rows: dict[int, list[IntPoly | XSeries]] = {}  # n -> [g_n(12), g_n(13), ...]
        self._qm1_pows = [one]
        self.ensure(n_max)

    @property
    def n_max(self) -> int:
        return len(self._g) - 1

    def _qm1(self, e: int) -> IntPoly | XSeries:
        while len(self._qm1_pows) <= e:
            self._qm1_pows.append(self._qm1_pows[-1] * Q_MINUS_1)
        return self._qm1_pows[e]

    def ensure(self, n: int) -> None:
        while self.n_max < n:
            m = self.n_max + 1
            total = self._zero
            for j in range(1, m):
                total = total + self._qm1(j - 1) * b_poly(m, j, self.q_top) * self._g[m - j]
            if any(c < 0 for c in total.coeffs):
                raise ConsistencyError(f"g_{m} has a negative coefficient")
            if self.q_top is None and sum(total.coeffs) != math.factorial(m):
                raise ConsistencyError(f"g_{m}(1) != {m}!")
            self._g.append(total)

    def g(self, n: int) -> IntPoly | XSeries:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.ensure(n)
        return self._g[n]

    def g1k(self, n: int, k: int) -> IntPoly | XSeries:
        """g_n(1k) for 2 <= k <= n."""
        if not 2 <= k <= n:
            raise ValueError(f"k must lie in [2, {n}]")
        row = self._rows.setdefault(n, [])
        while len(row) < k - 1:
            j = len(row) + 2
            if j == 2:
                val = self.g(n - 1) * 2
            elif j == 3:
                val = self.g(n - 1) - self.g(n - 2) * (ONE_MINUS_Q * 2)
            elif j == 4:
                val = (
                    self.g(n - 1)
                    - self.g(n - 2) * (ONE_MINUS_Q * IntPoly([3, 2]))
                    + self.g(n - 3) * (ONE_MINUS_Q * ONE_MINUS_Q * 2)
                )
            else:
                val = row[-1] * ONE_PLUS_Q - row[-2] * Q - self.g1k(n - 1, j - 1) * ONE_MINUS_Q
            row.append(val)
        return row[k - 2]

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
    as g_n'(1)/n! from the given full table (or a new one) and asserted
    equal to (n^2 + 3n + 8)/12 - H_n."""
    g = (table or GTable(n)).g(n)
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


def verify_a_closed_form(k_max: int = 15, n_max: int = 15) -> ClosedFormReport:
    """Expand the closed form of A(x, y) and compare every coefficient
    with the a recurrence, then compare the partial column sums with
    b_poly (and its alternative form).  Returns a report listing the first
    mismatching indices, if any."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    top = max(k_max, n_max)
    A = _a_series(top - 2, top - 2)
    rows = a_rows(k_max)
    report = ClosedFormReport(k_max, n_max)
    for k in range(2, k_max + 1):
        for j in range(1, top - 1 + 1):
            want = rows[k][j - 1] if j < k else IntPoly()
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
