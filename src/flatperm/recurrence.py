"""Exact q-polynomial recurrences for the 13-2 statistic on flattened
permutations.

g_n is the polynomial whose q^r coefficient counts the permutations of
length n whose flattening has exactly r occurrences of 13-2; g_n(1k)
restricts to flattenings starting with the letters 1, k.  ``GTable``
generates both from pure recurrences: each row g_n(12), g_n(13), ... by
the paper's short rules

    g_n(12) = 2 g_{n-1},
    g_n(13) = g_{n-1} - 2(1-q) g_{n-2},
    g_n(14) = g_{n-1} - (1-q)(3+2q) g_{n-2} + 2(1-q)^2 g_{n-3},
    g_n(1k) = (1+q) g_n(1,k-1) - q g_n(1,k-2) - (1-q) g_{n-1}(1,k-1)   (k >= 5),

each written as ``IntPoly`` sums, integer multiples and shifts: a factor
q is ``shift(1)``, so (1-q) p is p - qp, and the last rule is
a - c + q(a - b + c) for a = g_n(1,k-1), b = g_n(1,k-2) and
c = g_{n-1}(1,k-1).  The column g_n is the b-sum

    g_n = sum_{j=1}^{n-1} b_{n,j} (q-1)^{j-1} g_{n-j},

formed as one Kronecker-packed integer sum: each b_{n,j} and g_{n-j} is
evaluated at B = 2^w, and Horner's rule in B - 1,

    acc <- acc (B - 1) + b_{n,j}(B) g_{n-j}(B)   for j = n-1, ..., 1,

gives g_n(B) with no (q-1)^{j-1} factor formed at all; each step is a
shift, a subtraction and one product of two integers, and only the result
is unpacked, with signed digits.  Evaluation at B is a ring map, so the
result is g_n(B) exactly.  The slot width w >= bits(sum_j 2^(j-1)
||b_{n,j}||_1 ||g_{n-j}||_inf) + 2 bounds every coefficient of the sum,
since ||(q-1)^(j-1)||_1 = 2^(j-1), and of each (nonzero) factor, so the
digits are the coefficients exactly.  Each g_{n-j} is checked
nonnegative as it joins the table, so its norm is its largest
coefficient; ||b_{n,j}||_1 sums magnitudes, so a b row with a wrong sign
still lands in its slots and fails the table's checks.

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
from typing import TYPE_CHECKING

from .algebra import ConsistencyError, IntPoly, _pack, _unpack

if TYPE_CHECKING:
    from fractions import Fraction


def _binom(m: int, k: int) -> int:
    """Binomial coefficient with C(m, -1) = 1 iff m = -1 (else 0), the
    convention under which the j = 1 column of b reduces to the constant n."""
    if k < 0:
        return 1 if (k == -1 and m == -1) else 0
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
    # For j >= 2 and k < n - j both binomials have 0 <= bottom <= top.
    for k in range(n - j if top is None else min(n - j, top + 1)):
        num = (n - 1 + j - k) * math.comb(j + k - 2, j - 2) * math.comb(n - 2 - k, j - 1)
        c, rem = divmod(num, j)
        if rem:
            from fractions import Fraction

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
        # (1+q) a - q b = a + q (a - b)
        rows.append([
            prev[i] + (prev[i] - prev2[i]).shift(1) + (prev[i - 1] if i else zero)
            for i in range(k - 1)
        ])
    return rows[: k_max + 1]


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

    The g column is filled eagerly through n_max at construction.  The
    row g_n(12), g_n(13), ... of one n is grown lazily by the short rules
    of the module docstring, only through the largest k asked for, and
    memoized per n.  A table grows as it is read, so give each thread its
    own.

    Every polynomial is kept in full.  Each g_n is the b-sum over the
    column below it, formed as one packed Horner sum whose slot width
    bounds every coefficient (see the module docstring), and is checked
    for nonnegative coefficients summing to n!.  No row vanishes, so the
    column is not taken as the row sum, which would build every row
    through k = n.  The table backs ``gpoly``, ``distribution`` past the
    enumeration limit, ``average``, the ``verify`` suites and the
    boundary data of every ``Pipeline``; a pipeline's cross-check reads
    the independent insertion count (``flatperm.insertion``) instead.
    """

    def __init__(self, n_max: int = 2):
        self._g = [IntPoly(), IntPoly([1])]  # index 0 unused
        self._rows: dict[int, list[IntPoly]] = {}  # n -> [g_n(12), g_n(13), ...]
        self.ensure(n_max)

    @property
    def n_max(self) -> int:
        return len(self._g) - 1

    def ensure(self, n: int) -> None:
        """Grow the g column through g_n, each g_m as the packed Horner
        b-sum of the module docstring."""
        g = self._g
        while self.n_max < n:
            m = self.n_max + 1
            bs = [b_poly(m, j).coeffs for j in range(1, m)]  # bs[j - 1] = b_{m,j}
            bound = sum(
                sum(map(abs, b)) * max(g[m - j].coeffs) << (j - 1) for j, b in enumerate(bs, 1)
            )
            width = (bound.bit_length() + 2 + 7) // 8
            w = 8 * width
            acc = 0
            for j in range(m - 1, 0, -1):
                acc = (acc << w) - acc + _pack(bs[j - 1], width) * _pack(g[m - j].coeffs, width)
            length = max(j + len(b) + len(g[m - j].coeffs) - 2 for j, b in enumerate(bs, 1))
            total = IntPoly(_unpack(acc, width, length))
            if any(c < 0 for c in total.coeffs):
                raise ConsistencyError(f"g_{m} has a negative coefficient")
            if sum(total.coeffs) != math.factorial(m):
                raise ConsistencyError(f"g_{m}(1) != {m}!")
            g.append(total)

    def g(self, n: int) -> IntPoly:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.ensure(n)
        return self._g[n]

    def g1k(self, n: int, k: int) -> IntPoly:
        """g_n(1k) for 2 <= k <= n."""
        if not 2 <= k <= n:
            raise ValueError(f"k must lie in [2, {n}]")
        row = self._rows.setdefault(n, [])
        while len(row) < k - 1:
            j = len(row) + 2
            if j == 2:
                val = self.g(n - 1) * 2
            elif j == 3:
                b = self.g(n - 2)
                val = self.g(n - 1) - (b - b.shift(1)) * 2
            elif j == 4:
                # g_{n-1} - (1-q) u with u = (3+2q) g_{n-2} - 2(1-q) g_{n-3}
                b, c = self.g(n - 2), self.g(n - 3)
                u = b * 3 + b.shift(1) * 2 - (c - c.shift(1)) * 2
                val = self.g(n - 1) - (u - u.shift(1))
            else:
                a, b, c = row[-1], row[-2], self.g1k(n - 1, j - 1)
                val = a - c + (a - b + c).shift(1)
            row.append(val)
        return row[k - 2]

    def coeff(self, n: int, r: int, k: int) -> int:
        """[q^r] g_n(1k).  Returns 0 for any k beyond n (no flattening of
        length n starts 1, k then)."""
        if r < 0:
            raise ValueError("r must be >= 0")
        if k > n:
            return 0
        return self.g1k(n, k)[r]


def avoider_counts(n_max: int) -> list[int]:
    """f_1, ..., f_{n_max}, where f_n counts the permutations of length n
    whose flattening avoids 13-2, by one pass of the q = 0 specialization
    of the g recurrence,

        f_m = sum_{j=1}^{m-1} b_{m,j}(0) (-1)^{j-1} f_{m-j},

    with b_{m,j}(0) = ((m-1+j)/j) C(m-2, j-1) taken from ``b_poly``, whose
    exact integer division raises on a remainder.  The values are not
    checked here; see ``avoider_count``."""
    if n_max < 1:
        raise ValueError("n must be >= 1")
    f = [1]
    for m in range(2, n_max + 1):
        f.append(sum(
            b_poly(m, j, 0)[0] * (-1) ** (j - 1) * f[m - 1 - j] for j in range(1, m)
        ))
    return f


def avoider_count(n: int) -> int:
    """Number of permutations of length n whose flattening avoids 13-2,
    from ``avoider_counts`` and asserted against the closed value 2^{n-1}."""
    result = avoider_counts(n)[-1]
    if result != 2 ** (n - 1):
        raise ConsistencyError(f"avoider recurrence gave {result}, expected 2^{n - 1}")
    return result


def harmonic(n: int) -> Fraction:
    from fractions import Fraction

    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def check_average(n: int, table: GTable | None = None) -> int:
    """g_n'(1), the total of the 13-2 occurrences over the flattenings of
    S_n, from the given table (or a new one), asserted equal to
    n!((n^2 + 3n + 8)/12 - H_n) in integers:

        12 g_n'(1) = n! (n^2 + 3n + 8) - 12 sum_{k<=n} n!/k.

    Only a failure builds the two sides as fractions, for its message."""
    g = (table or GTable(n)).g(n)
    total = sum(r * c for r, c in enumerate(g.coeffs))  # g_n'(1)
    f = math.factorial(n)
    if 12 * total != f * (n * n + 3 * n + 8) - 12 * sum(f // k for k in range(1, n + 1)):
        from fractions import Fraction

        mean = Fraction(total, f)
        closed = Fraction(n * n + 3 * n + 8, 12) - harmonic(n)
        raise ConsistencyError(f"average for n={n}: table gives {mean}, closed form {closed}")
    return total


def average_occurrences(n: int, table: GTable | None = None) -> Fraction:
    """Mean number of 13-2 occurrences over flattenings of S_n, g_n'(1)/n!
    from the given table (or a new one), once ``check_average`` has
    asserted it equal to (n^2 + 3n + 8)/12 - H_n."""
    from fractions import Fraction

    return Fraction(check_average(n, table), math.factorial(n))


# ---------------------------------------------------------------------------
# Closed form for the a and b tables
# ---------------------------------------------------------------------------

def _a_series(x_top: int, y_top: int) -> list[list[IntPoly]]:
    """Taylor coefficients of A(x, y) = N/D as IntPoly-in-q entries
    A[i][j] = [x^i y^j] A, i <= x_top and j <= y_top, read off A D = N
    for D = 1 - (1+q)x + qx^2 - xy and N = 1 - qx + xy:

        A[i][j] = [x^i y^j] N + (1+q) A[i-1][j] - q A[i-2][j] + A[i-1][j-1],

    with entries of negative index zero.  (1+q) a - q b is a + q(a - b),
    so each entry is sums and one shift."""
    zero = IntPoly()
    numerator = {(0, 0): IntPoly([1]), (1, 0): IntPoly([0, -1]), (1, 1): IntPoly([1])}
    A = [[zero] * (y_top + 1) for _ in range(x_top + 1)]
    for i in range(x_top + 1):
        for j in range(y_top + 1):
            val = numerator.get((i, j), zero)
            if i >= 1:
                prev = A[i - 1][j]
                val = val + prev + (prev - (A[i - 2][j] if i >= 2 else zero)).shift(1)
                if j >= 1:
                    val = val + A[i - 1][j - 1]
            A[i][j] = val
    return A


def verify_a_closed_form(k_max: int = 15, n_max: int = 15) -> None:
    """Check the rational closed form

        A(x, y) = (1 - qx + xy) / ((1 - x)(1 - qx) - xy)

    against the recurrence tables: expand it and compare every
    coefficient [x^{k-2} y^{j-1}] A with a_{k,j}, then compare the column
    sums over k <= n with b_{n,j} (and its alternative form) for j >= 2.
    Returns None, or raises ``ConsistencyError`` at the first mismatching
    index, naming it and the values compared."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    top = max(k_max, n_max)
    A = _a_series(top - 2, top - 2)
    rows = a_rows(k_max)
    for k in range(2, k_max + 1):
        for j in range(1, top - 1 + 1):
            want = rows[k][j - 1] if j < k else IntPoly()
            got = A[k - 2][j - 1]
            if want != got:
                raise ConsistencyError(f"a({k},{j}): series {got!r} != recurrence {want!r}")
    for n in range(3, n_max + 1):
        for j in range(2, n):
            total = IntPoly()
            for k in range(j + 1, n + 1):  # a_{k,j} = 0 for k <= j
                total = total + A[k - 2][j - 1]
            want, alt = b_poly(n, j), b_poly_alt(n, j)
            if not total == want == alt:
                raise ConsistencyError(
                    f"b({n},{j}): column sum {total!r}, b_poly {want!r}, b_poly_alt {alt!r}"
                )
