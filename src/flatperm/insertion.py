"""The 13-2 distribution on flattened permutations by insertion, cut at q^top.

Build a flattened word from left to right, starting with 1.  What is left
to count depends on two numbers only: m, the number of letters not yet
placed, and p, how many of those lie below the last letter placed.
Placing the unused letter of rank k (1 <= k <= m) closes an ascent
exactly when k > p.  That ascent's gap holds the k - 1 - p unused letters
of ranks p+1 .. k-1; each of them is placed later and then adds one
occurrence, so the step charges q^(k-1-p) at once.  The letter of rank 1
is a right-to-left minimum and carries the weight 2 (a cycle may start
there or not).  So the generating polynomial f(m, p) of the completions is

    f(0, 0) = 1,
    f(m, p) = 2 f(m-1, 0) + S(p) + T(p),
    S(p) = sum_{p'=1}^{min(p, m-1)} f(m-1, p'),
    T(p) = q (f(m-1, p+1) + T(p+1)),   T(p) = 0 for p >= m - 1,

and g_n = f(n-1, 0), g_n(12) = 2 f(n-2, 0) and g_n(1k) = q^(k-2) f(n-2, k-2)
for k >= 3.  It is a generating tree with two labels, a finite-label case
of the insertion encoding (Albert, Linton and Ruskuc, EJC 2005), and the
recurrence in a catalytic variable that the kernel method solves
(Prodinger, SLC 2004).

Cut at q^top, [q^j] f(m, p) is needed only for j <= top - p: the cell
[q^r] g_n(1k) with r <= top is [q^(r-k+2)] f(n-2, k-2).  That triangle
closes under the recurrence, since T charges q^(p'-p) for the entry p', so
a row keeps the entries p <= top, each f(m, p) through q^(top-p).  At
q = 1, f(m, p) = (m+1)! whatever p is, so in a row m <= n_max - 1 no kept
coefficient, and no partial sum of them, exceeds n_max!.  Each cut series
is therefore one nonnegative integer holding its coefficient of q^j in the
bytes [j W, (j+1) W), W = ceil(bits(n_max!) / 8): a sum is one integer
addition, a product by q one shift by 8 W bits, and no slot ever carries
into the next.  A finished row is kept as those bytes, so a cell is read
by slicing out its W bytes, and the integers of a row live only until
the next row is built.

This route imports nothing from the rest of flatperm.
"""

from __future__ import annotations

import math


class InsertionCount:
    """g_n and g_n(1k) for n <= n_max, cut at q^top, by the insertion
    recurrence of the module docstring.  Every row is built at
    construction; the count is then only read."""

    def __init__(self, top: int, n_max: int):
        if top < 0:
            raise ValueError("top must be >= 0")
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        self.top, self.n_max = top, n_max
        self.width = -(-math.factorial(n_max).bit_length() // 8)  # W, in bytes
        w = 8 * self.width
        masks = [(1 << w * (top - p + 1)) - 1 for p in range(top + 1)]
        prev = [1]
        # _rows[m][p]: f(m, p) through q^(top-p) as bytes, p <= min(m, top)
        self._rows = [[self._bytes(0, 1)]]
        for m in range(1, n_max):
            last = len(prev) - 1  # min(m - 1, top)
            tails = [0] * (min(m, top) + 1)  # T(p); zero from p = last on
            t = 0
            for p in range(last - 1, -1, -1):
                t = (prev[p + 1] + t) << w
                tails[p] = t
            two, s, row = prev[0] << 1, 0, []
            for p, tail in enumerate(tails):
                if 1 <= p <= last:
                    s += prev[p]
                row.append((two + s + tail) & masks[p])
            self._rows.append([self._bytes(p, x) for p, x in enumerate(row)])
            prev = row

    def _bytes(self, p: int, packed: int) -> bytes:
        return packed.to_bytes(self.width * (self.top - p + 1), "little")

    def _locate(self, r: int, k: int | None) -> tuple[int, int, int, int] | None:
        """(n - m, p, j, weight) such that [q^r] g_n(1k), or [q^r] g_n
        when k is None, is weight * [q^j] f(m, p); None when r < k - 2,
        where it vanishes for every n."""
        if r < 0:
            raise ValueError("r must be >= 0")
        if r > self.top:
            raise IndexError(f"q^{r} lies above this count's cut q^{self.top}")
        if k is None:
            return 1, 0, r, 1
        if k < 2:
            raise ValueError("k must be >= 2")
        if r < k - 2:
            return None
        return 2, k - 2, r - k + 2, 2 if k == 2 else 1

    def coeff(self, n: int, r: int, k: int | None = None) -> int:
        """[q^r] g_n, or [q^r] g_n(1k) when k is given.  Returns 0 for any
        k beyond n; raises IndexError when r lies above the cut q^top."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must lie in [1, {self.n_max}]")
        cell = self._locate(r, k)
        if cell is None or k is not None and k > n:
            return 0
        shift, p, j, weight = cell
        w = self.width
        return weight * int.from_bytes(self._rows[n - shift][p][w * j : w * (j + 1)], "little")

    def column(self, r: int, k: int, n_lo: int) -> list[int]:
        """``coeff(n, r, k)`` for n = n_lo .. n_max, with the arguments
        checked once and one byte slice per cell."""
        n_max = self.n_max
        if not 1 <= n_lo <= n_max + 1:
            raise ValueError(f"n must lie in [1, {n_max}]")
        cell = self._locate(r, k)
        if cell is None:
            return [0] * (n_max + 1 - n_lo)
        shift, p, j, weight = cell
        # Row m = n - shift holds f(m, p) only for p <= m: zero for k > n.
        first = min(max(n_lo, p + shift), n_max + 1)
        w, rows = self.width, self._rows
        a, b = w * j, w * (j + 1)
        return [0] * (first - n_lo) + [
            weight * int.from_bytes(rows[m][p][a:b], "little")
            for m in range(first - shift, n_max + 1 - shift)
        ]
