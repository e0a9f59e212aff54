"""Ground-truth layer for flattened permutations.

A flattened permutation is the word left by erasing the parentheses of
a permutation's standard cycle form (``constructions.flatten``); it
always begins with 1.  This module holds the oracle alone, so
``distribution`` compiles only the walk: the explicit constructions live
in ``constructions``, which imports this module and not the reverse.

An occurrence of the vincular pattern 13-2 in a word w is a pair of
indices (i, j), 2 <= i < j <= n, with w[i-1] < w[j] < w[i] (1-based):
an adjacent ascent whose gap is filled by some later letter.

Everything here is exact and brute force by design: this module is the
oracle the algebraic routes are validated against.  Its distributions
come from a depth-first walk over the (n-1)! flattened words rather than
the n! permutations: a word starting with 1 is the flattening of exactly
2^(rho-1) permutations, rho being its number of right-to-left minima,
because the cycle starts may be any subset of those minima that contains
position 1.  The walk is plain recursion that adds each word's weight
into a list of counts.  Once the prefix is placed and at most four
letters are left, one frame ends every word that starts so: it reads one
row per order of the letters left from a table, ``_TAILS``, holding what
that order adds to the word's occurrences and minima.  The table is
built at import by the walk's own rule for placing a letter.  No count
of a subtree is stored or reused: every word still adds its own weight.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Sequence

# Defined in _common, so the CLI can use them without loading this module.
from ._common import DEFAULT_ENUM_LIMIT, EnumerationLimitError


class OccurrenceTable(NamedTuple):
    """Distribution of 13-2 occurrence counts over the permutations whose
    flattening starts with ``prefix`` (empty prefix means all of S_n).

    counts maps an occurrence count r to the number of such permutations;
    only nonzero entries are stored.  A named tuple, like every record in
    the package, so that no command loads ``dataclasses``.
    """

    n: int
    counts: dict[int, int]
    prefix: tuple[int, ...] = ()

    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, r: int) -> int:
        return self.counts.get(r, 0)

    def max_occurrences(self) -> int:
        return max(self.counts, default=0)

    def coeff_list(self) -> list[int]:
        """Dense list [counts[0], counts[1], ...] up to the last nonzero."""
        top = self.max_occurrences()
        return [self.count(r) for r in range(top + 1)] if self.counts else []


def check_prefix(n: int, prefix: Sequence[int]) -> tuple[int, ...]:
    """The prefix as a tuple; raises ValueError unless its letters are
    distinct and lie in 1..n."""
    pre = tuple(prefix)
    if len(set(pre)) != len(pre):
        raise ValueError("prefix letters must be distinct")
    for a in pre:
        if not 1 <= a <= n:
            raise ValueError(f"prefix letter {a} outside 1..{n}")
    return pre


#: ``_TAILS[k][below]`` holds one pair (extra, minima) for each order of
#: the last k letters of a word, ``below`` of them lying under the letter
#: placed before them: ``extra`` counts the 13-2 occurrences whose ascent
#: starts at that letter or later, and ``minima`` the right-to-left minima
#: among the k.  Its rows follow the walk's placement rule: placing the
#: i-th smallest of the k letters closes an ascent over the max(0, i -
#: below) letters between, each adding one occurrence later; the letter
#: is a minimum when i = 0, and i of the k - 1 letters left lie below it.
_TAILS = ((((0, 0),),),)
for k in range(1, 5):
    _TAILS += (tuple(
        tuple((max(0, i - below) + e, (i == 0) + m) for i in range(k) for e, m in _TAILS[k - 1][i])
        for below in range(k + 1)
    ),)
del k


def _walk(counts: list[int], n: int, pre: tuple[int, ...]) -> None:
    """Add the weight of every flattened word of length n that starts
    with the checked prefix ``pre`` (empty or led by 1) to
    ``counts[occurrences]``, walking the words depth first from the
    letter 1.

    A letter is a right-to-left minimum exactly when it is the smallest
    letter not yet placed; ``rho`` counts those placed so far.  ``gaps[i]``
    counts the adjacent ascents placed so far whose gap contains
    ``unused[i]``: the occurrences that letter adds when it is placed.
    ``unused`` is sorted, so placing ``unused[i]`` after ``prev`` bumps
    the gaps of the run ``unused[lo:i]``, ``lo = bisect_right(unused,
    prev)``: the letters strictly between the two (none unless lo < i).

    Once the prefix is placed and fewer than ``len(_TAILS)`` letters are
    left, one frame ends every word: it adds sum(gaps), owed to ascents
    already placed, and reads one row per word from
    ``_TAILS[len(unused)][lo]``, built by the same placement rule.  So
    each word adds its own weight, 2^(rho-1) times 2^minima, at its own
    count.
    """
    fixed = len(pre)
    tails = _TAILS

    def extend(d, prev, unused, gaps, occ, rho):
        lo = bisect_right(unused, prev)
        if d >= fixed and len(unused) < len(tails):
            occ += sum(gaps)
            weight = 1 << (rho - 1)
            for extra, minima in tails[len(unused)][lo]:
                counts[occ + extra] += weight << minima
            return
        for i, c in enumerate(unused):
            if d < fixed and c != pre[d]:
                continue
            rest = unused[:i] + unused[i + 1:]
            if lo < i:
                g = gaps[:lo] + [x + 1 for x in gaps[lo:i]] + gaps[i + 1:]
            else:
                g = gaps[:i] + gaps[i + 1:]
            extend(d + 1, c, rest, g, occ + gaps[i], rho + (i == 0))

    extend(1, 1, list(range(2, n + 1)), [0] * (n - 1), 0, 1)


def distribution(
    n: int,
    prefix: Sequence[int] = (),
    limit: int = DEFAULT_ENUM_LIMIT,
) -> OccurrenceTable:
    """Exhaustive occurrence distribution over S_n, optionally restricted
    to flattenings starting with ``prefix``.

    >>> distribution(3).counts
    {0: 4, 1: 2}
    >>> distribution(3, prefix=(1, 3)).counts
    {1: 2}
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > limit:
        raise EnumerationLimitError(
            f"exhaustive enumeration of S_{n} exceeds the limit {limit}"
        )
    pre = check_prefix(n, prefix)
    counts = [0] * (max_occurrences(n) + 1)
    if pre[:1] in ((), (1,)):
        _walk(counts, n, pre)
    return OccurrenceTable(n, {r: c for r, c in enumerate(counts) if c}, pre)


def max_occurrences(n: int) -> int:
    """Largest possible number of 13-2 occurrences in a flattened word of
    length n: n(n-2)/4 for even n, (n-1)^2/4 for odd n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (n - 2) // 4 if n % 2 == 0 else (n - 1) ** 2 // 4
