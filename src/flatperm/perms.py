"""Ground-truth layer for flattened permutations.

A permutation of length n is a tuple of the letters 1..n in one-line
notation.  Its standard cycle form places the smallest letter of each
cycle first and orders cycles by increasing first letters; erasing the
parentheses yields the flattened permutation, which always begins with 1.

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

import itertools
from bisect import bisect_right
from typing import Iterable, NamedTuple, Sequence

# Defined in _common, so the CLI can use them without loading this module.
from ._common import DEFAULT_ENUM_LIMIT, EnumerationLimitError


Perm = tuple[int, ...]


def as_permutation(letters: Sequence[int]) -> Perm:
    """Validate and normalize a one-line permutation of {1, ..., n}."""
    p = tuple(letters)
    n = len(p)
    if n < 1:
        raise ValueError("a permutation must have length >= 1")
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"{p!r} is not a rearrangement of 1..{n}")
    return p


def standard_cycle_form(p: Sequence[int]) -> tuple[Perm, ...]:
    """Cycle decomposition with each cycle led by its minimum and cycles
    sorted by increasing minima.

    >>> standard_cycle_form((7, 1, 5, 6, 4, 3, 2, 8))
    ((1, 7, 2), (3, 5, 4, 6), (8,))
    """
    p = as_permutation(p)
    n = len(p)
    seen = bytearray(n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        x = p[start - 1]
        while x != start:
            cycle.append(x)
            seen[x] = 1
            x = p[x - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def cycles_to_permutation(cycles: Iterable[Sequence[int]]) -> Perm:
    """Read a cycle decomposition back as a one-line permutation."""
    cycles = [tuple(c) for c in cycles]
    n = sum(len(c) for c in cycles)
    out = [0] * n
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not 1 <= a <= n or out[a - 1]:
                raise ValueError("cycles do not form a permutation of 1..n")
            out[a - 1] = b
    return as_permutation(out)


def flatten(p: Sequence[int]) -> Perm:
    """Erase the parentheses of the standard cycle form.

    >>> flatten((7, 1, 5, 6, 4, 3, 2, 8))
    (1, 7, 2, 3, 5, 4, 6, 8)
    """
    return tuple(x for cycle in standard_cycle_form(p) for x in cycle)


def count_13_2(word: Sequence[int]) -> int:
    """Number of occurrences of the pattern 13-2 in a permutation.

    >>> count_13_2((1, 3, 2))
    1
    >>> count_13_2((1, 7, 2, 3, 5, 4, 6, 8))
    6
    """
    w = as_permutation(word)
    total = 0
    n = len(w)
    for i in range(1, n):
        lo = w[i - 1]
        hi = w[i]
        if lo + 1 < hi:
            for j in range(i + 1, n):
                if lo < w[j] < hi:
                    total += 1
    return total


# ---------------------------------------------------------------------------
# Exhaustive distributions
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Explicit constructions
# ---------------------------------------------------------------------------

def doubling_pair(sigma: Sequence[int]) -> tuple[Perm, Perm]:
    """The one-to-two map behind the prefix-12 doubling.

    Shifts every letter of sigma (length n-1) up by one and returns the
    two length-n permutations obtained by (a) prepending the fixed point 1
    as its own cycle and (b) splicing the letter 1 into the front of the
    first shifted cycle.  Both images flatten to the same word, which
    starts 1,2 and has exactly as many 13-2 occurrences as Flatten(sigma).

    >>> doubling_pair((2, 1))
    ((1, 3, 2), (2, 3, 1))
    """
    cycles = standard_cycle_form(sigma)
    shifted = [tuple(a + 1 for a in c) for c in cycles]
    pi = cycles_to_permutation([(1,)] + shifted)
    pi_prime = cycles_to_permutation([(1,) + shifted[0]] + shifted[1:])
    return pi, pi_prime


def max_occurrences(n: int) -> int:
    """Largest possible number of 13-2 occurrences in a flattened word of
    length n: n(n-2)/4 for even n, (n-1)^2/4 for odd n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (n - 2) // 4 if n % 2 == 0 else (n - 1) ** 2 // 4


def max_pattern_perm(n: int) -> Perm:
    """The interleaved word 1, n, 2, n-1, 3, n-2, ... attaining
    max_occurrences(n).

    >>> max_pattern_perm(5)
    (1, 5, 2, 4, 3)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    low = list(range(1, (n + 1) // 2 + 1))
    high = list(range(n, (n + 1) // 2, -1))
    out = []
    for a, b in itertools.zip_longest(low, high):
        if a is not None:
            out.append(a)
        if b is not None:
            out.append(b)
    return as_permutation(out)


def min_length_for(r: int) -> int:
    """Smallest length n whose maximal occurrence count reaches r; always
    at least 1 + 2*sqrt(r)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    n = 1
    while max_occurrences(n) < r:
        n += 1
    return n


def witness_perm(r: int, i: int) -> Perm:
    """A flattened word of length r+2 starting 1,(i+2) with exactly r
    occurrences of 13-2.

    For i = r this is 1,(r+2),(r+1),...,2.  For i < r the remaining
    letters are laid out in decreasing order, except that the three
    smallest, a < b < c, close the word as a, c, b.
    """
    if r < 4:
        raise ValueError("the construction requires r >= 4")
    if not 0 <= i <= r:
        raise ValueError(f"i must lie in [0, {r}]")
    if i == r:
        return as_permutation((1,) + tuple(range(r + 2, 1, -1)))
    rest = sorted(set(range(1, r + 3)) - {1, i + 2})
    a, b, c = rest[:3]
    middle = sorted(rest[3:], reverse=True)
    return as_permutation([1, i + 2] + middle + [a, c, b])
