"""Explicit constructions on permutations and flattened words.

A permutation of length n is a tuple of the letters 1..n in one-line
notation.  Its standard cycle form places the smallest letter of each
cycle first and orders cycles by increasing first letters; erasing the
parentheses yields the flattened permutation, which always begins with 1.

This module builds single words and counts their occurrences of 13-2 by
the definition: the cycle form and its inverse, the flattening, the
one-to-two map behind the prefix-12 doubling, the interleaved word that
attains ``perms.max_occurrences(n)``, and the prefix witness words with
exactly r occurrences.  ``checks.constructions_suite`` holds each of
them against the oracle in ``perms``, and ``witness`` prints them.
The oracle never calls them, so ``distribution`` neither compiles nor
imports this module.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .perms import max_occurrences

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
