from __future__ import annotations

import doctest
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatperm import constructions, perms
from flatperm.constructions import (
    count_13_2,
    cycles_to_permutation,
    doubling_pair,
    flatten,
    max_pattern_perm,
    min_length_for,
    standard_cycle_form,
    witness_perm,
)
from flatperm.perms import EnumerationLimitError, OccurrenceTable, distribution, max_occurrences

SRC = Path(__file__).resolve().parent.parent / "src"

perm_of = lambda n: st.permutations(list(range(1, n + 1)))
small_perm = st.integers(1, 7).flatmap(perm_of)


def test_docstring_examples():
    assert doctest.testmod(perms).failed == 0
    assert doctest.testmod(constructions).failed == 0


class TestCycleForm:
    def test_worked_example(self):
        assert standard_cycle_form((7, 1, 5, 6, 4, 3, 2, 8)) == (
            (1, 7, 2),
            (3, 5, 4, 6),
            (8,),
        )

    def test_singleton(self):
        assert standard_cycle_form((1,)) == ((1,),)

    def test_transposition(self):
        assert standard_cycle_form((2, 1)) == ((1, 2),)

    @pytest.mark.parametrize("bad", [(), (2,), (1, 1), (1, 3), (0, 1)])
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(ValueError):
            standard_cycle_form(bad)

    @given(small_perm)
    def test_invariants(self, p):
        cycles = standard_cycle_form(p)
        mins = [c[0] for c in cycles]
        assert all(c[0] == min(c) for c in cycles)
        assert mins == sorted(mins)
        assert sorted(itertools.chain.from_iterable(cycles)) == sorted(p)

    @given(small_perm)
    def test_round_trip(self, p):
        assert cycles_to_permutation(standard_cycle_form(p)) == tuple(p)


class TestFlatten:
    def test_worked_example(self):
        assert flatten((7, 1, 5, 6, 4, 3, 2, 8)) == (1, 7, 2, 3, 5, 4, 6, 8)

    def test_identity_is_fixed(self):
        for n in range(1, 8):
            ident = tuple(range(1, n + 1))
            assert flatten(ident) == ident

    def test_single_cycle(self):
        assert flatten((3, 1, 2)) == (1, 3, 2)

    @given(small_perm)
    def test_starts_with_one(self, p):
        word = flatten(p)
        assert word[0] == 1
        assert sorted(word) == sorted(p)


class TestCount132:
    def test_examples(self):
        assert count_13_2((1, 3, 2)) == 1
        assert count_13_2((1, 7, 2, 3, 5, 4, 6, 8)) == 6

    def test_increasing_has_none(self):
        for n in range(1, 9):
            assert count_13_2(tuple(range(1, n + 1))) == 0

    @given(small_perm)
    def test_matches_naive_triple_scan(self, p):
        w = tuple(p)
        n = len(w)
        naive = sum(
            1
            for i in range(1, n)
            for j in range(i + 1, n)
            if w[i - 1] < w[j] < w[i]
        )
        assert count_13_2(w) == naive


class TestDistribution:
    def test_s3(self):
        assert distribution(3).counts == {0: 4, 1: 2}

    def test_s3_prefix_13(self):
        assert distribution(3, (1, 3)).counts == {1: 2}

    def test_s1(self):
        assert distribution(1).counts == {0: 1}

    def test_table_is_an_immutable_value(self):
        table = distribution(4, (1, 3))
        assert table == OccurrenceTable(4, {1: 6}, (1, 3))
        assert table != OccurrenceTable(4, {1: 6})
        assert OccurrenceTable(4, {}).prefix == ()
        with pytest.raises(AttributeError):
            table.n = 5
        with pytest.raises(AttributeError):
            table.extra = 1
        assert (table.total(), table.count(1), table.count(7)) == (6, 6, 0)
        assert (table.max_occurrences(), table.coeff_list()) == (1, [0, 6])

    def test_totals_are_factorials(self):
        for n in range(1, 7):
            assert distribution(n).total() == math.factorial(n)

    def test_prefixes_partition(self):
        full = distribution(6)
        merged: dict[int, int] = {}
        for k in range(2, 7):
            for r, c in distribution(6, (1, k)).counts.items():
                merged[r] = merged.get(r, 0) + c
        assert merged == full.counts

    def test_limit_is_enforced(self):
        with pytest.raises(EnumerationLimitError):
            distribution(11)
        with pytest.raises(EnumerationLimitError):
            distribution(5, limit=4)

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            distribution(4, (1, 1))
        with pytest.raises(ValueError):
            distribution(4, (0,))

    def test_tail_respects_max_occurrences(self):
        for n in range(1, 8):
            assert distribution(n).max_occurrences() == max_occurrences(n)

    def test_counts_vanish_below_min_length(self):
        for n in range(1, 8):
            d = distribution(n)
            for r in range(1, max_occurrences(n) + 1):
                if n < min_length_for(r):
                    assert d.count(r) == 0


def brute_force_words(n):
    """Reference for the word walk: the flattening of every permutation
    of S_n, with its 13-2 count."""
    words = [flatten(p) for p in itertools.permutations(range(1, n + 1))]
    return [(word, count_13_2(word)) for word in words]


def right_to_left_minima(word):
    return sum(1 for i, a in enumerate(word) if all(a < b for b in word[i + 1:]))


@pytest.mark.parametrize("n", range(1, 9))
def test_distribution_matches_brute_force(n):
    words = brute_force_words(n)
    prefixes = [(), (1,)] + [(1, k) for k in range(2, n + 1)]
    prefixes += [(1, k, j) for k in range(2, n + 1) for j in {2, n} - {k}]
    for prefix in prefixes:
        want = Counter(occ for word, occ in words if word[: len(prefix)] == prefix)
        assert distribution(n, prefix).counts == dict(want), prefix
    if n >= 2:
        assert distribution(n, (2,)).counts == {}


def flattened_words(n):
    """Reference for the counting walk in ``perms``: a generator walk over
    the flattened words of length n, one letter per frame, yielding each
    word with its 13-2 count and its weight 2^(rho-1).  ``gaps[i]`` counts
    the adjacent ascents placed so far whose gap contains ``unused[i]``;
    ``rho`` counts the right-to-left minima (each the smallest letter not
    yet placed) placed so far."""

    def extend(word, unused, gaps, occ, rho):
        if len(unused) == 1:
            yield word + unused, occ + gaps[0], 1 << rho
            return
        prev = word[-1]
        for i, c in enumerate(unused):
            rest = unused[:i] + unused[i + 1:]
            g = gaps[:i] + gaps[i + 1:]
            if prev < c:
                g = tuple(x + (prev < u < c) for u, x in zip(rest, g))
            yield from extend(word + (c,), rest, g, occ + gaps[i], rho + (i == 0))

    if n == 1:
        yield (1,), 0, 1
    else:
        yield from extend((1,), tuple(range(2, n + 1)), (0,) * (n - 1), 0, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_distribution_matches_word_walk(n):
    """Every prefix of length <= 3, including those no word starts with,
    and every prefix of every length 0 .. n - 1 that a word starts with:
    from length n - 4 on, the walk's first call after the prefix is the
    frame that ends its words, reading the table of n - len(prefix)
    letters."""
    words = list(flattened_words(n))
    letters = range(1, n + 1)
    prefixes = {p for size in range(4) for p in itertools.permutations(letters, size)}
    prefixes |= {word[:size] for word, _, _ in words for size in range(n)}
    want = {prefix: Counter() for prefix in prefixes}
    for word, occ, weight in words:
        for size in range(n + 1):
            if word[:size] in want:
                want[word[:size]][occ] += weight
    for prefix in prefixes:
        assert distribution(n, prefix).counts == dict(sorted(want[prefix].items())), prefix


def test_tail_table_matches_naive_scan():
    """``perms._TAILS[k][below]`` holds, for each order of k letters after
    a letter that ``below`` of them lie under, in the order the walk
    places them, the 13-2 occurrences of the standardized word of k + 1
    letters and the right-to-left minima among the k; the walk's last
    frame ends four letters."""
    assert len(perms._TAILS) == 5
    for k, table in enumerate(perms._TAILS):
        assert len(table) == k + 1
        for below, rows in enumerate(table):
            want = []
            for tail in itertools.permutations(range(1, k + 1)):
                w = (below + 0.5,) + tail
                extra = sum(1 for i in range(1, k + 1) for j in range(i + 1, k + 1) if w[i - 1] < w[j] < w[i])
                want.append((extra, right_to_left_minima(tail)))
            assert rows == tuple(want), (k, below)


def _patch_is_seen(monkeypatch, k, below, order, field):
    """Whether ``distribution(k + 2, (1, below + 2))``, whose one frame
    reads ``_TAILS[k][below]``, changes once the pair ``order`` of that
    row has its ``field`` (extra or minima) one too large: the word of
    that pair moves up one count or doubles its weight, or its count
    passes max_occurrences(k + 2) and falls out of the list of counts."""
    n, prefix = k + 2, (1, below + 2)
    want = distribution(n, prefix).counts
    tables = [[list(map(list, rows)) for rows in table] for table in perms._TAILS]
    tables[k][below][order][field] += 1
    with monkeypatch.context() as mp:
        mp.setattr(perms, "_TAILS", tuple(tuple(tuple(map(tuple, rows)) for rows in table) for table in tables))
        try:
            return distribution(n, prefix).counts != want
        except IndexError:
            return field == 0


@pytest.mark.parametrize("below, order, field", itertools.product(range(4), range(6), range(2)))
def test_patched_tail_entry_changes_distribution(monkeypatch, below, order, field):
    """Every entry of the three-letter table is read."""
    assert _patch_is_seen(monkeypatch, 3, below, order, field)


def test_patched_entry_of_every_other_tail_table_changes_distribution(monkeypatch):
    """Every entry of the tables of 0, 1, 2 and 4 letters is read, in one
    loop; the cases above cover the three-letter table."""
    for k, table in enumerate(perms._TAILS):
        if k == 3:
            continue
        for below, rows in enumerate(table):
            for order in range(len(rows)):
                for field in range(2):
                    assert _patch_is_seen(monkeypatch, k, below, order, field), (k, below, order, field)


def _frames_walked(n, prefix=()):
    """How many letters were left unplaced at each call of the walk's
    frame function while ``distribution(n, prefix)`` ran."""
    left = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "extend" and frame.f_globals is vars(perms):
            left[len(frame.f_locals["unused"])] += 1

    sys.setprofile(profile)
    try:
        distribution(n, prefix)
    finally:
        sys.setprofile(None)
    return left


def test_walk_ends_every_word_in_one_frame_call():
    """With no prefix, the frame with four letters left ends all 24 of
    their words, so the walk of S_8 makes 1 + 7 + 42 + 210 calls.  At
    n <= 4, and after a prefix that ends k <= 4 letters from the end, the
    walk's first call with the prefix placed is its one frame call."""
    assert _frames_walked(8) == {7: 1, 6: 7, 5: 42, 4: 210}
    for n in range(1, 5):
        assert _frames_walked(n) == {n - 1: 1}
    word = max_pattern_perm(8)
    for k in range(5):
        assert _frames_walked(8, word[: 8 - k]) == {left: 1 for left in range(k, 8)}


@pytest.mark.parametrize("n", range(1, 8))
def test_word_multiplicity_is_two_to_the_minima(n):
    multiplicity = Counter(flatten(p) for p in itertools.permutations(range(1, n + 1)))
    arrangements = {(1,) + t for t in itertools.permutations(range(2, n + 1))}
    assert set(multiplicity) == arrangements
    assert len(arrangements) == math.factorial(n - 1)
    walked = {}
    for word, occ, weight in flattened_words(n):
        assert occ == count_13_2(word)
        walked[word] = weight
    assert walked == multiplicity
    for word, m in multiplicity.items():
        assert m == 2 ** (right_to_left_minima(word) - 1)
        assert distribution(n, word).counts == {count_13_2(word): m}


class TestDoublingPair:
    def test_length_one(self):
        assert doubling_pair((1,)) == ((1, 2), (2, 1))

    def test_length_two(self):
        pi, pi_prime = doubling_pair((2, 1))
        assert (pi, pi_prime) == ((1, 3, 2), (2, 3, 1))
        assert flatten(pi) == flatten(pi_prime) == (1, 2, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_images_behave(self, n):
        for sigma in itertools.permutations(range(1, n)):
            occ = count_13_2(flatten(sigma))
            pi, pi_prime = doubling_pair(sigma)
            assert pi != pi_prime
            for tau in (pi, pi_prime):
                word = flatten(tau)
                assert word[:2] == (1, 2)
                assert count_13_2(word) == occ

    def test_aggregate_doubling(self):
        lhs = distribution(6, (1, 2)).counts
        rhs = {r: 2 * c for r, c in distribution(5).counts.items()}
        assert lhs == rhs


class TestExtremalWords:
    def test_small_cases(self):
        assert max_pattern_perm(4) == (1, 4, 2, 3)
        assert count_13_2(max_pattern_perm(4)) == 2
        assert max_pattern_perm(5) == (1, 5, 2, 4, 3)
        assert count_13_2(max_pattern_perm(5)) == 4
        assert max_pattern_perm(1) == (1,)

    def test_formula_through_30(self):
        for n in range(1, 31):
            expected = n * (n - 2) // 4 if n % 2 == 0 else (n - 1) ** 2 // 4
            assert count_13_2(max_pattern_perm(n)) == expected == max_occurrences(n)

    def test_exhaustive_maximality_small(self):
        for n in range(1, 8):
            assert distribution(n).max_occurrences() == max_occurrences(n)

    def test_min_length_examples(self):
        assert min_length_for(1) == 3
        assert min_length_for(2) == 4
        assert min_length_for(4) == 5

    def test_min_length_bound(self):
        for r in range(1, 51):
            n = min_length_for(r)
            assert (n - 1) ** 2 >= 4 * r  # n >= 1 + 2 sqrt(r)
            if n > 1:
                assert max_occurrences(n - 1) < r


class TestWitness:
    def test_examples(self):
        assert witness_perm(4, 0) == (1, 2, 6, 3, 5, 4)
        assert count_13_2(witness_perm(4, 0)) == 4
        assert witness_perm(4, 4) == (1, 6, 5, 4, 3, 2)
        assert count_13_2(witness_perm(4, 4)) == 4
        w = witness_perm(5, 2)
        assert w[:2] == (1, 4) and len(w) == 7
        assert count_13_2(w) == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            witness_perm(3, 0)
        with pytest.raises(ValueError):
            witness_perm(5, -1)
        with pytest.raises(ValueError):
            witness_perm(5, 6)

    def test_counts_through_10(self):
        for r in range(4, 11):
            for i in range(r + 1):
                w = witness_perm(r, i)
                assert len(w) == r + 2
                assert w[:2] == (1, i + 2)
                assert count_13_2(w) == r


@pytest.mark.parametrize("module, layers", [
    ("perms", ["_common", "perms"]),
    ("constructions", ["_common", "constructions", "perms"]),
])
def test_dependency_direction(module, layers):
    """The oracle imports no layer but ``_common``, and the constructions
    import only the oracle: never the reverse, so that ``distribution``
    compiles the walk alone."""
    code = f"import sys, flatperm.{module}; print(*sorted(m for m in sys.modules if m.startswith('flatperm')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["flatperm", *(f"flatperm.{layer}" for layer in layers)]
