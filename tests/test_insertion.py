"""The insertion count f(m, p) cut at q^top, against brute force, against
a plain-list form of its own recurrence, and for its independence."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from flatperm import perms
from flatperm.insertion import InsertionCount

SRC = Path(__file__).resolve().parent.parent / "src"


def _plain_rows(top: int, m_max: int) -> list[list[list[int]]]:
    """f(m, p) for m <= m_max and every p <= m, each as the list of its
    coefficients of q^0 .. q^top: the recurrence on plain lists, with no
    packing and no entry dropped for p > top."""
    rows = [[[1] + [0] * top]]
    for m in range(1, m_max + 1):
        prev = rows[-1]
        tails = [[0] * (top + 1) for _ in range(m + 1)]
        for p in range(m - 2, -1, -1):  # T(p) = q (f(m-1, p+1) + T(p+1))
            inner = [a + b for a, b in zip(prev[p + 1], tails[p + 1])]
            tails[p] = [0] + inner[:top]
        row, s = [], [0] * (top + 1)
        for p in range(m + 1):
            if 1 <= p <= m - 1:
                s = [a + b for a, b in zip(s, prev[p])]
            row.append([2 * a + b + c for a, b, c in zip(prev[0], s, tails[p])])
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_brute_force(n):
    """Every g_n and g_n(1k), n <= 8, in full: no 13-2 count of a length-8
    flattening exceeds 12."""
    count = InsertionCount(12, 8)
    cases = [(None, perms.distribution(n))] + [
        (k, perms.distribution(n, (1, k))) for k in range(2, n + 1)
    ]
    for k, dist in cases:
        assert sum(dist.counts.values()) > 0
        assert [count.coeff(n, r, k) for r in range(13)] == [dist.count(r) for r in range(13)], k


def _read_f(count: InsertionCount, m: int, p: int) -> list[int]:
    """The kept coefficients q^0 .. q^(top-p) of f(m, p), read back
    through ``coeff``: g_(m+1) = f(m, 0) and g_(m+2)(1, p+2) = q^p f(m, p)."""
    if p == 0:
        return [count.coeff(m + 1, j) for j in range(count.top + 1)]
    return [count.coeff(m + 2, j + p, p + 2) for j in range(count.top - p + 1)]


@pytest.mark.parametrize("top", [0, 1, 5, 12, 40])
@pytest.mark.parametrize("n_max", [1, 2, 5, 12, 30])
def test_packed_rows_match_plain_lists(top, n_max):
    count, plain = InsertionCount(top, n_max), _plain_rows(top, n_max - 1)
    for m in range(n_max):
        for p in range(min(m, top) + 1 if m <= n_max - 2 else 1):
            assert _read_f(count, m, p) == plain[m][p][: top - p + 1], (m, p)


@pytest.mark.parametrize("top", [0, 1, 5, 12])
@pytest.mark.parametrize("n_max", [1, 2, 5, 12, 30])
def test_column_reads_match_cell_reads(top, n_max):
    """Every column read, from every start (n_max + 1 reads nothing),
    equals ``coeff`` cell by cell, k beyond n and r below k - 2 included."""
    count = InsertionCount(top, n_max)
    for r in range(top + 1):
        for k in range(2, n_max + 2):
            cells = [count.coeff(n, r, k) for n in range(1, n_max + 1)]
            for n_lo in range(1, n_max + 2):
                assert count.column(r, k, n_lo) == cells[n_lo - 1:], (r, k, n_lo)


@pytest.mark.parametrize("r, k, n_lo", [(-1, 2, 1), (4, 2, 1), (0, 1, 1), (0, 2, 0), (0, 2, 10)])
def test_bad_column_reads_raise(r, k, n_lo):
    with pytest.raises((ValueError, IndexError)):
        InsertionCount(3, 8).column(r, k, n_lo)


def test_reads_follow_the_rule_for_each_prefix():
    count = InsertionCount(5, 9)
    assert count.coeff(1, 0) == 1
    assert [count.coeff(9, r, 2) for r in range(6)] == [2 * count.coeff(8, r) for r in range(6)]
    assert count.coeff(9, 1, 4) == 0  # q^2 divides g_9(14)
    assert count.coeff(5, 0, 6) == 0  # no flattening of length 5 starts 1, 6


@pytest.mark.parametrize("n, r, k", [(0, 0, None), (9, 0, None), (8, -1, None), (8, 0, 1)])
def test_bad_reads_raise_value_error(n, r, k):
    with pytest.raises(ValueError):
        InsertionCount(3, 8).coeff(n, r, k)


def test_rejects_empty_range():
    with pytest.raises(ValueError):
        InsertionCount(3, 0)


def test_imports_no_other_layer():
    code = "import sys, flatperm.insertion; print(*sorted(m for m in sys.modules if m.startswith('flatperm')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["flatperm", "flatperm.insertion"]
