"""The insertion count f(m, p) cut at q^top, against brute force, against
a plain-list form of its own recurrence, and for its independence."""

from __future__ import annotations

import os
import re
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


def _plain_cell(plain, n: int, r: int, k: int) -> int:
    """[q^r] g_n(1k) from the plain-list rows: 2 [q^r] f(n-2, 0) for
    k = 2, [q^(r-k+2)] f(n-2, k-2) for 3 <= k <= n, and 0 otherwise."""
    if not 2 <= k <= n or r < k - 2:
        return 0
    return (2 if k == 2 else 1) * plain[n - 2][k - 2][r - k + 2]


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_brute_force(n):
    """Every g_n(1k), n <= 8, in full (no 13-2 count of a length-8
    flattening exceeds 12), and g_n as their sum for n >= 2; no
    flattening of length n starts 1, k for k > n."""
    count = InsertionCount(12, 8)
    total = [0] * 13
    for k in range(2, 10):
        cells = [count.column(r, k, n)[0] for r in range(13)]
        if k > n:
            assert not any(cells), k
            continue
        dist = perms.distribution(n, (1, k))
        assert sum(dist.counts.values()) > 0
        assert cells == [dist.count(r) for r in range(13)], k
        total = [a + b for a, b in zip(total, cells)]
    if n >= 2:
        assert total == [perms.distribution(n).count(r) for r in range(13)]


def _read_f(count: InsertionCount, m: int, p: int) -> list[int]:
    """The kept coefficients q^0 .. q^(top-p) of f(m, p), read back
    through ``column``: g_(m+2)(12) = 2 f(m, 0) and
    g_(m+2)(1, p+2) = q^p f(m, p)."""
    weight = 2 if p == 0 else 1
    return [count.column(j + p, p + 2, m + 2)[0] // weight for j in range(count.top - p + 1)]


@pytest.mark.parametrize("top", [0, 1, 5, 12, 40])
@pytest.mark.parametrize("n_max", [1, 2, 5, 12, 30])
def test_packed_rows_match_plain_lists(top, n_max):
    """Every kept cell of the rows m <= n_max - 2, the rows ``column``
    reads."""
    count, plain = InsertionCount(top, n_max), _plain_rows(top, n_max - 1)
    for m in range(n_max - 1):
        for p in range(min(m, top) + 1):
            assert _read_f(count, m, p) == plain[m][p][: top - p + 1], (m, p)


@pytest.mark.parametrize("top", [0, 1, 5, 12])
@pytest.mark.parametrize("n_max", [1, 2, 5, 12, 30])
def test_column_reads_match_cell_reads(top, n_max):
    """Every column read, from every start (n_max + 1 reads nothing),
    equals the plain-list rows read cell by cell, k beyond n and r below
    k - 2 included."""
    count, plain = InsertionCount(top, n_max), _plain_rows(top, n_max - 1)
    for r in range(top + 1):
        for k in range(2, n_max + 2):
            cells = [_plain_cell(plain, n, r, k) for n in range(1, n_max + 1)]
            for n_lo in range(1, n_max + 2):
                assert count.column(r, k, n_lo) == cells[n_lo - 1:], (r, k, n_lo)


@pytest.mark.parametrize("r, k, n_lo", [(-1, 2, 1), (4, 2, 1), (0, 1, 1), (0, 2, 0), (0, 2, 10)])
def test_bad_column_reads_raise(r, k, n_lo):
    """r above the cut is an IndexError; r < 0, k < 2 and n_lo outside
    [1, n_max + 1] are ValueErrors."""
    with pytest.raises(IndexError if r > 3 else ValueError):
        InsertionCount(3, 8).column(r, k, n_lo)


def test_column_start_range_names_both_edges():
    """n_lo = n_max + 1 reads nothing, and a refused n_lo is told the
    range that includes it."""
    count = InsertionCount(3, 8)
    assert count.column(0, 2, 9) == []
    for n_lo in (0, 10):
        with pytest.raises(ValueError, match=re.escape("n_lo must lie in [1, 9]")):
            count.column(0, 2, n_lo)


def _shift_operator(ones: int, twos: int) -> list[int]:
    """The coefficients c_0, c_1, ... of (E - 1)^ones (E - 2)^twos."""
    c = [1]
    for root in [1] * ones + [2] * twos:
        c = [a - root * b for a, b in zip([0] + c, c + [0])]
    return c


def _window_sums(count: InsertionCount, r: int, ones: int, twos: int) -> list[int]:
    """sum_j c_j [q^r] g_(r+3+j)(1k), the c_j those of ``_shift_operator``,
    for k = 2 .. r+2: the operator applied once to each column of the
    count's degree-r cells, from row m = r + 1 on (E shifts m = n - 2)."""
    c = _shift_operator(ones, twos)
    return [sum(a * cell for a, cell in zip(c, count.column(r, k, r + 3))) for k in range(2, r + 3)]


def test_degree_r_cells_have_the_paper_denominator():
    """G_r lies over (1 - x)^(2r-1) (1 - 2x)^(r+1), (1 - 2x) for r = 0,
    so (E - 1)^(2r-1) (E - 2)^(r+1) annihilates each column of the
    degree-r cells, applied once from row m = r + 1 (the rows through
    4r + 1 for r >= 1), for every r <= 12.  Lowering either exponent by
    one leaves a nonzero sum at every r, so both powers are sharp."""
    count = InsertionCount(12, 51)  # rows m <= 49 = 4 * 12 + 1
    for r in range(13):
        ones, twos = (2 * r - 1, r + 1) if r else (0, 1)
        assert _window_sums(count, r, ones, twos) == [0] * (r + 1), r
        if ones:
            assert any(_window_sums(count, r, ones - 1, twos)), r
        assert any(_window_sums(count, r, ones, twos - 1)), r


def test_reads_follow_the_rule_for_each_prefix():
    count = InsertionCount(5, 9)
    g8 = [sum(count.column(r, k, 8)[0] for k in range(2, 9)) for r in range(6)]
    assert [count.column(r, 2, 9)[0] for r in range(6)] == [2 * c for c in g8]
    assert count.column(1, 4, 9) == [0]  # q^2 divides g_9(14)
    assert count.column(0, 6, 5) == [0] * 5  # no flattening of length 5 starts 1, 6
    assert count.column(0, 2, 10) == []  # n_lo = n_max + 1 reads nothing


def test_rejects_empty_range():
    with pytest.raises(ValueError):
        InsertionCount(3, 0)


def test_imports_no_other_layer():
    code = "import sys, flatperm.insertion; print(*sorted(m for m in sys.modules if m.startswith('flatperm')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["flatperm", "flatperm.insertion"]
