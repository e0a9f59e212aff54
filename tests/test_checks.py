"""The verify suites report a broken comparison as a FAIL line instead of
raising out of the suite."""

from __future__ import annotations

import pytest

from flatperm import checks, perms
from flatperm.algebra import IntPoly
from flatperm.checks import constructions_suite, genfun_suite
from flatperm.cli import EXIT_CHECK_FAILED, main
from flatperm.recurrence import GTable

BOUNDARY = "boundary data matches enumeration (r = 3)"


def _result(results, prefix):
    (res,) = [r for r in results if r.name.startswith(prefix)]
    return res


class _OffByTwo(GTable):
    """A full table whose coefficient at one (n, r, k) is 2 too large:
    parity is kept, so only a comparison with another route can see it."""

    def __init__(self, cell):
        self.cell = cell
        super().__init__(9)

    def coeff(self, n, r, k=None):
        return super().coeff(n, r, k) + (2 if (n, r, k) == self.cell else 0)


def _constructions(table):
    return constructions_suite(doubling_nmax=3, witness_rmax=4, dual_route_rmax=3, table=table)


def test_boundary_check_passes(table):
    assert _result(_constructions(table), BOUNDARY).passed


def test_boundary_check_fails_on_inner_cell():
    res = _result(_constructions(_OffByTwo((4, 1, 3))), BOUNDARY)
    assert not res.passed
    assert "(1, 1, 3)" in res.detail


def test_boundary_check_fails_on_top_row():
    res = _result(_constructions(_OffByTwo((5, 3, 4))), BOUNDARY)
    assert not res.passed
    assert "i=4" in res.detail


def test_structure_check_fails_when_c_table_raises():
    # [x^8 v^1] G_2 is compared with this cell, so c_table(2) raises.
    results = genfun_suite(r_max=2, maximal_nmax=3, table=_OffByTwo((8, 2, 3)))
    res = _result(results, "P_r structure")
    assert not res.passed
    assert "G_2" in res.detail


@pytest.mark.parametrize("bad_word", [
    (1, 5, 6, 2, 4, 3),  # 4 occurrences, but its second letter is 5, not 4
    (1, 4, 6, 2, 3, 5),  # second letter 4, but 3 occurrences
])
def test_structure_check_fails_on_witness(table, pipeline6, monkeypatch, bad_word):
    real = perms.witness_perm
    assert _result(genfun_suite(r_max=4, table=table, pipeline=pipeline6), "P_r structure").passed
    monkeypatch.setattr(perms, "witness_perm", lambda r, i: bad_word if (r, i) == (4, 2) else real(r, i))
    res = _result(genfun_suite(r_max=4, table=table, pipeline=pipeline6), "P_r structure")
    assert not res.passed
    assert "i=2" in res.detail


def _g1k_off_by_two(cell):
    """A full GTable class whose g_n(1k) at cell = (n, k) is 2q too large."""

    class OffByTwo(GTable):
        def g1k(self, n, k):
            return super().g1k(n, k) + (IntPoly([0, 2]) if (n, k) == cell else IntPoly())

    return OffByTwo


THREE_TERM = "three-term recurrence for g_n(1k)"
INITIAL_FORMS = "closed initial forms for g_n(13), g_n(14)"


@pytest.mark.parametrize("cell, failing, detail, passing", [
    ((7, 5), THREE_TERM, "(n,k)=(7,5)", INITIAL_FORMS),
    ((6, 3), INITIAL_FORMS, "g_6(13)", THREE_TERM),
])
def test_row_checks_see_a_corrupted_table(capsys, monkeypatch, cell, failing, detail, passing):
    """The table grows its rows by the rules these lines name, so they
    compare it with the a-sum instead of with itself."""
    monkeypatch.setattr(checks, "GTable", _g1k_off_by_two(cell))
    assert main(["verify", "--suite", "recurrence", "--n", "3"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    (bad,) = [line for line in lines if failing in line]
    (good,) = [line for line in lines if passing in line]
    assert bad.startswith("FAIL  ") and bad.endswith(f"[{detail}]")
    assert good.startswith("PASS  ")


DOUBLING = "g_n(12) = 2 g_(n-1)"


def test_doubling_check_sees_a_corrupted_column(capsys, monkeypatch):
    """The table's own rule takes g_n(12) as 2 g_(n-1), so the doubling
    line compares it with the b-sum column minus the a-sum rows."""

    class OffByTwo(GTable):
        def g(self, n):
            return super().g(n) + (IntPoly([0, 2]) if n == 6 else IntPoly())

    monkeypatch.setattr(checks, "GTable", OffByTwo)
    assert main(["verify", "--suite", "recurrence", "--n", "3"]) == EXIT_CHECK_FAILED
    (line,) = [line for line in capsys.readouterr().out.splitlines() if DOUBLING in line]
    assert line.startswith("FAIL  ") and line.endswith("[n=6]")
