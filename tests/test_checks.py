"""The verify suites report a broken comparison as a FAIL line instead of
raising out of the suite."""

from __future__ import annotations

import math
import sys
from collections import Counter

import pytest

from flatperm import checks, constructions, genfun, perms
from flatperm.algebra import ConsistencyError, IntPoly, RationalGF
from flatperm.checks import CheckResult, constructions_suite, genfun_suite
from flatperm.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from flatperm.genfun import Pipeline
from flatperm.recurrence import GTable

def _result(results, key):
    (res,) = [r for r in results if r.key == key]
    return res


def test_a_raised_consistency_error_is_a_fail_with_its_message():
    def check():
        raise ConsistencyError("n=3")

    results = []
    checks._check(results, "line", "the line", check)
    assert results == [CheckResult("line", "the line", False, "n=3")]


def test_a_check_that_returns_nothing_passes():
    results = []
    checks._check(results, "line", "the line", lambda: None)
    assert results == [CheckResult("line", "the line", True, "")]


@pytest.mark.parametrize("verdict", [(True, ""), (False, "n=3"), True])
def test_a_check_that_returns_a_verdict_is_a_bug(verdict):
    """A line fails only by raising: a returned verdict, even a failing
    one, would otherwise pass unchecked."""
    results = []
    with pytest.raises(TypeError, match="'line' returned a value"):
        checks._check(results, "line", "the line", lambda: verdict)
    assert results == []


class _OffByTwo(GTable):
    """A full table whose coefficient at one (n, r, k) is 2 too large:
    parity is kept, so only a comparison with another route can see it."""

    def __init__(self, cell):
        self.cell = cell
        super().__init__(9)

    def coeff(self, n, r, k=None):
        return super().coeff(n, r, k) + (2 if (n, r, k) == self.cell else 0)


def _constructions(table):
    return constructions_suite(Pipeline(3, table=table), doubling_nmax=3)


def test_boundary_check_passes(table):
    assert _result(_constructions(table), "boundary").passed


def test_boundary_check_fails_on_inner_cell():
    res = _result(_constructions(_OffByTwo((4, 1, 3))), "boundary")
    assert not res.passed
    assert "(1, 1, 3)" in res.detail


def test_boundary_check_fails_on_top_row():
    res = _result(_constructions(_OffByTwo((5, 3, 4))), "boundary")
    assert not res.passed
    assert "i=4" in res.detail


def test_boundary_check_fails_on_misbinned_sums(table, monkeypatch):
    """The line also compares the pipeline's sums by h with the table's
    cells summed as in H_r: sums moved to the wrong h fail it."""
    real = genfun.Pipeline.boundary

    def swapped(self, r):
        bd = real(self, r)
        return bd._replace(inner=bd.inner[:2] + (bd.inner[3], bd.inner[2])) if r == 3 else bd

    monkeypatch.setattr(genfun.Pipeline, "boundary", swapped)
    res = _result(_constructions(table), "boundary")
    assert not res.passed
    assert res.detail == "inner sums at h=2"


def test_structure_check_fails_when_c_table_raises():
    # g_{4,2}(13) is in the top boundary row of G_2, so G_2 disagrees with
    # the insertion count and c_table(2) raises.
    results = genfun_suite(Pipeline(2, table=_OffByTwo((4, 2, 3))), maximal_nmax=3)
    res = _result(results, "structure")
    assert not res.passed
    assert "G_2" in res.detail


@pytest.mark.parametrize("bad_word", [
    (1, 5, 6, 2, 4, 3),  # 4 occurrences, but its second letter is 5, not 4
    (1, 4, 6, 2, 3, 5),  # second letter 4, but 3 occurrences
])
def test_structure_check_fails_on_witness(table, monkeypatch, bad_word):
    real, pipeline = constructions.witness_perm, Pipeline(4, table=table)
    assert _result(genfun_suite(pipeline), "structure").passed
    monkeypatch.setattr(constructions, "witness_perm", lambda r, i: bad_word if (r, i) == (4, 2) else real(r, i))
    res = _result(genfun_suite(pipeline), "structure")
    assert not res.passed
    assert "i=2" in res.detail


def _g1k_off_by_two(cell):
    """A full GTable class whose g_n(1k) at cell = (n, k) is 2q too large."""

    class OffByTwo(GTable):
        def g1k(self, n, k):
            return super().g1k(n, k) + (IntPoly([0, 2]) if (n, k) == cell else IntPoly())

    return OffByTwo


@pytest.mark.parametrize("cell, failing, detail, passing", [
    ((7, 5), "three-term", "(n,k)=(7,5)", "initial-forms"),
    ((6, 3), "initial-forms", "g_6(13)", "three-term"),
], ids=["three-term", "initial-forms"])
def test_row_checks_see_a_corrupted_table(verify, monkeypatch, cell, failing, detail, passing):
    """The table grows its rows by the rules these lines name, so they
    compare it with the a-sum instead of with itself."""
    monkeypatch.setattr(checks, "GTable", _g1k_off_by_two(cell))
    code, failed, _ = verify("--suite", "recurrence", "--n", "3")
    assert code == EXIT_CHECK_FAILED
    assert failed[failing] == detail and passing not in failed


def test_recurrence_suite_forms_each_a_sum_once(monkeypatch):
    """The doubling, three-term and initial-forms lines read one a-sum
    g_n(1k) per (n, k), 3 <= k <= n <= 12: 55 in all, not 110."""
    real, calls = checks.a_sum, Counter()

    def counted(table, n, row):
        calls[n, len(row) + 1] += 1  # row = a_rows(..)[k] holds a_{k,1}, ..., a_{k,k-1}
        return real(table, n, row)

    monkeypatch.setattr(checks, "a_sum", counted)
    assert all(res.passed for res in checks.run_suite("recurrence"))
    assert set(calls) == {(n, k) for n in range(3, 13) for k in range(3, n + 1)}
    assert sum(calls.values()) == 55


def test_run_suite_reaches_each_suite_through_the_module(capsys, monkeypatch):
    """``perfbench/spantrace.py`` wraps the suites by setting the module's
    globals, so ``run_suite`` must call them through those globals: under
    ``--suite all`` each wrapper counts one call, where a suite reached
    through a stored reference would count none."""
    calls = Counter()

    def counted(name):
        real = getattr(checks, name)

        def suite(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return suite

    for name in ("recurrence_suite", "genfun_suite", "constructions_suite"):
        monkeypatch.setattr(checks, name, counted(name))
    assert main(["verify", "--suite", "all", "--n", "3", "--rmax", "1"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("OK: 28/28 checks passed\n")
    assert calls == {"recurrence_suite": 1, "genfun_suite": 1, "constructions_suite": 1}


def test_suites_read_their_r_bounds_from_the_pipeline(table):
    """A pipeline through r = 2 is checked for r <= 2, not for a second
    bound that it cannot reach."""
    pipeline = Pipeline(2, table=table)
    results = genfun_suite(pipeline, maximal_nmax=3) + constructions_suite(pipeline, doubling_nmax=3)
    assert all(res.passed for res in results)
    names = {res.key: res.name for res in results}
    for key in ("reference", "structure", "rational", "dual-route"):
        assert names[key].endswith("r <= 2"), names[key]
    dual = _result(checks.run_suite("constructions", oracle_nmax=3, r_max=0), "dual-route")
    assert dual.passed and dual.name.endswith("r <= 0")


def test_doubling_check_sees_a_corrupted_column(verify, monkeypatch):
    """The table's own rule takes g_n(12) as 2 g_(n-1), so the doubling
    line compares it with the b-sum column minus the a-sum rows."""

    class OffByTwo(GTable):
        def g(self, n):
            return super().g(n) + (IntPoly([0, 2]) if n == 6 else IntPoly())

    monkeypatch.setattr(checks, "GTable", OffByTwo)
    code, failed, _ = verify("--suite", "recurrence", "--n", "3")
    assert code == EXIT_CHECK_FAILED and failed["g12-doubling"] == "n=6"


def test_verify_walks_each_oracle_case_once(capsys, monkeypatch):
    """Checks that compare with the same (n, prefix) share one walk, and
    a full distribution of S_n, n >= 2, is summed from its cases (1, k)
    rather than walked again."""
    real, walks = perms.distribution, []

    def counted(n, prefix=()):
        walks.append((n, tuple(prefix)))
        return real(n, prefix)

    checks._oracle.cache_clear()
    monkeypatch.setattr(perms, "distribution", counted)
    assert main(["verify", "--suite", "all", "--n", "7", "--rmax", "4"]) == EXIT_OK
    assert walks and len(walks) == len(set(walks))
    assert not [(n, prefix) for n, prefix in walks if n >= 2 and not prefix]
    assert {(n, (1, k)) for n in range(2, 8) for k in range(2, n + 1)} <= set(walks)
    assert capsys.readouterr().out.endswith("OK: 28/28 checks passed\n")


def test_verify_grows_the_shared_table_only_as_far_as_its_checks(capsys, monkeypatch):
    """The pipeline's cross-check reads the insertion count, so the shared
    table grows only to the n = 25 of the ``average`` line, not to the
    order 4 r_max + 10 = 42 of the pipeline."""
    tables = []

    class Recorded(GTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(checks, "GTable", Recorded)
    assert main(["verify", "--suite", "all", "--n", "9", "--rmax", "8"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("OK: 28/28 checks passed\n")
    (shared,) = tables
    assert shared.n_max <= checks.AVERAGE_NMAX == 25


def test_constructions_build_no_insertion_count(monkeypatch):
    """The constructions suite's pipelines read boundary data only."""

    def refuse(*args):
        raise AssertionError("insertion count built")

    monkeypatch.setattr(genfun, "InsertionCount", refuse)
    results = constructions_suite(Pipeline(4, table=GTable()), doubling_nmax=3)
    assert all(res.passed for res in results)


def _route_two_calls(monkeypatch):
    """A Counter of r over the calls of ``Pipeline.h_poly`` made by
    ``htilde_over_kernel`` (its route two)."""
    real, calls = genfun.Pipeline.h_poly, Counter()

    def counted(self, r):
        if sys._getframe(1).f_code.co_name == "htilde_over_kernel":
            calls[r] += 1
        return real(self, r)

    monkeypatch.setattr(genfun.Pipeline, "h_poly", counted)
    return calls


def test_suites_compare_each_htilde_once(capsys, monkeypatch):
    """Under ``--suite all`` the dual-route line reads the H~_r that the
    derivation of G_r already compared by both routes, so route two runs
    once per r instead of twice for each r >= 1."""
    calls = _route_two_calls(monkeypatch)
    assert main(["verify", "--suite", "all", "--n", "5", "--rmax", "4"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("OK: 28/28 checks passed\n")
    assert calls == {r: 1 for r in range(5)}


def test_constructions_alone_run_both_routes_for_every_r(capsys, monkeypatch):
    """With no genfun suite before it, the dual-route line computes both
    routes itself for every r <= rmax."""
    calls = _route_two_calls(monkeypatch)
    assert main(["verify", "--suite", "constructions", "--n", "5", "--rmax", "4"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("OK: 6/6 checks passed\n")
    assert calls == {r: 1 for r in range(5)}


def test_disagreeing_htilde_routes_fail_every_time(verify, monkeypatch):
    """H~_r is memoised only once its routes agree: with route two of
    H~_2 off by 2x^5 (a change the kernel still divides exactly), the
    genfun lines that derive G_2 and the dual-route line all FAIL."""
    real = genfun.Pipeline.h_poly

    def off(self, r):
        h = real(self, r)
        return h + RationalGF([IntPoly.term(2, 5)]) if r == 2 else h

    monkeypatch.setattr(genfun.Pipeline, "h_poly", off)
    code, failed, _ = verify("--suite", "all", "--n", "5", "--rmax", "4")
    assert code == EXIT_CHECK_FAILED
    for key in ("structure", "rational", "dual-route"):
        assert "the two routes to H~_2/(1-sv) disagree" in failed[key], key


def test_rational_line_fails_on_a_closed_form_off_by_one(verify, monkeypatch):
    """[x^0 v^0] P_2 one too large, but only once c_table(2) has certified
    P_2: the c-table and structure lines, which run first, read the true
    P_2, so the closed form's fault reaches the rational line alone, which
    sees it by comparing the closed form with G_2 exactly."""
    real = genfun.Pipeline.p_poly

    def off(self, r):
        p = real(self, r)
        if r != 2 or r not in self._c:
            return p
        return (p[0] + IntPoly([1]), *p[1:])

    monkeypatch.setattr(genfun.Pipeline, "p_poly", off)
    code, failed, lines = verify("--suite", "genfun", "--n", "5", "--rmax", "4")
    assert code == EXIT_CHECK_FAILED
    assert failed == {"rational": "the rational closed form of G_2 differs from G_2"}
    assert lines[-1] == "FAILED: 9/10 checks passed"


def test_average_line_fails_on_a_corrupted_g25(verify, monkeypatch):
    """The line compares integers, but its detail is the same pair of
    fractions as before."""
    from fractions import Fraction

    class OffByTwo(GTable):
        def g(self, n):
            return super().g(n) + (IntPoly.term(2, 7) if n == 25 else IntPoly())

    monkeypatch.setattr(checks, "GTable", OffByTwo)
    code, failed, _ = verify("--suite", "recurrence", "--n", "3")
    assert code == EXIT_CHECK_FAILED
    g = GTable(25).g(25)
    total = sum(r * c for r, c in enumerate(g.coeffs)) + 2 * 7
    mean = Fraction(total, math.factorial(25))
    closed = Fraction(25 * 25 + 3 * 25 + 8, 12) - sum(Fraction(1, k) for k in range(1, 26))
    assert failed == {"average": f"average for n=25: table gives {mean}, closed form {closed}"}


def _doubling_line(monkeypatch, pair):
    """The doubling-map line of the constructions suite (n <= 4), with
    ``constructions.doubling_pair`` replaced by ``pair(real, sigma)``."""
    real = constructions.doubling_pair
    monkeypatch.setattr(constructions, "doubling_pair", lambda sigma: pair(real, sigma))
    return _result(constructions_suite(Pipeline(1), doubling_nmax=4), "one-to-two")


def test_doubling_line_fails_on_a_repeated_image(monkeypatch):
    """(1, 2, 3) and (1, 3, 2) flatten to words without an occurrence, so
    the image (1, 2, 3, 4) of the first may stand in for one of the
    second's and pass every per-image test."""
    first = constructions.doubling_pair((1, 2, 3))[0]
    res = _doubling_line(
        monkeypatch, lambda real, sigma: (first, real(sigma)[1]) if sigma == (1, 3, 2) else real(sigma)
    )
    assert not res.passed and res.detail == "n=4: images not distinct"


@pytest.mark.parametrize("image", [
    (1, 2, 3, 4, 5),  # flattens to 1, 2, 3, 4, 5 with no occurrence, but has length 5
    (3, 2, 1, 4),     # a permutation of 1..4 whose word 1, 3, 2, 4 starts 1, 3
])
def test_doubling_line_fails_on_an_image_outside_the_class(monkeypatch, image):
    res = _doubling_line(
        monkeypatch, lambda real, sigma: (image, real(sigma)[1]) if sigma == (1, 2, 3) else real(sigma)
    )
    assert not res.passed and res.detail == "n=4, sigma=(1, 2, 3)"


def test_doubling_line_fails_when_the_class_count_disagrees(monkeypatch):
    """The images cover the class only if they are as many as the class
    holds: the oracle's count of the prefix-12 class is the other side."""
    real = checks._oracle

    def oracle(n, prefix=()):
        dist = real(n, prefix)
        if (n, prefix) != (4, (1, 2)):
            return dist
        return perms.OccurrenceTable(n, {**dist.counts, 0: dist.counts[0] + 1})

    monkeypatch.setattr(checks, "_oracle", oracle)
    res = _doubling_line(monkeypatch, lambda real, sigma: real(sigma))
    assert not res.passed and res.detail == "n=4: images do not cover the prefix-12 class"
