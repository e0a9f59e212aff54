"""Every raise site of the layers, the library's input guards, and every
line of the ``verify`` suites can fail.

Each row of ``ROWS`` plants the smallest fault that reaches one
``ConsistencyError`` in ``flatperm.genfun`` that no other test reaches: a
coefficient of a memoised numerator off by 2 (H~_r, G_r or P_r), H~_r
less the top column of G_r, one pass of the c-table rebuild off by 2, or
top boundary cells of the table set to 0 or 1.  The message must name r,
and the v-power or l where it has one.
``SITES`` does the same for the raise sites of ``recurrence`` and of
``algebra`` outside its series layer, and ``GUARDS`` gives each input
guard that no command reaches a bad input.  ``VERIFY_ROWS`` drives
``verify`` lines to FAIL, one row for each raise in a check that no
other test reaches, with its indices in the detail.  A line is named by
its key, never by its text.  Every line ``verify`` prints has such a
row, a test elsewhere that fails it (``FAILED_ELSEWHERE``), or its key
in ``NO_FAULT_ROW_YET``.
"""

from __future__ import annotations

import itertools
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from flatperm import algebra, checks, constructions, genfun, perms, recurrence
from flatperm.algebra import ConsistencyError, InexactDivisionError, IntPoly, RationalGF
from flatperm.cli import EXIT_CHECK_FAILED
from flatperm.genfun import S_POLY, T_POLY, Pipeline
from flatperm.recurrence import GTable


def _bump(cols, k: int, power: int, by: int = 2) -> list[IntPoly]:
    """The columns cols with [x^power v^k] off by ``by``."""
    cols = list(cols) + [IntPoly()] * (k + 1 - len(cols))
    cols[k] = cols[k] + IntPoly.term(by, power)
    return cols


def _htilde_off(k: int, power: int):
    """H~_r, memoised after its routes agree, off by 2 x^power v^k; G_r
    reads it."""
    def plant(pl, r, monkeypatch):
        ht = pl.htilde_over_kernel(r)
        pl._htilde[r] = RationalGF(_bump(ht.numerator, k, power), ht.s_power, ht.t_power)
        return pl.g_exact
    return plant


def _htilde_without_top_of_g(pl, r, monkeypatch):
    """H~_r less the top column of G_r over x^3, so that G_r, which adds
    x^3 H~_r, derives without its v^r column."""
    g = Pipeline(r, table=pl.table).g_exact(r)
    top = [IntPoly()] * r + [IntPoly(g.numerator[r].coeffs[3:])]
    pl._htilde[r] = pl.htilde_over_kernel(r) - RationalGF(top, g.s_power, g.t_power)
    return pl.g_exact


def _g_off(k: int, power: int):
    """The numerator of the memoised G_r off by 2 x^power v^k; P_r reads
    it."""
    def plant(pl, r, monkeypatch):
        g = pl.g_exact(r)
        pl._g[r] = RationalGF(_bump(g.numerator, k, power), g.s_power, g.t_power)
        return pl.p_poly
    return plant


def _p_off(ell: int, delta):
    """The memoised P_r with delta(p_ell) added to [v^ell] P_r; the c
    table reads it."""
    def plant(pl, r, monkeypatch):
        p = list(pl.p_poly(r))
        p[ell] = p[ell] + delta(p[ell])
        pl._p[r] = tuple(p)
        return pl.c_table
    return plant


def _drop_top_of_c(ell: int):
    """The change to p_ell that drops the top term of c(r, ell), the
    quotient of p_ell by s^(l-1) t^l."""
    factor = S_POLY ** (ell - 1) * T_POLY**ell

    def delta(p_ell):
        c = p_ell.divexact(factor)
        return factor * IntPoly.term(-c.coeffs[-1], c.degree)
    return delta


def _rebuild_off(pl, r, monkeypatch):
    """Every product by s in the c-table rebuild off by 2 in its constant
    term; only [v^l] P_r for l >= 2 is rebuilt with such a product."""
    pl.p_poly(r)
    real = algebra._times

    def off(cs, k):
        out = real(cs, k)
        if k == 1:
            out[0] += 2
        return out

    monkeypatch.setattr(algebra, "_times", off)
    return pl.c_table


def _top_cells_read(cells):
    """A full table whose coefficient at each cell (n, r, k) of the dict
    cells reads the value it maps to."""
    class Planted(GTable):
        def coeff(self, n, r, k=None):
            return cells.get((n, r, k), super().coeff(n, r, k))

    def plant(pl, r, monkeypatch):
        return Pipeline(r, table=Planted(r + 2)).boundary
    return plant


ROWS = [
    # (row id, r, plant, message)
    ("G_r v-degree", 3, _htilde_off(4, 0), r"G_3 has v-degree 4, expected 3"),
    ("G_r top column missing", 3, _htilde_without_top_of_g, r"G_3 has v-degree 2, expected 3"),
    ("G_r below x^(r+3)", 2, _htilde_off(1, 0), r"G_2 has a nonzero coefficient at x\^3 v\^1 below x\^5"),
    ("P_r degree bound", 3, _g_off(2, 15),
     r"v\^2 coefficient of P_3 has a nonzero term at x\^9, beyond the degree bound 8"),
    ("c rebuild", 3, _rebuild_off, r"c-decomposition of P_3 failed to rebuild \[v\^2\] P_3"),
    ("c(r,0)(1/2)", 3, _p_off(0, lambda p: IntPoly.term(2, 1)), r"c\(3,0\)\(1/2\) != 2\^\(1-3\)"),
    ("c degree above its bound", 4, _p_off(2, lambda p: S_POLY * T_POLY**2 * IntPoly.term(2, 9)),
     r"deg c\(4,2\) = 9, bound 8 \(exact for r >= 4\)"),
    ("c degree below its bound", 4, _p_off(4, _drop_top_of_c(4)),
     r"deg c\(4,4\) = [0-3], bound 4 \(exact for r >= 4\)"),
    ("non-positive top boundary entry", 4, _top_cells_read({(6, 4, 3): 0}),
     r"non-positive top boundary entry for r=4: g_\{6,4\}\(13\) = 0"),
    # The top row is scanned once, by index: an even non-positive cell
    # raises before a later odd one.
    ("non-positive top cell before an odd one", 4, _top_cells_read({(6, 4, 3): 0, (6, 4, 5): 1}),
     r"non-positive top boundary entry for r=4: g_\{6,4\}\(13\) = 0"),
]


@pytest.mark.parametrize("r, plant, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_fault_reaches_its_raise_site(table, monkeypatch, r, plant, message):
    read = plant(Pipeline(r, table=table), r, monkeypatch)
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        read(r)



def _b_poly_with_comb_off(monkeypatch):
    """b(5,2) with C(2,1) read as 3: its q^1 coefficient is then 5 C(1,0) 3 / 2."""
    def comb(m, k):
        return math.comb(m, k) + ((m, k) == (2, 1))

    monkeypatch.setattr(recurrence, "math", SimpleNamespace(comb=comb, factorial=math.factorial))
    return recurrence.b_poly(5, 2)


def _avoider_counts_off(module):
    """Patch module's ``avoider_counts`` so that the q = 0 recurrence's
    last count is off by one."""
    real = module.avoider_counts
    return lambda mp: mp.setattr(module, "avoider_counts", lambda n: [*real(n)[:-1], real(n)[-1] + 1])


def _avoider_count_off(monkeypatch):
    """``avoider_count(4)`` with f_4 off by one."""
    _avoider_counts_off(recurrence)(monkeypatch)
    return recurrence.avoider_count(4)


SITES = [
    # (site id, call, exception, whole message)
    ("b_poly non-integral coefficient", _b_poly_with_comb_off, ConsistencyError,
     r"b\(5,2\) coefficient of q\^1 is not an integer: 15/2"),
    ("avoider count against 2^(n-1)", _avoider_count_off, ConsistencyError,
     r"avoider recurrence gave 9, expected 2\^3"),
    ("_unpack out of its slots", lambda mp: algebra._unpack(128 + 256 * 127, 1, 2), ConsistencyError,
     r"packed sum falls outside its 2 slots of 8 bits"),
    ("_over remainder by s", lambda mp: RationalGF([[1, 0, 1]], 1, 0).with_denominator(0, 0),
     InexactDivisionError, r"polynomial not divisible by 1 - x"),
    ("_over remainder by t", lambda mp: RationalGF([[1, 0, 1]], 0, 1).with_denominator(0, 0),
     InexactDivisionError, r"polynomial not divisible by 1 - 2x"),
    ("divexact_const", lambda mp: IntPoly([2, 3]).divexact_const(2), InexactDivisionError,
     r"coefficient 3 not divisible by 2"),
    ("div_kernel remainder", lambda mp: RationalGF([[1], [0], [1]]).div_kernel(), ConsistencyError,
     r"kernel division left a nonzero remainder at v\^2"),  # 1 + v^2
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in SITES], ids=[row[0] for row in SITES])
def test_raise_site_names_its_indices(monkeypatch, call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(monkeypatch)


GUARDS = [
    # (guard id, call, exception, whole message) for each input guard of
    # the library that no command line reaches
    ("cycles_to_permutation", lambda: constructions.cycles_to_permutation([(1, 3)]), ValueError,
     "cycles do not form a permutation of 1..n"),
    ("distribution n", lambda: perms.distribution(0), ValueError, "n must be >= 1"),
    ("max_occurrences n", lambda: perms.max_occurrences(0), ValueError, "n must be >= 1"),
    ("min_length_for r", lambda: constructions.min_length_for(0), ValueError, "r must be >= 1"),
    ("b_poly_alt j", lambda: recurrence.b_poly_alt(3, 3), ValueError, "j must lie in [1, 2]"),
    ("GTable.g n", lambda: GTable().g(0), ValueError, "n must be >= 1"),
    ("GTable.g1k k", lambda: GTable().g1k(3, 1), ValueError, "k must lie in [2, 3]"),
    ("GTable.coeff r", lambda: GTable().coeff(3, -1, 2), ValueError, "r must be >= 0"),
    ("verify_a_closed_form k_max", lambda: recurrence.verify_a_closed_form(1), ValueError,
     "k_max must be >= 2"),
    ("Pipeline r_max", lambda: Pipeline(-1), ValueError, "r_max must be >= 0"),
    ("run_suite suite", lambda: checks.run_suite("nope"), ValueError,
     "unknown suite 'nope'; choose from ('all', 'recurrence', 'genfun', 'constructions')"),
    ("divexact_const by 0", lambda: IntPoly([1]).divexact_const(0), ZeroDivisionError, ""),
    ("IntPoly negative power", lambda: IntPoly([1]) ** -1, ValueError, "negative exponent"),
    ("expand_coeffs order", lambda: RationalGF([[1]]).expand_coeffs(-1), ValueError, "order must be >= 0"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS])
def test_library_guard_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _g1k_off(cell, by: int):
    """Patch the suite's table so that g_n(1k) at cell = (n, k) is by q too
    large."""
    class Off(GTable):
        def g1k(self, n, k):
            return super().g1k(n, k) + (IntPoly.term(by, 1) if (n, k) == cell else IntPoly())

    return lambda mp: mp.setattr(checks, "GTable", Off)


def _oracle_off(off):
    """Patch ``perms.distribution`` so that its walk of the words of S_n
    starting ``prefix`` counts ``by`` words too many with r occurrences,
    for each off[n, prefix] = {r: by}."""
    real = perms.distribution

    def walk(n, prefix=(), *args):
        dist = real(n, prefix, *args)
        by = off.get((n, tuple(prefix)), {})
        return dist._replace(counts={r: dist.count(r) + by.get(r, 0) for r in {*dist.counts, *by}})

    return lambda mp: mp.setattr(perms, "distribution", walk)


def _b_off(module, name: str, cell):
    """Patch module's b-route name so that its value at cell = (n, j) has
    its constant term off by one."""
    real = getattr(module, name)
    return lambda mp: mp.setattr(module, name, lambda n, j: real(n, j) + IntPoly([int((n, j) == cell)]))


def _tail_off(k: int, below: int, tail, field: int, by: int):
    """Patch ``perms._TAILS`` so that the pair of ``_TAILS[k][below]`` that
    ends its word in the standardized order ``tail`` has its extra
    (field 0) or minima (field 1) off by ``by``."""
    order = list(itertools.permutations(range(1, k + 1))).index(tail)

    def plant(mp):
        tables = [[list(map(list, rows)) for rows in table] for table in perms._TAILS]
        tables[k][below][order][field] += by
        mp.setattr(perms, "_TAILS", tuple(tuple(tuple(map(tuple, rows)) for rows in table) for table in tables))
    return plant


def _memo_off(method: str, r: int, bump):
    """Patch the suites' Pipeline so that bump(pipeline) alters its memos
    just before the first call of ``method`` at r: the lines that ran
    before read clean values, and the rest read the fault."""
    class Off(Pipeline):
        planted = False

    def first(self, *args):
        if args == (r,) and not self.planted:
            self.planted = True
            bump(self)
        return getattr(Pipeline, method)(self, *args)

    setattr(Off, method, first)
    return lambda mp: mp.setattr(checks, "Pipeline", Off)


def _g_plus(r: int, delta: RationalGF):
    """The bump that adds delta to the memoised G_r once every G_j is
    derived, so that no derivation reads the fault."""
    def bump(pl):
        pl.g_exact(pl.r_max)
        pl._g[r] = pl._g[r] + delta
    return bump


def _reference_off(mp):
    """``REFERENCE_CTABLES`` with the constant term of c(3,1) off by one."""
    tables = {r: [list(cs) for cs in table] for r, table in checks.REFERENCE_CTABLES.items()}
    tables[3][1][0] += 1
    mp.setattr(checks, "REFERENCE_CTABLES", tables)


def _last_two_swapped(mp):
    """The interleaved word with its last two letters swapped."""
    real = constructions.max_pattern_perm

    def swapped(n):
        w = real(n)
        return (*w[:-2], w[-1], w[-2]) if n >= 2 else w

    mp.setattr(constructions, "max_pattern_perm", swapped)


def _min_length_off(by: int):
    """Patch ``min_length_for`` to be off by ``by``."""
    real = constructions.min_length_for
    return lambda mp: mp.setattr(constructions, "min_length_for", lambda r: real(r) + by)


def _collision(mp):
    """The one-to-two map sends (1,) to its first image twice."""
    real = constructions.doubling_pair
    mp.setattr(constructions, "doubling_pair", lambda sigma: (real(sigma)[0],) * 2 if sigma == (1,) else real(sigma))


def _a_row_off(mp):
    """The a-table that the closed form of A(x,y) is compared with, with
    a_{2,1} off by one."""
    real = recurrence.a_rows

    def rows(k_max):
        out = real(k_max)
        out[2] = [out[2][0] + IntPoly([1])]
        return out

    mp.setattr(recurrence, "a_rows", rows)


def _witness_moved(mp):
    """The witness word for (r, i) = (5, 2) with its last letter moved to
    the third place: 1,4,3,7,6,2,5 has 4 occurrences, not 5."""
    real = constructions.witness_perm

    def moved(r, i):
        w = real(r, i)
        return (*w[:2], w[-1], *w[2:-1]) if (r, i) == (5, 2) else w

    mp.setattr(constructions, "witness_perm", moved)


#: The lines besides ``g0`` that see a fault in G_0: the closed form
#: 4x^3/t and both identities at r = 0.
G0_SEEN = {
    "rational": "the rational closed form of G_0 differs from G_0",
    "functional-equation": "the pre-kernel functional equation fails for G_0",
    "kernel-root": "the kernel-root identity fails for G_0",
}

VERIFY_ROWS = [
    # (row id, plant, --suite, --n, {key: detail} of exactly the lines that FAIL)
    ("base polynomials", _g1k_off((3, 2), 2), "recurrence", 2,
     {"base": "g_3(12)", "mass": "prefix sum at n=3", "prefix-recurrence": "(n,i)=(4,3)"}),
    ("enumeration", _oracle_off({(3, (1, 3)): {1: 1}}), "recurrence", 3,
     {"enumeration": "g_3 disagrees with enumeration"}),
    # One word of S_3 with one occurrence counted under 1, 3 as if it
    # started 1, 2: the walk of S_3 still agrees with g_3.
    ("enumeration by prefix", _oracle_off({(3, (1, 2)): {1: 1}, (3, (1, 3)): {1: -1}}), "recurrence", 3,
     {"enumeration": "g_3(12) disagrees with enumeration"}),
    ("q=1 mass and sign", _g1k_off((12, 2), 2), "recurrence", 3, {"mass": "prefix sum at n=12"}),
    # No row of the table is grown from g_12(14), so the three-term line
    # does not see it.
    ("initial form of g_n(14)", _g1k_off((12, 4), 2), "recurrence", 3,
     {"mass": "prefix sum at n=12", "initial-forms": "g_12(14)", "prefix-recurrence": "(n,i)=(12,4)"}),
    ("prefix recurrence", _g1k_off((11, 2), 2), "recurrence", 3,
     {"mass": "prefix sum at n=11", "prefix-recurrence": "(n,i)=(12,3)"}),
    ("parity", _g1k_off((12, 2), 1), "recurrence", 3,
     {"mass": "prefix sum at n=12", "parity": "(n,k)=(12,2)"}),
    ("avoider count", _avoider_counts_off(checks), "recurrence", 3, {"avoiders": "n=30"}),
    # One avoider of S_3 walked too few: the enumeration line sees it
    # too, while the q = 0 recurrence still counts 2^(n-1).
    ("oracle avoider count", _oracle_off({(3, (1, 2)): {0: -1}}), "recurrence", 3,
     {"enumeration": "g_3 disagrees with enumeration", "avoiders": "oracle n=3"}),
    ("closed form of A(x,y)", _b_off(recurrence, "b_poly_alt", (15, 14)), "recurrence", 3,
     {"closed-form": "b(15,14): column sum IntPoly([2]), b_poly IntPoly([2]), b_poly_alt IntPoly([3])"}),
    ("a-table of A(x,y)", _a_row_off, "recurrence", 3,
     {"closed-form": "a(2,1): series IntPoly([1]) != recurrence IntPoly([2])"}),
    ("b(n,1)", _b_off(checks, "b_poly", (7, 1)), "recurrence", 3, {"b-constants": "b(7,1)"}),
    ("b(n,n-1)", _b_off(checks, "b_poly", (7, 6)), "recurrence", 3, {"b-constants": "b(7,6)"}),
    # 1,5,2,4,3, the one word of S_5 with 4 occurrences, ends 2,4,3 after
    # 5: one occurrence fewer leaves S_5 with at most 3.
    ("exhaustive maximality", _tail_off(3, 3, (1, 3, 2), 0, -1), "genfun", 5, {"maximality": "n=5"}),
    # 1,2,3,5,4,6 counts 2 occurrences, not 1: the prefix-12 class of S_6
    # no longer doubles S_5, while its size and its avoiders stay.
    ("prefix-12 doubling", _tail_off(4, 0, (1, 3, 2, 4), 0, 1), "constructions", 6,
     {"prefix-12-doubling": "n=6"}),
    # 1,3,2,4,5,6 counts as an avoider of S_6, outside the prefix-12 class.
    ("avoider doubling", _tail_off(4, 1, (1, 2, 3, 4), 0, -1), "constructions", 6,
     {"avoider-doubling": "n=6"}),
    ("one-to-two collision", _collision, "constructions", 3, {"one-to-two": "n=2, collision at sigma=(1,)"}),
    # G_0 + 2x^5.
    ("G_0", _memo_off("g_series", 0, _g_plus(0, RationalGF([IntPoly.term(2, 5)]))), "genfun", 3,
     {"g0": "x^5", **G0_SEEN}),
    # G_0 + 2x^5 v: a power of v where G_0 has none.
    ("G_0 v-degree", _memo_off("g_series", 0, _g_plus(0, RationalGF([IntPoly(), IntPoly.term(2, 5)]))),
     "genfun", 3, {"g0": "v-degree 1", **G0_SEEN}),
    ("reference c tables", _reference_off, "genfun", 3, {"reference": "r=3"}),
    # G_1 + 2x^5 (1 - v)(1 - sv), which vanishes at v = 1 and at v = 1/s,
    # where the kernel-root identity reads G_1.
    ("functional equation", _memo_off("check_functional_equation", 0,
                                      _g_plus(1, (genfun.ONE_MINUS_V * genfun.KERNEL).shift(x=5) * 2)),
     "genfun", 3, {"functional-equation": "the pre-kernel functional equation fails for G_1"}),
    # G_1 + 2x^5 (1 - v): G_1(x, 1) stays, G_1(x, 1/s), read from r = 2 on,
    # does not.
    ("kernel root", _memo_off("check_kernel_root", 0, _g_plus(1, genfun.ONE_MINUS_V.shift(x=5) * 2)),
     "genfun", 3, {"kernel-root": "the kernel-root identity fails for G_2"}),
    ("odd series coefficient", _memo_off("g_series", 1, _g_plus(1, RationalGF([IntPoly.term(1, 5)]))),
     "genfun", 3, {"even-series": "r=1, v^0"}),
    ("interleaved word", _last_two_swapped, "genfun", 3, {"interleaved": "n=3"}),
    ("minimal length", _min_length_off(1), "genfun", 3, {"min-length": "r=1 not minimal"}),
    # For r = 1 the shortest word has length 3 = 1 + 2 sqrt(1).
    ("minimal length bound", _min_length_off(-1), "genfun", 3, {"min-length": "r=1"}),
    ("witness word", _witness_moved, "constructions", 3, {"witnesses": "(r,i)=(5,2)"}),
]


@pytest.fixture
def fresh_oracle():
    """The suites memoise the oracle per process; a planted walk must
    neither read a clean memo nor leave its own behind."""
    checks._oracle.cache_clear()
    yield
    checks._oracle.cache_clear()


@pytest.mark.parametrize("plant, suite, n, failing", [row[1:] for row in VERIFY_ROWS],
                         ids=[row[0] for row in VERIFY_ROWS])
def test_fault_fails_its_verify_lines(verify, monkeypatch, fresh_oracle, plant, suite, n, failing):
    plant(monkeypatch)
    code, failed, lines = verify("--suite", suite, "--n", str(n))
    assert code == EXIT_CHECK_FAILED
    assert failed == failing
    assert lines[-1] == f"FAILED: {len(lines) - 1 - len(failing)}/{len(lines) - 1} checks passed"


#: The ``verify`` lines, by key, that a test in another module drives to
#: FAIL, each with one such test.
FAILED_ELSEWHERE = {
    "three-term": "test_checks.py::test_row_checks_see_a_corrupted_table",
    "initial-forms": "test_checks.py::test_row_checks_see_a_corrupted_table",
    "g12-doubling": "test_checks.py::test_doubling_check_sees_a_corrupted_column",
    "average": "test_checks.py::test_average_line_fails_on_a_corrupted_g25",
    "structure": "test_checks.py::test_structure_check_fails_when_c_table_raises",
    "rational": "test_checks.py::test_rational_line_fails_on_a_closed_form_off_by_one",
    "one-to-two": "test_checks.py::test_doubling_line_fails_on_a_repeated_image",
    "dual-route": "test_checks.py::test_disagreeing_htilde_routes_fail_every_time",
    "boundary": "test_checks.py::test_boundary_check_fails_on_inner_cell",
}

#: The keys of the ``verify`` lines that no test drives to FAIL yet.  A new
#: line that has no fault row must be listed here, and leaves when it gets
#: one.
NO_FAULT_ROW_YET = ()


def test_every_verify_line_has_a_fault_row_or_is_listed():
    """A new ``verify`` line fails this test until a fault row drives it
    to FAIL, or its key is listed in ``NO_FAULT_ROW_YET``; a key that names
    no line fails it too."""
    tests = Path(__file__).parent
    for test in FAILED_ELSEWHERE.values():
        module, name = test.split("::")
        assert f"\ndef {name}(" in (tests / module).read_text(encoding="utf-8"), test
    keys = [result.key for result in checks.run_suite("all")]
    assert len(set(keys)) == len(keys), keys
    covered = {key for row in VERIFY_ROWS for key in row[-1]} | set(FAILED_ELSEWHERE)
    assert covered.isdisjoint(NO_FAULT_ROW_YET)
    assert covered | set(NO_FAULT_ROW_YET) == set(keys)
