"""Named verification suites.

Each suite runs a batch of exact identity checks across the independent
computation routes (brute-force enumeration, q-polynomial recurrences,
kernel pipeline) and returns one ``CheckResult`` per claim: a plain
record of the check's name, whether it passed, and on failure a detail
naming where.  The CLI's ``verify`` command is a thin wrapper over these.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from . import perms
from ._common import SUITE_NAMES
from ._reference import REFERENCE_CTABLES
from .algebra import ConsistencyError, IntPoly
from .genfun import Pipeline
from .recurrence import (
    Q_MINUS_1,
    GTable,
    a_rows,
    avoider_counts,
    b_poly,
    check_average,
    verify_a_closed_form,
)

#: Fixed bounds of the suites' identity checks; they appear in the check
#: names.  IDENTITY_RMAX caps the genfun suite's r_max for its identities.
IDENTITY_NMAX = 12
AVOIDER_NMAX = 30
AVERAGE_NMAX = 25
A_FORM_KMAX = 15
IDENTITY_RMAX = 4


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _check(results: list[CheckResult], name: str, fn) -> None:
    try:
        ok, detail = fn()
    except ConsistencyError as exc:
        ok, detail = False, str(exc)
    results.append(CheckResult(name, ok, detail if not ok else ""))


@functools.lru_cache(maxsize=None)
def _oracle(n: int, prefix: tuple[int, ...] = ()) -> perms.OccurrenceTable:
    """``perms.distribution(n, prefix)``, walked once per process: several
    checks compare with the same case.  For n >= 2 the full distribution
    is the sum of the cases (1, k), k = 2..n, since every flattened word
    starts 1, k; so a suite that asks for both walks the words of S_n
    once.  The suites ask for a few dozen cases with n within the
    enumeration limit, so the memo stays small.  The result is shared,
    so callers only read it."""
    if prefix or n < 2:
        return perms.distribution(n, prefix)
    counts: dict[int, int] = {}
    for k in range(2, n + 1):
        for r, c in _oracle(n, (1, k)).counts.items():
            counts[r] = counts.get(r, 0) + c
    return perms.OccurrenceTable(n, dict(sorted(counts.items())))


def _poly_matches_distribution(table: GTable, n: int, k: int | None) -> bool:
    dist = _oracle(n) if k is None else _oracle(n, (1, k))
    poly = table.g(n) if k is None else table.g1k(n, k)
    return dist.coeff_list() == list(poly.coeffs)


def a_factors(k_max: int) -> list[list[IntPoly]]:
    """The factors a_{k,j} (q-1)^(j-1) of the a-sum, row k for
    2 <= k <= k_max (rows 0 and 1 are empty), each formed once."""
    qm1 = [IntPoly([1])]
    for _ in range(k_max):
        qm1.append(qm1[-1] * Q_MINUS_1)
    return [[a * qm1[j] for j, a in enumerate(row)] for row in a_rows(k_max)]


def a_sum(table: GTable, n: int, factors: list[IntPoly]):
    """g_n(1k) for 3 <= k <= n as the a-sum over the table's g column,

        sum_{j=1}^{k-1} a_{k,j} (q-1)^{j-1} g_{n-j},

    given factors = ``a_factors(..)[k]``: the reference the table's
    short-rule rows are compared with."""
    total = IntPoly()
    for j, f in enumerate(factors, 1):
        total = total + table.g(n - j) * f
    return total


def recurrence_suite(oracle_nmax: int = 7, table: GTable | None = None) -> list[CheckResult]:
    """Checks of the q-polynomial layer: base values, oracle agreement,
    the g_n(1k) identities, parity, avoiders, averages, and the rational
    closed form of the a/b coefficient tables."""
    table = table or GTable()
    out: list[CheckResult] = []

    _check(out, "base polynomials g_1, g_2, g_3, g_3(12), g_3(13)", lambda: (
        table.g(1) == IntPoly([1])
        and table.g(2) == IntPoly([2])
        and table.g(3) == IntPoly([4, 2])
        and table.g1k(3, 2) == IntPoly([4])
        and table.g1k(3, 3) == IntPoly([0, 2]),
        "",
    ))

    def oracle_agreement():
        for n in range(1, oracle_nmax + 1):
            if not _poly_matches_distribution(table, n, None):
                return False, f"g_{n} disagrees with enumeration"
            for k in range(2, n + 1):
                if not _poly_matches_distribution(table, n, k):
                    return False, f"g_{n}(1{k}) disagrees with enumeration"
        return True, ""
    _check(out, f"enumeration agrees with recurrence for n <= {oracle_nmax}", oracle_agreement)

    # The b-sum column against the sum of the short-rule rows.
    def mass_and_sign():
        for n in range(1, IDENTITY_NMAX + 1):
            g = table.g(n)
            if sum(g.coeffs) != math.factorial(n) or any(c < 0 for c in g.coeffs):
                return False, f"n={n}"
            if n >= 2:
                total = IntPoly()
                for k in range(2, n + 1):
                    total = total + table.g1k(n, k)
                if total != g:
                    return False, f"prefix sum at n={n}"
        return True, ""
    _check(out, f"q=1 mass is n!, coefficients nonnegative, prefixes sum to g_n (n <= {IDENTITY_NMAX})", mass_and_sign)

    # The table grows g_n(1k) by its short rules, g_n(12) = 2 g_(n-1)
    # among them, so the next three lines compare it with the a-sum; the
    # doubling line takes g_n(12) as the b-sum column minus the a-sum rows.
    # Each a-sum g_n(1k), 3 <= k <= n <= IDENTITY_NMAX, is formed once and
    # read by every line that compares with it.
    a = a_factors(IDENTITY_NMAX)

    @functools.cache
    def a_ref(n: int, k: int) -> IntPoly:
        return a_sum(table, n, a[k])

    def doubling_identity():
        for n in range(2, IDENTITY_NMAX + 1):
            rest = table.g(n)
            for k in range(3, n + 1):
                rest = rest - a_ref(n, k)
            if rest != table.g(n - 1) * 2:
                return False, f"n={n}"
        return True, ""
    _check(out, f"g_n(12) = 2 g_(n-1) for n <= {IDENTITY_NMAX}", doubling_identity)

    def three_term():
        for n in range(5, IDENTITY_NMAX + 1):
            for k in range(5, n + 1):
                if table.g1k(n, k) != a_ref(n, k):
                    return False, f"(n,k)=({n},{k})"
        return True, ""
    _check(out, f"three-term recurrence for g_n(1k), 5 <= k <= n <= {IDENTITY_NMAX}", three_term)

    def initial_forms():
        for n in range(3, IDENTITY_NMAX + 1):
            if table.g1k(n, 3) != a_ref(n, 3):
                return False, f"g_{n}(13)"
            if n >= 4 and table.g1k(n, 4) != a_ref(n, 4):
                return False, f"g_{n}(14)"
        return True, ""
    _check(out, f"closed initial forms for g_n(13), g_n(14), n <= {IDENTITY_NMAX}", initial_forms)

    def prefix_recurrence():
        for n in range(3, IDENTITY_NMAX + 1):
            for i in range(3, n + 1):
                rhs = table.g(n - 1)
                for j in range(2, i):
                    p = table.g1k(n - 1, j)
                    rhs = rhs + p.shift(i - j) - p  # (q^(i-j) - 1) p
                if table.g1k(n, i) != rhs:
                    return False, f"(n,i)=({n},{i})"
        return True, ""
    _check(out, f"prefix recurrence g_n(1i) = g_(n-1) + sum (q^(i-j)-1) g_(n-1)(1j), n <= {IDENTITY_NMAX}", prefix_recurrence)

    def parity():
        for n in range(2, IDENTITY_NMAX + 1):
            for k in range(2, n + 1):
                poly = table.g1k(n, k)
                if any(poly[r] % 2 for r in range(1, poly.degree + 1)):
                    return False, f"(n,k)=({n},{k})"
        return True, ""
    _check(out, f"g_(n,r)(1k) is even for r >= 1, n <= {IDENTITY_NMAX}", parity)

    def avoiders():
        for n, count in enumerate(avoider_counts(AVOIDER_NMAX), 1):
            if count != 2 ** (n - 1):
                return False, f"n={n}"
        for n in range(1, oracle_nmax + 1):
            if _oracle(n).count(0) != 2 ** (n - 1):
                return False, f"oracle n={n}"
        return True, ""
    _check(out, f"avoider count is 2^(n-1) (recurrence n <= {AVOIDER_NMAX}, oracle n <= {oracle_nmax})", avoiders)

    def averages():
        for n in range(1, AVERAGE_NMAX + 1):
            check_average(n, table)  # raises on mismatch, in integers
        return True, ""
    _check(out, f"average occurrences equal (n^2+3n+8)/12 - H_n for n <= {AVERAGE_NMAX}", averages)

    def closed_form():
        mismatches = verify_a_closed_form(A_FORM_KMAX, A_FORM_KMAX)
        return not mismatches, "; ".join(mismatches[:3])
    _check(out, f"closed form of A(x,y) matches a- and b-tables through {A_FORM_KMAX}", closed_form)

    def b_constants():
        for n in range(2, IDENTITY_NMAX + 1):
            if b_poly(n, 1) != IntPoly([n]):
                return False, f"b({n},1)"
            if n >= 3 and b_poly(n, n - 1) != IntPoly([2]):
                return False, f"b({n},{n - 1})"
        return True, ""
    _check(out, f"b(n,1) = n and b(n,n-1) = 2 for n <= {IDENTITY_NMAX}", b_constants)

    return out


def genfun_suite(pipeline: Pipeline, maximal_nmax: int = 7) -> list[CheckResult]:
    """Checks of ``pipeline`` for r <= its r_max: reference c tables, the
    structure of P_r, rationality round trips, the functional-equation
    identities, and the extremal-length facts."""
    r_max = pipeline.r_max
    identity_rmax = min(r_max, IDENTITY_RMAX)
    out: list[CheckResult] = []

    def base_series():
        g0 = pipeline.g_series(0)
        ok = g0.vdegree == 0 and all(
            g0.coeff(0).coeff(n) == (2 ** (n - 1) if n >= 3 else 0)
            for n in range(pipeline.order + 1)
        )
        return ok, ""
    _check(out, "G_0 = 4x^3/(1-2x) coefficient by coefficient", base_series)

    def reference_tables():
        for r in range(1, min(r_max, 5) + 1):
            ct = pipeline.c_table(r)
            want = [IntPoly(cs) for cs in REFERENCE_CTABLES[r]]
            if list(ct) != want:
                return False, f"r={r}"
        return True, ""
    _check(out, f"c tables match the reference coefficients for r <= {min(r_max, 5)}", reference_tables)

    def structure():
        for r in range(1, r_max + 1):
            # Raises on a non-integral division, the v-degree of P_r, the
            # value c_{r,0}(1/2), the degree pattern and, through the
            # boundary data, a non-positive top row for r >= 4.
            pipeline.c_table(r)
            if r >= 4:
                for i in range(r + 1):
                    w = perms.witness_perm(r, i)
                    if perms.count_13_2(w) != r or w[1] != i + 2:
                        return False, f"r={r}: witness word for i={i}"
        return True, ""
    _check(out, f"P_r structure (integrality, value at 1/2, degrees) for r <= {r_max}", structure)

    def rationality():
        for r in range(0, identity_rmax + 1):
            pipeline.rational_gf(r)  # raises if the re-expansion disagrees
        return True, ""
    _check(out, f"rational closed form re-expands to G_r for r <= {identity_rmax}", rationality)

    def functional_equation():
        for r in range(0, identity_rmax + 1):
            if not pipeline.check_functional_equation(r):
                return False, f"r={r}"
        return True, ""
    _check(out, f"pre-kernel functional equation holds for r <= {identity_rmax}", functional_equation)

    def kernel_root():
        for r in range(0, identity_rmax + 1):
            if not pipeline.check_kernel_root(r):
                return False, f"r={r}"
        return True, ""
    _check(out, f"kernel-root identity for G_r(x,1), r <= {identity_rmax}", kernel_root)

    def parity_series():
        for r in range(1, identity_rmax + 1):
            g = pipeline.g_series(r)
            for k in range(g.vdegree + 1):
                if any(c % 2 for c in g.coeff(k).coeffs):
                    return False, f"r={r}, v^{k}"
        return True, ""
    _check(out, f"all series coefficients of G_r are even for 1 <= r <= {identity_rmax}", parity_series)

    def max_formula():
        for n in range(1, 51):
            if perms.count_13_2(perms.max_pattern_perm(n)) != perms.max_occurrences(n):
                return False, f"n={n}"
        return True, ""
    _check(out, "interleaved word attains n(n-2)/4 resp. (n-1)^2/4 occurrences, n <= 50", max_formula)

    def max_exhaustive():
        for n in range(1, maximal_nmax + 1):
            if _oracle(n).max_occurrences() != perms.max_occurrences(n):
                return False, f"n={n}"
        return True, ""
    _check(out, f"exhaustive maximality of the occurrence bound for n <= {maximal_nmax}", max_exhaustive)

    def min_length():
        for r in range(1, 101):
            n = perms.min_length_for(r)
            if (n - 1) ** 2 < 4 * r:  # n >= 1 + 2 sqrt(r)
                return False, f"r={r}"
            if n > 1 and perms.max_occurrences(n - 1) >= r:
                return False, f"r={r} not minimal"
        return True, ""
    _check(out, "minimal length for r occurrences is >= 1 + 2 sqrt(r), r <= 100", min_length)

    return out


def constructions_suite(
    pipeline: Pipeline,
    doubling_nmax: int = 6,
    witness_rmax: int = 12,
) -> list[CheckResult]:
    """Checks of the explicit constructions: the one-to-two prefix-12 map,
    the avoider doubling, the witness words, and the dual-route boundary
    consistency of the kernel pipeline.

    The dual-route line reads ``pipeline`` for r <= its r_max, and the
    boundary line reads its table.  ``run_suite`` passes the one the
    genfun suite ran, whose H~_r memo then holds every r that the
    derivation of G_r already compared by both routes."""
    out: list[CheckResult] = []

    def doubling_bijection():
        # Each image is checked to lie in the class (a permutation of
        # 1..n whose flattening starts 1, 2), so distinct images as many
        # as the class holds cover it.
        for n in range(2, doubling_nmax + 1):
            images = set()
            for sigma in itertools.permutations(range(1, n)):
                occ = perms.count_13_2(perms.flatten(sigma))
                pi, pi_prime = perms.doubling_pair(sigma)
                for tau in (pi, pi_prime):
                    word = perms.flatten(tau)
                    if len(word) != n or word[:2] != (1, 2) or perms.count_13_2(word) != occ:
                        return False, f"n={n}, sigma={sigma}"
                if pi == pi_prime:
                    return False, f"n={n}, collision at sigma={sigma}"
                images.update((pi, pi_prime))
            if len(images) != 2 * math.factorial(n - 1):
                return False, f"n={n}: images not distinct"
            if len(images) != _oracle(n, (1, 2)).total():
                return False, f"n={n}: images do not cover the prefix-12 class"
        return True, ""
    _check(out, f"one-to-two map is a bijection onto the prefix-12 class, n <= {doubling_nmax}", doubling_bijection)

    def aggregated_doubling():
        for n in range(2, doubling_nmax + 1):
            lhs = _oracle(n, (1, 2)).counts
            rhs = {r: 2 * c for r, c in _oracle(n - 1).counts.items()}
            if lhs != rhs:
                return False, f"n={n}"
        return True, ""
    _check(out, f"prefix-12 distribution doubles the shorter one, n <= {doubling_nmax}", aggregated_doubling)

    def avoider_doubling():
        for n in range(2, doubling_nmax + 1):
            if _oracle(n).count(0) != 2 * _oracle(n - 1).count(0):
                return False, f"n={n}"
        return True, ""
    _check(out, f"avoider counts double with n (enumeration, n <= {doubling_nmax})", avoider_doubling)

    def witnesses():
        for r in range(4, witness_rmax + 1):
            for i in range(r + 1):
                w = perms.witness_perm(r, i)
                if len(w) != r + 2 or w[:2] != (1, i + 2) or perms.count_13_2(w) != r:
                    return False, f"(r,i)=({r},{i})"
        return True, ""
    _check(out, f"witness words have exactly r occurrences, 4 <= r <= {witness_rmax}", witnesses)

    def dual_route():
        for r in range(0, pipeline.r_max + 1):
            pipeline.htilde_over_kernel(r)  # raises on mismatch
        return True, ""
    _check(out, f"both routes to H~_r/(1-sv) agree for r <= {pipeline.r_max}", dual_route)

    def boundary_oracle():
        r, table = 3, pipeline.table
        bd = Pipeline(r_max=r, table=table).boundary(r)
        for i in range(2, r + 3):
            if _oracle(r + 2, (1, i)).count(r) != bd.top(i):
                return False, f"top row at i={i}"
        layers = []  # sum_j v^(r-j) G_{n+3,j}(v), as in H_r, for each n
        for n in range(r - 1):
            layer = IntPoly()
            for j in range(n + 1):
                cells = [table.coeff(n + 3, j, k) for k in range(2, j + 3)]
                for k, v in enumerate(cells, 2):
                    if _oracle(n + 3, (1, k)).count(j) != v:
                        return False, f"inner cell (n, j, k) = ({n}, {j}, {k})"
                layer = layer + IntPoly(cells).shift(r - j)
            layers.append(layer)
        for h, sums in enumerate(bd.inner):
            if list(sums) != [layer[h] for layer in layers]:
                return False, f"inner sums at h={h}"
        return True, ""
    _check(out, "boundary data matches enumeration (r = 3)", boundary_oracle)

    return out


def run_suite(
    suite: str,
    oracle_nmax: int = 7,
    r_max: int = 4,
) -> list[CheckResult]:
    """The checks of one suite, or of all three, over one shared
    ``GTable`` and one shared ``Pipeline(r_max)`` on it: each
    G_r, H~_r and set of boundary data is derived once and read by every
    suite that checks it, and the enumeration oracle is memoised per
    process (``_oracle``).  The genfun and constructions suites read
    their bounds on r from the pipeline's r_max."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    table = GTable()
    pipeline = Pipeline(r_max=r_max, table=table)
    out: list[CheckResult] = []
    if suite in ("all", "recurrence"):
        out.extend(recurrence_suite(oracle_nmax=oracle_nmax, table=table))
    if suite in ("all", "genfun"):
        out.extend(genfun_suite(pipeline, maximal_nmax=oracle_nmax))
    if suite in ("all", "constructions"):
        out.extend(constructions_suite(pipeline, doubling_nmax=min(oracle_nmax, 6)))
    return out
