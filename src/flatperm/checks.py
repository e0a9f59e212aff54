"""Named verification suites.

Each suite runs a batch of exact identity checks across the independent
computation routes (brute-force enumeration, q-polynomial recurrences,
kernel pipeline) and returns one ``CheckResult`` per claim: a plain
record of the line's key and name, whether it passed, and on failure a
detail naming where.  The key is a short, stable identifier given where
the line is registered (``"mass"``, ``"dual-route"``), and tests address
the line by it; the name is the text ``verify`` prints.  A check fails
only by raising ``ConsistencyError``, whose message is the detail.  An
identity that a layer owns (the pipeline's functional equation and
kernel root, the closed form of the a/b tables) raises there, and its
message is the detail as it stands: no function in the package returns
a pass/fail verdict.  The CLI's ``verify`` command is a thin wrapper
over these suites.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from . import constructions, perms
from ._common import SUITE_NAMES
from ._reference import REFERENCE_CTABLES
from .algebra import ConsistencyError, IntPoly
from .genfun import Pipeline
from .recurrence import (
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
WITNESS_RMAX = 12
AVOIDER_NMAX = 30
AVERAGE_NMAX = 25
A_FORM_KMAX = 15
IDENTITY_RMAX = 4


class CheckResult(NamedTuple):
    key: str
    name: str
    passed: bool
    detail: str = ""


def _check(results: list[CheckResult], key: str, name: str, fn) -> None:
    """Record the line ``key``, printed as ``name``: it fails only when
    ``fn()`` raises ``ConsistencyError``, with the message as its detail, and
    passes when ``fn()`` returns None; any other return is a bug (TypeError)."""
    try:
        if fn() is not None:
            raise TypeError(f"check {key!r} returned a value; a check fails only by raising")
    except ConsistencyError as exc:
        results.append(CheckResult(key, name, False, str(exc)))
    else:
        results.append(CheckResult(key, name, True))


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


def a_sum(table: GTable, n: int, row: list[IntPoly]) -> IntPoly:
    """g_n(1k) for 3 <= k <= n as the a-sum over the table's g column,

        sum_{j=1}^{k-1} a_{k,j} (q-1)^{j-1} g_{n-j},

    given row = ``a_rows(..)[k]`` = [a_{k,1}, ..., a_{k,k-1}]: the
    reference the table's short-rule rows are compared with.  It is
    formed by Horner's rule in q - 1, as ``GTable.ensure`` forms the
    b-sum: total <- total (q - 1) + a_{k,j} g_{n-j} for j = k-1, ..., 1."""
    total = IntPoly()
    for j in range(len(row), 0, -1):
        total = total.shift(1) - total + row[j - 1] * table.g(n - j)
    return total


def recurrence_suite(table: GTable, oracle_nmax: int = 7) -> list[CheckResult]:
    """Checks of ``table``, the q-polynomial layer: base values, oracle
    agreement, the g_n(1k) identities, parity, avoiders, averages, and the
    rational closed form of the a/b coefficient tables."""
    out: list[CheckResult] = []

    def base_values():
        for name, poly, want in (
            ("g_1", table.g(1), [1]),
            ("g_2", table.g(2), [2]),
            ("g_3", table.g(3), [4, 2]),
            ("g_3(12)", table.g1k(3, 2), [4]),
            ("g_3(13)", table.g1k(3, 3), [0, 2]),
        ):
            if poly != IntPoly(want):
                raise ConsistencyError(name)
    _check(out, "base", "base polynomials g_1, g_2, g_3, g_3(12), g_3(13)", base_values)

    def oracle_agreement():
        for n in range(1, oracle_nmax + 1):
            if _oracle(n).coeff_list() != list(table.g(n).coeffs):
                raise ConsistencyError(f"g_{n} disagrees with enumeration")
            for k in range(2, n + 1):
                if _oracle(n, (1, k)).coeff_list() != list(table.g1k(n, k).coeffs):
                    raise ConsistencyError(f"g_{n}(1{k}) disagrees with enumeration")
    _check(out, "enumeration", f"enumeration agrees with recurrence for n <= {oracle_nmax}", oracle_agreement)

    # The b-sum column against the sum of the short-rule rows.
    def mass_and_sign():
        for n in range(1, IDENTITY_NMAX + 1):
            g = table.g(n)
            if sum(g.coeffs) != math.factorial(n) or any(c < 0 for c in g.coeffs):
                raise ConsistencyError(f"n={n}")
            if n >= 2:
                total = IntPoly()
                for k in range(2, n + 1):
                    total = total + table.g1k(n, k)
                if total != g:
                    raise ConsistencyError(f"prefix sum at n={n}")
    _check(out, "mass", f"q=1 mass is n!, coefficients nonnegative, prefixes sum to g_n (n <= {IDENTITY_NMAX})", mass_and_sign)

    # The table grows g_n(1k) by its short rules, g_n(12) = 2 g_(n-1)
    # among them, so the next three lines compare it with the a-sum; the
    # doubling line takes g_n(12) as the b-sum column minus the a-sum rows.
    # Each a-sum g_n(1k), 3 <= k <= n <= IDENTITY_NMAX, is formed once and
    # read by every line that compares with it.
    a = a_rows(IDENTITY_NMAX)

    @functools.cache
    def a_ref(n: int, k: int) -> IntPoly:
        return a_sum(table, n, a[k])

    def doubling_identity():
        for n in range(2, IDENTITY_NMAX + 1):
            rest = table.g(n)
            for k in range(3, n + 1):
                rest = rest - a_ref(n, k)
            if rest != table.g(n - 1) * 2:
                raise ConsistencyError(f"n={n}")
    _check(out, "g12-doubling", f"g_n(12) = 2 g_(n-1) for n <= {IDENTITY_NMAX}", doubling_identity)

    def three_term():
        for n in range(5, IDENTITY_NMAX + 1):
            for k in range(5, n + 1):
                if table.g1k(n, k) != a_ref(n, k):
                    raise ConsistencyError(f"(n,k)=({n},{k})")
    _check(out, "three-term", f"three-term recurrence for g_n(1k), 5 <= k <= n <= {IDENTITY_NMAX}", three_term)

    def initial_forms():
        for n in range(3, IDENTITY_NMAX + 1):
            if table.g1k(n, 3) != a_ref(n, 3):
                raise ConsistencyError(f"g_{n}(13)")
            if n >= 4 and table.g1k(n, 4) != a_ref(n, 4):
                raise ConsistencyError(f"g_{n}(14)")
    _check(out, "initial-forms", f"closed initial forms for g_n(13), g_n(14), n <= {IDENTITY_NMAX}", initial_forms)

    def prefix_recurrence():
        for n in range(3, IDENTITY_NMAX + 1):
            for i in range(3, n + 1):
                rhs = table.g(n - 1)
                for j in range(2, i):
                    p = table.g1k(n - 1, j)
                    rhs = rhs + p.shift(i - j) - p  # (q^(i-j) - 1) p
                if table.g1k(n, i) != rhs:
                    raise ConsistencyError(f"(n,i)=({n},{i})")
    _check(out, "prefix-recurrence", f"prefix recurrence g_n(1i) = g_(n-1) + sum (q^(i-j)-1) g_(n-1)(1j), n <= {IDENTITY_NMAX}", prefix_recurrence)

    def parity():
        for n in range(2, IDENTITY_NMAX + 1):
            for k in range(2, n + 1):
                poly = table.g1k(n, k)
                if any(poly[r] % 2 for r in range(1, poly.degree + 1)):
                    raise ConsistencyError(f"(n,k)=({n},{k})")
    _check(out, "parity", f"g_(n,r)(1k) is even for r >= 1, n <= {IDENTITY_NMAX}", parity)

    def avoiders():
        for n, count in enumerate(avoider_counts(AVOIDER_NMAX), 1):
            if count != 2 ** (n - 1):
                raise ConsistencyError(f"n={n}")
        for n in range(1, oracle_nmax + 1):
            if _oracle(n).count(0) != 2 ** (n - 1):
                raise ConsistencyError(f"oracle n={n}")
    _check(out, "avoiders", f"avoider count is 2^(n-1) (recurrence n <= {AVOIDER_NMAX}, oracle n <= {oracle_nmax})", avoiders)

    def averages():
        for n in range(1, AVERAGE_NMAX + 1):
            check_average(n, table)  # raises on mismatch, in integers
    _check(out, "average", f"average occurrences equal (n^2+3n+8)/12 - H_n for n <= {AVERAGE_NMAX}", averages)

    _check(out, "closed-form", f"closed form of A(x,y) matches a- and b-tables through {A_FORM_KMAX}",
           lambda: verify_a_closed_form(A_FORM_KMAX, A_FORM_KMAX))

    def b_constants():
        for n in range(2, IDENTITY_NMAX + 1):
            if b_poly(n, 1) != IntPoly([n]):
                raise ConsistencyError(f"b({n},1)")
            if n >= 3 and b_poly(n, n - 1) != IntPoly([2]):
                raise ConsistencyError(f"b({n},{n - 1})")
    _check(out, "b-constants", f"b(n,1) = n and b(n,n-1) = 2 for n <= {IDENTITY_NMAX}", b_constants)

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
        if len(g0) != 1:
            raise ConsistencyError(f"v-degree {len(g0) - 1}")
        for n, c in enumerate(g0[0]):
            if c != (2 ** (n - 1) if n >= 3 else 0):
                raise ConsistencyError(f"x^{n}")
    _check(out, "g0", "G_0 = 4x^3/(1-2x) coefficient by coefficient", base_series)

    def reference_tables():
        for r in range(1, min(r_max, 5) + 1):
            ct = pipeline.c_table(r)
            want = [IntPoly(cs) for cs in REFERENCE_CTABLES[r]]
            if list(ct) != want:
                raise ConsistencyError(f"r={r}")
    _check(out, "reference", f"c tables match the reference coefficients for r <= {min(r_max, 5)}", reference_tables)

    def structure():
        for r in range(1, r_max + 1):
            # Raises on a non-integral division, the v-degree of P_r, the
            # value c_{r,0}(1/2), the degree pattern and, through the
            # boundary data, a non-positive top row for r >= 4.
            pipeline.c_table(r)
            if r >= 4:
                for i in range(r + 1):
                    w = constructions.witness_perm(r, i)
                    if constructions.count_13_2(w) != r or w[1] != i + 2:
                        raise ConsistencyError(f"r={r}: witness word for i={i}")
    _check(out, "structure", f"P_r structure (integrality, value at 1/2, degrees) for r <= {r_max}", structure)

    def rationality():
        for r in range(0, identity_rmax + 1):
            pipeline.rational_gf(r)  # raises unless it equals G_r
    _check(out, "rational", f"rational closed form re-expands to G_r for r <= {identity_rmax}", rationality)

    def functional_equation():
        for r in range(0, identity_rmax + 1):
            pipeline.check_functional_equation(r)
    _check(out, "functional-equation", f"pre-kernel functional equation holds for r <= {identity_rmax}", functional_equation)

    def kernel_root():
        for r in range(0, identity_rmax + 1):
            pipeline.check_kernel_root(r)
    _check(out, "kernel-root", f"kernel-root identity for G_r(x,1), r <= {identity_rmax}", kernel_root)

    def parity_series():
        for r in range(1, identity_rmax + 1):
            for k, coeffs in enumerate(pipeline.g_series(r)):
                if any(c % 2 for c in coeffs):
                    raise ConsistencyError(f"r={r}, v^{k}")
    _check(out, "even-series", f"all series coefficients of G_r are even for 1 <= r <= {identity_rmax}", parity_series)

    def max_formula():
        for n in range(1, 51):
            if constructions.count_13_2(constructions.max_pattern_perm(n)) != perms.max_occurrences(n):
                raise ConsistencyError(f"n={n}")
    _check(out, "interleaved", "interleaved word attains n(n-2)/4 resp. (n-1)^2/4 occurrences, n <= 50", max_formula)

    def max_exhaustive():
        for n in range(1, maximal_nmax + 1):
            if _oracle(n).max_occurrences() != perms.max_occurrences(n):
                raise ConsistencyError(f"n={n}")
    _check(out, "maximality", f"exhaustive maximality of the occurrence bound for n <= {maximal_nmax}", max_exhaustive)

    def min_length():
        for r in range(1, 101):
            n = constructions.min_length_for(r)
            if (n - 1) ** 2 < 4 * r:  # n >= 1 + 2 sqrt(r)
                raise ConsistencyError(f"r={r}")
            if n > 1 and perms.max_occurrences(n - 1) >= r:
                raise ConsistencyError(f"r={r} not minimal")
    _check(out, "min-length", "minimal length for r occurrences is >= 1 + 2 sqrt(r), r <= 100", min_length)

    return out


def constructions_suite(pipeline: Pipeline, doubling_nmax: int = 6) -> list[CheckResult]:
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
                occ = constructions.count_13_2(constructions.flatten(sigma))
                pi, pi_prime = constructions.doubling_pair(sigma)
                for tau in (pi, pi_prime):
                    word = constructions.flatten(tau)
                    if len(word) != n or word[:2] != (1, 2) or constructions.count_13_2(word) != occ:
                        raise ConsistencyError(f"n={n}, sigma={sigma}")
                if pi == pi_prime:
                    raise ConsistencyError(f"n={n}, collision at sigma={sigma}")
                images.update((pi, pi_prime))
            if len(images) != 2 * math.factorial(n - 1):
                raise ConsistencyError(f"n={n}: images not distinct")
            if len(images) != _oracle(n, (1, 2)).total():
                raise ConsistencyError(f"n={n}: images do not cover the prefix-12 class")
    _check(out, "one-to-two", f"one-to-two map is a bijection onto the prefix-12 class, n <= {doubling_nmax}", doubling_bijection)

    def aggregated_doubling():
        for n in range(2, doubling_nmax + 1):
            lhs = _oracle(n, (1, 2)).counts
            rhs = {r: 2 * c for r, c in _oracle(n - 1).counts.items()}
            if lhs != rhs:
                raise ConsistencyError(f"n={n}")
    _check(out, "prefix-12-doubling", f"prefix-12 distribution doubles the shorter one, n <= {doubling_nmax}", aggregated_doubling)

    def avoider_doubling():
        for n in range(2, doubling_nmax + 1):
            if _oracle(n).count(0) != 2 * _oracle(n - 1).count(0):
                raise ConsistencyError(f"n={n}")
    _check(out, "avoider-doubling", f"avoider counts double with n (enumeration, n <= {doubling_nmax})", avoider_doubling)

    def witnesses():
        for r in range(4, WITNESS_RMAX + 1):
            for i in range(r + 1):
                w = constructions.witness_perm(r, i)
                if len(w) != r + 2 or w[:2] != (1, i + 2) or constructions.count_13_2(w) != r:
                    raise ConsistencyError(f"(r,i)=({r},{i})")
    _check(out, "witnesses", f"witness words have exactly r occurrences, 4 <= r <= {WITNESS_RMAX}", witnesses)

    def dual_route():
        for r in range(0, pipeline.r_max + 1):
            pipeline.htilde_over_kernel(r)  # raises on mismatch
    _check(out, "dual-route", f"both routes to H~_r/(1-sv) agree for r <= {pipeline.r_max}", dual_route)

    def boundary_oracle():
        r, table = 3, pipeline.table
        bd = Pipeline(r_max=r, table=table).boundary(r)
        for i in range(2, r + 3):
            if _oracle(r + 2, (1, i)).count(r) != bd.top(i):
                raise ConsistencyError(f"top row at i={i}")
        layers = []  # sum_j v^(r-j) G_{n+3,j}(v), as in H_r, for each n
        for n in range(r - 1):
            layer = IntPoly()
            for j in range(n + 1):
                cells = [table.coeff(n + 3, j, k) for k in range(2, j + 3)]
                for k, v in enumerate(cells, 2):
                    if _oracle(n + 3, (1, k)).count(j) != v:
                        raise ConsistencyError(f"inner cell (n, j, k) = ({n}, {j}, {k})")
                layer = layer + IntPoly(cells).shift(r - j)
            layers.append(layer)
        for h, sums in enumerate(bd.inner):
            if list(sums) != [layer[h] for layer in layers]:
                raise ConsistencyError(f"inner sums at h={h}")
    _check(out, "boundary", "boundary data matches enumeration (r = 3)", boundary_oracle)

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
        out.extend(recurrence_suite(table, oracle_nmax=oracle_nmax))
    if suite in ("all", "genfun"):
        out.extend(genfun_suite(pipeline, maximal_nmax=oracle_nmax))
    if suite in ("all", "constructions"):
        out.extend(constructions_suite(pipeline, doubling_nmax=min(oracle_nmax, 6)))
    return out
