"""Acceptance gate: one test per criterion, exact equality throughout
(tolerance zero everywhere; every value is an integer or a rational).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
from fractions import Fraction

from flatperm import perms
from flatperm._reference import REFERENCE_CTABLES
from flatperm.algebra import IntPoly
from flatperm.cli import EXIT_OK, main
from flatperm.genfun import Pipeline
from flatperm.recurrence import (
    avoider_count,
    average_occurrences,
    harmonic,
    verify_a_closed_form,
)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"criterion {num}: {name}"


def test_01_oracle_recurrence_agreement(table):
    ok = True
    for n in range(1, 10):
        if perms.distribution(n).coeff_list() != list(table.g(n).coeffs):
            ok = False
        for k in range(2, n + 1):
            got = perms.distribution(n, (1, k)).coeff_list()
            if got != list(table.g1k(n, k).coeffs):
                ok = False
    _report(1, "enumeration equals recurrence for n <= 9, all prefixes 1k", ok)


def test_02_base_polynomials(table):
    ok = (
        table.g(1) == IntPoly([1])
        and table.g(2) == IntPoly([2])
        and table.g(3) == IntPoly([4, 2])
        and table.g1k(3, 2) == IntPoly([4])
        and table.g1k(3, 3) == IntPoly([0, 2])
    )
    _report(2, "g_1 = 1, g_2 = 2, g_3 = 4 + 2q, g_3(12) = 4, g_3(13) = 2q", ok)


def test_03_avoiders():
    ok = all(avoider_count(n) == 2 ** (n - 1) for n in range(1, 31))
    ok = ok and all(
        perms.distribution(n).count(0) == avoider_count(n) for n in range(1, 10)
    )
    _report(3, "avoider count is 2^(n-1) (q = 0 recurrence n <= 30, oracle n <= 9)", ok)


def test_04_average(table):
    ok = all(
        average_occurrences(n, table)
        == Fraction(n * n + 3 * n + 8, 12) - harmonic(n)
        for n in range(1, 26)
    )
    _report(4, "average occurrences equal (n^2+3n+8)/12 - H_n for n <= 25", ok)


def test_05_a_closed_form():
    mismatches = verify_a_closed_form(15, 15)
    _report(5, "closed form of A(x,y) matches a_{k,j} (k <= 15) and b sums (n <= 15)",
            not mismatches)


def test_06_reference_c_tables(pipeline6):
    ok = True
    for r in range(1, 6):
        got = [list(p.coeffs) for p in pipeline6.c_table(r)]
        if got != REFERENCE_CTABLES[r]:
            ok = False
    _report(6, "c tables for r = 1..5 match the reference coefficients", ok)


def test_07_structure_to_r6(pipeline6):
    ok = True
    for r in range(1, 7):
        ct = pipeline6.c_table(r)  # integrality certified during extraction
        if ct[0].eval_at(Fraction(1, 2)) != Fraction(2) ** (1 - r):
            ok = False
        if r >= 4:
            if ct[0].degree != 3 * r - 1:
                ok = False
            if any(ct[ell].degree != 3 * r - 2 * ell for ell in range(1, r + 1)):
                ok = False
    _report(7, "P_r structure for r <= 6: integer c, c_{r,0}(1/2) = 2^(1-r), exact degrees for r in {4,5,6}", ok)


def test_08_rationality_round_trip(pipeline6, table):
    ok = True
    for r in range(0, 5):
        gf = pipeline6.rational_gf(r)
        expansion = gf.expand(4 * r + 10)
        g = pipeline6.g_series(r)
        if not expansion.matches(g):
            ok = False
        for n in range(r + 3, 4 * r + 11):
            for i in range(2, r + 3):
                if expansion.coeff(i - 2).coeff(n) != table.coeff(n, r, i):
                    ok = False
    _report(8, "rational form re-expands to G_r (r <= 4, order 4r+10) and matches the recurrence route", ok)


def test_09_parity(table):
    ok = True
    for n in range(2, 13):
        for k in range(2, n + 1):
            poly = table.g1k(n, k)
            if any(poly[r] % 2 for r in range(1, poly.degree + 1)):
                ok = False
    for n in range(2, 10):
        for k in range(2, n + 1):
            for r, c in perms.distribution(n, (1, k)).counts.items():
                if r >= 1 and c % 2:
                    ok = False
    _report(9, "g_{n,r}(1k) is even for r >= 1 (recurrence n <= 12, oracle n <= 9)", ok)


def test_10_extremal_lengths():
    ok = all(
        perms.count_13_2(perms.max_pattern_perm(n))
        == (n * (n - 2) // 4 if n % 2 == 0 else (n - 1) ** 2 // 4)
        for n in range(1, 51)
    )
    ok = ok and all(
        perms.distribution(n).max_occurrences() == perms.max_occurrences(n)
        for n in range(1, 10)
    )
    ok = ok and all(
        perms.min_length_for(r) >= 1 + 2 * math.sqrt(r) for r in range(1, 101)
    )
    _report(10, "extremal word counts (n <= 50), exhaustive maximality (n <= 9), length bound (r <= 100)", ok)


def test_11_doubling_bijection():
    ok = True
    for n in range(2, 7):
        images: list[tuple[int, ...]] = []
        for sigma in itertools.permutations(range(1, n)):
            occ = perms.count_13_2(perms.flatten(sigma))
            pi, pi_prime = perms.doubling_pair(sigma)
            if pi == pi_prime:
                ok = False
            for tau in (pi, pi_prime):
                word = perms.flatten(tau)
                if word[:2] != (1, 2) or perms.count_13_2(word) != occ:
                    ok = False
            images.extend([pi, pi_prime])
        if len(set(images)) != len(images):
            ok = False
        targets = {
            p
            for p in itertools.permutations(range(1, n + 1))
            if perms.flatten(p)[:2] == (1, 2)
        }
        if set(images) != targets:
            ok = False
    _report(11, "one-to-two map is injective, covers the prefix-12 class, preserves counts (n <= 6)", ok)


def test_12_dual_route_boundary(table):
    ok = True
    for r in range(0, 7):
        # Fresh pipeline per r so the agreement is checked at order 4r + 10.
        pl = Pipeline(r_max=r, table=table)
        assert pl.order == 4 * r + 10
        pl.htilde_over_kernel(r)  # raises on route disagreement
    _report(12, "both routes to H~_r/(1 - sv) agree for r <= 6 at order 4r + 10", ok)


def test_13_witness_words():
    ok = all(
        perms.count_13_2(perms.witness_perm(r, i)) == r
        and perms.witness_perm(r, i)[:2] == (1, i + 2)
        for r in range(4, 13)
        for i in range(r + 1)
    )
    _report(13, "witness words give exactly r occurrences for 4 <= r <= 12, 0 <= i <= r", ok)


def test_14_identity_suite(pipeline6, table):
    ok = True
    for n in range(3, 13):
        for i in range(3, n + 1):
            rhs = table.g(n - 1)
            for j in range(2, i):
                rhs = rhs + (IntPoly.term(1, i - j) - IntPoly([1])) * table.g1k(n - 1, j)
            if table.g1k(n, i) != rhs:
                ok = False
    for r in range(0, 5):
        if not pipeline6.check_functional_equation(r):
            ok = False
    _report(14, "prefix recurrence holds (3 <= i <= n <= 12); functional equation holds (r <= 4)", ok)


#: SHA-256 of the stdout of commands past the benchmark's r = 12 goldens:
#: two deep-r commands, recorded when the cut table still grew its column
#: by the b-sum, and the largest verify run, recorded before the boundary
#: data were kept by layer.
DEEP_R_DIGESTS = {
    "ctable --r 20": "036c02d7a1102e21e8d8c6d5e53f9d066fe88216fc1a6ab6117454d5408f1546",
    "rational --r 20": "846857e200d76584e5c83c569e5cb67d6cb913244bcdc6d85dd1da629e7f6ca2",
    "verify --suite all --n 10 --rmax 12": "18e609aeba79979ab7ee5e2debf0e0354f02e89b20f58b253cca69034c083564",
}


def test_15_deep_r_outputs():
    ok = True
    for argv, digest in DEEP_R_DIGESTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv.split())
        if code != EXIT_OK or hashlib.sha256(out.getvalue().encode()).hexdigest() != digest:
            ok = False
    _report(15, "ctable and rational at r = 20 and verify at --rmax 12 print the recorded output", ok)
