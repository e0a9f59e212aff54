"""Command-line front end.

Commands
--------
distribution   occurrence distribution for one n (enumeration or recurrence)
gpoly          the polynomial g_n, or g_n(1k) with --k
ctable         the polynomials c_{r,0..r}
rational       the rational closed form of G_r
witness        extremal and witness words with their occurrence counts
average        exact mean number of occurrences
avoiders       number of pattern-avoiding flattened permutations
verify         run a named verification suite

All big integers are emitted as decimal strings.  JSON output is
deterministic (sorted keys).  Exit status: 0 success, 1 a verification
failure, 2 usage or limit errors, an unwritable ``--out`` among them
(checked before any work); any other exception is a bug and ends with a
traceback.

Each command loads only the layers it runs: this module imports only the
stdlib-only ``_common`` (the error classes, the default enumeration limit
and the suite names), and each ``_cmd_*`` imports ``perms``,
``recurrence``, ``genfun``, ``checks`` and ``algebra``'s JSON helpers in
its own body, as ``_emit`` imports ``csv`` for ``--format csv`` alone
and ``json`` for JSON output alone (``verify`` prints text).
``distribution`` by enumeration thus compiles and imports neither the
recurrences nor the kernel pipeline, and ``ctable`` no enumeration.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from ._common import DEFAULT_ENUM_LIMIT, SUITE_NAMES, ConsistencyError, EnumerationLimitError

RECURRENCE_NMAX = 30
#: Largest --limit for ``distribution``: the walk over the (n-1)! flattened
#: words takes about 1.2 s at n = 11 (shared 2-vCPU Xeon, Python 3.11).
ENUM_LIMIT_MAX = 11
#: Largest n for ``avoiders``: the q = 0 recurrence takes quadratically
#: many terms in n, and n = 500 takes about 1.2 s.
AVOIDERS_NMAX = 500
#: Largest r for ``ctable`` and ``rational``: r = 40 takes 1.5-2.0 s on a
#: shared 2-vCPU Xeon (Python 3.11).  About 0.05-0.08 s of it grows the
#: boundary table GTable(42), 0.08-0.12 s reads and sums the boundary cells,
#: and about 0.25 s builds and reads the insertion count through n = 170;
#: the process peaks at about 52 MB.
PIPELINE_RMAX = 40
#: Largest --order for ``ctable`` and ``rational``: the default order 4r + 10
#: at r = PIPELINE_RMAX, so no default run is refused.  At the cap, r = 40
#: takes 1.5-2.0 s (as by default) and r = 1 about 0.07 s.
ORDER_MAX = 4 * PIPELINE_RMAX + 10
#: Largest n (extremal word) or r (witness word) for ``witness``: counting
#: occurrences is quadratic in the word length, and n = 2000 takes 0.3 s.
WITNESS_MAX = 2000
#: Largest --rmax for ``verify``: --rmax 12 takes about 0.14-0.19 s, and
#: with --n 10 about 0.2-0.3 s (shared 2-vCPU Xeon, Python 3.11).  Its --n
#: is capped by the enumeration limit ``DEFAULT_ENUM_LIMIT``.
VERIFY_RMAX = 12

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad input on the command line: exit 2, checked before any work."""


def _parse_prefix(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad prefix {text!r}: expected comma-separated integers") from exc


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written before any work, rather
    than fail with a traceback once the output is ready."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"--out {path}: no directory {parent}")
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise UsageError(f"--out {path}: not a writable file")


def _pipeline(r_max: int, order: int | None):
    """A Pipeline through r_max.  The order is checked against ORDER_MAX
    here and against its lower bound by the constructor, before any work,
    so a ValueError from it is a usage error."""
    from .genfun import Pipeline

    if order is not None and order > ORDER_MAX:
        raise UsageError(f"--order {order} exceeds the order cap {ORDER_MAX}")
    try:
        return Pipeline(r_max=r_max, order=order)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(payload, args, csv_rows=None) -> None:
    """Write the payload as JSON, or csv_rows as CSV for the commands that
    offer ``--format csv``."""
    if args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        import json

        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_distribution(args) -> int:
    from . import perms

    n = args.n
    prefix = _parse_prefix(args.prefix)
    if n < 1:
        raise UsageError("--n must be >= 1")
    if args.limit < 0:
        raise UsageError(f"--limit must be >= 0, not {args.limit}")
    if args.limit > ENUM_LIMIT_MAX:
        raise UsageError(f"--limit {args.limit} exceeds the enumeration cap {ENUM_LIMIT_MAX}")
    try:
        perms.check_prefix(n, prefix)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if n <= args.limit:
        source = "oracle"
        counts = perms.distribution(n, prefix, args.limit).counts
    elif n <= RECURRENCE_NMAX:
        source = "recurrence"
        if prefix[:1] not in ((), (1,)):
            counts = {}  # every flattened word starts with 1
        elif len(prefix) > 2:
            raise UsageError(
                f"prefix {list(prefix)} needs enumeration, but n={n} exceeds the limit {args.limit}"
            )
        else:
            from .recurrence import GTable

            t = GTable(n)
            poly = t.g1k(n, prefix[1]) if len(prefix) == 2 else t.g(n)
            counts = {r: c for r, c in enumerate(poly.coeffs) if c}
    else:
        raise UsageError(f"n={n} exceeds both the enumeration limit and the recurrence cap {RECURRENCE_NMAX}")
    payload = {
        "command": "distribution",
        "n": n,
        "prefix": list(prefix),
        "source": source,
        "counts": {str(r): str(c) for r, c in sorted(counts.items())},
        "total": str(sum(counts.values())),
    }
    rows = [("r", "count")] + [(r, c) for r, c in sorted(counts.items())]
    _emit(payload, args, csv_rows=rows)
    return EXIT_OK


def _cmd_gpoly(args) -> int:
    from .algebra import poly_json
    from .recurrence import GTable

    n = args.n
    if n < 1:
        raise UsageError("--n must be >= 1")
    if n > RECURRENCE_NMAX:
        raise UsageError(f"n={n} exceeds the recurrence cap {RECURRENCE_NMAX}")
    t = GTable(n)
    if args.k is None:
        poly = t.g(n)
    else:
        if not 2 <= args.k <= n:
            raise UsageError(f"--k must lie in [2, {n}]")
        poly = t.g1k(n, args.k)
    payload = {"command": "gpoly", "n": n, "k": args.k, **poly_json(poly, "q")}
    _emit(payload, args)
    return EXIT_OK


def _cmd_ctable(args) -> int:
    from .algebra import poly_json

    r = args.r
    if r < 1:
        raise UsageError("--r must be >= 1")
    if r > PIPELINE_RMAX:
        raise UsageError(f"r={r} exceeds the pipeline cap {PIPELINE_RMAX}")
    pipeline = _pipeline(r, args.order)
    ct = pipeline.c_table(r)
    payload = {
        "command": "ctable",
        "r": r,
        "polys": [poly_json(p, "x") for p in ct],
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_rational(args) -> int:
    from .algebra import xvpoly_json

    r = args.r
    if r < 0:
        raise UsageError("--r must be >= 0")
    if r > PIPELINE_RMAX:
        raise UsageError(f"r={r} exceeds the pipeline cap {PIPELINE_RMAX}")
    pipeline = _pipeline(max(r, 1), args.order)
    gf = pipeline.rational_gf(r)
    payload = {
        "command": "rational",
        "r": r,
        "numerator": xvpoly_json(gf.numerator),
        "denominator": {
            "factor_1_minus_x_power": gf.s_power,
            "factor_1_minus_2x_power": gf.t_power,
        },
        "verified_order": pipeline.order,
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_witness(args) -> int:
    from . import perms

    if (args.n is None) == (args.r is None):
        raise UsageError("give exactly one of --n (extremal word) or --r [--i] (witness word)")
    if args.n is not None and args.i is not None:
        raise UsageError("--i goes with --r (witness word), not with --n")
    flag, size = ("--n", args.n) if args.n is not None else ("--r", args.r)
    if size > WITNESS_MAX:
        raise UsageError(f"{flag} {size} exceeds the witness cap {WITNESS_MAX}")
    if args.n is not None:
        if args.n < 1:
            raise UsageError("n must be >= 1")
        word = perms.max_pattern_perm(args.n)
        payload = {
            "command": "witness",
            "kind": "extremal",
            "n": args.n,
            "word": list(word),
            "occurrences": str(perms.count_13_2(word)),
            "maximum": str(perms.max_occurrences(args.n)),
        }
    else:
        i = args.r if args.i is None else args.i
        if args.r < 4:
            raise UsageError("the construction requires r >= 4")
        if not 0 <= i <= args.r:
            raise UsageError(f"i must lie in [0, {args.r}]")
        word = perms.witness_perm(args.r, i)
        payload = {
            "command": "witness",
            "kind": "prefix-witness",
            "r": args.r,
            "i": i,
            "word": list(word),
            "occurrences": str(perms.count_13_2(word)),
        }
    _emit(payload, args)
    return EXIT_OK


def _cmd_average(args) -> int:
    from .recurrence import GTable, average_occurrences, harmonic

    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.n > RECURRENCE_NMAX:
        raise UsageError(f"n={args.n} exceeds the recurrence cap {RECURRENCE_NMAX}")
    value = average_occurrences(args.n, GTable(args.n))
    payload = {
        "command": "average",
        "n": args.n,
        "average": str(value),
        "harmonic_number": str(harmonic(args.n)),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_avoiders(args) -> int:
    from .recurrence import avoider_count

    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.n > AVOIDERS_NMAX:
        raise UsageError(f"n={args.n} exceeds the avoiders cap {AVOIDERS_NMAX}")
    count = avoider_count(args.n)
    payload = {"command": "avoiders", "n": args.n, "count": str(count)}
    _emit(payload, args, csv_rows=[("n", "count"), (args.n, count)])
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .checks import run_suite

    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.rmax < 1:
        raise UsageError("--rmax must be >= 1")
    if args.n > DEFAULT_ENUM_LIMIT:
        raise UsageError(f"--n {args.n} exceeds the enumeration limit {DEFAULT_ENUM_LIMIT}")
    if args.rmax > VERIFY_RMAX:
        raise UsageError(f"--rmax {args.rmax} exceeds the verify cap {VERIFY_RMAX}")
    results = run_suite(args.suite, oracle_nmax=args.n, r_max=args.rmax)
    for res in results:
        line = f"{'PASS' if res.passed else 'FAIL'}  {res.name}"
        if res.detail:
            line += f"  [{res.detail}]"
        print(line)
    passed = all(r.passed for r in results)
    payload = {
        "command": "verify",
        "suite": args.suite,
        "passed": passed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    rows = [("name", "passed")] + [(r.name, r.passed) for r in results]
    if args.out or args.format == "csv":
        _emit(payload, args, csv_rows=rows)
    print(f"{'OK' if passed else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatperm",
        description="Exact distributions of the vincular pattern 13-2 in flattened permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_csv: bool = False) -> None:
        formats = ("json", "csv") if with_csv else ("json",)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", help="write the output to this path instead of stdout")

    p = sub.add_parser("distribution", help="occurrence distribution over S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prefix", default="", help="comma-separated flattened-word prefix, e.g. 1,3")
    p.add_argument("--limit", type=int, default=DEFAULT_ENUM_LIMIT,
                   help=f"largest n enumerated exhaustively, 0 to {ENUM_LIMIT_MAX}")
    common(p, with_csv=True)
    p.set_defaults(fn=_cmd_distribution)

    p = sub.add_parser("gpoly", help="the polynomial g_n or g_n(1k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    common(p)
    p.set_defaults(fn=_cmd_gpoly)

    r_help = f"at most {PIPELINE_RMAX} (1.5-2.0 s at the cap)"
    p = sub.add_parser("ctable", help="the polynomials c_{r,0..r}")
    p.add_argument("--r", type=int, required=True, help=r_help)
    p.add_argument("--order", type=int,
                   help="x-order through which G_r is compared with the insertion count "
                        f"(default 4r + 10), at least 4r + 3 and at most {ORDER_MAX}")
    common(p)
    p.set_defaults(fn=_cmd_ctable)

    p = sub.add_parser("rational", help="rational closed form of G_r")
    p.add_argument("--r", type=int, required=True, help=r_help)
    p.add_argument("--order", type=int,
                   help="x-order through which G_r is compared with the insertion count "
                        f"(default 4r + 10), at least 4r + 3 (7 for r = 0) and at most {ORDER_MAX}")
    common(p)
    p.set_defaults(fn=_cmd_rational)

    p = sub.add_parser("witness", help="extremal word (--n) or prefix witness (--r, --i)")
    p.add_argument("--n", type=int, help=f"length of the extremal word, at most {WITNESS_MAX}")
    p.add_argument("--r", type=int, help=f"occurrences of the witness word, at most {WITNESS_MAX}")
    p.add_argument("--i", type=int)
    common(p)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("average", help="exact mean occurrence count for S_n")
    p.add_argument("--n", type=int, required=True, help=f"permutation length, at most {RECURRENCE_NMAX}")
    common(p)
    p.set_defaults(fn=_cmd_average)

    p = sub.add_parser("avoiders", help="count of 13-2-avoiding flattened permutations")
    p.add_argument("--n", type=int, required=True, help=f"permutation length, at most {AVOIDERS_NMAX}")
    common(p, with_csv=True)
    p.set_defaults(fn=_cmd_avoiders)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--n", type=int, default=7,
                   help=f"bound for enumeration-backed checks, 1 to {DEFAULT_ENUM_LIMIT}")
    p.add_argument("--rmax", type=int, default=4, help=f"bound for pipeline checks, 1 to {VERIFY_RMAX}")
    common(p, with_csv=True)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except (UsageError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
