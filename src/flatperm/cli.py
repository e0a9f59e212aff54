"""Command-line front end.

Every command and its options are declared once, in ``COMMANDS``: ``_parse``
reads ``argv`` against it, ``flatperm --help`` prints its commands, and
``flatperm COMMAND --help`` each option with its default, range and help.
No command loads ``argparse``: importing it and the ``gettext`` it pulls
in, and building its nine parsers, took about 5 ms of every process.

All big integers are emitted as decimal strings.  JSON output is
deterministic (sorted keys).  Exit status: 0 success, 1 a verification
failure, 2 usage or limit errors, checked before any work (each integer
option against its range in ``COMMANDS``, then an unwritable
``--out``, then the checks that depend on another input, in the
command); any other exception is a bug and ends with a traceback.

Each command loads only the layers it runs: this module imports only the
stdlib-only ``_common`` (the error classes, the default enumeration limit,
the suite names and the order rule), and each ``_cmd_*`` imports ``perms``,
``constructions``, ``recurrence``, ``genfun``, ``checks`` and ``algebra``'s
JSON helpers in its own body, as ``_emit`` imports ``csv`` for ``--format
csv`` alone.  JSON is written by ``_json``, which gives the text of
``json.dumps(payload, indent=2, sort_keys=True)`` for the few kinds of
value a payload holds, so no command imports the ``json`` package: about
2 ms of every JSON-writing process, most of it the decoder and scanner,
which only parse.  ``verify`` always prints its text report to stdout;
its ``--format`` chooses only what ``--out`` writes.  ``distribution`` by
enumeration thus compiles and imports ``perms`` alone: neither the
explicit constructions nor the recurrences nor the kernel pipeline; and
``ctable`` no enumeration.

``python -m flatperm.cli`` and the ``flatperm`` console script run
``entry()``: ``main()``, then ``gc.freeze()``, then exit with the code.
Every command is one short process, and at shut-down the interpreter
would otherwise walk its whole heap (about 12.5k tracked objects) in its
final collections, which costs more than the ``distribution --n 9
--prefix 1,k`` walk itself.  Frozen objects are left out of those walks.
From ``main()`` returning to the parent seeing the exit, ``distribution
--n 9 --prefix 1,5``, ``ctable --r 12`` and ``verify --suite all --n 9
--rmax 8`` took 8.8-12.4 ms before the freeze and take 2.9-3.8 ms with it,
and 8.1-9.8 against 2.8-3.5 ms under ``python -S``, which skips the
objects that site-packages adds at start-up (shared 2-vCPU Xeon, Python
3.11.7, medians of 15 alternated runs; ``BENCH_exit_freeze.json``).
Finalization still flushes stdout and stderr and runs ``atexit``
handlers, and a bug still ends in a traceback.  ``main(argv)`` itself
does not freeze, so tests and library callers keep a normal collector.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import Sequence

from ._common import DEFAULT_ENUM_LIMIT, SUITE_NAMES, ConsistencyError
from ._common import default_order, min_order

RECURRENCE_NMAX = 30
#: Largest --limit for ``distribution``: the walk over the (n-1)! flattened
#: words takes 0.4-0.6 s at n = 11, and the whole command 0.4-0.8 s (shared
#: 2-vCPU Xeon, Python 3.11).
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
#: Largest --order for ``ctable`` and ``rational``: the default order at
#: r = PIPELINE_RMAX, so no default run is refused.  At the cap, r = 40
#: takes 1.5-2.0 s (as by default) and r = 1 about 0.07 s.
ORDER_MAX = default_order(PIPELINE_RMAX)
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


def _pipeline(r: int, order: int | None):
    """The Pipeline that ``ctable`` and ``rational`` read G_r from, built
    only once --order is checked against its lower bound."""
    from .genfun import Pipeline

    r_max = max(r, 1)  # G_0 is read from a pipeline through r = 1
    if order is not None and order < min_order(r_max):
        raise UsageError(f"--order must be >= {min_order(r_max)} for --r {r}")
    return Pipeline(r_max=r_max, order=order)


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for what the commands
    emit: dicts with str keys, lists, ints, bools, None and strings of
    printable ASCII, in which only ``"`` and ``\\`` need escaping."""
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not (value.isascii() and value.isprintable()):
            raise ValueError(f"cannot write {value!r} as JSON: not printable ASCII")
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json(key)}: {_json(item, inner)}" for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    items = [_json(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


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
        text = _json(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_distribution(args) -> int:
    from . import perms

    n = args.n
    prefix = _parse_prefix(args.prefix)
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
                f"--prefix {args.prefix} needs enumeration, but --n {n} exceeds the --limit {args.limit}"
            )
        else:
            from .recurrence import GTable

            t = GTable(n)
            poly = t.g1k(n, prefix[1]) if len(prefix) == 2 else t.g(n)
            counts = {r: c for r, c in enumerate(poly.coeffs) if c}
    else:
        raise UsageError(f"--n {n} exceeds both the --limit {args.limit} and the recurrence cap {RECURRENCE_NMAX}")
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
    if args.k is not None and n < 2:
        raise UsageError("--k needs --n >= 2")
    if args.k is not None and not 2 <= args.k <= n:
        raise UsageError(f"--k must lie in [2, {n}]")
    t = GTable(n)
    poly = t.g(n) if args.k is None else t.g1k(n, args.k)
    payload = {"command": "gpoly", "n": n, "k": args.k, **poly_json(poly, "q")}
    _emit(payload, args)
    return EXIT_OK


def _cmd_ctable(args) -> int:
    from .algebra import poly_json

    r = args.r
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
    from .algebra import numerator_json

    r = args.r
    pipeline = _pipeline(r, args.order)
    gf = pipeline.rational_gf(r)
    payload = {
        "command": "rational",
        "r": r,
        "numerator": numerator_json(gf.numerator),
        "denominator": {
            "factor_1_minus_x_power": gf.s_power,
            "factor_1_minus_2x_power": gf.t_power,
        },
        "verified_order": pipeline.order,
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_witness(args) -> int:
    from . import constructions, perms

    if (args.n is None) == (args.r is None):
        raise UsageError("give exactly one of --n (extremal word) or --r [--i] (witness word)")
    if args.n is not None and args.i is not None:
        raise UsageError("--i goes with --r (witness word), not with --n")
    if args.n is not None:
        word = constructions.max_pattern_perm(args.n)
        fields = {"kind": "extremal", "n": args.n, "maximum": str(perms.max_occurrences(args.n))}
    else:
        i = args.r if args.i is None else args.i
        if not 0 <= i <= args.r:
            raise UsageError(f"--i must lie in [0, {args.r}]")
        word = constructions.witness_perm(args.r, i)
        fields = {"kind": "prefix-witness", "r": args.r, "i": i}
    occurrences = str(constructions.count_13_2(word))
    _emit({"command": "witness", "word": list(word), "occurrences": occurrences, **fields}, args)
    return EXIT_OK


def _cmd_average(args) -> int:
    from .recurrence import GTable, average_occurrences, harmonic

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

    count = avoider_count(args.n)
    payload = {"command": "avoiders", "n": args.n, "count": str(count)}
    _emit(payload, args, csv_rows=[("n", "count"), (args.n, count)])
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .checks import run_suite

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
    if args.out:
        _emit(payload, args, csv_rows=rows)
    print(f"{'OK' if passed else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


#: The default of an option that has none and must be given.
REQUIRED = object()
_OUT = (str, None, None, "write the output to this path instead of stdout")
_JSON = {"format": (("json",), "json", None, None), "out": _OUT}
_CSV = {"format": (("json", "csv"), "json", None, None), "out": _OUT}
_ORDER_HELP = "x-order through which G_r is compared with the insertion count, default 4r + 10, at least 4r + 3"

#: Every command: its function, its help line and its options.  An option
#: row is (kind, default, range, help): kind ``int``, ``str`` or the tuple
#: of its choices; default REQUIRED if the option must be given; and, for
#: an integer option with a fixed range, (lowest, cap, cap name), None
#: leaving that side to the command.  ``_parse`` checks each range.
COMMANDS = {
    "distribution": (_cmd_distribution, "occurrence distribution over S_n", {
        "n": (int, REQUIRED, (1, None, None), "permutation length"),
        "prefix": (str, "", None, "comma-separated flattened-word prefix, e.g. 1,3"),
        "limit": (int, DEFAULT_ENUM_LIMIT, (0, ENUM_LIMIT_MAX, "enumeration cap"), "largest n enumerated exhaustively"),
        **_CSV}),
    "gpoly": (_cmd_gpoly, "the polynomial g_n or g_n(1k)", {
        "n": (int, REQUIRED, (1, RECURRENCE_NMAX, "recurrence cap"), None),
        "k": (int, None, None, "the k of g_n(1k), in [2, n]"), **_JSON}),
    "ctable": (_cmd_ctable, "the polynomials c_{r,0..r}", {
        "r": (int, REQUIRED, (1, PIPELINE_RMAX, "pipeline cap"), "1.5-2.0 s at the cap"),
        "order": (int, None, (None, ORDER_MAX, "order cap"), _ORDER_HELP), **_JSON}),
    "rational": (_cmd_rational, "rational closed form of G_r", {
        "r": (int, REQUIRED, (0, PIPELINE_RMAX, "pipeline cap"), "1.5-2.0 s at the cap"),
        "order": (int, None, (None, ORDER_MAX, "order cap"), f"{_ORDER_HELP} (7 for r = 0)"), **_JSON}),
    "witness": (_cmd_witness, "extremal word (--n) or prefix witness (--r, --i)", {
        "n": (int, None, (1, WITNESS_MAX, "witness cap"), "length of the extremal word"),
        "r": (int, None, (4, WITNESS_MAX, "witness cap"), "occurrences of the witness word"),
        "i": (int, None, None, "with --r: the witness's index, in [0, r], default r"), **_JSON}),
    "average": (_cmd_average, "exact mean occurrence count for S_n", {
        "n": (int, REQUIRED, (1, RECURRENCE_NMAX, "recurrence cap"), "permutation length"), **_JSON}),
    "avoiders": (_cmd_avoiders, "count of 13-2-avoiding flattened permutations", {
        "n": (int, REQUIRED, (1, AVOIDERS_NMAX, "avoiders cap"), "permutation length"), **_CSV}),
    "verify": (_cmd_verify, "run a verification suite", {
        "suite": (SUITE_NAMES, "all", None, None),
        "n": (int, 7, (2, DEFAULT_ENUM_LIMIT, "enumeration limit"), "bound for enumeration-backed checks"),
        "rmax": (int, 4, (1, VERIFY_RMAX, "verify cap"), "bound for pipeline checks"), **_CSV}),
}


def _option(flag: str, names) -> str | None:
    """The option of names that flag gives in full or by a unique prefix
    (``-h`` is ``help``), or None for a word that names none."""
    key = "help" if flag == "-h" else flag[2:] if flag.startswith("--") else ""
    found = [key] if key in names else [name for name in names if key and name.startswith(key)]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {flag} could match {', '.join('--' + name for name in found)}")
    return found[0] if found else None


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """The command's function and its options' values, each in range, read
    from argv against ``COMMANDS``; for ``-h``/``--help``, the help printer.
    Takes ``--flag value`` or ``--flag=value`` or a unique prefix of the flag;
    the last of a repeated flag wins; a value led by ``-`` is a negative int."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    command, *words = argv
    if _option(command, ("help",)):
        return SimpleNamespace(fn=_print_help, command=None, out=None)
    if command not in COMMANDS:
        raise UsageError(f"invalid command {command!r} (choose from {', '.join(map(repr, COMMANDS))})")
    fn, _, options = COMMANDS[command]
    values = {name: row[1] for name, row in options.items() if row[1] is not REQUIRED}
    extras = []
    while words:
        word = words.pop(0)
        flag, eq, text = word.partition("=")
        name = _option(flag, options if eq else (*options, "help"))
        if name == "help":
            return SimpleNamespace(fn=_print_help, command=command, out=None)
        if name is None:
            extras.append(word)
            continue
        if not eq:
            if not words or words[0].startswith("-") and not words[0][1:].isdigit():
                raise UsageError(f"argument --{name}: expected one argument")
            text = words.pop(0)
        kind = options[name][0]
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                raise UsageError(f"argument --{name}: invalid int value: {text!r}") from None
        elif kind is not str and text not in kind:
            raise UsageError(f"argument --{name}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
        values[name] = text
    missing = [f"--{name}" for name in options if name not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    for name, (_, _, bounds, _) in options.items():
        lowest, cap, cap_name = bounds or (None, None, None)
        if None not in (lowest, values[name]) and values[name] < lowest:
            raise UsageError(f"--{name} must be >= {lowest}")
        if None not in (cap, values[name]) and values[name] > cap:
            raise UsageError(f"--{name} {values[name]} exceeds the {cap_name} {cap}")
    return SimpleNamespace(fn=fn, command=command, **values)


def _print_help(args) -> int:
    """Print every command with its help line, or each option of
    args.command with its default or "required", its range and its help."""
    if args.command is None:
        print("usage: flatperm [-h] COMMAND [--OPTION VALUE ...]\n\nExact distributions of the vincular "
              "pattern 13-2 in flattened permutations.\n\ncommands:")
        print("\n".join(f"  {command:<14}{text}" for command, (_, text, _) in COMMANDS.items()))
        return EXIT_OK
    _, text, options = COMMANDS[args.command]
    print(f"usage: flatperm {args.command} [-h] [--OPTION VALUE ...]\n\n{text}\n\noptions:")
    for name, (kind, default, bounds, note) in options.items():
        metavar = "N" if kind is int else "TEXT" if kind is str else "{" + ",".join(kind) + "}"
        parts = ["required" if default is REQUIRED else "" if default in (None, "") else f"default {default}"]
        if bounds:
            lowest, cap, cap_name = bounds
            parts.append(("" if lowest is None else f"{lowest} <= ") + f"--{name}"
                         + ("" if cap is None else f" <= {cap} ({cap_name})"))
        print(f"  {'--' + name + ' ' + metavar:<24}{'; '.join(part for part in (*parts, note) if part)}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry() -> int:
    """The process entry (see the module docstring): ``main()`` on
    ``sys.argv``, then ``gc.freeze()``, so that the exit skips the
    collector's walk over the heap.  In-process callers use ``main(argv)``."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
