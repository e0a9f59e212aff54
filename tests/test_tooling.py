"""The benchmark's files in perfbench/ still fit the package.

``perfbench/spantrace.py`` looks each target up as ``vars(owner)[attr]``
and replaces it there, so a traced method must be defined in its own
class's dict: a method moved into a base class, or one function shared by
two classes, would break or double-count the traced benchmark run.

``perfbench/goldens.json`` holds the SHA-256 of the stdout of every
command line the benchmark runs; an operation whose output differs counts
as failed, so each one is also run here, in-process.

The truncated-series types ``XSeries`` and ``VPoly`` stay in ``algebra``
only as the test reference's types and as span targets; no command
builds one.  Every golden, and each line of ``COMMANDS`` (one command
line of each kind), runs here with their constructors patched to raise,
and no module of the package but ``algebra`` names them.

Only code that a command runs stays in ``src``: one fresh process runs
every line of ``COMMANDS`` under ``sys.setprofile``, and every ``def`` in
``src/flatperm`` must have been called or be listed in ``UNCALLED`` with
its reason.

A ``verify`` line fails only by raising ``ConsistencyError``, and its
detail is the message: a check's own or that of the layer it calls.  So
no ``raise ConsistencyError`` in ``src/flatperm`` goes without one, and
no function there returns a pass/fail verdict (``-> bool``) beyond the
protocol methods and the pinned series layer.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from flatperm import algebra
from flatperm.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flatperm"
PERFBENCH = ROOT / "perfbench"
SPANTRACE = PERFBENCH / "spantrace.py"
GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text())


def _load_spantrace():
    spec = importlib.util.spec_from_file_location("spantrace_under_test", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines TARGETS; installs no tracer
    return module


def test_every_trace_target_is_in_its_owners_dict():
    resolved = []
    for span, modname, path, _, _ in _load_spantrace().TARGETS:
        owner = importlib.import_module(modname)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert attr in vars(owner), span
        assert callable(vars(owner)[attr]), span
        resolved.append(vars(owner)[attr])
    assert len({id(fn) for fn in resolved}) == len(resolved)


@pytest.fixture
def no_series(monkeypatch):
    """Make constructing an ``XSeries`` or a ``VPoly`` fail the test."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} constructed")

    for cls in (algebra.XSeries, algebra.VPoly):
        monkeypatch.setattr(cls, "__init__", refuse)


def _run(argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    return code, out.getvalue()


@pytest.mark.parametrize("argv", sorted(GOLDENS))
def test_golden_stdout(argv, no_series):
    code, out = _run(argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[argv]


#: One command line of each kind: every command, ``distribution`` by
#: enumeration and by the recurrence, both ``witness`` forms, ``rational``
#: at r = 0, ``verify`` over every suite, and the help of the CLI and of
#: one command.
COMMANDS = (
    "distribution --n 9 --prefix 1,5",
    "distribution --n 12 --prefix 1,3",
    "gpoly --n 6 --k 3",
    "ctable --r 20",
    "rational --r 20",
    "rational --r 0",
    "witness --n 7",
    "witness --r 5 --i 2",
    "average --n 10",
    "avoiders --n 20",
    "verify --suite all --n 9 --rmax 8",
    "verify --suite all --n 10 --rmax 12",
    "--help",
    "ctable --help",
)


@pytest.mark.parametrize("argv", COMMANDS)
def test_no_command_builds_a_series(argv, no_series):
    assert _run(argv)[0] == EXIT_OK


def test_no_series_guard_refuses(no_series):
    with pytest.raises(AssertionError, match="XSeries constructed"):
        algebra.XSeries.one(3)
    with pytest.raises(AssertionError, match="VPoly constructed"):
        algebra.VPoly([], 3)


def test_only_algebra_names_the_series_types():
    pattern = re.compile(r"\b(XSeries|VPoly)\b")
    naming = sorted(path.name for path in SRC.glob("*.py") if pattern.search(path.read_text()))
    assert naming == ["algebra.py"]


def test_no_module_names_the_folded_bivariate_type():
    """A polynomial in x and v is a ``RationalGF`` over s^0 t^0: no module
    of the package keeps a second (x, v) type or its column accessors."""
    pattern = re.compile(r"\b(XVPoly|vcoeffs|to_vpoly)\b")
    assert sorted(path.name for path in SRC.glob("*.py") if pattern.search(path.read_text())) == []


PINNED = "span target in `perfbench/spantrace.py` `TARGETS`; leaves with ROADMAP items 1 and 2"

#: The functions of ``src/flatperm`` that no line of ``COMMANDS`` calls,
#: by qualified name (module, classes, function), each with the reason it
#: stays; a class stands for every function defined in it.
UNCALLED = {
    "__init__.__dir__": "protocol method: dir(flatperm)",
    "algebra._Dense.__iter__": "protocol method: iterating over a polynomial's coefficients",
    "algebra.IntPoly.__repr__": "protocol method",
    "algebra.RationalGF.__repr__": "protocol method",
    "cli.entry": "the process entry: main() on sys.argv, then gc.freeze()",
    "algebra.XSeries": PINNED,
    "algebra.VPoly": PINNED,
    "algebra.vpoly_div_kernel": PINNED,
    "algebra.xvpoly_extract_from_series": PINNED,
    "algebra.IntPoly.divexact": PINNED,
    "genfun.t_poly": PINNED,
}

#: Runs each argv of the JSON list in sys.argv[1] through ``cli.main``,
#: with every Python call from the package's import on recorded, and
#: prints the exit codes and the (file, first line, name) of each code
#: object called.
_TRACE = """
import contextlib, io, json, sys
seen = set()
def record(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.setprofile(record)
from flatperm.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
called = [(code.co_filename, code.co_firstlineno, code.co_name) for code in seen]
json.dump({"codes": codes, "called": called}, sys.stdout)
"""


def _defs() -> dict[tuple[str, int, str], str]:
    """Every function defined in ``src/flatperm``, keyed as a code object
    names it (file, first line, name) and mapped to its qualified name.  A
    code object's first line is that of its first decorator, on every
    Python version, where ``ast`` gives the ``def`` line."""
    defs = {}

    def visit(node, qual: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qual}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(path, first, child.name)] = name
                visit(child, name, path)
            else:
                visit(child, qual, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path.resolve()))
    return defs


def _listed(name: str) -> str | None:
    """The entry of ``UNCALLED`` that covers the qualified name, if any."""
    return next((entry for entry in UNCALLED if name == entry or name.startswith(f"{entry}.")), None)


def test_every_function_in_src_runs_in_a_command(tmp_path):
    """One fresh process, so that no memo, import or test order run
    earlier hides a call, runs ``COMMANDS`` and one ``--out``.  Every
    function must have been called, or be listed in ``UNCALLED``; a
    listed entry must still exist, and no command may call it."""
    out = tmp_path / "avoiders.csv"
    argvs = [line.split() for line in COMMANDS] + [["avoiders", "--n", "5", "--format", "csv", "--out", str(out)]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _TRACE, json.dumps(argvs)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert report["codes"] == [EXIT_OK] * len(argvs), done.stderr
    assert out.read_text().splitlines() == ["n,count", "5,16"]
    called = {(str(Path(path).resolve()), line, name) for path, line, name in report["called"]}
    defs = _defs()
    ran = {name for key, name in defs.items() if key in called}
    assert sorted(name for name in defs.values() if name not in ran and not _listed(name)) == []
    assert sorted(name for name in ran if _listed(name)) == []
    assert [entry for entry in UNCALLED if not any(_listed(name) == entry for name in defs.values())] == []


def _bare_consistency_raises(source: str) -> tuple[list[int], int]:
    """The lines of ``source`` that raise ``ConsistencyError`` with no
    argument, and the number of its raises in all."""
    bare, total = [], 0
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        call = exc if isinstance(exc, ast.Call) else None
        target = call.func if call else exc
        if isinstance(target, ast.Name) and target.id == "ConsistencyError":
            total += 1
            if call is None or not (call.args or call.keywords):
                bare.append(node.lineno)
    return bare, total


def test_every_check_failure_has_a_detail():
    """A bare ``raise ConsistencyError`` in a check, or in a layer that a
    check calls, would print a FAIL line with an empty detail."""
    for path in sorted(SRC.glob("*.py")):
        assert _bare_consistency_raises(path.read_text(encoding="utf-8"))[0] == [], path.name
    assert _bare_consistency_raises((SRC / "checks.py").read_text(encoding="utf-8"))[1] > 0


@pytest.mark.parametrize("line", ["raise ConsistencyError", "raise ConsistencyError()"])
def test_bare_raise_guard_refuses(line):
    source = (SRC / "checks.py").read_text(encoding="utf-8") + f"\n\ndef check():\n    {line}\n"
    assert _bare_consistency_raises(source)[0] == [len(source.splitlines())]


#: The functions of ``src/flatperm`` that may return a ``bool`` besides
#: protocol methods: the truncated-series layer, kept as it is for
#: ``perfbench/spantrace.py`` (``PINNED``).
SERIES_VERDICTS = {"algebra.XSeries.matches", "algebra.VPoly.matches", "algebra.VPoly.is_zero"}


def _verdicts(module: str, source: str) -> list[str]:
    """The qualified names of the functions in ``source`` annotated
    ``-> bool``, dunder methods left out."""
    found = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if child.returns and ast.unparse(child.returns).strip("'\"") == "bool" and not dunder:
                    found.append(name)
                visit(child, name)

    visit(ast.parse(source), module)
    return found


def test_no_function_returns_a_verdict():
    """Every identity raises ``ConsistencyError`` in the layer that checks
    it, so that a failure has one spelling, the raise, and its message."""
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in _verdicts(path.stem, path.read_text(encoding="utf-8"))]
    assert sorted(set(found) - SERIES_VERDICTS) == []
    assert SERIES_VERDICTS <= set(found)


@pytest.mark.parametrize("returns", ["bool", "'bool'"])
def test_verdict_guard_refuses(returns):
    source = (f"class Pipeline:\n    def check(self, r) -> {returns}:\n        return r > 0\n"
              f"    def __eq__(self, other) -> {returns}:\n        return True\n")
    assert _verdicts("genfun", source) == ["genfun.Pipeline.check"]
