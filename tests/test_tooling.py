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
builds one.  Every golden, and one command line of each kind besides,
runs here with their constructors patched to raise, and no module of the
package but ``algebra`` names them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import re
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


@pytest.mark.parametrize("argv", [
    "distribution --n 12 --prefix 1,3",
    "gpoly --n 6 --k 3",
    "ctable --r 20",
    "rational --r 20",
    "witness --n 7",
    "witness --r 5 --i 2",
    "average --n 10",
    "avoiders --n 20",
    "verify --suite all --n 10 --rmax 12",
])
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
