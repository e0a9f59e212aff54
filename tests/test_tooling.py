"""The benchmark's files in perfbench/ still fit the package.

``perfbench/spantrace.py`` looks each target up as ``vars(owner)[attr]``
and replaces it there, so a traced method must be defined in its own
class's dict: a method moved into a base class, or one function shared by
two classes, would break or double-count the traced benchmark run.

``perfbench/goldens.json`` holds the SHA-256 of the stdout of every
command line the benchmark runs; an operation whose output differs counts
as failed, so each one is also run here, in-process.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from flatperm.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


@pytest.mark.parametrize("argv", sorted(GOLDENS))
def test_golden_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDENS[argv]
