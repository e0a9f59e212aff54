"""The span tracer in perfbench/ finds every function it is meant to wrap.

``perfbench/spantrace.py`` looks each target up as ``vars(owner)[attr]``
and replaces it there, so a traced method must be defined in its own
class's dict: a method moved into a base class, or one function shared by
two classes, would break or double-count the traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


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
