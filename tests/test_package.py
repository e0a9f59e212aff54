import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatperm

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def test_all_names_resolve():
    missing = [name for name in flatperm.__all__ if not hasattr(flatperm, name)]
    assert missing == []


def test_names_are_their_home_modules_objects():
    for name in flatperm.__all__:
        home = importlib.import_module(f"flatperm.{flatperm._HOME[name]}")
        assert getattr(flatperm, name) is getattr(home, name), name


def test_error_classes_are_shared_with_algebra():
    from flatperm import algebra

    assert flatperm.ConsistencyError is algebra.ConsistencyError
    assert flatperm.InexactDivisionError is algebra.InexactDivisionError


def test_star_import_binds_every_name():
    namespace = {}
    exec("from flatperm import *", namespace)
    assert set(flatperm.__all__) <= set(namespace)
    for name in flatperm.__all__:
        assert namespace[name] is getattr(flatperm, name), name


def test_dir_lists_every_name():
    assert set(flatperm.__all__) | {"perms", "checks"} <= set(dir(flatperm))


def test_submodules_are_attributes():
    assert flatperm.checks is importlib.import_module("flatperm.checks")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flatperm.no_such_name
    assert not hasattr(flatperm, "_walk")


def test_folded_bivariate_type_is_not_exported():
    assert "XVPoly" not in flatperm.__all__
    with pytest.raises(AttributeError, match="XVPoly"):
        flatperm.XVPoly


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python", text.index("## Library sketch")) + len("```python")
    code = text[start:text.index("```", start)]
    # Padded so that a traceback names the README's own line numbers.
    exec(compile("\n" * text.count("\n", 0, start) + code, str(README), "exec"), {})


def _loaded_by(access: str) -> list[str]:
    """The ``flatperm.*`` modules that a fresh interpreter holds after
    ``import flatperm`` and then the statement access; in this process
    every submodule is loaded already, so the lazy paths never run."""
    code = f"import sys, flatperm\n{access}\nprint(*sorted(m for m in sys.modules if m.startswith('flatperm.')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.split()


def test_import_loads_no_layer():
    assert _loaded_by("") == []


def test_public_name_loads_its_home_module_alone():
    assert _loaded_by("flatperm.distribution") == ["flatperm._common", "flatperm.perms"]


def test_submodule_attribute_loads_it_and_its_imports():
    """``flatperm.genfun`` goes through the package's ``__getattr__``."""
    loaded = _loaded_by("assert flatperm.genfun is sys.modules['flatperm.genfun']")
    assert loaded == [f"flatperm.{name}" for name in ("_common", "algebra", "genfun", "insertion", "recurrence")]
