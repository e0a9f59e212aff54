from pathlib import Path

import flatperm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    missing = [name for name in flatperm.__all__ if not hasattr(flatperm, name)]
    assert missing == []


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python", text.index("## Library sketch")) + len("```python")
    code = text[start:text.index("```", start)]
    # Padded so that a traceback names the README's own line numbers.
    exec(compile("\n" * text.count("\n", 0, start) + code, str(README), "exec"), {})
