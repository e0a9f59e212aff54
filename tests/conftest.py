from __future__ import annotations

import pytest

from flatperm import checks
from flatperm.cli import main
from flatperm.genfun import Pipeline
from flatperm.recurrence import GTable


@pytest.fixture(scope="session")
def table() -> GTable:
    """One recurrence table shared across the whole run; grows on demand."""
    return GTable(9)


@pytest.fixture(scope="session")
def pipeline6(table: GTable) -> Pipeline:
    """Kernel pipeline through r = 6 at the default order 4*6 + 10 = 34."""
    return Pipeline(r_max=6, table=table)


@pytest.fixture
def verify(capsys, monkeypatch):
    """``verify`` through ``cli.main`` on the given arguments, returning its
    exit code, {key: detail} of the lines that FAIL, and its stdout lines.
    Every FAIL line printed is one of these results, name and detail."""
    real, results = checks.run_suite, []

    def recorded(*args, **kwargs):
        results[:] = real(*args, **kwargs)
        return results

    monkeypatch.setattr(checks, "run_suite", recorded)

    def run(*argv: str):
        code = main(["verify", *argv])
        lines = capsys.readouterr().out.splitlines()
        failed = [res for res in results if not res.passed]
        assert [line for line in lines if line.split("  ", 1)[0] == "FAIL"] == [
            f"FAIL  {res.name}  [{res.detail}]" for res in failed
        ]
        return code, {res.key: res.detail for res in failed}, lines

    return run
