from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from flatperm import checks, genfun, perms, recurrence
from flatperm.cli import (
    AVOIDERS_NMAX,
    ENUM_LIMIT_MAX,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    ORDER_MAX,
    PIPELINE_RMAX,
    RECURRENCE_NMAX,
    VERIFY_RMAX,
    WITNESS_MAX,
    main,
)
from flatperm.genfun import Pipeline
from flatperm.perms import DEFAULT_ENUM_LIMIT

SRC = Path(__file__).resolve().parents[1] / "src"


def forbid_work(monkeypatch, message):
    """Make every entry point of a command's work fail with message.  The
    CLI imports the layers in each command's body, so patching a layer's
    own global reaches it."""
    def no_work(*args, **kwargs):
        raise AssertionError(message)

    monkeypatch.setattr(genfun, "Pipeline", no_work)
    monkeypatch.setattr(recurrence, "GTable", no_work)
    monkeypatch.setattr(checks, "run_suite", no_work)
    for name in ("distribution", "max_pattern_perm", "witness_perm"):
        monkeypatch.setattr(perms, name, no_work)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestDistribution:
    def test_oracle_route(self, capsys):
        code, out, _ = run(capsys, "distribution", "--n", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["source"] == "oracle"
        assert payload["counts"] == {"0": "4", "1": "2"}
        assert payload["total"] == "6"

    def test_single_permutation(self, capsys):
        code, out, _ = run(capsys, "distribution", "--n", "1")
        assert code == EXIT_OK
        assert json.loads(out)["counts"] == {"0": "1"}

    def test_recurrence_route(self, capsys):
        code, out, _ = run(capsys, "distribution", "--n", "12")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["source"] == "recurrence"
        assert payload["total"] == str(479001600)

    def test_recurrence_route_with_prefix(self, capsys):
        code, out, _ = run(capsys, "distribution", "--n", "11", "--prefix", "1,3")
        assert code == EXIT_OK
        assert json.loads(out)["source"] == "recurrence"

    def test_dual_route_agreement(self, capsys):
        _, oracle_out, _ = run(capsys, "distribution", "--n", "7")
        _, rec_out, _ = run(capsys, "distribution", "--n", "7", "--limit", "6")
        assert json.loads(oracle_out)["counts"] == json.loads(rec_out)["counts"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "distribution", "--n", "3", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "r,count"
        assert out.splitlines()[1:] == ["0,4", "1,2"]

    def test_limit_zero_takes_the_recurrence(self, capsys):
        code, out, _ = run(capsys, "distribution", "--n", "3", "--limit", "0")
        assert code == EXIT_OK
        assert json.loads(out)["source"] == "recurrence"

    def test_limit_error(self, capsys):
        code, _, err = run(capsys, "distribution", "--n", "40")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_long_prefix_needs_oracle(self, capsys):
        code, _, _ = run(capsys, "distribution", "--n", "12", "--prefix", "1,3,2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n", [9, 12])
    def test_prefix_without_leading_one_is_empty(self, capsys, n):
        """No flattened word starts with a letter other than 1, on either route."""
        code, out, _ = run(capsys, "distribution", "--n", str(n), "--prefix", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["source"] == ("oracle" if n <= 10 else "recurrence")
        assert (payload["counts"], payload["total"]) == ({}, "0")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "dist.json"
        code, out, _ = run(capsys, "distribution", "--n", "4", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["total"] == "24"

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "distribution", "--n", "5")
        _, second, _ = run(capsys, "distribution", "--n", "5")
        assert first == second


class TestGPoly:
    def test_g3(self, capsys):
        code, out, _ = run(capsys, "gpoly", "--n", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["coeffs"] == ["4", "2"] and payload["var"] == "q"

    def test_g43(self, capsys):
        code, out, _ = run(capsys, "gpoly", "--n", "4", "--k", "3")
        assert code == EXIT_OK
        assert json.loads(out)["coeffs"] == ["0", "6"]

    def test_bad_k(self, capsys):
        code, _, _ = run(capsys, "gpoly", "--n", "4", "--k", "9")
        assert code == EXIT_USAGE

    def test_csv_rejected_for_polynomials(self, capsys):
        # Only distribution, avoiders and verify offer --format csv.
        with pytest.raises(SystemExit) as exc:
            run(capsys, "gpoly", "--n", "4", "--format", "csv")
        assert exc.value.code == EXIT_USAGE


class TestCTable:
    def test_r1(self, capsys):
        code, out, _ = run(capsys, "ctable", "--r", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [p["coeffs"] for p in payload["polys"]] == [["1"], ["3", "-2"]]

    def test_r2_matches_reference(self, capsys):
        from flatperm._reference import REFERENCE_CTABLES

        code, out, _ = run(capsys, "ctable", "--r", "2")
        assert code == EXIT_OK
        got = [[int(c) for c in p["coeffs"]] for p in json.loads(out)["polys"]]
        assert got == REFERENCE_CTABLES[2]

    @pytest.mark.parametrize("order, code", [(12, EXIT_USAGE), (14, EXIT_USAGE), (15, EXIT_OK)])
    def test_order_guard(self, capsys, order, code):
        # 4r + 3 = 15 is the smallest order whose P_3 tail check sees a coefficient.
        got, out, err = run(capsys, "ctable", "--r", "3", "--order", str(order))
        assert got == code
        assert ("error" in err) == (code == EXIT_USAGE)
        if code == EXIT_OK:
            from flatperm._reference import REFERENCE_CTABLES

            polys = [[int(c) for c in p["coeffs"]] for p in json.loads(out)["polys"]]
            assert polys == REFERENCE_CTABLES[3]

    def test_boundary_cell_off_by_two_fails_at_the_cap(self, capsys, monkeypatch):
        """The pipeline's own table feeds only the boundary data, and the
        insertion count sees g_{6,4}(13), in the top row of G_4, off by 2."""

        class OffByTwo(recurrence.GTable):
            def coeff(self, n, r, k=None):
                return super().coeff(n, r, k) + 2 * ((n, r, k) == (6, 4, 3))

        monkeypatch.setattr(genfun, "GTable", OffByTwo)
        code, out, err = run(capsys, "ctable", "--r", str(PIPELINE_RMAX))
        assert (code, out) == (EXIT_CHECK_FAILED, "")
        assert "G_4" in err and "(n=7, r=4, i=2)" in err

    def test_csv_rejected_before_work(self, capsys, monkeypatch):
        forbid_work(monkeypatch, "work started before --format was checked")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "ctable", "--r", "12", "--format", "csv")
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestRational:
    def test_r1(self, capsys):
        code, out, _ = run(capsys, "rational", "--r", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["denominator"] == {
            "factor_1_minus_x_power": 1,
            "factor_1_minus_2x_power": 2,
        }
        # numerator 2 x^4 (2 + (3 - 2x)(1 - 2x) v)
        matrix = payload["numerator"]["matrix"]
        assert matrix[4] == ["4", "6"]

    def test_r0(self, capsys):
        code, out, _ = run(capsys, "rational", "--r", "0")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["numerator"]["matrix"][3] == ["4"]


class TestWitness:
    def test_extremal(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["word"] == [1, 5, 2, 4, 3]
        assert payload["occurrences"] == "4"

    def test_prefix_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "--r", "4", "--i", "0")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["word"] == [1, 2, 6, 3, 5, 4]
        assert payload["occurrences"] == "4"

    def test_requires_exactly_one_mode(self, capsys):
        assert run(capsys, "witness")[0] == EXIT_USAGE
        assert run(capsys, "witness", "--n", "4", "--r", "5")[0] == EXIT_USAGE

    def test_i_without_r_is_rejected_before_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --i was checked")

        monkeypatch.setattr(perms, "max_pattern_perm", no_work)
        code, out, err = run(capsys, "witness", "--n", "5", "--i", "2")
        assert code == EXIT_USAGE and out == ""
        assert "--i" in err


class TestScalars:
    def test_average(self, capsys):
        code, out, _ = run(capsys, "average", "--n", "3")
        assert code == EXIT_OK
        assert json.loads(out)["average"] == "1/3"

    def test_avoiders(self, capsys):
        code, out, _ = run(capsys, "avoiders", "--n", "5")
        assert code == EXIT_OK
        assert json.loads(out)["count"] == "16"

    def test_avoiders_csv(self, capsys):
        code, out, _ = run(capsys, "avoiders", "--n", "5", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines() == ["n,count", "5,16"]

    def test_avoiders_cap(self, capsys):
        code, out, err = run(capsys, "avoiders", "--n", str(AVOIDERS_NMAX + 1))
        assert code == EXIT_USAGE and out == ""
        assert str(AVOIDERS_NMAX) in err

    def test_average_cap(self, capsys):
        code, out, err = run(capsys, "average", "--n", str(RECURRENCE_NMAX + 1))
        assert code == EXIT_USAGE and out == ""
        assert str(RECURRENCE_NMAX) in err


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "recurrence", "--n", "5")
        assert code == EXIT_OK
        assert "FAIL" not in out and "PASS" in out

    def test_genfun_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "genfun", "--n", "5", "--rmax", "2")
        assert code == EXIT_OK
        assert "c tables match" in out

    def test_constructions_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "constructions", "--n", "5", "--rmax", "2")
        assert code == EXIT_OK

    def test_exit_codes_documented(self):
        assert (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE) == (0, 1, 2)


@pytest.mark.parametrize("argv, cap", [
    (["ctable", "--r", str(PIPELINE_RMAX + 1)], PIPELINE_RMAX),
    (["rational", "--r", str(PIPELINE_RMAX + 1)], PIPELINE_RMAX),
    (["witness", "--n", str(WITNESS_MAX + 1)], WITNESS_MAX),
    (["witness", "--r", str(WITNESS_MAX + 1)], WITNESS_MAX),
    (["verify", "--n", str(DEFAULT_ENUM_LIMIT + 1)], DEFAULT_ENUM_LIMIT),
    (["verify", "--rmax", str(VERIFY_RMAX + 1)], VERIFY_RMAX),
    (["distribution", "--n", "3", "--limit", str(ENUM_LIMIT_MAX + 1)], ENUM_LIMIT_MAX),
    (["distribution", "--n", "3", "--limit", "-3"], "--limit must be >= 0"),
    (["ctable", "--r", "1", "--order", str(ORDER_MAX + 1)], ORDER_MAX),
    (["rational", "--r", "0", "--order", str(ORDER_MAX + 1)], ORDER_MAX),
])
def test_cap_checked_before_work(capsys, monkeypatch, argv, cap):
    forbid_work(monkeypatch, "work started before the cap was checked")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert str(cap) in err


@pytest.mark.parametrize("argv", [
    ["ctable", "--r", "3"],
    ["distribution", "--n", "6"],
    ["distribution", "--n", "12", "--prefix", "1,3"],
    ["verify", "--n", "5", "--rmax", "2"],
])
@pytest.mark.parametrize("missing_dir", [True, False])
def test_out_checked_before_work(capsys, monkeypatch, tmp_path, argv, missing_dir):
    """An --out that cannot be written is a usage error, found before any
    work: a missing directory, or a path that is itself a directory."""
    target = tmp_path / "missing" / "x.json" if missing_dir else tmp_path
    forbid_work(monkeypatch, "work started before --out was checked")
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == EXIT_USAGE and out == ""
    assert f"--out {target}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "recurrence", "--n", "0"], "--n must be >= 1"),
    (["verify", "--suite", "genfun", "--rmax", "0"], "--rmax must be >= 1"),
])
def test_verify_lower_bounds(capsys, monkeypatch, argv, message):
    forbid_work(monkeypatch, "work started before the bound was checked")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert message in err


#: Commands whose input the library rejects with a ValueError, each with
#: the library call that rejects it.
LIBRARY_REJECTIONS = {
    "witness --n 0": lambda: perms.max_pattern_perm(0),
    "witness --r 2": lambda: perms.witness_perm(2, 2),
    "witness --r 5 --i 9": lambda: perms.witness_perm(5, 9),
    "distribution --n 5 --prefix 1,1": lambda: perms.distribution(5, (1, 1)),
    "distribution --n 5 --prefix 1,9": lambda: perms.distribution(5, (1, 9)),
    "ctable --r 3 --order 12": lambda: Pipeline(3, order=12),
    "rational --r 0 --order 2": lambda: Pipeline(1, order=2),
}


@pytest.mark.parametrize("command", list(LIBRARY_REJECTIONS))
def test_library_rejections_are_usage_errors(capsys, monkeypatch, command):
    """Exit 2, with the message the library gives for the same input."""
    with pytest.raises(ValueError) as rejected:
        LIBRARY_REJECTIONS[command]()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(genfun, "GTable", no_work)
    for name in ("c_table", "rational_gf"):
        monkeypatch.setattr(Pipeline, name, no_work)
    for name in ("distribution", "max_pattern_perm", "witness_perm"):
        monkeypatch.setattr(perms, name, no_work)
    code, out, err = run(capsys, *command.split())
    assert code == EXIT_USAGE and out == ""
    assert f"error: {rejected.value}" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(self, r):
        raise ValueError("internal failure")

    monkeypatch.setattr(Pipeline, "c_table", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["ctable", "--r", "1"])


def readme_cli_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("flatperm ")]


def test_readme_cli_examples_run(capsys):
    examples = readme_cli_examples()
    assert examples
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK, (argv, err)


#: The modules a command must not load unless it runs them.
HEAVY = ("flatperm.algebra", "flatperm.recurrence", "flatperm.genfun", "flatperm.checks",
         "flatperm.insertion", "dataclasses", "inspect", "fractions", "csv")

LOADED_BY = """
import contextlib, io, sys
import flatperm.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = flatperm.cli.main(sys.argv[2:])
print(code, *sorted(m for m in sys.argv[1].split(",") if m in sys.modules))
"""


def modules_loaded_by(*argv, modules=HEAVY):
    """The exit code of a fresh interpreter running the command, and which
    of modules (HEAVY by default) it loaded by then."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", LOADED_BY, ",".join(modules), *argv],
                          env=env, capture_output=True, text=True, check=True)
    code, *loaded = done.stdout.split()
    return int(code), loaded


def test_enumeration_loads_only_perms():
    assert modules_loaded_by("distribution", "--n", "6") == (EXIT_OK, [])


def test_ctable_loads_no_checks():
    code, loaded = modules_loaded_by("ctable", "--r", "3")
    assert code == EXIT_OK
    assert "flatperm.checks" not in loaded and "flatperm.genfun" in loaded


@pytest.mark.parametrize("argv", [
    ("ctable", "--r", "3"),
    ("rational", "--r", "3"),
    ("verify", "--suite", "all", "--n", "3", "--rmax", "1"),
])
def test_pipeline_commands_load_no_dataclasses(argv):
    """Every record is a NamedTuple, so no command pays for importing
    ``dataclasses`` and the ``inspect`` it pulls in."""
    code, loaded = modules_loaded_by(*argv)
    assert code == EXIT_OK
    assert "dataclasses" not in loaded and "inspect" not in loaded


@pytest.mark.parametrize("argv", [
    ("ctable", "--r", "3"),
    ("rational", "--r", "3"),
    ("gpoly", "--n", "5"),
])
def test_table_commands_load_no_enumeration_fractions_or_csv(argv):
    """The pipeline checks c_{r,0}(1/2) in integers and the CLI imports
    ``csv`` and ``perms`` only for the commands that use them."""
    modules = ("flatperm.perms", "fractions", "csv")
    assert modules_loaded_by(*argv, modules=modules) == (EXIT_OK, [])


def test_verify_loads_no_fractions():
    """The average line compares integers, and nothing else that
    ``verify`` runs builds a fraction unless a check fails."""
    modules = ("fractions", "decimal")
    assert modules_loaded_by("verify", "--suite", "all", "--n", "5", "--rmax", "2",
                             modules=modules) == (EXIT_OK, [])


def test_verify_loads_no_json():
    """``verify`` prints text, so only a command that writes JSON imports
    ``json``."""
    assert modules_loaded_by("verify", "--suite", "all", "--n", "5", "--rmax", "2",
                             modules=("json",)) == (EXIT_OK, [])
    assert modules_loaded_by("ctable", "--r", "1", modules=("json",)) == (EXIT_OK, ["json"])
