from __future__ import annotations

import ast
import functools
import gc
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flatperm import checks, cli, constructions, genfun, perms, recurrence
from flatperm.cli import (
    AVOIDERS_NMAX,
    COMMANDS,
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
    monkeypatch.setattr(recurrence, "avoider_count", no_work)
    monkeypatch.setattr(perms, "distribution", no_work)
    for name in ("max_pattern_perm", "witness_perm"):
        monkeypatch.setattr(constructions, name, no_work)


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
        assert run(capsys, "distribution", "--n", "40") == (
            EXIT_USAGE, "", "error: --n 40 exceeds both the --limit 10 and the recurrence cap 30\n"
        )

    def test_long_prefix_needs_oracle(self, capsys):
        assert run(capsys, "distribution", "--n", "12", "--prefix", "1,3,2", "--limit", "11") == (
            EXIT_USAGE, "", "error: --prefix 1,3,2 needs enumeration, but --n 12 exceeds the --limit 11\n"
        )

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
        assert run(capsys, "gpoly", "--n", "4", "--format", "csv") == (
            EXIT_USAGE, "", "error: argument --format: invalid choice: 'csv' (choose from 'json')\n"
        )


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
        code, out, err = run(capsys, "ctable", "--r", "12", "--format", "csv")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: argument --format: invalid choice: 'csv' (choose from 'json')\n"


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

        monkeypatch.setattr(constructions, "max_pattern_perm", no_work)
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

    def test_format_chooses_only_what_out_writes(self, capsys, tmp_path):
        """stdout is the text report whatever --format says; --format
        chooses what --out writes."""
        argv = ("verify", "--suite", "recurrence", "--n", "3")
        code, report, _ = run(capsys, *argv)
        assert code == EXIT_OK and report.startswith("PASS  ") and "\nOK: " in report
        for fmt in ("csv", "json"):
            assert run(capsys, *argv, "--format", fmt) == (EXIT_OK, report, "")
        target = tmp_path / "v.csv"
        assert run(capsys, *argv, "--format", "csv", "--out", str(target)) == (EXIT_OK, report, "")
        assert target.read_text().splitlines()[0] == "name,passed"

    def test_exit_codes_documented(self):
        assert (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE) == (0, 1, 2)


#: An in-range value of each command's required option, so that a case
#: can put one other option at a time out of its range.
IN_RANGE = {
    "distribution": ["--n", "3"],
    "gpoly": ["--n", "3"],
    "average": ["--n", "3"],
    "ctable": ["--r", "1"],
    "rational": ["--r", "0"],
    "witness": [],
    "avoiders": ["--n", "3"],
    "verify": [],
}


def ranges():
    """(command, flag, lowest, cap, cap name) for every option of
    ``COMMANDS`` with a range."""
    for command, (_, _, options) in COMMANDS.items():
        for flag, (_, _, bounds, _) in options.items():
            if bounds:
                yield (command, flag, *bounds)


def bound_cases(side):
    """Every option range of ``COMMANDS`` one past its lowest value (side
    "low") or its cap (side "cap"), with the whole message it must give."""
    for command, flag, lowest, cap, name in ranges():
        if side == "low" and lowest is not None:
            value, message = lowest - 1, f"--{flag} must be >= {lowest}"
        elif side == "cap" and cap is not None:
            value, message = cap + 1, f"--{flag} {cap + 1} exceeds the {name} {cap}"
        else:
            continue
        required = [] if IN_RANGE[command][:1] == [f"--{flag}"] else IN_RANGE[command]
        argv = [command, *required, f"--{flag}", str(value)]
        yield pytest.param(argv, message, id=" ".join(argv))


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
    *bound_cases("cap"),
])
def test_cap_checked_before_work(capsys, monkeypatch, argv, cap):
    forbid_work(monkeypatch, "work started before the cap was checked")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert str(cap) in err and err.startswith("error: ") and err.count("\n") == 1


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
    (["verify", "--suite", "recurrence", "--n", "1"], "--n must be >= 2"),
    (["verify", "--suite", "genfun", "--rmax", "0"], "--rmax must be >= 1"),
    *bound_cases("low"),
])
def test_verify_lower_bounds(capsys, monkeypatch, argv, message):
    forbid_work(monkeypatch, "work started before the bound was checked")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert message in err


#: The integer options whose range depends on another input, so each
#: command checks them itself.
INPUT_DEPENDENT = {("gpoly", "k"), ("witness", "i")}


def test_every_integer_option_is_bounded():
    """Each int option of every command has a range in ``COMMANDS`` or is
    one of the input-dependent bounds, and only int options have a range."""
    int_options = {
        (command, flag)
        for command, (_, _, options) in COMMANDS.items()
        for flag, (kind, *_) in options.items()
        if kind is int
    }
    ranged = {(command, flag) for command, flag, *_ in ranges()}
    assert int_options - INPUT_DEPENDENT == ranged
    assert INPUT_DEPENDENT <= int_options


def test_input_dependent_bound_checked_before_work(capsys, monkeypatch):
    """--k names the range it must lie in, or, at n = 1 where no k lies
    in it, the --n it needs."""
    forbid_work(monkeypatch, "work started before --k was checked")
    assert run(capsys, "gpoly", "--n", "4", "--k", "9") == (EXIT_USAGE, "", "error: --k must lie in [2, 4]\n")
    assert run(capsys, "gpoly", "--n", "1", "--k", "2") == (EXIT_USAGE, "", "error: --k needs --n >= 2\n")


@pytest.mark.parametrize("argv, message", [
    ("witness --r 5 --i 9", "--i must lie in [0, 5]"),
    ("distribution --n 31", "--n 31 exceeds both the --limit 10 and the recurrence cap 30"),
    ("distribution --n 12 --prefix 1,3,2", "--prefix 1,3,2 needs enumeration, but --n 12 exceeds the --limit 10"),
])
def test_input_dependent_refusals_name_the_flags(capsys, monkeypatch, argv, message):
    """A refusal that depends on another input names each flag as the
    user gave it, and comes before any work."""
    forbid_work(monkeypatch, "work started before the input was checked")
    assert run(capsys, *argv.split()) == (EXIT_USAGE, "", f"error: {message}\n")


def test_readme_states_every_bound():
    """README's paragraph on caps gives every option range of ``COMMANDS``
    in the form the table checks it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("Every command checks its integer options")
    paragraph = " ".join(text[start: text.index("\n\n", start)].split())
    for command, flag, lowest, cap, _ in ranges():
        assert f"`{command}`" in paragraph
        low = "" if lowest is None else f"{lowest} <= "
        high = "" if cap is None else f" <= {cap}"
        assert f"`{low}--{flag}{high}`" in paragraph, (command, flag)


#: Commands whose input the library rejects with a ValueError, each with
#: the library call that rejects it.  The CLI words the order bound of
#: ``ctable`` and ``rational`` by their flags (``CLI_WORDING``), as
#: ``BOUNDS`` and ``_cmd_witness`` word the bounds of ``witness``; for
#: ``rational --r 0``, which runs a pipeline through r = 1, it names no
#: r_max the user never gave.
LIBRARY_REJECTIONS = {
    "witness --n 0": lambda: constructions.max_pattern_perm(0),
    "witness --r 2": lambda: constructions.witness_perm(2, 2),
    "witness --r 5 --i 9": lambda: constructions.witness_perm(5, 9),
    "distribution --n 5 --prefix 1,1": lambda: perms.distribution(5, (1, 1)),
    "distribution --n 5 --prefix 1,9": lambda: perms.distribution(5, (1, 9)),
    "ctable --r 3 --order 12": lambda: Pipeline(3, order=12),
    "rational --r 0 --order 2": lambda: Pipeline(1, order=2),
    "rational --r 2 --order 5": lambda: Pipeline(2, order=5),
}
CLI_WORDING = {
    "ctable --r 3 --order 12": "--order must be >= 15 for --r 3",
    "rational --r 0 --order 2": "--order must be >= 7 for --r 0",
    "rational --r 2 --order 5": "--order must be >= 11 for --r 2",
    "witness --n 0": "--n must be >= 1",
    "witness --r 2": "--r must be >= 4",
    "witness --r 5 --i 9": "--i must lie in [0, 5]",
}


@pytest.mark.parametrize("command", list(LIBRARY_REJECTIONS))
def test_library_rejections_are_usage_errors(capsys, monkeypatch, command):
    """Exit 2, with the message the library gives for the same input, or
    the CLI's own wording of it."""
    with pytest.raises(ValueError) as rejected:
        LIBRARY_REJECTIONS[command]()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(genfun, "GTable", no_work)
    for name in ("c_table", "rational_gf"):
        monkeypatch.setattr(Pipeline, name, no_work)
    monkeypatch.setattr(perms, "distribution", no_work)
    for name in ("max_pattern_perm", "witness_perm"):
        monkeypatch.setattr(constructions, name, no_work)
    code, out, err = run(capsys, *command.split())
    assert code == EXIT_USAGE and out == ""
    assert err.endswith(f"error: {CLI_WORDING.get(command, rejected.value)}\n")


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


#: SHA-256 of the stdout of ``distribution --n 6 --prefix 1,3``, which
#: four of the spellings below give.
DIST_6_13 = "e2dfc19ceac768ff65c62488b6e1e8c1baacd582f389f48b92f842198dbd9f78"

#: Argvs that ``COMMANDS`` accepts, each with the SHA-256 of its stdout as
#: the argparse parser that the table replaced printed it: both spellings
#: of a value, unique prefixes (``--pre``, ``--lim``, ``--form``, ``--or``,
#: not the ambiguous ``--o``), and a repeated flag, of which the last wins.
ACCEPTED = {
    "distribution --n 6 --prefix 1,3": DIST_6_13,
    "distribution --n=6 --prefix=1,3": DIST_6_13,
    "distribution --n 6 --pre 1,3": DIST_6_13,
    "distribution --n 4 --n 6 --prefix 1,2 --prefix 1,3": DIST_6_13,
    "distribution --prefix 1,3 --n 6 --lim 6 --form csv":
        "937f3b35565dd0c86707137e75d8663ccc12d9446e1c8916fc779b6ce4eedffb",
    "distribution --n 3 --prefix=": "96e320a9da199726c2e474afed7e597dcb5ef84ee7cd74a5bb8f42d68110ea50",
    "ctable --r 3 --or 15": "3bbb605ca0cf6ab05b27ed63ce68d7b45cee15099c1f86c0db0a6ce93e29cc27",
    "rational --r 0": "ace5ebf5017f8f6e34c3ad134367ca20a8c83bf9f7fc0e7f54488d13652fa93c",
    "gpoly --n 4 --k=3": "44163828dcec603a000da79f4e00c49b183a41fa340562a3e171124f3bd7f9c7",
    "witness --r 5 --i 2": "b620d1ae26484740625fcdd25bfc3a26410d4d6c7a0ceb30210749a86ffca245",
    "verify --suite=recurrence --n 4 --rmax 1": "281eb66ea7c33c11e069c6e19d9918bd99a42ec31cb750b6afe599d9255c3044",
    "avoiders --n 5 --format=csv": "7bb596ab0a83787e2bda6b4316ddf318a5ec5eb392b628c858997db528d07c82",
}


@pytest.mark.parametrize("argv", list(ACCEPTED))
def test_accepted_argv_keeps_its_stdout(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ACCEPTED[argv]


#: Each class of argv that the parser refuses, with the one stderr line it
#: gives.  A value led by ``-`` is taken only as a negative integer, so
#: ``--n -1`` fails on its range and ``--prefix -x`` has no value.
REFUSED = {
    "": "the following arguments are required: command",
    "bogus": "invalid command 'bogus' (choose from 'distribution', 'gpoly', 'ctable', 'rational', "
             "'witness', 'average', 'avoiders', 'verify')",
    "distribution --n 3 --bogus": "unrecognized arguments: --bogus",
    "distribution --n 3 extra": "unrecognized arguments: extra",
    "distribution --n": "argument --n: expected one argument",
    "distribution --n x": "argument --n: invalid int value: 'x'",
    "distribution --n 3 --prefix -x": "argument --prefix: expected one argument",
    "distribution --n -1": "--n must be >= 1",
    "distribution --n 5 --prefix 1,x": "bad prefix '1,x': expected comma-separated integers",
    "gpoly --n 4 --format csv": "argument --format: invalid choice: 'csv' (choose from 'json')",
    "verify --suite foo": "argument --suite: invalid choice: 'foo' "
                          "(choose from 'all', 'recurrence', 'genfun', 'constructions')",
    "ctable": "the following arguments are required: --r",
    "ctable --o 5": "ambiguous option: --o could match --order, --out",
    "ctable --r 3 --order 12": "--order must be >= 15 for --r 3",
}


@pytest.mark.parametrize("argv", list(REFUSED))
def test_refused_argv_is_one_usage_error(capsys, monkeypatch, argv):
    """Every refusal returns EXIT_USAGE from ``main``, before any work, with
    nothing on stdout and one ``error:`` line on stderr."""
    forbid_work(monkeypatch, "work started on a refused argv")
    assert run(capsys, *argv.split()) == (EXIT_USAGE, "", f"error: {REFUSED[argv]}\n")


def test_help_lists_every_command(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (EXIT_OK, "")
    for command, (_, text, _) in COMMANDS.items():
        assert f"  {command} " in out and text in out
    assert run(capsys, "-h") == run(capsys, "--he") == (EXIT_OK, out, "")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_lists_every_option_with_its_range(capsys, monkeypatch, command):
    forbid_work(monkeypatch, "work started for --help")
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (EXIT_OK, "")
    assert all(f"  --{flag} " in out for flag in COMMANDS[command][2])
    for _, flag, lowest, cap, name in (row for row in ranges() if row[0] == command):
        low = "" if lowest is None else f"{lowest} <= "
        high = "" if cap is None else f" <= {cap} ({name})"
        assert f"{low}--{flag}{high}" in out
    assert run(capsys, command, "-h") == (EXIT_OK, out, "")


#: The standard-library modules that a command loads only where its row
#: in ``FOOTPRINT`` names them: no command parses its argv with
#: ``argparse`` (nor loads the ``gettext`` it pulls in) or writes JSON with
#: ``json`` (the CLI has its own ``_json``), every record is a NamedTuple
#: (no ``dataclasses``, nor its ``inspect``), the pipeline checks
#: c_{r,0}(1/2) in integers, and ``verify`` compares the average in
#: integers.  A dotted module counts under its top-level name.
WATCHED = ("argparse", "gettext", "json", "_json", "dataclasses", "inspect", "decimal", "fractions", "csv")

_ALL_LAYERS = "_reference algebra checks constructions genfun insertion perms recurrence"

#: Each command line, ``{out}`` standing for a path in the test's
#: directory, and every module it loads beyond ``flatperm.cli`` and
#: ``flatperm._common``: ``flatperm``'s own by their short names, then the
#: ``WATCHED`` ones.  An empty argv is a usage error.
FOOTPRINT = {
    "": "",
    "--help": "",
    "distribution --n 6": "perms",
    "distribution --n 6 --out {out}": "perms",
    "distribution --n 6 --format csv": "perms csv",
    "distribution --n 6 --prefix 1,3 --out {out}": "perms",
    "distribution --n 12 --prefix 1,3": "algebra perms recurrence",
    "gpoly --n 5": "algebra recurrence",
    "gpoly --n 6 --k 3": "algebra recurrence",
    "average --n 6": "algebra recurrence decimal fractions",
    "avoiders --n 9": "algebra recurrence",
    "ctable --r 3": "algebra genfun insertion recurrence",
    "rational --r 0": "algebra genfun insertion recurrence",
    "rational --r 3": "algebra genfun insertion recurrence",
    "witness --n 7": "constructions perms",
    "witness --r 5 --i 2": "constructions perms",
    "verify --suite all --n 3 --rmax 1": _ALL_LAYERS,
    "verify --suite all --n 5 --rmax 2": _ALL_LAYERS,
    "verify --suite constructions --n 4 --rmax 1 --out {out}": _ALL_LAYERS,
}

#: Runs ``cli.main`` on sys.argv[2:] and prints the exit code and the
#: loaded modules: ``flatperm``'s by short name, and those of the
#: comma-separated names in sys.argv[1] by top-level name.
FOOTPRINT_PROBE = """
import contextlib, io, sys
import flatperm.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = flatperm.cli.main(sys.argv[2:])
watched = set(sys.argv[1].split(","))
own = {m.removeprefix("flatperm.") for m in sys.modules if m.startswith("flatperm.")}
print(code, *sorted(own - {"cli", "_common"}), *sorted({m.partition(".")[0] for m in sys.modules} & watched))
"""


@pytest.fixture(scope="module")
def footprint(tmp_path_factory):
    """The exit code of a fresh interpreter, so that no import made earlier
    hides one, running a ``FOOTPRINT`` command line, and the modules it
    loaded by the time ``main`` returned; each line runs once per module."""
    out = tmp_path_factory.mktemp("footprint") / "out"
    env = dict(os.environ, PYTHONPATH=str(SRC))

    @functools.cache
    def run(argv):
        done = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, ",".join(WATCHED),
                               *argv.format(out=out).split()],
                              env=env, capture_output=True, text=True, check=True)
        code, *loaded = done.stdout.split()
        return int(code), loaded

    return run


@pytest.mark.parametrize("argv", FOOTPRINT, ids=lambda argv: argv or "no argv")
def test_command_loads_only_its_footprint(footprint, argv):
    """Each command line loads exactly the row's modules by the time
    ``main`` returns, and so no more at ``import flatperm.cli``."""
    assert footprint(argv) == (EXIT_OK if argv else EXIT_USAGE, FOOTPRINT[argv].split())


def test_ctable_loads_no_checks(footprint):
    code, loaded = footprint("ctable --r 3")
    assert code == EXIT_OK
    assert "checks" not in loaded and "genfun" in loaded


@pytest.mark.parametrize("argv", [
    ("ctable", "--r", "3"),
    ("rational", "--r", "3"),
    ("verify", "--suite", "all", "--n", "3", "--rmax", "1"),
])
def test_pipeline_commands_load_no_dataclasses(footprint, argv):
    """Every record is a NamedTuple, so no command pays for importing
    ``dataclasses`` and the ``inspect`` it pulls in."""
    code, loaded = footprint(" ".join(argv))
    assert code == EXIT_OK
    assert "dataclasses" not in loaded and "inspect" not in loaded


@pytest.mark.parametrize("argv", [
    ("ctable", "--r", "3"),
    ("rational", "--r", "3"),
    ("gpoly", "--n", "5"),
])
def test_table_commands_load_no_enumeration_fractions_or_csv(footprint, argv):
    """The pipeline checks c_{r,0}(1/2) in integers and the CLI imports
    ``csv`` and ``perms`` only for the commands that use them."""
    code, loaded = footprint(" ".join(argv))
    assert code == EXIT_OK
    assert not {"perms", "fractions", "csv"} & set(loaded)


def test_verify_loads_no_fractions(footprint):
    """The average line compares integers, and nothing else that
    ``verify`` runs builds a fraction unless a check fails."""
    code, loaded = footprint("verify --suite all --n 5 --rmax 2")
    assert code == EXIT_OK
    assert not {"fractions", "decimal"} & set(loaded)


def test_verify_loads_no_json(footprint):
    """``verify`` prints text, and writes no JSON unless given ``--out``."""
    code, loaded = footprint("verify --suite all --n 5 --rmax 2")
    assert code == EXIT_OK
    assert not {"json", "_json"} & set(loaded)


#: One command line of each command that writes JSON, ``{out}`` standing
#: for a path in the test's directory.
JSON_COMMANDS = (
    "gpoly --n 6 --k 3",
    "ctable --r 3",
    "rational --r 0",
    "witness --r 5 --i 2",
    "average --n 6",
    "avoiders --n 9",
    "distribution --n 6 --prefix 1,3 --out {out}",
    "verify --suite constructions --n 4 --rmax 1 --out {out}",
)


@pytest.mark.parametrize("argv", JSON_COMMANDS)
def test_json_commands_load_no_json(footprint, argv):
    code, loaded = footprint(argv)
    assert code == EXIT_OK
    assert not {"json", "_json"} & set(loaded)


@pytest.mark.parametrize("argv", JSON_COMMANDS)
def test_json_commands_write_what_json_dumps_writes(capsys, tmp_path, argv):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, *argv.format(out=target).split())
    text = target.read_text(encoding="utf-8") if "{out}" in argv else out
    assert code == EXIT_OK
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


#: Strings of printable ASCII, ``"`` and ``\\`` among them, as the commands
#: write them: decimal numbers, names and ``verify`` details.
_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8)
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@given(_PAYLOADS)
@example({"a\"b": ["\\", "", {}, [], [[]]], "n": -(10**40), "t": True, "f": False, "z": None})
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("text", ["line\nbreak", "tab\there", "\x7f", "caf\u00e9", "\U0001d400"])
def test_json_writer_refuses_what_no_command_emits(text):
    """No payload holds a control character or non-ASCII text, which
    ``json.dumps`` would escape, so the writer refuses them."""
    message = f"cannot write {text!r} as JSON: not printable ASCII"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli._json({"detail": [text]})


# The process entry: ``python -m flatperm.cli`` and the ``flatperm`` console
# script run ``entry()``, which freezes the collector's heap once ``main()``
# has returned.  The in-process tests above cannot see that exit path, so
# these run real processes.

GOLDENS = json.loads((SRC.parent / "perfbench" / "goldens.json").read_text())


def run_process(*args, script=None):
    """A fresh interpreter running ``python -m flatperm.cli *args``, or the
    ``-c`` script with args: the finished process, stdout as bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    head = ["-c", script] if script else ["-m", "flatperm.cli"]
    return subprocess.run([sys.executable, *head, *args], env=env, capture_output=True)


@pytest.mark.parametrize("argv", sorted(GOLDENS))
def test_process_golden_stdout(argv):
    done = run_process(*argv.split())
    assert done.returncode == EXIT_OK, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDENS[argv]


@pytest.mark.parametrize("argv", [
    ("distribution", "--n", "40"),
    ("ctable", "--r", "12", "--format", "csv"),
])
def test_process_usage_error(argv):
    done = run_process(*argv)
    assert (done.returncode, done.stdout) == (EXIT_USAGE, b"")
    assert b"error:" in done.stderr


def test_process_out_file_holds_the_stdout_bytes(tmp_path):
    target = tmp_path / "c.json"
    to_file = run_process("ctable", "--r", "5", "--out", str(target))
    to_stdout = run_process("ctable", "--r", "5")
    assert (to_file.returncode, to_file.stdout) == (EXIT_OK, b"")
    assert to_stdout.returncode == EXIT_OK
    assert target.read_bytes() == to_stdout.stdout


#: Runs the module as ``__main__``, as ``python -m flatperm.cli`` does, with
#: ``run_suite`` answering CHECKS results of which the last fails.
FAILING_SUITE = """
import runpy, sys
from flatperm import checks

def run_suite(name, oracle_nmax, r_max):
    return [checks.CheckResult(f"check-{i}", f"check {i}", i < CHECKS - 1, "" if i < CHECKS - 1 else "forced")
            for i in range(CHECKS)]

CHECKS = int(sys.argv.pop(1))
checks.run_suite = run_suite
runpy.run_module("flatperm.cli", run_name="__main__", alter_sys=True)
"""


def test_process_failure_prints_every_line():
    """A FAIL exits 1, and output well past one pipe buffer (about 90 kB)
    reaches stdout whole once the heap is frozen."""
    checks_made = 5000
    done = run_process(str(checks_made), "verify", "--n", "3", "--rmax", "1",
                       script=FAILING_SUITE)
    assert done.returncode == EXIT_CHECK_FAILED, done.stderr
    lines = [f"PASS  check {i}" for i in range(checks_made - 1)]
    lines += [f"FAIL  check {checks_made - 1}  [forced]",
              f"FAILED: {checks_made - 1}/{checks_made} checks passed"]
    assert done.stdout.decode() == "\n".join(lines) + "\n"


def test_main_in_process_does_not_freeze(capsys):
    before = gc.get_freeze_count()
    code, _, _ = run(capsys, "verify", "--suite", "recurrence", "--n", "4", "--rmax", "1")
    assert code == EXIT_OK
    assert gc.get_freeze_count() == before


#: Reports the freeze count from an ``atexit`` handler, which runs after the
#: module's ``__main__`` block has called the entry and raised SystemExit.
FREEZE_PROBE = """
import atexit, gc, runpy, sys
start = gc.get_freeze_count()
atexit.register(lambda: print("frozen", start, gc.get_freeze_count(), file=sys.stderr))
runpy.run_module("flatperm.cli", run_name="__main__", alter_sys=True)
"""


def test_process_freezes_once_the_command_returns():
    done = run_process("distribution", "--n", "6", script=FREEZE_PROBE)
    assert done.returncode == EXIT_OK, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDENS["distribution --n 6"]
    tag, start, at_exit = done.stderr.split()[-3:]
    assert (tag, int(start)) == (b"frozen", 0)
    assert int(at_exit) > 0


def test_console_script_and_main_module_call_one_entry():
    """``[project.scripts]`` is read as text: Python 3.10 has no ``tomllib``."""
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].splitlines()
    line = next(line for line in scripts if line.startswith("flatperm "))
    module, _, script_fn = line.split("=", 1)[1].strip().strip('"').partition(":")
    assert module == "flatperm.cli"

    tree = ast.parse((SRC / "flatperm" / "cli.py").read_text(encoding="utf-8"))
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert ast.unparse(guard.body[0]) == f"sys.exit({script_fn}())"
    assert getattr(cli, script_fn) is cli.entry
