"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Uses ``distribution --n 6``, ``ctable --r 3`` and ``verify`` (its defaults)
and shows that a wrong golden digest or a nonzero exit is counted as a
failed operation without stopping the run, and that the metric names the
benchmark prints, traced and untraced, are exactly those in BENCHMARK.json.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import run

# ctable comes first so that every run, however short, meets the wrong digest.
TINY = [["ctable", "--r", "3"], ["distribution", "--n", "6"], ["verify"]]
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def tiny_blocks(_rng):
    while True:
        yield [list(argv) for argv in TINY]


def run_main(trace: int, goldens: dict) -> tuple[int, dict]:
    # Runs stop only between blocks, and always finish the first block they
    # start, so every run meets the wrong digest.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0.01" if trace else "1.5",
                       "--trace", str(trace)], workloads={"tiny": tiny_blocks}, goldens=goldens)
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    goldens = json.loads(run.GOLDENS.read_text())
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    runner = run.Runner(goldens)

    for argv in TINY:
        check(runner.op(argv).ok, f"{' '.join(argv)} matches its golden digest")

    wrong = dict(goldens, **{"ctable --r 3": "0" * 64})
    res = run.Runner(wrong).op(["ctable", "--r", "3"])
    check(res.returncode == 0 and not res.ok, "a wrong golden digest fails the operation")

    # `ctable --r 0` is a usage error: exit 2 with empty stdout, whose digest
    # is registered so that only the exit code can fail it.
    empty = dict(goldens, **{"ctable --r 0": hashlib.sha256(b"").hexdigest()})
    res = run.Runner(empty).op(["ctable", "--r", "0"])
    check(res.returncode == 2 and not res.ok, "a nonzero exit fails the operation")

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        rc, result = run_main(trace, goldens)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(rc == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
              f"--trace {trace} exits 0 with the four result keys")
        check(got == want, f"--trace {trace} prints exactly the {section} metrics of BENCHMARK.json")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= len(TINY),
              f"--trace {trace} counts {result['attempted']} operations, none failed")

        rc, result = run_main(trace, wrong)
        check(rc == 0 and not result["correct"]
              and result["failed"] == -(-result["attempted"] // len(TINY)),
              f"--trace {trace} with one wrong digest completes and fails one op in three")

    print("OK" if not FAILURES else f"FAILED: {len(FAILURES)} check(s)")
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
