"""Record the golden stdout digests that run.py judges operations by.

    python3 perfbench/goldens.py

Runs every argument list a workload or the self-test can generate, once,
as ``python -m flatperm.cli ...`` and writes the SHA-256 of each stdout to
goldens.json.  Before writing, each ``distribution`` result (computed by
enumeration, the oracle) is compared with the independent recurrence route
``GTable.g(n)`` / ``GTable.g1k(n, k)``, and each ``verify`` run must report
every check passed, so the program is not the only thing vouching for its
own golden.  Re-record only when the CLI output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

#: The tiny operations the self-test uses, next to the workloads' own.
SELFTEST_ARGVS = [["distribution", "--n", "6"], ["ctable", "--r", "3"], ["verify"]]


def all_argvs() -> list[run.Argv]:
    return run.ENUMERATE_ARGVS + run.PIPELINE_ARGVS + [run.VERIFY_ARGV] + SELFTEST_ARGVS


def cross_check(argv: run.Argv, stdout: bytes) -> None:
    """Raise unless stdout agrees with a route other than the one that made it."""
    if argv[0] == "distribution":
        from flatperm.recurrence import GTable

        payload = json.loads(stdout)
        n = payload["n"]
        prefix = payload["prefix"]
        table = GTable(n)
        poly = table.g(n) if len(prefix) < 2 else table.g1k(n, prefix[1])
        want = {str(r): str(c) for r, c in enumerate(poly.coeffs) if c}
        if payload["source"] != "oracle" or payload["counts"] != want:
            raise SystemExit(f"{' '.join(argv)}: enumeration disagrees with the recurrence")
    elif argv[0] == "verify":
        if not stdout.decode().rstrip().splitlines()[-1].startswith("OK: "):
            raise SystemExit(f"{' '.join(argv)}: a verification check failed")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    runner = run.Runner({})
    digests = {}
    for argv in all_argvs():
        seconds, rc, _, out, err = run.spawn([sys.executable, "-m", "flatperm.cli", *argv], runner.env)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}: {err.decode(errors='replace')}")
        cross_check(argv, out)
        digests[" ".join(argv)] = hashlib.sha256(out).hexdigest()
        print(f"{seconds:7.2f} s  {' '.join(argv)}")
    run.GOLDENS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {run.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
