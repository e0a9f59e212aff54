"""Closed-loop benchmark of the flatperm command-line interface.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

One sequential client runs one ``python -m flatperm.cli ...`` process at a
time and starts the next only after the previous one has exited.  The seed
only generates the list of CLI arguments; the program receives nothing
else.  An operation succeeds when it exits 0 and the SHA-256 of its stdout
equals the golden digest stored for that exact argument list in
``goldens.json`` (see ``goldens.py``).

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs the same seeded operations through
``spantrace.py``, which wraps each layer's public functions, runs each one
again untraced to measure the tracing overhead, and reports the per-layer
metrics.  The last line of stdout is one JSON object.

The seed yields blocks: a block is the smallest group of operations over
which the workload's command mix is fixed (one of each command, in a seeded
order, for ``pipeline``).  Runs stop only between blocks, so the mix, and
the per-operation call counts of a traced run, are exact and repeat from run
to run.

The host this runs on is shared, and its speed changes from one stretch of
seconds to the next by up to a factor of two.  So an untraced run also
spends PROBE_SHARE of its operations' time on a fixed reference workload
(``hostspeed.py``), interleaved with the operations, and reports its times
divided by the host factor that the probe measured: they read as seconds on
a host running at the probe's nominal speed.  The raw wall times and the
factor are printed next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import hostspeed
import spantrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = HERE / "goldens.json"
SETUP_RUNS = 9
PROBE_SHARE = 0.6

Argv = list[str]
ENUMERATE_ARGVS = [["distribution", "--n", "9"]] + [
    ["distribution", "--n", "9", "--prefix", f"1,{k}"] for k in range(2, 10)
]
PIPELINE_ARGVS = [["ctable", "--r", "12"], ["rational", "--r", "12"]]
VERIFY_ARGV = ["verify", "--suite", "all", "--n", "9", "--rmax", "8"]


def _enumerate_blocks(rng: random.Random) -> Iterator[list[Argv]]:
    while True:
        yield [rng.choice(ENUMERATE_ARGVS)]


def _pipeline_blocks(rng: random.Random) -> Iterator[list[Argv]]:
    while True:
        yield rng.sample(PIPELINE_ARGVS, len(PIPELINE_ARGVS))


def _verify_blocks(rng: random.Random) -> Iterator[list[Argv]]:
    while True:
        yield [VERIFY_ARGV]


#: workload name -> block generator seeded by --seed.
WORKLOADS: dict[str, Callable[[random.Random], Iterator[list[Argv]]]] = {
    "enumerate": _enumerate_blocks,
    "pipeline": _pipeline_blocks,
    "verify": _verify_blocks,
}


@dataclass
class OpResult:
    argv: Argv
    seconds: float
    returncode: int
    maxrss_kb: int
    ok: bool
    stderr_tail: str


def _drain(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF without reaping the process, so that
    os.wait4 can still collect its resource usage."""
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(cmd: list[str], env: dict) -> tuple[float, int, int, bytes, bytes]:
    """Run cmd to completion: (wall seconds spawn to exit, exit code,
    ru_maxrss in KiB, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss, out, err


class Runner:
    """Runs operations as fresh processes and judges their output."""

    def __init__(self, goldens: dict[str, str]):
        self.goldens = goldens
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def op(self, argv: Argv, prefix: list[str] | None = None) -> OpResult:
        cmd = (prefix or [sys.executable, "-m", "flatperm.cli"]) + argv
        seconds, rc, rss, out, err = spawn(cmd, self.env)
        ok = rc == 0 and hashlib.sha256(out).hexdigest() == self.goldens.get(" ".join(argv))
        tail = err.decode(errors="replace").strip().splitlines()[-1:] if not ok else []
        return OpResult(argv, seconds, rc, rss, ok, tail[0] if tail else "")

    def import_s(self) -> float:
        """Wall time of one fresh interpreter importing flatperm.cli."""
        seconds, rc, _, _, err = spawn([sys.executable, "-c", "import flatperm.cli"], self.env)
        if rc != 0:
            raise RuntimeError(f"import flatperm.cli failed: {err.decode(errors='replace')}")
        return seconds


def closed_loop(blocks: Iterator[list[Argv]], seconds: float,
                launch: Callable[[Argv], OpResult],
                between: Callable[[float], None] = lambda busy: None
                ) -> tuple[list[list[OpResult]], float]:
    """Run whole blocks, one operation at a time, and stop before a block
    when less than half a mean block of `seconds` is left, so the operations
    take `seconds` to within half a block; return the results block by block
    and the time the operations took.  `between` runs before each block with
    the time taken so far, outside that time."""
    done: list[list[OpResult]] = []
    busy = 0.0
    for block in blocks:
        if done and seconds - busy < busy / len(done) / 2:
            break
        between(busy)
        done.append([launch(argv) for argv in block])
        busy += sum(r.seconds for r in done[-1])
    return done, busy


class SetupSampler:
    """Takes SETUP_RUNS import timings spread evenly over a run's
    operations, so set-up and operations see the same machine load."""

    def __init__(self, runner: Runner, seconds: float):
        runner.import_s()  # untimed: fills the bytecode cache
        self.runner, self.seconds, self.samples = runner, seconds, []

    def __call__(self, busy: float) -> None:
        while len(self.samples) < min(SETUP_RUNS, SETUP_RUNS * busy / self.seconds + 1):
            self.samples.append(self.runner.import_s())


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile that has at least ten samples above it,
    with its value (nearest rank), or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    pct = (n - 10) * 100 // n
    return pct, ordered[math.ceil(pct * n / 100) - 1]


def report_failures(results: list[OpResult]) -> None:
    for r in results:
        if not r.ok:
            why = r.stderr_tail if r.returncode else "stdout differs from its golden digest"
            print(f"FAILED op: {' '.join(r.argv)} (exit {r.returncode}) {why}", file=sys.stderr)


def run_untraced(runner: Runner, blocks, seconds: float) -> tuple[dict, list[OpResult], list[str]]:
    probe = hostspeed.HostProbe()
    hostspeed.unit()  # untimed warm-up
    sampler = SetupSampler(runner, seconds)

    def probed(argv: Argv) -> OpResult:
        result = runner.op(argv)
        probe.run_for(PROBE_SHARE * result.seconds)
        return result

    done, elapsed = closed_loop(blocks, seconds, probed, sampler)
    sampler(seconds)
    results = [r for block in done for r in block]
    # A block's operations share one time, their mean, so that the median
    # is taken over the workload's fixed command mix.
    raw_times = [sum(r.seconds for r in block) / len(block) for block in done]
    raw_setup = statistics.median(sampler.samples)
    host = probe.factor
    times = [t / host for t in raw_times]
    n_ok = sum(r.ok for r in results)
    metrics = {
        "ops_per_s": (n_ok * host / elapsed, "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024, "MB"),
        "setup_s": (raw_setup / host, "s"),
    }
    high = high_percentile(times)
    failed = len(results) - n_ok
    lines = [
        f"host_factor  {host:.4f}  (probe: {probe.units} units in {probe.seconds:.2f} s; "
        f"times below are wall times / host_factor)",
        f"ops_per_s    {metrics['ops_per_s'][0]:.4f} 1/s  ({n_ok} ok in {elapsed:.2f} s of "
        f"operations; raw {n_ok / elapsed:.4f} 1/s)",
        f"op_s_p50     {metrics['op_s_p50'][0]:.4f} s  (n={len(times)} blocks of "
        f"{len(done[0])}; " + (f"p{high[0]} = {high[1]:.4f} s" if high
                              else "no percentile has 10 samples above it")
        + f"; raw {statistics.median(raw_times):.4f} s)",
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB",
        f"error_rate   {failed / len(results):.4f}  ({failed} of {len(results)} ops)",
        f"setup_s      {metrics['setup_s'][0]:.4f} s  (median of {SETUP_RUNS}; raw {raw_setup:.4f} s)",
        f"op_seconds {json.dumps(times)}",
    ]
    return metrics, results, lines


def run_traced(runner: Runner, blocks, seconds: float) -> tuple[dict, list[OpResult], list[str]]:
    WORK.mkdir(exist_ok=True)
    runner.import_s()  # fills the bytecode cache, as in untraced runs
    span_files: list[Path] = []
    plain_results: list[OpResult] = []

    def paired(argv: Argv) -> OpResult:
        """Run argv traced, then untraced, so that machine load drifts alike
        for both; return the traced result."""
        path = WORK / f"spans-{os.getpid()}-{len(span_files)}.pickle"
        span_files.append(path)
        result = runner.op(argv, [sys.executable, str(HERE / "spantrace.py"),
                                  str(path), str(len(span_files) - 1), "--"])
        plain_results.append(runner.op(argv))
        return result

    try:
        # Traced operations take about half the run, untraced the rest.
        traced_blocks, traced_elapsed = closed_loop(blocks, seconds / 2, paired)
        traced_results = [r for block in traced_blocks for r in block]
        plain_elapsed = sum(r.seconds for r in plain_results)
        states = []
        for path in span_files:
            if path.exists():  # missing when the traced process crashed
                with open(path, "rb") as fh:
                    states.append(pickle.load(fh))
    finally:
        for path in span_files:
            path.unlink(missing_ok=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    values = spantrace.summarize(states)
    traced_rate = len(traced_results) / traced_elapsed
    plain_rate = len(plain_results) / plain_elapsed
    values["trace.traced_ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = plain_rate
    values["trace.overhead_ratio"] = plain_rate / traced_rate
    units = {name: unit for name, unit, _ in spantrace.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name, _, _ in spantrace.PER_LAYER}
    lines = [f"{name:52s} {v:.6g} {u}" for name, (v, u) in metrics.items()]
    return metrics, traced_results + plain_results, lines


def main(argv: list[str] | None = None, workloads=WORKLOADS, goldens: dict | None = None) -> int:
    """Entry point; the self-test passes its own workloads and goldens."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn() so the running operation is killed
    # and reaped rather than left behind.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (SRC / "flatperm" / "cli.py").is_file():
        print(f"error: no flatperm sources under {SRC}", file=sys.stderr)
        return 2
    if goldens is None:
        if not GOLDENS.is_file():
            print(f"error: golden digests {GOLDENS} missing", file=sys.stderr)
            return 2
        goldens = json.loads(GOLDENS.read_text())
    runner = Runner(goldens)
    blocks = workloads[args.workload](random.Random(args.seed))
    run = run_traced if args.trace else run_untraced
    metrics, results, lines = run(runner, blocks, args.seconds)

    failed = sum(not r.ok for r in results)
    report_failures(results)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {os.cpu_count()}  python {sys.version.split()[0]}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
