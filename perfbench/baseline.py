"""Repeat run.py over seeds and summarize every workload in one table.

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` once per seed
(seeds 1..RUNS), prints each end-to-end metric with its unit, median,
quartiles and spread (the quartile distance as a share of the median, from
``statistics.quantiles(values, n=4)``) next to the bound in BENCHMARK.json,
flagged ``ok`` when the spread is below a third of the bound and ``WIDE``
otherwise, plus the error rate, the host factor of each run and the op-time
percentiles pooled over all runs.  Then it makes one ``--trace 1`` run on seed 1 for the per-layer
metrics.  With ``--out`` it writes all of this, with the host facts, as
JSON; the workload sentences and the bounds stay in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUNS = 10
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[float], float]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    times = next((json.loads(l.split(None, 1)[1]) for l in lines if l.startswith("op_seconds ")), [])
    host = next((float(l.split()[1]) for l in lines if l.startswith("host_factor ")), 0.0)
    return json.loads(lines[-1]), times, host


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "flag": "ok" if spread < bound / 3 else "WIDE", "runs": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]
    report = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "run_seconds": seconds,
        "seeds": list(range(1, RUNS + 1)),
        "trace_seed": 1,
        "workloads": {},
    }
    for w in SPEC["workloads"]:
        name = w["name"]
        results, times, hosts = [], [], []
        for seed in report["seeds"]:
            result, t, host = bench(name, seed, seconds, 0)
            results.append(result)
            times.extend(t)
            hosts.append(host)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        metrics = {
            m["name"]: dict(unit=m["unit"], **summarize(
                [r["metrics"][m["name"]]["value"] for r in results], BOUNDS[m["name"]]))
            for m in SPEC["end_to_end"]
        }
        high = run.high_percentile(times)
        traced, _, _ = bench(name, report["trace_seed"], seconds, 1)
        report["workloads"][name] = {
            "end_to_end": metrics,
            "error_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
            "host_factor": hosts,
            "op_s_pooled": {"samples": len(times), "p50": statistics.median(times),
                            "p_high": {"percentile": high[0], "value": high[1]} if high else None},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_correct": traced["correct"],
        }
        print(f"== {name}: {RUNS} runs x {seconds} s, seeds 1..{RUNS}")
        for k, m in metrics.items():
            print(f"  {k:12s} median {m['median']:.4f} {m['unit']:4s} q1 {m['q1']:.4f} "
                  f"q3 {m['q3']:.4f} spread {m['spread']:.4f} (bound {BOUNDS[k]}, {m['flag']})")
            print("               runs: " + " ".join(f"{v:.4g}" for v in m["values"]))
        print(f"  error_rate   {failed / attempted:.4f} ({failed} of {attempted} ops)")
        print("  host_factor  runs: " + " ".join(f"{h:.3f}" for h in hosts))
        pooled = report["workloads"][name]["op_s_pooled"]
        print(f"  op seconds   n={pooled['samples']} p50 {pooled['p50']:.4f} s"
              + (f", p{high[0]} {high[1]:.4f} s" if high else ""))
        pl = report["workloads"][name]["per_layer"]
        print(f"  trace        overhead x{pl['trace.overhead_ratio']:.3f}, GTable.coeff share "
              f"{pl['recurrence.GTable.coeff.op_share']:.3f}, htilde_over_kernel share "
              f"{pl['genfun.Pipeline.htilde_over_kernel.op_share']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
