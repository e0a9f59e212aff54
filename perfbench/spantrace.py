"""Span tracing of one flatperm CLI operation, done from outside the package.

Run as a script, this file is the traced form of ``python -m flatperm.cli``:

    python3 perfbench/spantrace.py SPAN_FILE OP_ID -- distribution --n 9

It wraps the public functions listed in ``TARGETS`` (nothing under ``src/``
changes), calls ``flatperm.cli.main(argv)``, and on exit pickles the spans
it kept in memory to SPAN_FILE.  Each span is (name, start, end, parent
span); the operation id is stored once per file, since one process runs
one operation.  Imported as a module, it gives ``summarize``, which turns
the span files of several operations into per-layer metrics.

Span times use a clock that stops while the tracer does its own
bookkeeping (the argument counts, the span arrays), so that work is not
charged to any span; it still shows in the process wall time, which is
what the tracing overhead compares.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
from array import array
from collections import Counter
from time import perf_counter


# -- argument counts taken at call boundaries ------------------------------
#
# A hook runs before the wrapped call with the tracer and the call's
# positional arguments.  It may add to tracer.counts or tracer.maxima, and
# may return a function that receives the call's result.

def _max_bits(coeffs) -> int:
    return max(map(int.bit_length, coeffs), default=0)


def _intpoly_mul(tracer, args):
    a, b = args
    if isinstance(b, int):
        products, bits = len(a.coeffs), max(_max_bits(a.coeffs), b.bit_length())
    else:
        products = len(a.coeffs) * len(b.coeffs)
        bits = max(_max_bits(a.coeffs), _max_bits(b.coeffs))
    tracer.counts["algebra.IntPoly.mul.coeff_products"] += products
    tracer.maxima["algebra.IntPoly.mul.max_bits"] = max(
        tracer.maxima.get("algebra.IntPoly.mul.max_bits", 0), bits)


def _xseries_mul(tracer, args):
    # XSeries.__mul__ forms a_i * b_j for i + j <= m, m the smaller order;
    # an IntPoly operand is first truncated to the series' own order.
    a, b = args
    if isinstance(b, int):
        products = a.order + 1
    else:
        m = min(a.order, getattr(b, "order", a.order))
        products = (m + 1) * (m + 2) // 2
    tracer.counts["algebra.XSeries.mul.coeff_products"] += products


def _gtable_ensure(tracer, args):
    table = args[0]
    before = table.n_max

    def after(_result):
        tracer.counts["recurrence.GTable.rows_grown"] += table.n_max - before
    return after


def _run_suite(tracer, args):
    def after(results):
        tracer.counts["checks.checks_run"] += len(results)
        tracer.counts["checks.checks_passed"] += sum(r.passed for r in results)
    return after


#: (span name, module, attribute path, stats reported, hook).  The span
#: name doubles as the metric prefix.
TARGETS = [
    ("cli.main", "flatperm.cli", "main", ("self_s", "total_s"), None),
    ("perms.distribution", "flatperm.perms", "distribution", ("calls", "self_s"), None),
    ("recurrence.GTable.ensure", "flatperm.recurrence", "GTable.ensure",
     ("calls", "self_s"), _gtable_ensure),
    ("recurrence.GTable.g1k", "flatperm.recurrence", "GTable.g1k", ("calls", "self_s"), None),
    ("recurrence.GTable.coeff", "flatperm.recurrence", "GTable.coeff", ("calls", "total_s"), None),
    ("recurrence.b_poly", "flatperm.recurrence", "b_poly", ("calls", "self_s"), None),
    *[
        (f"genfun.Pipeline.{m}", "flatperm.genfun", f"Pipeline.{m}", ("calls", "self_s"), None)
        for m in ("boundary", "h_poly", "htilde_over_kernel", "g_series", "p_poly",
                  "c_table", "rational_gf", "check_functional_equation", "check_kernel_root")
    ],
    ("genfun.t_poly", "flatperm.genfun", "t_poly", ("calls", "self_s"), None),
    ("algebra.IntPoly.__mul__", "flatperm.algebra", "IntPoly.__mul__", ("calls", "self_s"), _intpoly_mul),
    ("algebra.IntPoly.divexact", "flatperm.algebra", "IntPoly.divexact", ("calls", "self_s"), None),
    ("algebra.XSeries.__mul__", "flatperm.algebra", "XSeries.__mul__", ("calls", "self_s"), _xseries_mul),
    ("algebra.XSeries.divexact", "flatperm.algebra", "XSeries.divexact", ("calls", "self_s"), None),
    ("algebra.VPoly.__mul__", "flatperm.algebra", "VPoly.__mul__", ("calls", "self_s"), None),
    ("algebra.VPoly.subst_v", "flatperm.algebra", "VPoly.subst_v", ("calls", "self_s"), None),
    ("algebra.vpoly_div_kernel", "flatperm.algebra", "vpoly_div_kernel", ("calls", "self_s"), None),
    ("algebra.xvpoly_extract_from_series", "flatperm.algebra", "xvpoly_extract_from_series",
     ("calls", "self_s"), None),
    ("checks.run_suite", "flatperm.checks", "run_suite", ("calls", "self_s"), _run_suite),
    *[
        (f"checks.{s}", "flatperm.checks", s, ("calls", "self_s"), None)
        for s in ("recurrence_suite", "genfun_suite", "constructions_suite")
    ],
]

_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "total_s": ("s", "lower")}

#: Every per-layer metric, as (name, unit, better).  Calls, times and
#: counts are means per traced operation; ratios, shares and max_bits are
#: taken over the whole traced run.
PER_LAYER = [
    (f"{span}.{stat}", *_UNITS[stat]) for span, _, _, stats, _ in TARGETS for stat in stats
] + [
    ("recurrence.GTable.rows_grown", "count", "lower"),
    ("recurrence.GTable.g1k.hit_ratio", "ratio", "higher"),
    ("algebra.IntPoly.mul.coeff_products", "count", "lower"),
    ("algebra.IntPoly.mul.max_bits", "bits", "lower"),
    ("algebra.XSeries.mul.coeff_products", "count", "lower"),
    ("checks.checks_run", "count", "higher"),
    ("checks.checks_passed", "count", "higher"),
    ("recurrence.GTable.coeff.op_share", "ratio", "lower"),
    ("genfun.Pipeline.htilde_over_kernel.op_share", "ratio", "lower"),
    ("recurrence.GTable.coeff.op_share_in_htilde", "ratio", "lower"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """In-memory span store for one process; spans are numbered in start
    order, so a parent's number is always below its children's."""

    def __init__(self, names: list[str]):
        self.names = names
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 when a span of the same name is open
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self._stack = [-1]
        self._open = [0] * len(names)
        self._paused = 0.0

    def wrap(self, idx: int, fn, hook):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            after = hook(self, args) if hook else None
            sid = len(self.start)
            self.name.append(idx)
            self.parent.append(self._stack[-1])
            self.nested.append(self._open[idx] > 0)
            self.end.append(0.0)
            self._open[idx] += 1
            self._stack.append(sid)
            t1 = perf_counter()
            self._paused += t1 - t0
            self.start.append(t1 - self._paused)
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                self.end[sid] = t2 - self._paused
                self._stack.pop()
                self._open[idx] -= 1
            if after:
                after(result)
            self._paused += perf_counter() - t2
            return result

        return functools.wraps(fn)(traced)

    def dump(self, path: str, op_id: int) -> None:
        state = {
            "op": op_id, "names": self.names, "name": self.name, "parent": self.parent,
            "nested": self.nested, "start": self.start, "end": self.end,
            "counts": dict(self.counts), "maxima": self.maxima,
        }
        with open(path, "wb") as fh:
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)


def install(tracer: Tracer) -> None:
    """Replace each target by its traced wrapper wherever the package holds
    a reference to it: class attributes (``__rmul__`` aliases ``__mul__``)
    and the module globals that ``from .x import f`` copies."""
    importlib.import_module("flatperm.cli")  # imports every layer
    modules = [m for k, m in sys.modules.items() if k == "flatperm" or k.startswith("flatperm.")]
    for idx, (_, modname, path, _, hook) in enumerate(TARGETS):
        owner = importlib.import_module(modname)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(idx, original, hook)
        for holder in [owner] if classes else modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)


def summarize(states: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span files of the traced operations.

    A span's self time is its duration minus the durations of its direct
    children (one thread, so children never overlap).  total_s sums only
    spans with no open ancestor of the same name, so recursion is not
    counted twice.  A ``GTable.g1k`` span with no child span is a cache
    hit: a miss always reaches ``GTable.g``, and so ``GTable.ensure``.
    """
    names = [t[0] for t in TARGETS]
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    total_s: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    maxima: dict[str, int] = {}
    coeff, htilde = names.index("recurrence.GTable.coeff"), names.index("genfun.Pipeline.htilde_over_kernel")
    coeff_in_htilde = 0.0
    g1k, g1k_hits = names.index("recurrence.GTable.g1k"), 0
    for st in states:
        if st["names"] != names:
            raise ValueError("span file written by a different target list")
        name, parent, nested = st["name"], st["parent"], st["nested"]
        dur = [e - s for s, e in zip(st["start"], st["end"])]
        child = [0.0] * len(dur)
        has_child = [False] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
                has_child[p] = True
        g1k_hits += sum(1 for i, n in enumerate(name) if n == g1k and not has_child[i])
        for i, d in enumerate(dur):
            nm = names[name[i]]
            calls[nm] += 1
            self_s[nm] += d - child[i]
            if not nested[i]:
                total_s[nm] += d
                if name[i] == coeff:
                    p = parent[i]
                    while p >= 0 and name[p] != htilde:
                        p = parent[p]
                    if p >= 0:
                        coeff_in_htilde += d
        counts.update(st["counts"])
        for k, v in st["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)

    n_ops = max(len(states), 1)  # a run whose traced ops all crashed reports zeros
    stat_of = {"calls": calls, "self_s": self_s, "total_s": total_s}
    out = {
        f"{span}.{stat}": stat_of[stat][span] / n_ops
        for span, _, _, stats, _ in TARGETS for stat in stats
    }
    g1k_calls = calls["recurrence.GTable.g1k"]
    main_s = total_s["cli.main"] or 1.0
    out.update({
        "recurrence.GTable.rows_grown": counts["recurrence.GTable.rows_grown"] / n_ops,
        "recurrence.GTable.g1k.hit_ratio":
            g1k_hits / g1k_calls if g1k_calls else 0.0,
        "algebra.IntPoly.mul.coeff_products": counts["algebra.IntPoly.mul.coeff_products"] / n_ops,
        "algebra.IntPoly.mul.max_bits": maxima.get("algebra.IntPoly.mul.max_bits", 0),
        "algebra.XSeries.mul.coeff_products": counts["algebra.XSeries.mul.coeff_products"] / n_ops,
        "checks.checks_run": counts["checks.checks_run"] / n_ops,
        "checks.checks_passed": counts["checks.checks_passed"] / n_ops,
        "recurrence.GTable.coeff.op_share": total_s["recurrence.GTable.coeff"] / main_s,
        "genfun.Pipeline.htilde_over_kernel.op_share":
            total_s["genfun.Pipeline.htilde_over_kernel"] / main_s,
        "recurrence.GTable.coeff.op_share_in_htilde": coeff_in_htilde / main_s,
    })
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: spantrace.py SPAN_FILE OP_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    path, op_id, cli_argv = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer([t[0] for t in TARGETS])
    install(tracer)
    try:
        return sys.modules["flatperm.cli"].main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(path, op_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
