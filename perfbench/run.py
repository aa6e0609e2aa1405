"""Benchmark of the qcongest simulator: one workload, one process, one thread.

    python3 perfbench/run.py --workload clique --seed 1 --seconds 40 --trace 0

The simulator is imported from src/ beside this directory.  The last line
on stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones from a separate traced
run.  Diagnostics go to stderr; the result and the trace are also written
under perfbench/out/.

A run first prepares the pool's recipes from the seed, untimed.  It then
sets up SETUP_REPEATS times (import qcongest afresh, build the graphs from
the recipes, fill lazy caches) and keeps the median time.  It then runs
whole passes over the pool until less than half a pass of --seconds is
left, so that every run attempts the same operations a whole number of
times.  Last, outside the timed region, it checks every answer against the
references and the method's properties.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("graph", "intmath", "netsim", "qsearch", "cliquelist", "cliquedetect",
           "cycledetect")
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one thread: numpy starts no BLAS pool

import numpy  # noqa: E402,F401  third-party imports stay out of setup_s
import networkx  # noqa: E402,F401

from tracer import COUNT_METRICS, SPAN_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, build, freeze, rounds_charged  # noqa: E402


def import_qcongest() -> SimpleNamespace:
    """Import qcongest from ./src afresh: module code runs again every time."""
    for name in [m for m in sys.modules if m == "qcongest" or m.startswith("qcongest.")]:
        del sys.modules[name]
    importlib.import_module("qcongest")
    return SimpleNamespace(**{m: importlib.import_module(f"qcongest.{m}") for m in MODULES})


def setup(workload, pool, tracer=None):
    """The timed set-up: the program's import, graphs and lazy caches."""
    qc = import_qcongest()
    span = nullcontext
    if tracer is not None:
        tracer.install(qc)
        span = tracer.span
    build(qc, pool, span)
    workload.warm(qc)
    return qc


@dataclass
class Timed:
    """What the timed phase saw."""

    passes: int = 0
    elapsed: float = 0.0
    durations: List[float] = field(default_factory=list)  # every op of every pass
    op_s: List[float] = field(default_factory=list)  # seconds per pool instance, all passes
    answers: List = field(default_factory=list)  # first pass; None where the op raised
    raised: Dict[int, str] = field(default_factory=dict)
    changed_passes: List[int] = field(default_factory=list)
    pass_rounds: List[int] = field(default_factory=list)


def timed_phase(workload, qc, pool, seconds: float, tracer=None) -> Timed:
    """Whole passes over the pool until less than half a pass of time is left."""
    out = Timed(op_s=[0.0] * len(pool))
    frozen = None
    start = time.perf_counter()
    while True:
        answers = []
        for i, inst in enumerate(pool):
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        ans = workload.execute(qc, inst)
                else:
                    ans = workload.execute(qc, inst)
            except Exception as exc:  # an operation that raises is a failed operation
                ans = None
                out.raised[i] = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            out.durations.append(dt)
            out.op_s[i] += dt
            answers.append(ans)
        out.passes += 1
        this = [freeze(a) if a is not None else None for a in answers]
        if frozen is None:
            frozen, out.answers = this, answers
        elif this != frozen:
            out.changed_passes.append(out.passes)
        out.pass_rounds.append(sum(rounds_charged(a) for a in answers if a is not None))
        out.elapsed = time.perf_counter() - start
        if seconds - out.elapsed < out.elapsed / out.passes / 2:
            return out


def check(workload, qc, pool, timed: Timed) -> Tuple[List[Tuple[int, str]], List[str]]:
    """(failed pool indices with the reason, violated run-level properties)."""
    failures = []
    for i, (inst, ans) in enumerate(zip(pool, timed.answers)):
        if i in timed.raised:
            failures.append((i, timed.raised[i]))
            continue
        workload.reference(qc, inst)
        problem = workload.check(inst, ans)
        if problem is not None:
            failures.append((i, problem))
    kept = [i for i in range(len(pool)) if i not in timed.raised]
    problems = workload.properties([pool[i] for i in kept], [timed.answers[i] for i in kept])
    if timed.changed_passes:
        problems.append(f"answers or ledgers changed in passes {timed.changed_passes}")
    if len(set(timed.pass_rounds)) != 1:
        problems.append(f"rounds charged differ between passes: {timed.pass_rounds}")
    return failures, problems


def run(workload_name: str, seed, seconds: float, trace: bool,
        tiny: bool = False) -> Tuple[dict, Optional[dict]]:
    """One benchmark run: (result object, trace file contents or None)."""
    workload = WORKLOADS[workload_name]
    tracer = Tracer() if trace else None
    pool = workload.prepare(import_qcongest(), seed, tiny)
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        qc = None  # each set-up starts from the same heap
        for inst in pool:
            inst.graph = None
        gc.collect()
        t0 = time.perf_counter()
        qc = setup(workload, pool, tracer)
        setup_times.append(time.perf_counter() - t0)
    build_s = tracer.self_s["graph.build"] if trace else 0.0
    if trace:
        tracer.reset()
    log(f"{workload_name}: {len(pool)} ops per pass, setup "
        + ", ".join(f"{t:.3f}" for t in setup_times) + " s")

    timed = timed_phase(workload, qc, pool, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer.uninstall()
    attempted = timed.passes * len(pool)
    log(f"{timed.passes} passes, {attempted} ops in {timed.elapsed:.2f} s; "
        f"rounds charged per pass {timed.pass_rounds[0]}")

    failures, problems = check(workload, qc, pool, timed)
    for i, why in failures[:20]:
        log(f"FAILED op {i} ({pool[i].kind}, size {pool[i].size}, seed {pool[i].seed}): {why}")
    for p in problems:
        log(f"PROPERTY VIOLATED: {p}")

    if trace:
        metrics = layer_metrics(tracer, timed, build_s, pool)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": attempted / timed.elapsed, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(timed.durations) * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": timed.passes * len(failures),
        "metrics": metrics,
    }
    if not trace:
        return result, None
    by_kind: Dict[str, float] = {}
    for inst, t in zip(pool, timed.op_s):
        key = f"{inst.part}/{inst.kind}/{inst.size}"
        by_kind[key] = by_kind.get(key, 0.0) + t / timed.passes
    spans = {name: {"self_s": tracer.self_s[name] / timed.passes,
                    "calls": tracer.calls[name] / timed.passes}
             for name in sorted(tracer.calls)}
    counts = {k: v / timed.passes for k, v in sorted(tracer.counts.items())}
    return result, {"passes": timed.passes, "spans_per_pass": spans,
                    "counts_per_pass": counts, "op_s_per_pass_by_kind": by_kind}


def layer_metrics(tracer, timed: Timed, build_s: float, pool) -> dict:
    """Per-pass self seconds and counts; graph.build_s is per set-up."""
    passes = timed.passes
    metrics = {}
    for name, (span, what) in SPAN_METRICS.items():
        if what == "s":
            value = build_s if name == "graph.build_s" else tracer.self_s[span] / passes
            metrics[name] = {"value": value, "unit": "s"}
        else:
            metrics[name] = {"value": tracer.calls[span] / passes, "unit": "count"}
    for name in COUNT_METRICS:
        metrics[name] = {"value": tracer.counts[name] / passes, "unit": "count"}
    metrics["netsim.rounds_charged"] = {"value": timed.pass_rounds[0], "unit": "count"}
    for family, positive in (("positive", True), ("negative", False)):
        total = sum(t for inst, t in zip(pool, timed.op_s) if bool(inst.positive) == positive)
        metrics[f"op.{family}_s"] = {"value": total / passes, "unit": "s"}
    return metrics


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="instance seed; omitted: the acceptance suite's instances")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcongest" / "__init__.py").is_file():
        log(f"no simulator source at {SRC}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    result, trace = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace is not None:
        (OUT / f"trace-{tag}.json").write_text(json.dumps(trace, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
