"""Paired benchmark runs of two checkouts, summarised into one BENCH json.

    python3 tools/bench_pairs.py --parent ../parent-checkout --workload clique \
        --seeds 301-310 --seconds 40 --trace-seed 1 --out BENCH_6.json

Runs ``perfbench/run.py`` of the parent checkout and of the change (this
checkout unless --change is given) alternately, one pair per seed: pair i
runs the parent first when i is even and the change first when i is odd.
Each run is a fresh process in its side's directory, so each side builds
what it runs from its own source.  After the pairs, one ``--trace 1`` run
per side at --trace-seed gives the per-layer metrics and the trace file
(self time per span, counters, op time by instance family).

The output holds, per workload and end-to-end metric, each side's runs,
median and quartiles and the number of pairs the change won (ties count
for neither side; the direction comes from BENCHMARK.json), plus each
run's failed/attempted/correct, the traced runs, the seeds and the
machine.  Per side it records the commit (when the side is a git
checkout), a digest of its src/qcongest and perfbench files and the
__pycache__ directories they held before the first run, and it records
whether PYTHONDONTWRITEBYTECODE was set: both decide whether an import
compiles from source, which setup_s times.  The output is rewritten
after every run, so an interrupted session keeps the pairs it finished.

    python3 tools/bench_pairs.py --parent ../parent-checkout --workload cycle \
        --inprocess-passes 8 --inprocess-seed 1 --out BENCH_20.json

With --inprocess-passes N, each workload also gets an in-process,
interleaved A/B comparison (`inprocess`), made after every run above so
that no run inherits this process's memory: both checkouts' `qcongest` and
`perfbench/workloads.py` are imported into this one process, each side
prepares and builds its pool at --inprocess-seed and runs one warm-up
pass, and then the sides alternate whole passes in ABBA order, N per side.
It reports, per part of the workload and for the whole pass, each side's
warm-up pass time (`first_pass_s`: the first pass over freshly built
graphs, so it holds whatever a per-graph cache computes once), its minimum
and median time over the N passes, and the change/parent ratio of the
medians with a bootstrap 95% interval over passes, and it raises if any
op's `freeze` (answer and ledgers, or the exception it raised) or its
ledgers' `counts` (the CSV's queries column and the truncation counters,
which `freeze` leaves out) differ between the sides or between passes.
It also takes each op's minimum over the N passes and sums these per
part (`op_min_s`, with the change/parent ratio `op_min_ratio`) and per
instance family, the op's part and generator kind (`families`); a sum of
per-op minima drifts less between runs than a pass time does.  Alternating the order keeps drift
and warm-up from landing on one side (Mytkowicz et al., ASPLOS 2009;
Kalibera and Jones, ISMM 2013).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> List[int]:
    """'301-310' or '1,5,9' (or a mix) -> the list of seeds."""
    seeds: List[int] = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(directory: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run in `directory`; its result object and wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {directory} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = round(wall, 2)
    if trace:  # spans, counters and op time by instance family, per pass
        trace_file = directory / "perfbench" / "out" / f"trace-{workload}-seed{seed}.json"
        result["trace"] = json.loads(trace_file.read_text())
    return result


def summary(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(pairs: List[dict], directions: Dict[str, str]) -> Dict[str, dict]:
    out = {}
    for name, better in directions.items():
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
        losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
        out[name] = {
            "better": better,
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "parent": {**summary(parent), "runs": parent},
            "change": {**summary(change), "runs": change},
            "change_wins": wins,
            "parent_wins": losses,
            "pairs": len(pairs),
        }
    return out


def git_head(directory: Path) -> Optional[dict]:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(directory), *args], capture_output=True,
                              text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return None
    return {"head": head, "uncommitted_changes": bool(git("status", "--porcelain"))}


SOURCE_DIRS = ("src/qcongest", "perfbench")  # what a side's perfbench runs execute


def source_digest(directory: Path) -> str:
    """sha256 over the path (relative to the side) and bytes of each file
    under SOURCE_DIRS, bytecode caches and run outputs left out, so that a
    copy without .git still names what it ran."""
    digest = hashlib.sha256()
    for f in sorted(f for sub in SOURCE_DIRS for f in (directory / sub).rglob("*")
                    if f.is_file() and "__pycache__" not in f.parts
                    and f.relative_to(directory).parts[:2] != ("perfbench", "out")):
        data = f.read_bytes()
        digest.update(f"{f.relative_to(directory).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def side_facts(directory: Path) -> dict:
    """What one side measures: its commit (None outside a git checkout), a
    digest of its source files, and the __pycache__ directories under
    SOURCE_DIRS before any run (a module with a cached .pyc skips its
    compile at every import, which lands in setup_s)."""
    return {"git": git_head(directory), "source_sha256": source_digest(directory),
            "pycache_at_start": sorted(d.relative_to(directory).as_posix()
                                       for sub in SOURCE_DIRS
                                       for d in (directory / sub).rglob("__pycache__"))}


def machine() -> dict:
    facts = {"platform": platform.platform(), "python": platform.python_version(),
             "cpu_count": os.cpu_count()}
    for path, key, name in (("/proc/cpuinfo", "model name", "cpu_model"),
                            ("/proc/meminfo", "MemTotal", "mem_total")):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        facts[name] = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return facts


def load_side(directory: Path, tag: str) -> SimpleNamespace:
    """One checkout's `qcongest` modules and `perfbench/workloads.py`.

    `qcongest` is imported from the checkout's src/, and sys.modules gets
    back the `qcongest` modules it held before, so that the other checkout
    can import its own; the modules stay alive through the returned
    namespace, and none of them imports anything after import time.
    """
    def take() -> Dict[str, object]:
        return {m: sys.modules.pop(m) for m in list(sys.modules)
                if m == "qcongest" or m.startswith("qcongest.")}

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # as perfbench/run.py: numpy starts no BLAS pool
    src = str(directory / "src")
    before = take()
    sys.path.insert(0, src)
    try:
        importlib.import_module("qcongest")
        qc = SimpleNamespace(**{p.stem: importlib.import_module(f"qcongest.{p.stem}")
                                for p in sorted((directory / "src" / "qcongest").glob("*.py"))
                                if p.stem != "__init__"})
    finally:
        sys.path.remove(src)
        take()
        sys.modules.update(before)
    spec = importlib.util.spec_from_file_location(f"workloads_{tag}",
                                                  directory / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return SimpleNamespace(qc=qc, workloads=workloads)


def answer_counts(answer) -> tuple:
    """The nonzero counters of each ledger of an answer (label -> (found,
    ledger, second ledger or None)), per label: what `freeze` leaves out."""
    return tuple((label, *(sorted((+led.counts).items()) if led is not None else None
                           for led in ledgers))
                 for label, (_, *ledgers) in sorted(answer.items()))


def ratio_interval(parent: List[float], change: List[float], resamples: int = 2000,
                   seed: int = 0) -> Dict[str, float]:
    """Change/parent ratio of the median pass times, with a bootstrap 95%
    interval: both sides' passes resampled with replacement."""
    rng = random.Random(seed)
    ratios = sorted(statistics.median(rng.choices(change, k=len(change)))
                    / statistics.median(rng.choices(parent, k=len(parent)))
                    for _ in range(resamples))
    return {"ratio": statistics.median(change) / statistics.median(parent),
            "lo": ratios[int(0.025 * resamples)], "hi": ratios[int(0.975 * resamples) - 1]}


def inprocess(sides: Dict[str, Path], workload: str, seed: Optional[int], passes: int,
              tiny: bool = False) -> dict:
    """The in-process interleaved comparison of the parent and the change
    (see the module docstring): per part and for the whole pass, each
    side's warm-up and later pass times, their minimum and median, and the
    ratio."""
    loaded = {side: load_side(d, side) for side, d in sides.items()}
    pools = {}
    for side, ns in loaded.items():
        work = ns.workloads.WORKLOADS[workload]
        pool = work.prepare(ns.qc, seed, tiny)
        ns.workloads.build(ns.qc, pool)
        work.warm(ns.qc)
        pools[side] = (work, pool)

    def one_pass(side: str):
        work, pool = pools[side]
        qc, freeze = loaded[side].qc, loaded[side].workloads.freeze
        times: Dict[str, float] = {}
        op_times, frozen = [], []
        gc.collect()
        for inst in pool:
            t0 = time.perf_counter()
            try:
                answer = work.execute(qc, inst)
            except Exception as exc:  # an op that raises must raise alike on both sides
                answer = exc
            op_times.append(time.perf_counter() - t0)
            times[inst.part] = times.get(inst.part, 0.0) + op_times[-1]
            frozen.append((f"{type(answer).__name__}: {answer}", None)
                          if isinstance(answer, Exception)
                          else (freeze(answer), answer_counts(answer)))
        times["pass"] = sum(times.values())
        return times, op_times, frozen

    first_times, first = {}, {}
    for side in sides:  # the warm-up passes
        first_times[side], _, first[side] = one_pass(side)
    if len(first["parent"]) != len(first["change"]):
        raise AssertionError(f"{workload}: the sides' pools differ in size")
    for what, key in (("freeze", 0), ("count", 1)):
        differ = [i for i, (a, b) in enumerate(zip(first["parent"], first["change"]))
                  if a[key] != b[key]]
        if differ:
            raise AssertionError(f"{workload}: ops {differ[:20]} {what} differently "
                                 f"on the two sides")
    runs: Dict[str, Dict[str, List[float]]] = {side: {} for side in sides}
    op_min: Dict[str, List[float]] = {}  # side -> each op's minimum over the passes
    for i in range(passes):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times, op_times, frozen = one_pass(side)
            if frozen != first[side]:
                raise AssertionError(f"{workload}: {side}'s answers or counts changed in pass {i}")
            for part, t in times.items():
                runs[side].setdefault(part, []).append(t)
            op_min[side] = list(map(min, zip(op_min.get(side, op_times), op_times)))

    def op_min_sums(groups: Dict[str, List[int]]) -> Dict[str, dict]:
        out = {}
        for group, ops in groups.items():
            sums = {side: sum(op_min[side][i] for i in ops) for side in sides}
            out[group] = {"ops": len(ops), **{f"{side}_op_min_s": t for side, t in sums.items()},
                          "op_min_ratio": sums["change"] / sums["parent"]}
        return out

    pool = pools["parent"][1]
    by_part: Dict[str, List[int]] = {"pass": list(range(len(pool)))}
    by_family: Dict[str, List[int]] = {}
    for i, inst in enumerate(pool):
        by_part.setdefault(inst.part, []).append(i)
        by_family.setdefault(f"{inst.part}/{inst.kind}", []).append(i)
    part_sums = op_min_sums(by_part)
    parts = {}
    for part in runs["parent"]:
        parent, change = runs["parent"][part], runs["change"][part]
        parts[part] = {
            **{side: {"first_pass_s": first_times[side][part], "min_s": min(r),
                      "median_s": statistics.median(r), "runs_s": r,
                      "op_min_s": part_sums[part][f"{side}_op_min_s"]}
               for side, r in (("parent", parent), ("change", change))},
            **ratio_interval(parent, change),
            "op_min_ratio": part_sums[part]["op_min_ratio"],
        }
    return {"seed": seed, "passes_per_side": passes, "ops_per_pass": len(first["parent"]),
            "order": "warm-up pass per side, then ABBA: pass i runs the parent first "
                     "when i is even", "freeze_equal": True, "parts": parts,
            "families": op_min_sums(by_family)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--seeds", type=parse_seeds, default=[],
                        help="one pair per seed, e.g. 301-310 (omitted: no pairs)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="seed of one traced run per side and workload (omitted: none)")
    parser.add_argument("--inprocess-passes", type=int, default=0,
                        help="passes per side of the in-process A/B comparison (0: none)")
    parser.add_argument("--inprocess-seed", type=int, default=1,
                        help="pool seed of the in-process comparison")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not args.seeds and args.inprocess_passes < 1:
        parser.error("give --seeds, --inprocess-passes or both")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "machine": machine(),
        "command": f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "sides": {side: side_facts(d) for side, d in sides.items()},
        # when set, no run writes .pyc files: a side without them compiles at every import
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seeds": args.seeds,
        "trace_seed": args.trace_seed,
        "order": "pair i runs the parent first when i is even, the change first when odd",
        "workloads": {},
    }

    def write() -> None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    for workload in args.workload:
        entry = report["workloads"].setdefault(workload, {"pairs": []})
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(sides[side], workload, seed, args.seconds, trace=False)
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{k} {v['value']:.4g}"
                                  for k, v in pair[side]["metrics"].items()),
                      file=sys.stderr, flush=True)
            entry["pairs"].append(pair)
            entry["metrics"] = summarise(entry["pairs"], directions)
            write()
        if args.trace_seed is not None:
            entry["trace"] = {"seed": args.trace_seed}
            for side in ("parent", "change"):
                entry["trace"][side] = run_side(sides[side], workload, args.trace_seed,
                                                args.seconds, trace=True)
                write()
    # the in-process comparisons come after every run: this process grows
    # while they run, and a run started later reports that peak as its own
    # peak_rss_mb (Linux keeps ru_maxrss across exec)
    for workload in (args.workload if args.inprocess_passes > 0 else []):
        entry = report["workloads"][workload]
        entry["inprocess"] = inprocess(sides, workload, args.inprocess_seed,
                                       args.inprocess_passes)
        for part, got in entry["inprocess"]["parts"].items():
            print(f"{workload} in-process {part}: median "
                  f"{got['parent']['median_s']:.4f} -> {got['change']['median_s']:.4f} s, "
                  f"ratio {got['ratio']:.3f} [{got['lo']:.3f}, {got['hi']:.3f}]; "
                  f"first pass {got['parent']['first_pass_s']:.4f} -> "
                  f"{got['change']['first_pass_s']:.4f} s; per-op minima "
                  f"{got['parent']['op_min_s']:.4f} -> {got['change']['op_min_s']:.4f} s, "
                  f"ratio {got['op_min_ratio']:.3f}",
                  file=sys.stderr, flush=True)
        for family, got in entry["inprocess"]["families"].items():
            print(f"{workload} in-process {family} ({got['ops']} ops): per-op minima "
                  f"{got['parent_op_min_s']:.4f} -> {got['change_op_min_s']:.4f} s, "
                  f"ratio {got['op_min_ratio']:.3f}", file=sys.stderr, flush=True)
        write()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
