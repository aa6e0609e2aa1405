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
machine.  It is rewritten after every run, so an interrupted session
keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="checkout of the change (default: this one)")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one pair per seed, e.g. 301-310")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="seed of one traced run per side and workload (omitted: none)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "machine": machine(),
        "command": f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "sides": {side: git_head(d) for side, d in sides.items()},
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
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
