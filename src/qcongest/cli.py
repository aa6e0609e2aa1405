"""Experiment harness: generate graphs, run detections, sweep, verify, fit.

Every invocation is deterministic for fixed flags; result rows carry their
seed so any line of a CSV can be replayed.  Exit codes: 0 ran, 2 usage
error, 3 internal invariant violation (e.g. an oracle mismatch in verify).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import cliquedetect, cycledetect
from .cliquelist import list_kp
from .graph import GenSpec, Graph, GraphFormatError, generate, load_graph, oracle_has_clique, save_graph
from .netsim import CostLedger
from .qsearch import QuantumCostParams

CSV_HEADER = (
    "n,m,algo,params,rounds_total,rounds_route,rounds_broadcast,"
    "rounds_quantum,rounds_converge,queries,found,seed"
)


class UsageError(ValueError):
    """Bad flag combination; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    command: str
    graph_path: Optional[str] = None
    gen: Optional[GenSpec] = None
    q: Optional[int] = None
    ell: Optional[int] = None
    p: Optional[int] = None
    t: Optional[int] = None
    strategy: Optional[str] = None
    mode: str = "full"
    n_list: Tuple[int, ...] = ()
    m_list: Tuple[int, ...] = ()
    algo: Optional[str] = None
    trials: int = 1
    seed: int = 0
    c_grover: str = "1"
    reps: int = 1
    fail_prob: float = 0.0
    packing: bool = True
    out: Optional[str] = None
    json_out: bool = False
    in_path: Optional[str] = None
    x_col: str = "n"
    y_col: str = "rounds_total"
    edge_prob: float = 0.5

    def quantum_params(self) -> QuantumCostParams:
        return QuantumCostParams(
            c_grover=Fraction(self.c_grover), reps=self.reps, fail_prob=self.fail_prob
        )


@dataclass
class ResultRow:
    n: int
    m: int
    algo: str
    params: str
    rounds_total: int
    rounds_route: int
    rounds_broadcast: int
    rounds_quantum: int
    rounds_converge: int
    queries: int
    found: Optional[bool]
    seed: int

    def to_csv_line(self) -> str:
        found = "" if self.found is None else str(int(self.found))
        return (
            f"{self.n},{self.m},{self.algo},{self.params},{self.rounds_total},"
            f"{self.rounds_route},{self.rounds_broadcast},{self.rounds_quantum},"
            f"{self.rounds_converge},{self.queries},{found},{self.seed}"
        )

    @classmethod
    def from_ledger(
        cls, n: int, m: int, algo: str, params: str, ledger: CostLedger,
        queries: int, found: Optional[bool], seed: int,
    ) -> "ResultRow":
        by_kind = ledger.total_by_kind()
        return cls(
            n=n, m=m, algo=algo, params=params,
            rounds_total=ledger.total(),
            rounds_route=by_kind["route"],
            rounds_broadcast=by_kind["broadcast"],
            rounds_quantum=by_kind["quantum"],
            rounds_converge=by_kind["converge"],
            queries=queries, found=found, seed=seed,
        )


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in rows:
        buf.write(row.to_csv_line() + "\n")
    return buf.getvalue()


def rows_from_csv(text: str) -> List[ResultRow]:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for rec in reader:
        rows.append(
            ResultRow(
                n=int(rec["n"]), m=int(rec["m"]), algo=rec["algo"],
                params=rec["params"],
                rounds_total=int(rec["rounds_total"]),
                rounds_route=int(rec["rounds_route"]),
                rounds_broadcast=int(rec["rounds_broadcast"]),
                rounds_quantum=int(rec["rounds_quantum"]),
                rounds_converge=int(rec["rounds_converge"]),
                queries=int(rec["queries"]),
                found=None if rec["found"] == "" else bool(int(rec["found"])),
                seed=int(rec["seed"]),
            )
        )
    return rows


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log2(y) against log2(x)."""
    import math

    if len(xs) < 3:
        raise ValueError("need at least 3 rows to fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("fit requires positive values")
    lx = [math.log2(x) for x in xs]
    ly = [math.log2(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    den = sum((a - mx) ** 2 for a in lx)
    if den == 0:
        raise ValueError("x values are all equal")
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den


def fit_rows(rows: Sequence[ResultRow], x_col: str, y_col: str) -> float:
    xs = [float(getattr(r, x_col)) for r in rows]
    ys = [float(getattr(r, y_col)) for r in rows]
    return fit_slope(xs, ys)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _params_text(cfg: ExperimentConfig, **extra) -> str:
    bits = []
    for key, val in extra.items():
        bits.append(f"{key}={val}")
    bits.append(f"cg={cfg.c_grover}")
    bits.append(f"reps={cfg.reps}")
    bits.append(f"fp={cfg.fail_prob:g}")
    bits.append("packing=" + ("on" if cfg.packing else "off"))
    return ";".join(bits)


def _resolve_graph(cfg: ExperimentConfig, seed: Optional[int] = None) -> Graph:
    if cfg.graph_path is not None:
        return load_graph(cfg.graph_path)
    if cfg.gen is not None:
        spec = cfg.gen if seed is None else GenSpec(
            kind=cfg.gen.kind, n=cfg.gen.n, edge_prob=cfg.gen.edge_prob,
            planted_size=cfg.gen.planted_size, seed=seed,
        )
        return generate(spec)
    raise UsageError("need --graph or --gen")


def _plan(graph: Graph, cfg: ExperimentConfig) -> cliquedetect.DetectionPlan:
    """The planned strategy; a --strategy that cannot run here is a usage error."""
    try:
        return cliquedetect.plan_strategy(graph.n, graph.m, cfg.q, cfg.strategy)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def run_detect_clique(cfg: ExperimentConfig) -> List[ResultRow]:
    if cfg.q is None:
        raise UsageError("detect-clique needs --q")
    graph = _resolve_graph(cfg)
    ledger = CostLedger()
    stats: Dict[str, int] = {}
    params = cfg.quantum_params()
    plan = _plan(graph, cfg) if graph.m > 0 and cfg.q <= graph.n else None
    found = cliquedetect.detect_clique(
        graph, cfg.q, ledger, strategy=cfg.strategy, seed=cfg.seed,
        params=params, stats=stats, packing=cfg.packing,
    )
    algo = plan.strategy if plan else "degenerate"
    ptext = _params_text(cfg, q=cfg.q, strategy=algo,
                         p=plan.p if plan else 0, t=plan.t if plan else 0)
    return [ResultRow.from_ledger(graph.n, graph.m, algo, ptext, ledger,
                                  stats.get("queries", 0), found, cfg.seed)]


def run_detect_cycle(cfg: ExperimentConfig) -> List[ResultRow]:
    if cfg.ell is None:
        raise UsageError("detect-cycle needs --ell")
    graph = _resolve_graph(cfg)
    if cfg.ell > graph.n:
        raise UsageError(f"--ell {cfg.ell} exceeds the graph's n = {graph.n}")
    ledger = CostLedger()
    stats: Dict[str, int] = {}
    params = cfg.quantum_params()
    if cfg.ell % 2 == 1:
        found = cycledetect.detect_odd_cycle(
            graph, cfg.ell, ledger, seed=cfg.seed, params=params, stats=stats
        )
        algo = "odd-cycle"
    else:
        found = cycledetect.detect_even_cycle(
            graph, cfg.ell, ledger, seed=cfg.seed, params=params, stats=stats
        )
        algo = "even-cycle"
    ptext = _params_text(cfg, ell=cfg.ell)
    return [ResultRow.from_ledger(graph.n, graph.m, algo, ptext, ledger,
                                  stats.get("queries", 0), found, cfg.seed)]


def run_list(cfg: ExperimentConfig) -> Tuple[List[ResultRow], str]:
    if cfg.p is None:
        raise UsageError("list needs --p")
    graph = _resolve_graph(cfg)
    ledger = CostLedger()
    inv = list_kp(graph, cfg.p, ledger)
    row = ResultRow.from_ledger(
        graph.n, graph.m, "list-kp", _params_text(cfg, p=cfg.p), ledger,
        0, None, cfg.seed,
    )
    return [row], inv.dump()


def _sweep_pairs(cfg: ExperimentConfig) -> List[Tuple[int, int]]:
    if not cfg.n_list:
        raise UsageError("sweep needs --n-list")
    if cfg.m_list:
        if len(cfg.m_list) != len(cfg.n_list):
            raise UsageError("--m-list must match --n-list in length")
        return list(zip(cfg.n_list, cfg.m_list))
    return [(n, n * (n - 1) // 2) for n in cfg.n_list]


def run_sweep(cfg: ExperimentConfig) -> List[ResultRow]:
    if cfg.algo is None:
        raise UsageError("sweep needs --algo")
    if cfg.ell is not None and cfg.algo in ("odd-cycle", "even-cycle") \
            and cfg.algo != ("odd-cycle" if cfg.ell % 2 else "even-cycle"):
        parity = cfg.algo.split("-")[0]
        raise UsageError(f"--algo {cfg.algo} needs an {parity} --ell, got {cfg.ell}")
    params = cfg.quantum_params()
    rows: List[ResultRow] = []
    if cfg.mode == "cost-only":
        for n, m in _sweep_pairs(cfg):
            ledger = CostLedger()
            found: Optional[bool] = None
            if cfg.algo == "triangle15":
                cliquedetect.triangle_cost_only(n, m, ledger, params)
                extra = {"q": 3}
            elif cfg.algo == "plus1":
                p = cfg.p or 3
                cliquedetect.plus1_cost_only(n, m, p, ledger, params)
                extra = {"p": p}
            elif cfg.algo == "nested":
                p, t = cfg.p or 3, cfg.t or 1
                if not cliquedetect.nested_feasible(p, t):
                    raise UsageError(f"nested needs t <= 1 + log2(p-1), got p={p}, t={t}")
                cliquedetect.nested_cost_only(n, m, p, t, ledger, params)
                extra = {"p": p, "t": t}
            elif cfg.algo == "blackbox":
                t = cfg.t or 1
                cliquedetect.blackbox_cost_only(n, t, ledger, params,
                                                packing=cfg.packing)
                extra = {"t": t}
            elif cfg.algo == "sparse":
                t = cfg.t or 1
                cliquedetect.sparse_cost_only(n, m, t, ledger, params)
                extra = {"t": t}
            elif cfg.algo == "odd-cycle":
                ell = cfg.ell or 5
                cycledetect.odd_cycle_cost_only(n, ell, ledger, params)
                extra = {"ell": ell}
            elif cfg.algo == "even-cycle":
                ell = cfg.ell or 4
                found = cycledetect.even_cycle_cost_only(n, m, ell, ledger, params)
                extra = {"ell": ell}
            else:
                raise UsageError(f"unknown sweep algo {cfg.algo!r}")
            rows.append(ResultRow.from_ledger(
                n, m, cfg.algo, _params_text(cfg, **extra), ledger, 0, found,
                cfg.seed,
            ))
    elif cfg.mode == "full":
        for n in cfg.n_list:
            spec = GenSpec(kind="gnp", n=n, edge_prob=cfg.edge_prob, seed=cfg.seed)
            graph = generate(spec)
            sub = ExperimentConfig(**{**cfg.__dict__, "gen": spec, "graph_path": None})
            if cfg.algo in ("odd-cycle", "even-cycle"):
                sub.ell = cfg.ell or (5 if cfg.algo == "odd-cycle" else 4)
                rows.extend(run_detect_cycle(sub))
            else:
                sub.q = cfg.q or 3
                sub.strategy = None if cfg.algo == "auto" else cfg.algo
                rows.extend(run_detect_clique(sub))
    else:
        raise UsageError(f"unknown mode {cfg.mode!r}")
    rows.sort(key=lambda r: (r.n, r.seed))
    return rows


def run_verify(cfg: ExperimentConfig) -> Tuple[List[ResultRow], int]:
    """Detector-vs-oracle trials; returns (rows, mismatch count)."""
    if cfg.q is None:
        raise UsageError("verify needs --q")
    import random

    rows: List[ResultRow] = []
    mismatches = 0
    probs = (0.2, 0.5, 0.8)
    for trial in range(cfg.trials):
        seed = cfg.seed + trial
        rng = random.Random(seed)
        n = rng.randint(32, 64)
        if trial % 4 == 3:
            spec = GenSpec(kind="planted_clique", n=n, edge_prob=0.2,
                           planted_size=cfg.q, seed=seed)
        else:
            spec = GenSpec(kind="gnp", n=n, edge_prob=probs[trial % 3], seed=seed)
        graph = generate(spec)
        plan = _plan(graph, cfg)
        ledger = CostLedger()
        stats: Dict[str, int] = {}
        found = cliquedetect.detect_clique(
            graph, cfg.q, ledger, strategy=cfg.strategy, seed=seed,
            params=cfg.quantum_params(), stats=stats,
        )
        truth = oracle_has_clique(graph, cfg.q)
        if found != truth:
            mismatches += 1
        ptext = _params_text(cfg, q=cfg.q, strategy=plan.strategy, p=plan.p,
                             t=plan.t, oracle=int(truth))
        rows.append(ResultRow.from_ledger(
            graph.n, graph.m, plan.strategy, ptext, ledger,
            stats.get("queries", 0), found, seed,
        ))
    rows.sort(key=lambda r: (r.n, r.seed))
    return rows, mismatches


def run_experiment(cfg: ExperimentConfig) -> List[ResultRow]:
    """Dispatch a configuration to its command; deterministic for fixed cfg."""
    if cfg.command == "detect-clique":
        return run_detect_clique(cfg)
    if cfg.command == "detect-cycle":
        return run_detect_cycle(cfg)
    if cfg.command == "list":
        return run_list(cfg)[0]
    if cfg.command == "sweep":
        return run_sweep(cfg)
    if cfg.command == "verify":
        rows, mismatches = run_verify(cfg)
        if mismatches:
            raise RuntimeError(f"verify: {mismatches} oracle mismatches")
        return rows
    raise UsageError(f"run_experiment cannot dispatch {cfg.command!r}")


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------


def parse_gen_spec(text: str) -> GenSpec:
    parts = text.split(",")
    if len(parts) != 5:
        raise UsageError("--gen expects kind,n,prob,size,seed")
    kind = parts[0]
    try:
        n, prob, size, seed = int(parts[1]), float(parts[2]), int(parts[3]), int(parts[4])
    except ValueError:
        raise UsageError("--gen expects kind,n,prob,size,seed") from None
    spec = GenSpec(kind=kind, n=n, edge_prob=prob, planted_size=size, seed=seed)
    try:
        spec.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return spec


def _int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcongest",
                                 description="Congested-clique / CONGEST round-cost simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, graph_source: bool = True) -> None:
        if graph_source:
            p.add_argument("--graph")
            p.add_argument("--gen")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--c-grover", default="1")
        p.add_argument("--reps", type=int, default=1)
        p.add_argument("--fail-prob", type=float, default=0.0)
        p.add_argument("--packing", choices=("on", "off"), default="on")
        p.add_argument("--out")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="generate a graph file")
    common(p)
    p = sub.add_parser("detect-clique", help="run clique detection")
    common(p)
    p.add_argument("--q", type=int)
    p.add_argument("--strategy", choices=cliquedetect.STRATEGIES)
    p = sub.add_parser("detect-cycle", help="run cycle detection")
    common(p)
    p.add_argument("--ell", type=int)
    p = sub.add_parser("list", help="list p-cliques and dump the inventory")
    common(p)
    p.add_argument("--p", type=int)
    p = sub.add_parser("sweep", help="cost sweeps over n")
    common(p, graph_source=False)
    p.add_argument("--algo", required=True)
    p.add_argument("--mode", choices=("full", "cost-only"), default="cost-only")
    p.add_argument("--n-list")
    p.add_argument("--m-list")
    p.add_argument("--p", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p = sub.add_parser("verify", help="compare detection against the oracle")
    common(p, graph_source=False)
    p.add_argument("--q", type=int)
    p.add_argument("--strategy", choices=cliquedetect.STRATEGIES)
    p.add_argument("--trials", type=int, default=1)
    p = sub.add_parser("fit", help="log-log slope of a result CSV")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--x-col", default="n")
    p.add_argument("--y-col", default="rounds_total")
    p.add_argument("--json", action="store_true")
    return ap


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(command=args.command)
    for key in ("q", "ell", "p", "t", "strategy", "mode", "algo", "trials",
                "seed", "reps", "out", "in_path", "x_col", "y_col", "edge_prob"):
        if hasattr(args, key) and getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    if cfg.p is not None and cfg.p < 2:
        raise UsageError("--p must be >= 2")
    if cfg.q is not None and cfg.q < 3:
        raise UsageError("--q must be >= 3")
    if cfg.t is not None and cfg.t < 1:
        raise UsageError("--t must be >= 1")
    if cfg.ell is not None and cfg.ell < (5 if cfg.ell % 2 else 4):
        raise UsageError("--ell must be even and >= 4, or odd and >= 5")
    if getattr(args, "graph", None):
        cfg.graph_path = args.graph
    if getattr(args, "gen", None):
        cfg.gen = parse_gen_spec(args.gen)
    if getattr(args, "c_grover", None):
        cfg.c_grover = args.c_grover
    if getattr(args, "fail_prob", None) is not None:
        cfg.fail_prob = args.fail_prob
    try:
        cfg.quantum_params()
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --c-grover, --reps or --fail-prob: {exc}") from None
    if hasattr(args, "packing"):
        cfg.packing = args.packing == "on"
    if getattr(args, "json", False):
        cfg.json_out = True
    if getattr(args, "n_list", None):
        cfg.n_list = _int_list(args.n_list)
    if getattr(args, "m_list", None):
        cfg.m_list = _int_list(args.m_list)
    return cfg


def _emit(cfg: ExperimentConfig, rows: List[ResultRow], payload: Dict) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(rows))
    if cfg.json_out:
        print(json.dumps(payload, sort_keys=True))
    elif not cfg.out and rows:
        print(rows_to_csv(rows), end="")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        cfg = config_from_args(args)
        if cfg.command == "gen":
            graph = _resolve_graph(cfg)
            if not cfg.out:
                raise UsageError("gen needs --out")
            save_graph(graph, cfg.out)
            if cfg.json_out:
                print(json.dumps({"n": graph.n, "m": graph.m, "out": cfg.out},
                                 sort_keys=True))
            return 0
        if cfg.command == "detect-clique":
            rows = run_detect_clique(cfg)
            _emit(cfg, rows, {"found": rows[0].found,
                              "rounds_total": rows[0].rounds_total,
                              "algo": rows[0].algo})
            return 0
        if cfg.command == "detect-cycle":
            rows = run_detect_cycle(cfg)
            _emit(cfg, rows, {"found": rows[0].found,
                              "rounds_total": rows[0].rounds_total,
                              "algo": rows[0].algo})
            return 0
        if cfg.command == "list":
            rows, dump = run_list(cfg)
            if cfg.out:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(dump)
            else:
                print(dump, end="")
            if cfg.json_out:
                print(json.dumps({"cliques": dump.count("\n"),
                                  "rounds_total": rows[0].rounds_total},
                                 sort_keys=True))
            return 0
        if cfg.command == "sweep":
            rows = run_sweep(cfg)
            _emit(cfg, rows, {"rows": [r.to_csv_line() for r in rows]})
            return 0
        if cfg.command == "verify":
            rows, mismatches = run_verify(cfg)
            _emit(cfg, rows, {"trials": cfg.trials, "mismatches": mismatches})
            if mismatches:
                print(f"verify: {mismatches} oracle mismatches", file=sys.stderr)
                return 3
            return 0
        if cfg.command == "fit":
            try:
                with open(cfg.in_path, "r", encoding="utf-8") as fh:
                    rows = rows_from_csv(fh.read())
                slope = fit_rows(rows, cfg.x_col, cfg.y_col)
            except OSError as exc:
                raise UsageError(f"cannot read --in: {exc}") from None
            except (ValueError, KeyError, AttributeError) as exc:
                raise UsageError(f"cannot fit {cfg.in_path}: {exc!r}") from None
            if cfg.json_out:
                print(json.dumps({"slope": slope, "x": cfg.x_col, "y": cfg.y_col},
                                 sort_keys=True))
            else:
                print(f"{slope:.6f}")
            return 0
        raise UsageError(f"unknown command {cfg.command!r}")
    except (UsageError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
