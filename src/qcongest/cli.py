"""Experiment harness: generate graphs, run detections, sweep, verify, fit.

Every invocation is deterministic for fixed flags; result rows carry their
seed so any line of a CSV can be replayed.  Exit codes: 0 ran, 2 usage
error, 3 internal invariant violation (e.g. an oracle mismatch in verify).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import cliquedetect, cycledetect
from .cliquelist import list_kp
from .graph import (GenSpec, Graph, GraphFormatError, generate, load_graph, oracle_has_clique,
                    save_graph)
from .netsim import CostLedger
from .qsearch import QuantumCostParams


class UsageError(ValueError):
    """Bad flag combination; maps to exit code 2."""


@dataclass
class ResultRow:
    """One CSV row; its fields, in order, are the CSV columns."""

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
        return ",".join(_csv_cell(getattr(self, f.name)) for f in fields(self))

    @classmethod
    def from_ledger(
        cls, n: int, m: int, algo: str, params: str, ledger: CostLedger,
        found: Optional[bool], seed: int,
    ) -> "ResultRow":
        by_kind = ledger.total_by_kind()
        return cls(
            n=n, m=m, algo=algo, params=params,
            rounds_total=ledger.total(),
            rounds_route=by_kind["route"],
            rounds_broadcast=by_kind["broadcast"],
            rounds_quantum=by_kind["quantum"],
            rounds_converge=by_kind["converge"],
            queries=ledger.counts["queries"], found=found, seed=seed,
        )


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))

# a CSV cell back to its field's value, by the field's annotation
_PARSE_CELL = {"int": int, "str": str,
               "Optional[bool]": lambda cell: None if cell == "" else bool(int(cell))}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return str(int(value)) if isinstance(value, bool) else str(value)


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in rows:
        buf.write(row.to_csv_line() + "\n")
    return buf.getvalue()


def rows_from_csv(text: str) -> List[ResultRow]:
    return [ResultRow(**{f.name: _PARSE_CELL[f.type](rec[f.name]) for f in fields(ResultRow)})
            for rec in csv.DictReader(io.StringIO(text))]


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log2(y) against log2(x)."""
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


# ---------------------------------------------------------------------------
# command implementations: each takes the validated flags, returns the exit code
# ---------------------------------------------------------------------------


def _params_text(args: argparse.Namespace, **extra) -> str:
    """The params column of a row: `extra`, then the cost flags."""
    bits = [f"{key}={val}" for key, val in extra.items()]
    bits.append(f"cg={args.c_grover}")
    bits.append(f"reps={args.reps}")
    bits.append(f"fp={args.params.fail_prob:g}")
    return ";".join(bits)


def _clique_params_text(args: argparse.Namespace, **extra) -> str:
    """The params column of a clique row, which ends with its --packing
    (on unless set to off); only clique runs read --packing."""
    return _params_text(args, **extra) + f";packing={args.packing or 'on'}"


def _resolve_graph(args: argparse.Namespace) -> Graph:
    if args.graph:
        try:
            return load_graph(args.graph)
        except OSError as exc:
            raise UsageError(f"cannot read --graph: {exc}") from None
    if args.gen:
        return generate(args.gen)
    raise UsageError("need --graph or --gen")


@contextlib.contextmanager
def _out_errors() -> Iterator[None]:
    """Turn an --out that cannot be written into a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from None


def _emit(args: argparse.Namespace, rows: List[ResultRow], payload: Dict) -> None:
    if args.out:
        with _out_errors(), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rows_to_csv(rows))
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif not args.out and rows:
        print(rows_to_csv(rows), end="")


def _emit_detection(args: argparse.Namespace, row: ResultRow) -> int:
    _emit(args, [row], {"found": row.found, "rounds_total": row.rounds_total,
                        "algo": row.algo})
    return 0


def clique_row(args: argparse.Namespace, graph: Graph, q: int, strategy: Optional[str],
               seed: int, **extra) -> ResultRow:
    """Detect a q-clique under the cost flags; `extra` goes into params after t.

    A run that charges nothing (q > n or no edges) is labelled `degenerate`;
    a --strategy that cannot run on graph is a usage error.
    """
    plan, found, ledger = None, False, CostLedger()
    if not cliquedetect.degenerate(graph.n, graph.m, q):
        try:
            plan = cliquedetect.plan_strategy(graph.n, graph.m, q, strategy)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        found = cliquedetect.run_plan(graph, plan, ledger, seed=seed, params=args.params,
                                      packing=args.packing != "off")
    algo = plan.strategy if plan else "degenerate"
    ptext = _clique_params_text(args, q=q, strategy=algo, p=plan.p if plan else 0,
                                t=plan.t if plan else 0, **extra)
    return ResultRow.from_ledger(graph.n, graph.m, algo, ptext, ledger, found, seed)


def cycle_row(args: argparse.Namespace, graph: Graph, ell: int, seed: int) -> ResultRow:
    """Detect a C_ell under the cost flags by parity; a refused length is a usage error."""
    reason = cycledetect.inapplicable(graph.n, ell)
    if reason:
        raise UsageError(f"--ell: {reason}")
    ledger = CostLedger()
    if ell % 2 == 1:
        detect, algo = cycledetect.detect_odd_cycle, "odd-cycle"
    else:
        detect, algo = cycledetect.detect_even_cycle, "even-cycle"
    found = detect(graph, ell, ledger, seed=seed, params=args.params)
    return ResultRow.from_ledger(graph.n, graph.m, algo, _params_text(args, ell=ell),
                                 ledger, found, seed)


def run_gen(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args)
    if not args.out:
        raise UsageError("gen needs --out")
    with _out_errors():
        save_graph(graph, args.out)
    if args.json:
        print(json.dumps({"n": graph.n, "m": graph.m, "out": args.out}, sort_keys=True))
    return 0


def run_detect_clique(args: argparse.Namespace) -> int:
    if args.q is None:
        raise UsageError("detect-clique needs --q")
    graph = _resolve_graph(args)
    return _emit_detection(args, clique_row(args, graph, args.q, args.strategy, args.seed))


def run_detect_cycle(args: argparse.Namespace) -> int:
    if args.ell is None:
        raise UsageError("detect-cycle needs --ell")
    if args.packing is not None:
        raise UsageError("detect-cycle takes no --packing")
    graph = _resolve_graph(args)
    return _emit_detection(args, cycle_row(args, graph, args.ell, args.seed))


def run_list(args: argparse.Namespace) -> int:
    if args.p is None:
        raise UsageError("list needs --p")
    graph = _resolve_graph(args)
    ledger = CostLedger()
    # a degenerate question lists and charges nothing, as in detect-clique
    dump = ("" if cliquedetect.degenerate(graph.n, graph.m, args.p)
            else list_kp(graph, args.p, ledger).dump())
    if args.out:
        with _out_errors(), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump)
    else:
        print(dump, end="")
    if args.json:
        print(json.dumps({"cliques": dump.count("\n"), "rounds_total": ledger.total()},
                         sort_keys=True))
    return 0


def _sweep_pairs(args: argparse.Namespace) -> List[Tuple[int, int]]:
    if not args.m_list:
        return [(n, n * (n - 1) // 2) for n in args.n_list]
    if len(args.m_list) != len(args.n_list):
        raise UsageError("--m-list must match --n-list in length")
    for n, m in zip(args.n_list, args.m_list):
        if not 0 <= m <= n * (n - 1) // 2:
            raise UsageError(f"--m-list entry {m} is outside 0..n(n-1)/2 for n = {n}")
    return list(zip(args.n_list, args.m_list))


def run_sweep(args: argparse.Namespace) -> int:
    cycle = args.algo in ("odd-cycle", "even-cycle")
    full = args.mode == "full"
    # the flags each kind of sweep reads: a flag it would ignore is refused
    for flag, read in (("p", not (cycle or full)), ("t", not (cycle or full)),
                       ("q", full and not cycle), ("ell", cycle), ("m_list", not full),
                       ("edge_prob", full), ("fail_prob", full), ("packing", not cycle)):
        if getattr(args, flag) is not None and not read:
            raise UsageError(f"a {args.mode} {args.algo} sweep takes no "
                             f"--{flag.replace('_', '-')}")
    if cycle and args.ell is not None \
            and args.algo != ("odd-cycle" if args.ell % 2 else "even-cycle"):
        parity = args.algo.split("-")[0]
        raise UsageError(f"--algo {args.algo} needs an {parity} --ell, got {args.ell}")
    if not args.n_list:
        raise UsageError("sweep needs --n-list")
    params = args.params
    ell = args.ell if args.ell is not None else (5 if args.algo == "odd-cycle" else 4)
    rows: List[ResultRow] = []
    if not full:
        if not cycle and args.algo not in cliquedetect.STRATEGIES:
            raise UsageError(f"unknown sweep algo {args.algo!r}")
        p = args.p or (2 if args.algo == "triangle15" else 3)
        t = args.t or 1
        ptext = _params_text(args, ell=ell) if cycle else _clique_params_text(args, p=p, t=t)
        for n, m in _sweep_pairs(args):
            ledger = CostLedger()
            found: Optional[bool] = None
            algo = args.algo
            try:  # a question that full runs refuse is a usage error
                if cycle:
                    found = cycledetect.cycle_cost_only(n, m, ell, ledger, params)
                else:
                    cliquedetect.clique_cost_only(args.algo, n, m, p, t, ledger, params,
                                                  packing=args.packing != "off")
            except ValueError as exc:
                raise UsageError(f"{exc} (--n-list entry {n})") from None
            if not cycle and cliquedetect.degenerate(n, m, p + t):
                algo = "degenerate"
            rows.append(ResultRow.from_ledger(n, m, algo, ptext, ledger, found, args.seed))
    else:
        prob = 0.5 if args.edge_prob is None else args.edge_prob
        specs = [_checked(GenSpec(kind="gnp", n=n, edge_prob=prob, seed=args.seed))
                 for n in args.n_list]
        for graph in map(generate, specs):
            if cycle:
                rows.append(cycle_row(args, graph, ell, args.seed))
            else:
                strategy = None if args.algo == "auto" else args.algo
                rows.append(clique_row(args, graph, args.q or 3, strategy, args.seed))
    rows.sort(key=lambda r: (r.n, r.seed))
    _emit(args, rows, {"rows": [r.to_csv_line() for r in rows]})
    return 0


def run_verify(args: argparse.Namespace) -> int:
    """Detector-vs-oracle trials; exit 3 on any mismatch."""
    if args.q is None:
        raise UsageError("verify needs --q")
    rows: List[ResultRow] = []
    mismatches = 0
    probs = (0.2, 0.5, 0.8)
    for trial in range(args.trials):
        seed = args.seed + trial
        rng = random.Random(seed)
        n = rng.randint(32, 64)
        if trial % 4 == 3:
            spec = GenSpec(kind="planted_clique", n=n, edge_prob=0.2,
                           planted_size=args.q, seed=seed)
        else:
            spec = GenSpec(kind="gnp", n=n, edge_prob=probs[trial % 3], seed=seed)
        graph = generate(spec)
        truth = oracle_has_clique(graph, args.q)
        row = clique_row(args, graph, args.q, args.strategy, seed, oracle=int(truth))
        if row.found != truth:
            mismatches += 1
        rows.append(row)
    rows.sort(key=lambda r: (r.n, r.seed))
    _emit(args, rows, {"trials": args.trials, "mismatches": mismatches})
    if mismatches:
        print(f"verify: {mismatches} oracle mismatches", file=sys.stderr)
        return 3
    return 0


def run_fit(args: argparse.Namespace) -> int:
    try:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            rows = rows_from_csv(fh.read())
        slope = fit_slope([float(getattr(r, args.x_col)) for r in rows],
                          [float(getattr(r, args.y_col)) for r in rows])
    except OSError as exc:
        raise UsageError(f"cannot read --in: {exc}") from None
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise UsageError(f"cannot fit {args.in_path}: {exc!r}") from None
    if args.json:
        print(json.dumps({"slope": slope, "x": args.x_col, "y": args.y_col}, sort_keys=True))
    else:
        print(f"{slope:.6f}")
    return 0


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
    return _checked(GenSpec(kind=kind, n=n, edge_prob=prob, planted_size=size, seed=seed))


def _checked(spec: GenSpec) -> GenSpec:
    """spec, or a usage error that says why generate cannot build it."""
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

    def command(name: str, run, summary: str, graph_source: bool = True,
                search: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if graph_source:
            p.add_argument("--graph")
            p.add_argument("--gen")
        if search:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--c-grover", default="1")
            p.add_argument("--reps", type=int, default=1)
            p.add_argument("--fail-prob", type=float)
            p.add_argument("--packing", choices=("on", "off"))
        p.add_argument("--out")
        p.add_argument("--json", action="store_true")
        return p

    command("gen", run_gen, "generate a graph file", search=False)
    p = command("detect-clique", run_detect_clique, "run clique detection")
    p.add_argument("--q", type=int)
    p.add_argument("--strategy", choices=cliquedetect.STRATEGIES)
    p = command("detect-cycle", run_detect_cycle, "run cycle detection")
    p.add_argument("--ell", type=int)
    p = command("list", run_list, "list p-cliques and dump the inventory", search=False)
    p.add_argument("--p", type=int)
    p = command("sweep", run_sweep, "cost sweeps over n", graph_source=False)
    p.add_argument("--algo", required=True)
    p.add_argument("--mode", choices=("full", "cost-only"), default="cost-only")
    p.add_argument("--n-list", default="")
    p.add_argument("--m-list")
    p.add_argument("--p", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--edge-prob", type=float)
    p = command("verify", run_verify, "compare detection against the oracle",
                graph_source=False)
    p.add_argument("--q", type=int)
    p.add_argument("--strategy", choices=cliquedetect.STRATEGIES)
    p.add_argument("--trials", type=int, default=1)
    p = sub.add_parser("fit", help="log-log slope of a result CSV")
    p.set_defaults(run=run_fit)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--x-col", default="n")
    p.add_argument("--y-col", default="rounds_total")
    p.add_argument("--json", action="store_true")
    return ap


def validate_args(args: argparse.Namespace) -> None:
    """Reject out-of-range flags; parse --gen, the n/m lists and the cost flags in place."""
    flags = vars(args)
    if flags.get("p") is not None and args.p < 2:
        raise UsageError("--p must be >= 2")
    if flags.get("q") is not None and args.q < 3:
        raise UsageError("--q must be >= 3")
    if flags.get("t") is not None and args.t < 1:
        raise UsageError("--t must be >= 1")
    if flags.get("trials") is not None and args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if flags.get("edge_prob") is not None and not 0 <= args.edge_prob <= 1:
        raise UsageError("--edge-prob must be in [0, 1]")
    if flags.get("gen"):
        args.gen = parse_gen_spec(args.gen)
    if "c_grover" in flags:
        args.c_grover = args.c_grover or "1"  # an empty --c-grover keeps the default
        try:
            args.params = QuantumCostParams(c_grover=Fraction(args.c_grover), reps=args.reps,
                                            fail_prob=args.fail_prob or 0.0)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --c-grover, --reps or --fail-prob: {exc}") from None
    if "n_list" in flags:
        args.n_list = _int_list(args.n_list)
        if args.m_list is not None:
            args.m_list = _int_list(args.m_list)
        if any(n < 1 for n in args.n_list):
            raise UsageError("--n-list entries must be >= 1")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        validate_args(args)
        return args.run(args)
    except (UsageError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
