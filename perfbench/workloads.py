"""The workloads: inputs from a seed, the timed operation, the checks.

The benchmark has two workloads, `clique` and `cycle`.  Each runs the pools
of two parts as one pool (`Mixed`): clique-verify and clique-scale, and
cycle-detect and cycle-protocol.  Each part prepares a fixed pool of
instances from `--seed` and runs one operation per instance; a pass is the
whole pool.  Preparing is untimed: it makes each instance's recipe (a
`generate()` spec or an edge list), and it makes every choice between draws.
The timed set-up then only builds the graphs from the recipes (`build`).
The operation calls the simulator through its module attributes
(``qc.cliquedetect.detect_clique``) so that a traced run sees every call.
Answers are checked against references computed here without the
simulator: truth by construction or networkx.

Seeds: with no seed the instance recipes reproduce the acceptance suite's
own instances (criterion 1's first 48 for clique-verify, criterion 8 for
cycle-detect); with a seed s they draw fresh instances from the same
recipes, with instance seeds offset by (s + 1) * 10**6 so that no seed
repeats an acceptance instance.  Only with a seed are some draws replaced:
clique-verify's G(n, p) draws of atypical edge count, and cycle-detect's C6
draws that raise the leader fault (see `planted_cycle`).
"""

from __future__ import annotations

import itertools
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

GNP_PROBS = (0.2, 0.5, 0.8)  # criterion 1
CYCLE_LENS = (4, 5, 6, 7)
PLANTED_HIT_RATE = 0.99  # criterion 8 completeness, per cycle length
STRATEGY_LEDGERS_EQUAL = ("triangle15", "plus1", "nested")  # full == cost-only
LEADER_FAULT = "disconnected from node 0"  # RuntimeError of CongestNet.require_reachable
KNOWN_FAULTS = ("c6_apart",)  # instance kinds whose op raises in every pass


# how set-up makes a graph: ("generate", GenSpec fields) or ("graph", n, edges)
Recipe = Tuple


@dataclass
class Instance:
    """One operation's input, plus what the checks know about it."""

    recipe: Recipe  # instances that share a recipe object share the graph
    kind: str  # generator family: gnp, planted_clique, bipartite, forest, ...
    size: int  # q for cliques, the cycle length for cycles
    seed: int  # detection seed handed to the program
    positive: Optional[bool]  # known by construction, else set by the reference
    planted: Tuple[int, ...] = ()  # planted clique nodes, or planted cycle in order
    ref: Dict = field(default_factory=dict)
    graph: object = None  # made from the recipe by build()
    part: str = ""  # the part of a mixed workload that made the instance


# Answer: label -> (found, ledger, second ledger or None); the labels are the
# strategy names for cliques and the engine name for cycles.
Answer = Dict[str, Tuple[bool, object, Optional[object]]]


def spec(**fields) -> Recipe:
    return ("generate", fields)


def build(qc, pool: List[Instance], span=nullcontext) -> None:
    """Make every instance's graph from its recipe: the program's set-up work.

    `generate` is traced as graph.build by the tracer; `Graph(...)` here.
    """
    made = {}
    for inst in pool:
        key = id(inst.recipe)
        if key not in made:
            if inst.recipe[0] == "generate":
                made[key] = qc.graph.generate(qc.graph.GenSpec(**inst.recipe[1]))
            else:
                with span("graph.build"):
                    made[key] = qc.graph.Graph(inst.recipe[1], inst.recipe[2])
        inst.graph = made[key]


def instance_seed(seed: Optional[int], i: int) -> int:
    return i if seed is None else (seed + 1) * 10**6 + i


def ledger_rows(ledger) -> Tuple[Tuple[str, str, str, int], ...]:
    return tuple((e.phase, e.model, e.kind, e.rounds) for e in ledger.entries)


def freeze(answer: Answer) -> Tuple:
    """Comparable form of an answer: found flags and ledger rows."""
    return tuple(
        (label, found, ledger_rows(full), ledger_rows(other) if other is not None else None)
        for label, (found, full, other) in sorted(answer.items())
    )


def rounds_charged(answer: Answer) -> int:
    total = 0
    for _, full, other in answer.values():
        total += full.total() + (other.total() if other is not None else 0)
    return total


# ---------------------------------------------------------------------------
# generators written here (the program's own `generate` covers gnp/planted)
# ---------------------------------------------------------------------------


def forest_edges(n: int, seed: int) -> List[Tuple[int, int]]:
    """Criterion 8's forest: each node attaches to an earlier one w.p. 0.9."""
    rng = random.Random(seed)
    return [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9]


def bipartite_edges(n: int, avg_degree: float, seed: int) -> List[Tuple[int, int]]:
    """Random bipartition, cross pairs joined independently."""
    rng = random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    prob = min(1.0, 2.0 * avg_degree / n)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if side[u] != side[v] and rng.random() < prob]


def high_girth_edges(n: int, ell: int, avg_degree: float, seed: int) -> List[Tuple[int, int]]:
    """Random edges, each joining a random node to a random node at distance >= ell.

    Every cycle closed by an added edge has length >= ell + 1, so the
    girth exceeds ell.  Stops at the target degree or when random nodes
    keep finding no partner that far away.
    """
    rng = random.Random(seed)
    adj: List[set] = [set() for _ in range(n)]
    target = int(avg_degree * n / 2)
    edges: List[Tuple[int, int]] = []
    for _ in range(2 * target):
        if len(edges) >= target:
            break
        u = rng.randrange(n)
        near = _ball(adj, u, ell - 1)
        far = [v for v in range(n) if v not in near]
        if not far:
            continue
        v = rng.choice(far)
        adj[u].add(v)
        adj[v].add(u)
        edges.append((min(u, v), max(u, v)))
    return edges


def _ball(adj: List[set], src: int, radius: int) -> set:
    """Nodes within `radius` hops of src."""
    seen = {src}
    frontier = [src]
    for _ in range(radius):
        frontier = [w for u in frontier for w in adj[u] if w not in seen]
        seen.update(frontier)
    return seen


def relabel(n: int, edges, rng: random.Random) -> Tuple[List[Tuple[int, int]], List[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]
    return out, perm


def nx_graph(graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges())
    return g


def has_clique(g: nx.Graph, q: int) -> bool:
    """Some maximal clique (Bron-Kerbosch, networkx) has >= q nodes."""
    return any(len(c) >= q for c in nx.find_cliques(g))


# ---------------------------------------------------------------------------
# workload base
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    cycle_lens: Tuple[int, ...] = ()

    def prepare(self, qc, seed: Optional[int], tiny: bool) -> List[Instance]:
        """The pool's recipes; untimed, and may call the program to choose draws."""
        raise NotImplementedError

    def warm(self, qc) -> None:
        """Fill the program's lazy caches, as any caller pays once."""
        for ell in self.cycle_lens:
            qc.cycledetect.single_rep_success(ell)

    def execute(self, qc, inst: Instance) -> Answer:
        raise NotImplementedError

    def reference(self, qc, inst: Instance) -> None:
        """Fill inst.ref (and inst.positive) without timing."""

    def check(self, inst: Instance, answer: Answer) -> Optional[str]:
        """Reason the operation failed, or None."""
        raise NotImplementedError

    def properties(self, pool: List[Instance], answers: List[Answer]) -> List[str]:
        """Run-level properties of the method that the answers must show."""
        return []


def _one_sided(inst: Instance, answer: Answer) -> Optional[str]:
    """A found on a negative is forbidden; a miss on a positive is allowed."""
    for label, (found, _, _) in answer.items():
        if found and not inst.positive:
            return f"{label}: found on a negative ({inst.kind})"
    return None


# ---------------------------------------------------------------------------
# clique-verify: criterion 1
# ---------------------------------------------------------------------------


class CliqueVerify(Workload):
    """G(n,p), p in {0.2,0.5,0.8}, and planted cliques; n 32..64, q 4..7.

    Instance i has q = 4 + i % 4; i % 4 == 3 is a planted q-clique in
    G(n, 0.2), the others G(n, p) with p = GNP_PROBS[i % 3] (criterion 1).

    With a seed, two draws of criterion 1 are steadied, because K_p listing
    and extension cost grows like n^5 and, on G(n, 0.8), like m^15 or more,
    so that a few instances set the pass time:
    n runs over an even grid of 32..64 in each of the twelve (q, p) strata,
    and a G(n, p) draw is kept only when its edge count lies within a
    quarter of a standard deviation of p * C(n, 2) (generate() is called
    with the next spec seed until one is).
    """

    name = "clique-verify"
    per_stratum = 4

    def prepare(self, qc, seed, tiny):
        per = 1 if tiny else self.per_stratum
        pool = []
        for i in range(12 * per):
            s = instance_seed(seed, i)
            q = 4 + i % 4
            n = random.Random(1000 + i).randint(32, 64) if seed is None else self.grid_n(i, per)
            if i % 4 == 3:
                recipe = spec(kind="planted_clique", n=n, edge_prob=0.2, planted_size=q, seed=s)
                pool.append(Instance(recipe, "planted_clique", q, s, True, tuple(range(q))))
            elif seed is None:
                recipe = spec(kind="gnp", n=n, edge_prob=GNP_PROBS[i % 3], seed=s)
                pool.append(Instance(recipe, "gnp", q, s, None))
            else:
                pool.append(Instance(self.typical_gnp(qc, n, GNP_PROBS[i % 3], s), "gnp", q, s,
                                     None))
        return pool

    @staticmethod
    def grid_n(i: int, per: int) -> int:
        return 32 + (i // 12) * 32 // (per - 1) if per > 1 else 32

    @staticmethod
    def typical_gnp(qc, n: int, prob: float, s: int) -> Recipe:
        pairs = n * (n - 1) // 2
        mean, sd = prob * pairs, math.sqrt(pairs * prob * (1 - prob))
        for k in itertools.count():
            fields = dict(kind="gnp", n=n, edge_prob=prob, seed=s * 1000 + k)
            if abs(qc.graph.generate(qc.graph.GenSpec(**fields)).m - mean) <= sd / 4:
                return spec(**fields)

    def execute(self, qc, inst):
        graph, q = inst.graph, inst.size
        ledger_cls = qc.netsim.CostLedger
        answer: Answer = {"oracle": (qc.graph.oracle_has_clique(graph, q), ledger_cls(), None)}
        inventories = {}
        for plan in qc.cliquedetect.applicable_strategies(graph.n, graph.m, q):
            if plan.p not in inventories:
                inventories[plan.p] = qc.cliquelist.list_kp(graph, plan.p, ledger_cls())
            ledger = ledger_cls()
            found = qc.cliquedetect.detect_clique(graph, q, ledger, strategy=plan.strategy,
                                                  seed=inst.seed, inv=inventories[plan.p])
            answer[plan.strategy] = (found, ledger, None)
        return answer

    def reference(self, qc, inst):
        g = nx_graph(inst.graph)
        if inst.planted:
            inst.ref["planted_ok"] = all(g.has_edge(u, v) for u in inst.planted
                                         for v in inst.planted if u < v)
        inst.positive = has_clique(g, inst.size)

    def check(self, inst, answer):
        if inst.planted and not inst.ref.get("planted_ok", True):
            return "planted clique missing from the generated graph"
        # the clique searches are exact (no failure injection): any mismatch fails
        for label, (found, _, _) in answer.items():
            if found != inst.positive:
                return f"{label}: found={found}, reference={inst.positive}"
        return None


# ---------------------------------------------------------------------------
# clique-scale: large sparse graphs, every strategy, cost-only beside full
# ---------------------------------------------------------------------------


def cost_only(qc, plan, n: int, m: int, ledger) -> None:
    cd = qc.cliquedetect
    if plan.strategy == "triangle15":
        cd.triangle_cost_only(n, m, ledger)
    elif plan.strategy == "plus1":
        cd.plus1_cost_only(n, m, plan.p, ledger)
    elif plan.strategy == "nested":
        cd.nested_cost_only(n, m, plan.p, plan.t, ledger)
    elif plan.strategy == "blackbox":
        cd.blackbox_cost_only(n, plan.t, ledger)
    else:
        cd.sparse_cost_only(n, m, plan.t, ledger)


class CliqueScale(Workload):
    """Bipartite graphs (no clique of 3 or more nodes) and planted 5-cliques
    in sparse G(n, p), n 256..1024, each with q = 3, 4, 5.

    Bipartite negatives keep every search from short-circuiting; the planted
    clique is relabelled to random nodes so that positives do not always sit
    in the first search batch.  n and the average degree follow a fixed grid;
    the seed draws the edges and the labels.
    """

    name = "clique-scale"
    sizes = (256, 512, 768, 1024)
    bipartite_degrees = (8, 16, 32)
    planted_degree = 8
    qs = (3, 4, 5)

    def prepare(self, qc, seed, tiny):
        sizes = (128,) if tiny else self.sizes
        pool = []
        k = 0
        for n in sizes:
            graphs = []
            for deg in self.bipartite_degrees:
                s = instance_seed(seed, k)
                k += 1
                graphs.append(("bipartite", ("graph", n, bipartite_edges(n, deg, s)), s, ()))
            s = instance_seed(seed, k)
            k += 1
            base = qc.graph.generate(qc.graph.GenSpec(
                kind="planted_clique", n=n, edge_prob=self.planted_degree / n, planted_size=5,
                seed=s))
            edges, perm = relabel(n, base.edges(), random.Random(s))
            graphs.append(("planted_clique", ("graph", n, edges), s,
                           tuple(sorted(perm[v] for v in range(5)))))
            for kind, recipe, s, planted in graphs:
                for q in self.qs:
                    pool.append(Instance(recipe, kind, q, s, kind != "bipartite", planted))
        return pool

    def execute(self, qc, inst):
        graph, q = inst.graph, inst.size
        ledger_cls = qc.netsim.CostLedger
        answer: Answer = {}
        inventories = {}
        for plan in qc.cliquedetect.applicable_strategies(graph.n, graph.m, q):
            inv = None
            if plan.strategy != "triangle15":
                if plan.p not in inventories:
                    inventories[plan.p] = qc.cliquelist.list_kp(graph, plan.p, ledger_cls())
                inv = inventories[plan.p]
            ledger = ledger_cls()
            found = qc.cliquedetect.detect_clique(graph, q, ledger, strategy=plan.strategy,
                                                  seed=inst.seed, inv=inv)
            charged = ledger_cls()
            cost_only(qc, plan, graph.n, graph.m, charged)
            answer[plan.strategy] = (found, ledger, charged)
        return answer

    def reference(self, qc, inst):
        g = nx_graph(inst.graph)
        if inst.kind == "bipartite":
            inst.ref["construction_ok"] = nx.is_bipartite(g)
        else:
            inst.ref["construction_ok"] = all(
                g.has_edge(u, v) for u in inst.planted for v in inst.planted if u < v)

    def check(self, inst, answer):
        if not inst.ref.get("construction_ok", False):
            return f"{inst.kind} graph does not have its construction property"
        for label, (found, full, charged) in answer.items():
            if found != inst.positive:
                return f"{label}: found={found}, expected {inst.positive}"
            if label in STRATEGY_LEDGERS_EQUAL and ledger_rows(full) != ledger_rows(charged):
                return f"{label}: full-run ledger differs from the cost-only ledger"
        return None


# ---------------------------------------------------------------------------
# cycle workloads
# ---------------------------------------------------------------------------


def planted_cycle(qc, ell: int, trial: int, n_range: Tuple[int, int],
                  redraw_raising: bool) -> Recipe:
    """Criterion 8's positive: a planted C_ell on nodes 0..ell-1, extra edges
    at p = 0.01 for C6 only.

    With redraw_raising, a C6 draw on which `detect_even_cycle` raises the
    leader fault (a cycle it finds lies apart from node 0, see CHANGES.md)
    is replaced by the draw of the next spec seed.  Such draws fail on some
    seeds only, so they cannot stay in a pool; `c6_apart` keeps the fault in
    every pass instead.
    """
    rng = random.Random(8000 + 100 * ell + trial)
    n = rng.randint(max(n_range[0], ell), n_range[1])
    prob = 0.0 if ell % 2 or ell == 4 else 0.01
    for k in itertools.count():
        recipe = spec(kind="planted_cycle", n=n, edge_prob=prob, planted_size=ell,
                      seed=trial if k == 0 else trial * 1000 + k)
        if prob == 0.0 or not redraw_raising or not raises_leader_fault(qc, recipe, ell, trial):
            return recipe


def raises_leader_fault(qc, recipe: Recipe, ell: int, seed: int) -> bool:
    graph = qc.graph.generate(qc.graph.GenSpec(**recipe[1]))
    try:
        qc.cycledetect.detect_even_cycle(graph, ell, qc.netsim.CostLedger(), seed=seed)
    except RuntimeError as exc:
        if LEADER_FAULT in str(exc):
            return True
        raise
    return False


def c6_apart() -> Instance:
    """A C6 on nodes 2..7 of 8, apart from node 0.  `detect_even_cycle` raises
    the leader fault on it instead of answering, so this one op fails in
    every pass, whatever the seed, until the fault is mended."""
    cyc = tuple(range(2, 8))
    edges = [(min(u, v), max(u, v)) for u, v in zip(cyc, cyc[1:] + cyc[:1])]
    return Instance(("graph", 8, edges), "c6_apart", 6, 0, True, cyc)


class CycleBase(Workload):
    cycle_lens = CYCLE_LENS
    engine = "event"

    def detect(self, qc, inst, engine, ledger) -> bool:
        fn = qc.cycledetect.detect_odd_cycle if inst.size % 2 else qc.cycledetect.detect_even_cycle
        return fn(inst.graph, inst.size, ledger, seed=inst.seed, engine=engine)

    def execute(self, qc, inst):
        ledger = qc.netsim.CostLedger()
        return {self.engine: (self.detect(qc, inst, self.engine, ledger), ledger, None)}

    def reference(self, qc, inst):
        g = nx_graph(inst.graph)
        ell = inst.size
        if inst.positive:
            cyc = inst.planted
            ok = len(cyc) == ell and all(g.has_edge(cyc[j], cyc[(j + 1) % ell])
                                         for j in range(ell))
        elif inst.kind == "forest":
            ok = nx.is_forest(g)
        elif inst.kind == "bipartite":
            ok = ell % 2 == 1 and nx.is_bipartite(g)
        else:
            ok = nx.girth(g) > ell
        inst.ref["construction_ok"] = ok

    def check(self, inst, answer):
        if not inst.ref.get("construction_ok", False):
            return f"{inst.kind} graph does not have its construction property"
        return _one_sided(inst, answer)

    def properties(self, pool, answers):
        problems = []
        for ell in self.cycle_lens:
            hits = [found for inst, ans in zip(pool, answers) if inst.positive and inst.size == ell
                    for found, _, _ in ans.values()]
            if hits and sum(hits) < PLANTED_HIT_RATE * len(hits):
                problems.append(f"C{ell}: {sum(hits)}/{len(hits)} planted cycles found, "
                                f"below {PLANTED_HIT_RATE:.0%}")
        return problems


class CycleDetect(CycleBase):
    """Criterion 8 on the default event engine, with cycle-rich negatives.

    Per round and cycle length: one planted cycle (criterion 8's recipe) and
    one random forest (criterion 8's); every second round also one graph of
    girth > ell and, for odd ell, one random bipartite graph, with n on an
    even grid over the rounds.  The cycle-rich negatives keep a 2-core prune
    from reducing every negative to nothing.
    """

    name = "cycle-detect"
    rounds = 150  # >= 100 positives per length, so that 1% of them may be missed
    n_range = (20, 96)
    negative_degree = 3.0

    def prepare(self, qc, seed, tiny):
        rounds = 4 if tiny else self.rounds
        lo, hi = (20, 30) if tiny else self.n_range
        pool = []
        for r in range(rounds):
            trial = instance_seed(seed, r)
            for ell in self.cycle_lens:
                recipe = planted_cycle(qc, ell, trial, (lo, hi), seed is not None)
                pool.append(Instance(recipe, "planted_cycle", ell, trial, True,
                                     tuple(range(ell))))
                # criterion 8's forest trial t tests length (5, 7, 4, 6)[t % 4]
                t = instance_seed(seed, 4 * r + (5, 7, 4, 6).index(ell))
                n = lo + t % (hi - lo + 1)
                pool.append(Instance(("graph", n, forest_edges(n, t)), "forest", ell, t, False))
                if r % 2:
                    continue
                # an even grid of n over the rounds: the DFS cost of a cycle-rich
                # negative grows steeply with its size
                n = lo + r * (hi - lo) // max(1, rounds - 2)
                rng = random.Random(f"{trial}-{ell}")
                for kind in ["girth"] + (["bipartite"] if ell % 2 else []):
                    if kind == "girth":
                        edges = high_girth_edges(n, ell, self.negative_degree, rng.randrange(2**32))
                    else:
                        edges = bipartite_edges(n, self.negative_degree, rng.randrange(2**32))
                    pool.append(Instance(("graph", n, edges), kind, ell, trial, False))
        pool.append(c6_apart())
        return pool


class CycleProtocol(CycleBase):
    """The hop-by-hop protocol engine on small graphs.

    Per round: a planted C4 and C5 (criterion 8's recipe, at n 8..16) and
    four C4-free negatives, a random forest and a graph of girth > 4 at two
    sizes.  n follows an even grid over the rounds, so that the pool costs
    the same for every seed.  Each answer's ledger must equal the event
    engine's ledger for the same instance and seed.
    """

    name = "cycle-protocol"
    engine = "protocol"
    cycle_lens = (4, 5)
    rounds = 2
    n_range = (8, 16)

    def prepare(self, qc, seed, tiny):
        rounds = 1 if tiny else self.rounds
        lo, hi = (8, 8) if tiny else self.n_range
        pool = []
        for r in range(rounds):
            trial = instance_seed(seed, r)
            n = lo + r * (hi - lo) // max(1, rounds - 1)
            for ell in self.cycle_lens:
                recipe = planted_cycle(qc, ell, trial, (n, n), False)
                pool.append(Instance(recipe, "planted_cycle", ell, trial, True,
                                     tuple(range(ell))))
            rng = random.Random(f"{trial}-protocol")
            for size in (n, lo + hi - n):
                edges = forest_edges(size, rng.randrange(2**32))
                pool.append(Instance(("graph", size, edges), "forest", 4, trial, False))
                edges = high_girth_edges(size, 4, 3.0, rng.randrange(2**32))
                pool.append(Instance(("graph", size, edges), "girth", 4, trial, False))
        return pool

    def reference(self, qc, inst):
        super().reference(qc, inst)
        ledger = qc.netsim.CostLedger()
        self.detect(qc, inst, "event", ledger)
        inst.ref["event_ledger"] = ledger_rows(ledger)

    def check(self, inst, answer):
        problem = super().check(inst, answer)
        if problem is None and ledger_rows(answer[self.engine][1]) != inst.ref["event_ledger"]:
            problem = "protocol-engine ledger differs from the event-engine ledger"
        return problem


# ---------------------------------------------------------------------------
# the benchmark's workloads: two parts each, run as one pool
# ---------------------------------------------------------------------------


class Mixed(Workload):
    """The pools of several parts run as one pool; each instance is executed
    and checked by the part that made it, and each part's run-level
    properties are checked on its own instances."""

    def __init__(self, name: str, *parts: Workload):
        self.name = name
        self.parts = {part.name: part for part in parts}
        self.cycle_lens = tuple(sorted({ell for part in parts for ell in part.cycle_lens}))

    def prepare(self, qc, seed, tiny):
        pool = []
        for part in self.parts.values():
            for inst in part.prepare(qc, seed, tiny):
                inst.part = part.name
                pool.append(inst)
        return pool

    def execute(self, qc, inst):
        return self.parts[inst.part].execute(qc, inst)

    def reference(self, qc, inst):
        self.parts[inst.part].reference(qc, inst)

    def check(self, inst, answer):
        return self.parts[inst.part].check(inst, answer)

    def properties(self, pool, answers):
        problems = []
        for name, part in self.parts.items():
            mine = [(inst, ans) for inst, ans in zip(pool, answers) if inst.part == name]
            problems += [f"{name}: {problem}" for problem in
                         part.properties([i for i, _ in mine], [a for _, a in mine])]
        return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Mixed("clique", CliqueVerify(), CliqueScale()),
                        Mixed("cycle", CycleDetect(), CycleProtocol()))
}
