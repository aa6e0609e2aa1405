"""Congested Clique clique detection.

Five strategies, all reducing detection to clique listing plus quantum
search over partitions of the remaining search space.  The listing is
charged as the protocol runs it, but the answers never need the list:
each check asks whether a constrained clique exists, and
cliquelist.clique_reach answers that by search.

* triangle15  - the n^(1/5) triangle warmup (shards A_i x A_j x Q_k).
* plus1       - K_{p+1} from K_p listing, one flat search over node batches.
* nested      - K_{p+t} via a depth-t nested search with level exponents
                r_i = (1-1/p)/2^(t-i); requires t <= 1 + log2(p-1).
* blackbox    - extension that treats the listing as a black box; level
                setups broadcast adjacency bitmasks, cost n^(1-1/2^t).
* sparse      - degree-batched extension whose search cost depends on the
                average degree mu instead of n.

Every strategy has one shape: a cost triple (level sizes, setup rounds,
check rounds), exact-integer functions of (n, m) and the strategy
parameters from the idealized partition sizes scaled by density, and
part masks of the real adjacency that a full run searches through one
constrained search (_constrained_search).  Full and cost-only runs alike
charge the triple through qsearch.charge_search.  The triples, the
candidate plans and the id-part masks are pure functions of (n, m) and
the plan, each computed once per key and kept as tuples.  Cost and
answer never interact.  One rule, inapplicable(), says which plans
(strategy, p, t) can run on n nodes: the planner proposes, and the
detectors accept, exactly those.

plan_strategy picks one DetectionPlan in one pass over the candidate
splits, and run_plan is the one dispatch from a plan to its detector:
detect_clique plans and runs, and the CLI's rows do the same.

clique_cost_only charges a plan from (n, m) alone under detect_clique's
rules: a degenerate question (q > n or no edges) charges nothing, a plan
the rule refuses raises ValueError, and every strategy but triangle15
charges the K_p listing first.  The strategies' own *_cost_only functions
charge their searches (and, for plus1 and nested, the listing).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cliquelist import CliqueInventory, charge_listing, clique_reach, list_kp
from .graph import Graph, density
from .intmath import ceil_div, ceil_pow, ceil_scaled_pow
from .netsim import CostLedger, word_capacity
from .qsearch import (
    DEFAULT_PARAMS,
    Costs,
    NestedSearchPlan,
    QuantumCostParams,
    SearchLevel,
    charge_search,
    run_nested_search,
)

STRATEGIES = ("triangle15", "plus1", "nested", "blackbox", "sparse")


@dataclass(frozen=True)
class DetectionPlan:
    q: int
    strategy: str
    p: int
    t: int
    predicted_exponent: float


# ---------------------------------------------------------------------------
# shared partition / inventory helpers and the one constrained search
# ---------------------------------------------------------------------------


def _inventory(graph: Graph, p: int, ledger: CostLedger,
               inv: Optional[CliqueInventory]) -> CliqueInventory:
    """inv, checked against graph and p with its listing charged, or a new one."""
    if inv is None:
        return list_kp(graph, p, ledger)
    if inv.p != p:
        raise ValueError(f"inventory holds {inv.p}-cliques, need {p}")
    inv.check_graph(graph)
    charge_listing(graph.n, graph.m, p, ledger)
    return inv


# Every check asks whether a constrained clique exists.  The last-level
# check of a search meets its part with a reach mask: the nodes x that,
# with one node of each part chosen at the levels above and some p-clique,
# form a clique (cliquelist.clique_reach).  One scan answers a whole last
# level: it computes that reach from the parts of its prefix and returns
# the first last-level part that meets it; the level setups only charge
# their rounds.  With t = 1 the reach is given (every node on a
# (p+1)-clique).  Nothing is listed or extended as a list.


@functools.lru_cache(maxsize=32)
def _id_parts(n: int, count: int) -> Tuple[int, ...]:
    """0..n-1 cut into `count` contiguous node masks, ascending, whose
    sizes differ by at most one, the larger parts first.

    Computed once per (n, count) and kept, for at most 32 keys.  The
    searches ask only for the levels above the last (at most n^(1/2)
    parts); a last level is found from the reach (_first_id_part)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    base, extra = divmod(n, count)  # part i starts at i * base + min(i, extra)
    return tuple(((1 << base + (i < extra)) - 1) << i * base + min(i, extra)
                 for i in range(count))


def _first_id_part(n: int, count: int, reach: int) -> Optional[int]:
    """The index of the first part of _id_parts(n, count) that meets
    reach, or None: the part that holds reach's lowest node."""
    if not reach:
        return None
    v = (reach & -reach).bit_length() - 1
    base, extra = divmod(n, count)
    big = extra * (base + 1)  # the nodes of the larger parts
    return v // (base + 1) if v < big else extra + (v - big) // base


def _first_meeting(masks: Sequence[int], reach: int) -> Optional[int]:
    """The index of the first of masks that meets reach, or None."""
    if reach:
        for j, mask in enumerate(masks):
            if mask & reach:
                return j
    return None


def _constrained_search(adj: Sequence[int], p: int, reach: int, parts: Sequence[Sequence[int]],
                        last_size: int, first: Callable[[int], Optional[int]], costs: Costs,
                        ledger: CostLedger, seed: int, params: QuantumCostParams,
                        phase: str) -> bool:
    """Depth-t nested search, t = len(parts) + 1, over the part masks of
    each level above the last and last_size last-level parts.

    reach is the t = 1 reach.  Level i < t-1 searches the masks of
    parts[i], and first(r) is the index of the first last-level part that
    meets the reach mask r, or None.  The levels run at the setup and check
    rounds of costs; a level has a setup iff it has a setup cost, so t-1
    setups leave the last level without one.
    """
    _, setup_rounds, check_rounds = costs
    sizes = [len(level) for level in parts] + [last_size]
    levels = [SearchLevel(size, (lambda _prefix, r=setup_rounds[i]: r)
                          if i < len(setup_rounds) else None)
              for i, size in enumerate(sizes)]

    def scan(prefix: Tuple[int, ...]) -> Tuple[Optional[int], int]:
        if not prefix:
            return first(reach), check_rounds
        chosen = tuple(parts[i][j] for i, j in enumerate(prefix))
        return first(clique_reach(adj, chosen, p, reach)), check_rounds

    plan = NestedSearchPlan(levels=levels, checker=scan, params=params)
    return run_nested_search(plan, ledger, seed=seed, phase=phase).found


def _id_part_search(graph: Graph, p: int, reach: int, costs: Costs, ledger: CostLedger,
                    seed: int, params: QuantumCostParams, phase: str) -> bool:
    """_constrained_search over the id parts of costs' level sizes.  A graph
    without nodes holds no clique and is not searched."""
    if not graph.n:
        return False
    *upper, count = costs[0]
    return _constrained_search(graph.adj, p, reach, [_id_parts(graph.n, c) for c in upper],
                               count, functools.partial(_first_id_part, graph.n, count),
                               costs, ledger, seed, params, phase)


# ---------------------------------------------------------------------------
# triangle detection in ~n^(1/5) rounds
# ---------------------------------------------------------------------------


def _charge_triangle_warmup(n: int, m: int, ledger: CostLedger) -> None:
    """Route A_i x A_j to the shard owners: n^(1/5) rounds, density-scaled."""
    ledger.charge("triangle/warmup", "clique", "route",
                  ceil_scaled_pow(n, Fraction(1, 5), density(n, m)))


@functools.lru_cache(maxsize=1024)
def _triangle_costs(n: int, m: int) -> Costs:
    """One level of n^(2/5) batches; no setup; the per-query rounds."""
    domain = ceil_pow(n, Fraction(2, 5))
    # query: learn E(A_i u A_j, Q_k^l): 2 * n^(3/5) * n^(2/5) * rho words
    query = ceil_scaled_pow(n, 0, 2 * density(n, m)) + 1  # + per-query leader converge
    return (domain,), (), query


@functools.lru_cache(maxsize=32)
def _triangle_batches(n: int, domain: int) -> Tuple[int, ...]:
    """Batch l: the l-th slice of ceil(|Q_k| / domain) nodes of every part Q_k, ORed."""
    batches = [0] * domain
    for part in _id_parts(n, ceil_pow(n, Fraction(1, 5))):
        size = ceil_div(part.bit_count(), domain)
        window = (part & -part) * ((1 << size) - 1)  # the lowest size ids of part
        for ell in range(domain):
            batches[ell] |= part & (window << ell * size)
    return tuple(batches)


def detect_triangle_quintic(
    graph: Graph,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> bool:
    """Shard V^3 over nodes, learn A_i x A_j, search Q_k in batches."""
    _require("triangle15", graph.n, 2, 1)
    _charge_triangle_warmup(graph.n, graph.m, ledger)
    costs = _triangle_costs(graph.n, graph.m)
    batches = _triangle_batches(graph.n, costs[0][0])
    return _constrained_search(graph.adj, 2, graph.triangle_nodes(), (), len(batches),
                               functools.partial(_first_meeting, batches), costs, ledger, seed,
                               params, "triangle/search")


def triangle_cost_only(
    n: int, m: int, ledger: CostLedger, params: QuantumCostParams = DEFAULT_PARAMS
) -> None:
    _charge_triangle_warmup(n, m, ledger)
    charge_search(ledger, _triangle_costs(n, m), params, "clique", "triangle/search")


# ---------------------------------------------------------------------------
# K_{p+1} detection from K_p listing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _plus1_costs(n: int, m: int, p: int) -> Costs:
    """One level of n^(1-1/p) node batches; no setup; the per-query rounds."""
    domain = ceil_pow(n, Fraction(p - 1, p))
    # query: each owner learns E(T^v, Q_i): p * n^(1-1/p) * n^(1/p) * rho words
    query = ceil_scaled_pow(n, 0, p * density(n, m)) + 1
    return (domain,), (), query


def detect_plus1(
    graph: Graph,
    p: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    inv: Optional[CliqueInventory] = None,
) -> bool:
    """List K_p, then one flat search over node batches for the +1 node."""
    _require("plus1", graph.n, p, 1)
    inv = _inventory(graph, p, ledger, inv)
    return _id_part_search(graph, p, inv.reach(), _plus1_costs(graph.n, graph.m, p), ledger,
                           seed, params, "plus1/search")


def plus1_cost_only(
    n: int, m: int, p: int, ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> None:
    charge_listing(n, m, p, ledger)
    charge_search(ledger, _plus1_costs(n, m, p), params, "clique", "plus1/search")


# ---------------------------------------------------------------------------
# K_{p+t} detection via the nested search with r_i = (1-1/p)/2^(t-i)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _nested_costs(n: int, m: int, p: int, t: int) -> Costs:
    """(level domain sizes, setup rounds s_1..s_{t-1}, check rounds)."""
    rho = density(n, m)
    sizes: List[int] = []
    setups: List[int] = []
    for i in range(1, t + 1):
        r_i = Fraction(p - 1, p) / 2 ** (t - i)
        sizes.append(ceil_pow(n, r_i))
        if i < t:
            setups.append(ceil_scaled_pow(n, 1 - Fraction(1, p) - r_i, rho))
    r_t = Fraction(p - 1, p)
    check = ceil_scaled_pow(n, 1 - Fraction(1, p) - r_t, rho) + 1
    return tuple(sizes), tuple(setups), check


def detect_nested(
    graph: Graph,
    p: int,
    t: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    inv: Optional[CliqueInventory] = None,
) -> bool:
    """List K_p, then run the depth-t nested search for the t extra nodes."""
    _require("nested", graph.n, p, t)
    inv = _inventory(graph, p, ledger, inv)
    return _id_part_search(graph, p, inv.reach(), _nested_costs(graph.n, graph.m, p, t),
                           ledger, seed, params, "nested/search")


def nested_cost_only(
    n: int, m: int, p: int, t: int, ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> None:
    _require("nested", n, p, t)
    charge_listing(n, m, p, ledger)
    charge_search(ledger, _nested_costs(n, m, p, t), params, "clique", "nested/search")


# ---------------------------------------------------------------------------
# black-box extension: K_p inventory -> K_{p+t} detection in n^(1-1/2^t)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _blackbox_costs(n: int, t: int, packing: bool) -> Costs:
    """(level domain sizes, setup rounds s_1..s_t, check rounds).

    Level l splits V into n^(1/2^(t-l)) parts; its setup broadcasts each
    node's adjacency bitmask over the current part (m-independent: a
    bitmask conveys presence and absence alike).
    """
    capacity = word_capacity(n)
    sizes: List[int] = []
    setups: List[int] = []
    for lvl in range(1, t + 1):
        frac = Fraction(1, 2 ** (t - lvl))
        sizes.append(ceil_pow(n, frac))
        part_size = ceil_pow(n, 1 - frac)
        setups.append(ceil_div(part_size, capacity) if packing else part_size)
    return tuple(sizes), tuple(setups), 1  # check: converge emptiness, one bit


def extend_blackbox(
    graph: Graph,
    inv: CliqueInventory,
    t: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    packing: bool = True,
) -> bool:
    """Nested search growing the inventory one level-part node at a time."""
    _require("blackbox", graph.n, inv.p, t)
    inv.check_graph(graph)
    return _id_part_search(graph, inv.p, inv.reach(), _blackbox_costs(graph.n, t, packing),
                           ledger, seed, params, "blackbox/search")


def blackbox_cost_only(
    n: int, t: int, ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
    packing: bool = True,
) -> None:
    charge_search(ledger, _blackbox_costs(n, t, packing), params, "clique", "blackbox/search")


# ---------------------------------------------------------------------------
# sparsity-aware extension: cost in mu = m/n instead of n
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _sparse_costs(n: int, m: int, t: int) -> Costs:
    """(level domain sizes, setup rounds s_1..s_{t-1}, check rounds).

    Level i < t searches x_i = mu^(1/2^(t-i)) degree batches (one if
    mu <= 1), and its setup broadcasts a batch's m/x_i edges; the last
    level searches y = 2m/n batches of degree sum about n, and its check
    broadcasts a batch's incident edges and converges.  Without edges
    there is nothing to search, and the triple prices to zero.
    """
    if m == 0:
        return (1,), (), 0
    mu = Fraction(m, n)
    sizes: List[int] = []
    setups: List[int] = []
    for i in range(1, t):
        x = ceil_pow(mu, Fraction(1, 2 ** (t - i))) if mu > 1 else 1
        sizes.append(x)
        setups.append(ceil_div(m, n * x))
    sizes.append(max(1, ceil_div(2 * m, n)))
    return tuple(sizes), tuple(setups), 2


def extend_sparse(
    graph: Graph,
    inv: CliqueInventory,
    t: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> bool:
    """Degree-batched extension; empty graphs short-circuit to False.

    The nested search of _sparse_costs over degree batches, built once
    from the degrees: level i < t holds the batches of degree sum about
    2m/x_i, padded with empty masks up to x_i, and the last level the
    batches of degree sum about n.  The last level's size is that measured
    batch count, not the analytic y = 2m/n that sparse_cost_only charges.
    """
    _require("sparse", graph.n, inv.p, t)
    inv.check_graph(graph)
    n, m = graph.n, graph.m
    if m == 0:
        return False
    costs = _sparse_costs(n, m, t)
    parts: List[Tuple[int, ...]] = []
    for x in costs[0][:-1]:
        batches = graph.degree_batches(max(1, ceil_div(2 * m, x)))[:x]
        parts.append(batches + (0,) * (x - len(batches)))
    last = graph.degree_batches(n)
    return _constrained_search(graph.adj, inv.p, inv.reach(), parts, len(last),
                               functools.partial(_first_meeting, last), costs, ledger, seed,
                               params, "sparse/search")


def sparse_cost_only(
    n: int, m: int, t: int, ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> None:
    """Analytic extension-search rounds, mu-scaled: ~ mu^(1-1/2^t)."""
    charge_search(ledger, _sparse_costs(n, m, t), params, "clique", "sparse/search")


# ---------------------------------------------------------------------------
# the applicability rule, strategy planner and dispatcher
# ---------------------------------------------------------------------------


def _below_listing(n: int, p: int) -> bool:
    """n < 2^p: too few nodes for the K_p listing partition."""
    return n.bit_length() <= p


def inapplicable(strategy: str, n: int, p: int, t: int) -> Optional[str]:
    """Why the plan (strategy, p, t) cannot run on n nodes, or None if it can."""
    if strategy not in STRATEGIES:
        return f"unknown strategy {strategy!r}"
    if p < 2 or t < 1:
        return f"{strategy} needs p >= 2 and t >= 1, got p={p}, t={t}"
    if strategy == "triangle15":
        if (p, t) != (2, 1):
            return f"triangle15 detects triangles (p=2, t=1), got p={p}, t={t}"
        if n < 32:
            return "triangle detection needs n >= 32"
    if strategy == "plus1":
        if t != 1 or p < 3:
            return f"plus1 needs t = 1 and p >= 3, got p={p}, t={t}"
        if _below_listing(n, p):
            return f"plus1 needs n >= 2^{p}"
    if strategy == "nested" and (p - 1).bit_length() < t:  # 2^(t-1) > p-1
        return f"(p={p}, t={t}) violates the constraint t <= 1 + log2(p-1)"
    return None


def _require(strategy: str, n: int, p: int, t: int) -> None:
    reason = inapplicable(strategy, n, p, t)
    if reason:
        raise ValueError(reason)


@functools.lru_cache(maxsize=1024)
def _candidate_plans(n: int, m: int, q: int) -> Tuple[Tuple[Tuple, DetectionPlan], ...]:
    """Every plan for q that the rule accepts, keyed by (listing degenerates,
    predicted exponent, t, p, preference).  The exponent is the larger of
    the listing's (p-2)/p and the search's; a split whose listing
    degenerates (n < 2^p) sorts after every other split.  Computed once per
    (n, m, q) and kept."""
    mu = Fraction(m, n) if n else Fraction(0)
    log_mu_over_log_n = (
        math.log(float(mu)) / math.log(n) if mu > 1 and n > 1 else 0.0
    )
    out: List[Tuple[Tuple, DetectionPlan]] = []
    for p in range(2, q):
        t = q - p
        # int / int rounds the exact rational once, as float(Fraction) does
        half = 2**t
        search = {"triangle15": 0.2, "plus1": (p - 1) / (2 * p),
                  "nested": (p - 1) * (half - 1) / (p * half), "blackbox": (half - 1) / half,
                  "sparse": (1 - 1.0 / half) * log_mu_over_log_n}
        for pref, strategy in enumerate(STRATEGIES):
            if inapplicable(strategy, n, p, t) is None:
                exponent = max((p - 2) / p, search[strategy])
                out.append(((_below_listing(n, p), exponent, t, p, pref),
                            DetectionPlan(q, strategy, p, t, exponent)))
    return tuple(out)


def plan_strategy(n: int, m: int, q: int, strategy: Optional[str] = None) -> DetectionPlan:
    """Pick the (strategy, p, t) with the smallest predicted round exponent.

    Splits whose listing degenerates compete only when no other split
    applies.  Ties break toward smaller t, then smaller p.  With `strategy`
    given, only that strategy's parameterizations compete.
    """
    if q < 3:
        raise ValueError("q must be >= 3")
    if strategy is not None and strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    candidates = [c for c in _candidate_plans(n, m, q)
                  if strategy in (None, c[1].strategy)]
    if not candidates:
        raise ValueError(f"no applicable strategy for q={q}, n={n}")
    return min(candidates, key=lambda c: c[0])[1]


def applicable_strategies(n: int, m: int, q: int) -> List[DetectionPlan]:
    """Best parameterization of every strategy that applies to (n, m, q)
    with a listing that does not degenerate."""
    best: Dict[str, Tuple[Tuple, DetectionPlan]] = {}
    for key, plan in _candidate_plans(n, m, q):
        cur = best.get(plan.strategy)
        if not key[0] and (cur is None or key < cur[0]):
            best[plan.strategy] = (key, plan)
    return [best[s][1] for s in STRATEGIES if s in best]


def degenerate(n: int, m: int, q: int) -> bool:
    """A q-clique question that needs no search: q > n, or no edges.

    detect_clique answers it False and clique_cost_only charges nothing.
    """
    return q > n or m == 0


def run_plan(
    graph: Graph,
    plan: DetectionPlan,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    inv: Optional[CliqueInventory] = None,
    packing: bool = True,
) -> bool:
    """Run the plan's detector on graph; inv, if given, is its K_p inventory."""
    if plan.strategy == "triangle15":
        return detect_triangle_quintic(graph, ledger, seed=seed, params=params)
    if plan.strategy == "plus1":
        return detect_plus1(graph, plan.p, ledger, seed=seed, params=params, inv=inv)
    if plan.strategy == "nested":
        return detect_nested(graph, plan.p, plan.t, ledger, seed=seed, params=params,
                             inv=inv)
    inv = _inventory(graph, plan.p, ledger, inv)
    if plan.strategy == "blackbox":
        return extend_blackbox(graph, inv, plan.t, ledger, seed=seed, params=params,
                               packing=packing)
    return extend_sparse(graph, inv, plan.t, ledger, seed=seed, params=params)


def detect_clique(
    graph: Graph,
    q: int,
    ledger: CostLedger,
    strategy: Optional[str] = None,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    inv: Optional[CliqueInventory] = None,
    packing: bool = True,
) -> bool:
    """Run the planned (or requested) strategy.

    Degenerate inputs short-circuit to False and charge nothing.
    """
    if q < 3:
        raise ValueError("q must be >= 3")
    if degenerate(graph.n, graph.m, q):
        return False
    return run_plan(graph, plan_strategy(graph.n, graph.m, q, strategy), ledger, seed=seed,
                    params=params, inv=inv, packing=packing)


def clique_cost_only(
    strategy: str,
    n: int,
    m: int,
    p: int,
    t: int,
    ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
    packing: bool = True,
) -> None:
    """Charge what detect_clique charges for the plan (strategy, p, t),
    from n and m alone; q = p + t, so triangle15 takes p = 2, t = 1.

    The rules are detect_clique's: a degenerate q charges nothing, a plan
    that inapplicable() refuses raises ValueError, and blackbox and sparse
    charge the K_p listing before their search.  The ledger is a full
    run's on any graph with n nodes and m edges, except sparse's search
    row, whose last level full runs measure.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if degenerate(n, m, p + t):
        return
    _require(strategy, n, p, t)
    if strategy == "triangle15":
        triangle_cost_only(n, m, ledger, params)
    elif strategy == "plus1":
        plus1_cost_only(n, m, p, ledger, params)
    elif strategy == "nested":
        nested_cost_only(n, m, p, t, ledger, params)
    else:
        charge_listing(n, m, p, ledger)
        if strategy == "blackbox":
            blackbox_cost_only(n, t, ledger, params, packing)
        else:
            sparse_cost_only(n, m, t, ledger, params)
