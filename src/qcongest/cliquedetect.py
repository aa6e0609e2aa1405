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

Round charges are exact-integer functions of (n, m) and the strategy
parameters, computed from the idealized exact-divisibility partition sizes
scaled by graph density; answers are evaluated on the real adjacency.
Cost and answer never interact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cliquelist import CliqueInventory, clique_reach, list_kp, listing_route_rounds
from .graph import Graph, density, range_mask, triangle_nodes
from .intmath import ceil_div, ceil_pow, ceil_scaled_pow
from .netsim import CostLedger, word_capacity
from .qsearch import (
    DEFAULT_PARAMS,
    NestedSearchPlan,
    QuantumCostParams,
    SearchLevel,
    charge_search,
    grover_cost,
    nested_cost_predict,
    run_nested_search,
    run_search,
    _derive_seed,
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
# shared partition / inventory helpers
# ---------------------------------------------------------------------------


def _merge_stats(stats: Optional[Dict[str, int]], queries: int) -> None:
    if stats is not None:
        stats["queries"] = stats.get("queries", 0) + queries


def id_ranges(n: int, count: int) -> Tuple[range, ...]:
    """Split 0..n-1 into `count` contiguous ranges, sizes differing by <= 1."""
    if count < 1:
        raise ValueError("count must be >= 1")
    base, extra = divmod(n, count)
    parts = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        parts.append(range(start, start + size))
        start += size
    return tuple(parts)


def _inventory(graph: Graph, p: int, ledger: CostLedger,
               inv: Optional[CliqueInventory]) -> CliqueInventory:
    """inv, checked against graph and p with its listing charged, or a new one."""
    if inv is None:
        return list_kp(graph, p, ledger)
    if inv.p != p:
        raise ValueError(f"inventory holds {inv.p}-cliques, need {p}")
    inv.check_graph(graph)
    ledger.charge("kp-listing", "clique", "route", listing_route_rounds(graph.n, graph.m, p))
    return inv


# Every extension check asks whether a constrained clique exists.  The
# last-level check of a search meets its part with a reach mask: the nodes
# x that, with one node of each part chosen at the levels above and some
# p-clique, form a clique (cliquelist.clique_reach).  The level t-1 setup
# computes that reach from the parts of its prefix, and the levels above it
# only charge their rounds; with t = 1 the reach is the inventory's own
# (every node on a (p+1)-clique).  Nothing is listed or extended as a list.


# ---------------------------------------------------------------------------
# triangle detection in ~n^(1/5) rounds
# ---------------------------------------------------------------------------


def _triangle_costs(n: int, m: int) -> Tuple[int, int, int]:
    """(warmup route rounds, search domain, per-query rounds)."""
    rho = density(n, m)
    warmup = ceil_scaled_pow(n, Fraction(1, 5), rho)
    domain = ceil_pow(n, Fraction(2, 5))
    # query: learn E(A_i u A_j, Q_k^l): 2 * n^(3/5) * n^(2/5) * rho words
    query = ceil_scaled_pow(n, 0, 2 * rho) + 1  # + per-query leader converge
    return warmup, domain, query


def detect_triangle_quintic(
    graph: Graph,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    stats: Optional[Dict[str, int]] = None,
) -> bool:
    """Shard V^3 over nodes, learn A_i x A_j, search Q_k in batches."""
    n = graph.n
    if n < 32:
        raise ValueError("triangle detection needs n >= 32")
    warmup, domain, query_rounds = _triangle_costs(n, graph.m)
    ledger.charge("triangle/warmup", "clique", "route", warmup)
    n_q = ceil_pow(n, Fraction(1, 5))
    q_parts = id_ranges(n, n_q)
    batch_masks: List[int] = []
    for ell in range(domain):
        mask = 0
        for part in q_parts:
            size = ceil_div(len(part), domain) if len(part) else 0
            lo = ell * size
            for v in part[lo : lo + size]:
                mask |= 1 << v
        batch_masks.append(mask)
    apex = triangle_nodes(graph.adj_masks())

    def checker(ell: int) -> Tuple[bool, int]:
        return bool(apex & batch_masks[ell]), query_rounds

    outcome = run_search(domain, checker, ledger, params, seed=seed,
                         phase="triangle/search")
    _merge_stats(stats, outcome.queries_evaluated)
    return outcome.found


def triangle_cost_only(
    n: int, m: int, ledger: CostLedger, params: QuantumCostParams = DEFAULT_PARAMS
) -> None:
    warmup, domain, query_rounds = _triangle_costs(n, m)
    ledger.charge("triangle/warmup", "clique", "route", warmup)
    charge_search(ledger, domain, query_rounds, params, "clique", "triangle/search")


# ---------------------------------------------------------------------------
# K_{p+1} detection from K_p listing
# ---------------------------------------------------------------------------


def _plus1_costs(n: int, m: int, p: int) -> Tuple[int, int]:
    """(search domain, per-query rounds) for the +1 extension search."""
    rho = density(n, m)
    domain = ceil_pow(n, Fraction(p - 1, p))
    # query: each owner learns E(T^v, Q_i): p * n^(1-1/p) * n^(1/p) * rho words
    query = ceil_scaled_pow(n, 0, p * rho) + 1
    return domain, query


def detect_plus1(
    graph: Graph,
    p: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    inv: Optional[CliqueInventory] = None,
    stats: Optional[Dict[str, int]] = None,
) -> bool:
    """List K_p, then one flat search over node batches for the +1 node."""
    n = graph.n
    if p < 2:
        raise ValueError("p must be >= 2")
    if n < 2**p:
        raise ValueError(f"plus1 needs n >= 2^p = {2**p}")
    reach = _inventory(graph, p, ledger, inv).reach()
    domain, query_rounds = _plus1_costs(n, graph.m, p)
    batch_masks = [range_mask(r) for r in id_ranges(n, domain)]

    def checker(i: int) -> Tuple[bool, int]:
        return bool(reach & batch_masks[i]), query_rounds

    outcome = run_search(domain, checker, ledger, params, seed=seed,
                         phase="plus1/search")
    _merge_stats(stats, outcome.queries_evaluated)
    return outcome.found


def plus1_cost_only(
    n: int, m: int, p: int, ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> None:
    ledger.charge("kp-listing", "clique", "route", listing_route_rounds(n, m, p))
    domain, query_rounds = _plus1_costs(n, m, p)
    charge_search(ledger, domain, query_rounds, params, "clique", "plus1/search")


# ---------------------------------------------------------------------------
# K_{p+t} detection via the nested search with r_i = (1-1/p)/2^(t-i)
# ---------------------------------------------------------------------------


def nested_feasible(p: int, t: int) -> bool:
    """The level-exponent system balances only when t <= 1 + log2(p-1)."""
    return p >= 2 and t >= 1 and 2 ** (t - 1) <= p - 1


def _nested_costs(n: int, m: int, p: int, t: int) -> Tuple[List[int], List[int], int]:
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
    return sizes, setups, check


def detect_nested(
    graph: Graph,
    p: int,
    t: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    inv: Optional[CliqueInventory] = None,
    stats: Optional[Dict[str, int]] = None,
) -> bool:
    """List K_p, then run the depth-t nested search for the t extra nodes."""
    if not nested_feasible(p, t):
        raise ValueError(
            f"(p={p}, t={t}) violates the constraint t <= 1 + log2(p-1)"
        )
    n = graph.n
    inv = _inventory(graph, p, ledger, inv)
    sizes, setup_rounds, check_rounds = _nested_costs(n, graph.m, p, t)
    part_masks = [[range_mask(r) for r in id_ranges(n, sizes[i])] for i in range(t)]
    ceiling = inv.reach()
    reach = ceiling  # t = 1; else set by every level t-1 setup before its checks

    def setup(prefix: Tuple[int, ...]) -> int:
        nonlocal reach
        if len(prefix) == t - 1:
            parts = tuple(part_masks[i][j] for i, j in enumerate(prefix))
            reach = clique_reach(inv.adj, parts, p, ceiling)
        return setup_rounds[len(prefix) - 1]

    levels = [SearchLevel(sizes[i], setup if i < t - 1 else None) for i in range(t)]

    def checker(tup: Tuple[int, ...]) -> Tuple[bool, int]:
        return bool(reach & part_masks[t - 1][tup[-1]]), check_rounds

    plan = NestedSearchPlan(levels=levels, checker=checker, params=params)
    outcome = run_nested_search(plan, ledger, seed=seed, phase="nested/search")
    _merge_stats(stats, outcome.queries_evaluated)
    return outcome.found


def nested_cost_only(
    n: int, m: int, p: int, t: int, ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> None:
    if not nested_feasible(p, t):
        raise ValueError(
            f"(p={p}, t={t}) violates the constraint t <= 1 + log2(p-1)"
        )
    ledger.charge("kp-listing", "clique", "route", listing_route_rounds(n, m, p))
    sizes, setups, check = _nested_costs(n, m, p, t)
    rounds = nested_cost_predict(sizes, setups, check, params)
    ledger.charge("nested/search", "clique", "quantum", rounds)


# ---------------------------------------------------------------------------
# black-box extension: K_p inventory -> K_{p+t} detection in n^(1-1/2^t)
# ---------------------------------------------------------------------------


def _blackbox_costs(n: int, t: int, packing: bool) -> Tuple[List[int], List[int], int]:
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
    return sizes, setups, 1  # check: converge emptiness, one bit


def extend_blackbox(
    graph: Graph,
    inv: CliqueInventory,
    t: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    packing: bool = True,
    stats: Optional[Dict[str, int]] = None,
) -> bool:
    """Nested search growing the inventory one level-part node at a time."""
    if t < 1:
        raise ValueError("t must be >= 1")
    inv.check_graph(graph)
    n = graph.n
    sizes, setup_rounds, check_rounds = _blackbox_costs(n, t, packing)
    parts = [[range_mask(r) for r in id_ranges(n, sizes[i])] for i in range(t)]
    ceiling = inv.reach()
    reach = ceiling  # t = 1; else set by every level t-1 setup before its checks

    def setup(prefix: Tuple[int, ...]) -> int:
        nonlocal reach
        if len(prefix) == t - 1:
            chosen = tuple(parts[i][j] for i, j in enumerate(prefix))
            reach = clique_reach(inv.adj, chosen, inv.p, ceiling)
        return setup_rounds[len(prefix) - 1]

    levels = [SearchLevel(sizes[i], setup) for i in range(t)]

    def checker(tup: Tuple[int, ...]) -> Tuple[bool, int]:
        return bool(reach & parts[t - 1][tup[-1]]), check_rounds

    plan = NestedSearchPlan(levels=levels, checker=checker, params=params)
    outcome = run_nested_search(plan, ledger, seed=seed, phase="blackbox/search")
    _merge_stats(stats, outcome.queries_evaluated)
    return outcome.found


def blackbox_cost_only(
    n: int, t: int, ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
    packing: bool = True,
) -> None:
    sizes, setups, check = _blackbox_costs(n, t, packing)
    rounds = nested_cost_predict(sizes, setups, check, params)
    ledger.charge("blackbox/search", "clique", "quantum", rounds)


# ---------------------------------------------------------------------------
# sparsity-aware extension: cost in mu = m/n instead of n
# ---------------------------------------------------------------------------


def degree_batching(degrees: Sequence[int], target: int) -> Tuple[Tuple[int, ...], ...]:
    """Greedy fill in id order; a batch closes once its degree sum >= target."""
    if target < 1:
        raise ValueError("target must be >= 1")
    batches: List[Tuple[int, ...]] = []
    current: List[int] = []
    acc = 0
    for v, d in enumerate(degrees):
        current.append(v)
        acc += d
        if acc >= target:
            batches.append(tuple(current))
            current, acc = [], 0
    if current or not batches:
        batches.append(tuple(current))
    return tuple(batches)


def _sparse_base_costs(n: int, m: int) -> Tuple[int, int]:
    """(domain y, per-query rounds) for the degree-batched +1 search."""
    y = max(1, ceil_div(2 * m, n))
    # query: broadcast a batch's incident edges (degree sum ~ n), converge
    query = 1 + 1
    return y, query


def _sparse_level_x(n: int, m: int, t: int) -> int:
    mu = Fraction(m, n)
    if mu <= 1:
        return 1
    return ceil_pow(mu, Fraction(1, 2 ** (t - 1)))


def _sparse_bcast_rounds(n: int, m: int, x: int) -> int:
    return ceil_div(m, n * x)


def extend_sparse(
    graph: Graph,
    inv: CliqueInventory,
    t: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    stats: Optional[Dict[str, int]] = None,
) -> bool:
    """Degree-batched extension; empty graphs short-circuit to False."""
    if t < 1:
        raise ValueError("t must be >= 1")
    inv.check_graph(graph)
    if graph.m == 0:
        return False
    found, rounds, queries = _sparse_search(graph, inv, t, params)
    _merge_stats(stats, queries)
    ledger.charge("sparse/search", "clique", "quantum", rounds)
    if found and params.fail_prob > 0.0:
        if random.Random(_derive_seed(seed, "sparse-fail")).random() < params.fail_prob:
            found = False
    return found


def _batch_mask(batch: Tuple[int, ...]) -> int:
    mask = 0
    for v in batch:
        mask |= 1 << v
    return mask


def _sparse_search(
    graph: Graph,
    inv: CliqueInventory,
    t: int,
    params: QuantumCostParams,
) -> Tuple[bool, int, int]:
    """(found, rounds, queries) of the depth-t degree-batched search.

    Level k >= 2 searches x_k degree batches and recurses, per batch, with
    the batch added to the parts chosen above it; level 1 searches batches
    of degree sum about n for a node x that, with one node of each chosen
    part, extends some clique.  Level 1 needs only the reach of those x,
    which level 2 computes with clique_reach.  Every level's batches depend
    on the degrees alone and are built once.
    """
    n, m = graph.n, graph.m
    degrees = graph.degrees()
    ceiling = inv.reach()
    _, query = _sparse_base_costs(n, m)
    base_batches = [_batch_mask(b) for b in degree_batching(degrees, target=n)]
    base_rounds = grover_cost(len(base_batches), query, params)
    levels: Dict[int, Tuple[int, List[int]]] = {}
    for k in range(2, t + 1):
        x = _sparse_level_x(n, m, k)
        batches = degree_batching(degrees, target=max(1, ceil_div(2 * m, x)))
        masks = [_batch_mask(b) for b in batches[:x]]
        levels[k] = (_sparse_bcast_rounds(n, m, x), masks + [0] * (x - len(masks)))

    def base(reach: int) -> Tuple[bool, int, int]:
        queries = 0
        for bmask in base_batches:
            queries += 1
            if reach & bmask:
                return True, base_rounds, queries
        return False, base_rounds, queries

    def level(chosen: Tuple[int, ...], k: int) -> Tuple[bool, int, int]:
        bcast, batch_masks = levels[k]
        found, queries, inner_rounds = False, 0, 0
        for i, bmask in enumerate(batch_masks):
            queries += 1
            parts = chosen + (bmask,)
            if k == 2:
                found, sub_rounds, sub_queries = base(clique_reach(inv.adj, parts, inv.p, ceiling))
            else:
                found, sub_rounds, sub_queries = level(parts, k - 1)
            queries += sub_queries
            if i == 0:
                inner_rounds = sub_rounds
            if found:
                break
        return found, grover_cost(len(batch_masks), bcast + inner_rounds, params), queries

    if t == 1:
        return base(ceiling)
    return level((), t)


def sparse_rounds(n: int, m: int, t: int,
                  params: QuantumCostParams = DEFAULT_PARAMS) -> int:
    """Analytic extension-search rounds, mu-scaled: ~ mu^(1-1/2^t)."""
    if m <= 0:
        return 0
    if t == 1:
        y, query = _sparse_base_costs(n, m)
        return grover_cost(y, query, params)
    x = _sparse_level_x(n, m, t)
    query = _sparse_bcast_rounds(n, m, x) + sparse_rounds(n, m, t - 1, params)
    return grover_cost(x, query, params)


def sparse_cost_only(
    n: int, m: int, t: int, ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> None:
    ledger.charge("sparse/search", "clique", "quantum",
                  sparse_rounds(n, m, t, params))


# ---------------------------------------------------------------------------
# strategy planner and dispatcher
# ---------------------------------------------------------------------------


def _candidate_plans(
    n: int, m: int, q: int, listing_gate: bool = True
) -> List[Tuple[Tuple, DetectionPlan]]:
    mu = Fraction(m, n) if n else Fraction(0)
    log_mu_over_log_n = (
        math.log(float(mu)) / math.log(n) if mu > 1 and n > 1 else 0.0
    )
    pref = {s: i for i, s in enumerate(STRATEGIES)}
    out: List[Tuple[Tuple, DetectionPlan]] = []

    def push(strategy: str, p: int, t: int, exponent: float) -> None:
        plan = DetectionPlan(q=q, strategy=strategy, p=p, t=t,
                             predicted_exponent=exponent)
        out.append(((exponent, t, p, pref[strategy]), plan))

    if q == 3 and n >= 32:
        push("triangle15", 2, 1, 0.2)
    for p in range(2, q):
        t = q - p
        if listing_gate and 2**p > n:
            continue  # listing degenerates below n = 2^p
        listing = float(Fraction(p - 2, p))
        if t == 1 and p >= 3:
            push("plus1", p, 1, max(listing, float(Fraction(p - 1, 2 * p))))
        if nested_feasible(p, t):
            search = float(Fraction(p - 1, p) * (1 - Fraction(1, 2**t)))
            push("nested", p, t, max(listing, search))
        push("blackbox", p, t, max(listing, float(1 - Fraction(1, 2**t))))
        sparse_search = (1 - 1.0 / 2**t) * log_mu_over_log_n
        push("sparse", p, t, max(listing, sparse_search))
    return out


def plan_strategy(n: int, m: int, q: int, strategy: Optional[str] = None) -> DetectionPlan:
    """Pick the (strategy, p, t) with the smallest predicted round exponent.

    Ties break toward smaller t, then smaller p.  With `strategy` given,
    only that strategy's parameterizations compete.
    """
    if q < 3:
        raise ValueError("q must be >= 3")
    if strategy is not None and strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    for gate in (True, False):
        candidates = _candidate_plans(n, m, q, listing_gate=gate)
        if strategy is not None:
            candidates = [c for c in candidates if c[1].strategy == strategy]
        if candidates:
            candidates.sort(key=lambda c: c[0])
            return candidates[0][1]
    raise ValueError(f"no applicable strategy for q={q}, n={n}")


def applicable_strategies(n: int, m: int, q: int) -> List[DetectionPlan]:
    """Best parameterization of every strategy that applies to (n, m, q)."""
    best: Dict[str, Tuple[Tuple, DetectionPlan]] = {}
    for key, plan in _candidate_plans(n, m, q):
        cur = best.get(plan.strategy)
        if cur is None or key < cur[0]:
            best[plan.strategy] = (key, plan)
    return [best[s][1] for s in STRATEGIES if s in best]


def detect_clique(
    graph: Graph,
    q: int,
    ledger: CostLedger,
    strategy: Optional[str] = None,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    inv: Optional[CliqueInventory] = None,
    stats: Optional[Dict[str, int]] = None,
    packing: bool = True,
) -> bool:
    """Dispatch to the planned (or requested) strategy.

    Degenerate inputs (q > n, empty graph) short-circuit to False at zero
    quantum cost.
    """
    if q < 3:
        raise ValueError("q must be >= 3")
    if q > graph.n or graph.m == 0:
        return False
    plan = plan_strategy(graph.n, graph.m, q, strategy)
    if plan.strategy == "triangle15":
        return detect_triangle_quintic(graph, ledger, seed=seed, params=params,
                                       stats=stats)
    if plan.strategy == "plus1":
        return detect_plus1(graph, plan.p, ledger, seed=seed, params=params,
                            inv=inv, stats=stats)
    if plan.strategy == "nested":
        return detect_nested(graph, plan.p, plan.t, ledger, seed=seed,
                             params=params, inv=inv, stats=stats)
    inv = _inventory(graph, plan.p, ledger, inv)
    if plan.strategy == "blackbox":
        return extend_blackbox(graph, inv, plan.t, ledger, seed=seed,
                               params=params, stats=stats, packing=packing)
    return extend_sparse(graph, inv, plan.t, ledger, seed=seed, params=params,
                         stats=stats)
