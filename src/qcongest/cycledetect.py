"""CONGEST-model cycle detection via color-coded BFS and quantum search.

The color-coded BFS assigns each active node a uniform color in
0..len-1; color-0 sources send their id downhill (height-wise) to color-1
and color-(len-1) neighbors, then floor(len/2)-1 phases of M rounds each
forward ids along the two color-increasing chains.  A detection means the
two chains carrying the same id meet, which forces len distinct colors and
hence a genuine simple len-cycle: no false positives, ever.

Colour coding (Alon-Yuster-Zwick, JACM 1995) and the heavy/light scheme
for even cycles (Eden-Fiat-Fischer-Kuhn-Oshman, DISC 2019) repeat one
query over different source sets.  Each search stage is one
_stage_search over its source sets: every node for odd cycles, each heavy
node, then each light index class.  A query runs the colour BFS from one
source set and reports to the leader; _query_rounds prices it at
reps * (1 + (floor(len/2)-1) * M) plus an eccentricity-long convergecast.
Full runs price it at the measured eccentricity and M; cost-only runs at
eccentricity 1 and M = 1.

Two engines compute the same detection event:

* "protocol": faithful hop-by-hop simulation over congest_step, including
  the congestion cap M (forward only the first M ids received).
* "event": exact sampling of the detection event over the enumerated
  candidate cycles.  A repetition detects iff some qualifying (cycle,
  anchor) pair is pattern-colored; runs whose cycle nodes exceed the
  congestion bound are conservatively counted as misses, per the
  completeness accounting.

Both engines charge identical rounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .graph import CycleEnumerationLimit, Graph, iter_cycles, two_core
from .intmath import ceil_pow, ceil_scaled_pow
from .netsim import CongestNet, CostLedger, congest_step, word_capacity
from .qsearch import (
    DEFAULT_PARAMS,
    QuantumCostParams,
    charge_search,
    run_search,
    _derive_seed,
)

CYCLE_ENUM_LIMIT = 200_000
_PATTERN_CAP = 4096  # anchored cycles per query; a subset is still sound
_SAMPLE_BLOCK = 1 << 15


@dataclass(frozen=True)
class ColorBfsConfig:
    """Inputs of one color-coded BFS invocation."""

    cycle_len: int
    active: FrozenSet[int]
    sources: FrozenSet[int]
    heights: Optional[Mapping[int, int]] = None
    congestion_bound: int = 1
    repetitions: int = 1

    def __post_init__(self):
        if self.cycle_len < 3:
            raise ValueError("cycle_len must be >= 3")
        if not self.sources <= self.active:
            raise ValueError("sources must be a subset of active nodes")
        if self.congestion_bound < 1:
            raise ValueError("congestion bound M must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    def height(self, v: int) -> int:
        return self.heights.get(v, 0) if self.heights else 0


@dataclass(frozen=True)
class EvenCycleParams:
    """Thresholds of the heavy/light split for C_{2k} detection."""

    k: int
    delta: Fraction = None  # type: ignore[assignment]
    alpha: Fraction = None  # type: ignore[assignment]
    prune_const: int = None  # type: ignore[assignment]
    a_cong: int = 4

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.delta is None:
            object.__setattr__(self, "delta", Fraction(self.k - 2, self.k * (self.k - 1)))
        if self.alpha is None:
            object.__setattr__(
                self, "alpha", Fraction(1, self.k) + (self.k - 2) * self.delta
            )
        if self.prune_const is None:
            object.__setattr__(self, "prune_const", 100 * self.k)
        if not 0 <= self.delta < 1:
            raise ValueError("delta must be in [0,1)")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0,1]")


# ---------------------------------------------------------------------------
# repetition calculus
# ---------------------------------------------------------------------------


def single_rep_success(ell: int) -> Fraction:
    """Single-repetition detection probability for one anchored cycle.

    With a single source at its anchor, an isolated ell-cycle is detected
    exactly when one of its two orientations reads colours 0..ell-1 from
    the anchor.  Each orientation fixes all ell colours, and for ell >= 3
    the two differ, so 2 of the ell^ell colourings fire.
    """
    if ell < 3:
        raise ValueError("ell must be >= 3")
    return Fraction(2, ell**ell)


def _canonical_cycle(cyc: Sequence[int]) -> Tuple[int, ...]:
    """Rotation/reflection-invariant representative of a cycle sequence."""
    ell = len(cyc)
    i = min(range(ell), key=lambda j: cyc[j])
    fwd = tuple(cyc[(i + j) % ell] for j in range(ell))
    bwd = tuple(cyc[(i - j) % ell] for j in range(ell))
    return min(fwd, bwd)


def repetitions_for(p_success: Fraction, failure_target: float) -> int:
    """Smallest R with (1 - p)^R <= failure_target, via R >= ln(1/f)/p."""
    if not 0 < p_success <= 1:
        raise ValueError("p_success must be in (0,1]")
    if not 0 < failure_target < 1:
        raise ValueError("failure_target must be in (0,1)")
    return max(1, math.ceil(math.log(1.0 / failure_target) / float(p_success)))


def color_bfs_rep_rounds(ell: int, congestion_bound: int) -> int:
    """Rounds of one repetition: initial send + (floor(ell/2)-1) phases of M."""
    return 1 + (ell // 2 - 1) * congestion_bound


def _query_rounds(ell: int, reps: int, m_bound: int, ecc: int) -> int:
    """Rounds of one query: reps colour-BFS repetitions at congestion bound
    m_bound, then a one-word convergecast over ecc hops to the leader."""
    return reps * color_bfs_rep_rounds(ell, m_bound) + ecc


# ---------------------------------------------------------------------------
# protocol engine: hop-by-hop simulation
# ---------------------------------------------------------------------------


def protocol_detect_once(
    graph: Graph,
    cfg: ColorBfsConfig,
    colors: Mapping[int, int],
    net: Optional[CongestNet] = None,
    ledger: Optional[CostLedger] = None,
) -> bool:
    """One repetition with fixed colors, message by message.

    Ids received in a round are ordered by sender id; each node forwards
    only the first M ids it has received.  For even lengths, detection is a
    color-(len/2) node holding the same id from both chains; for odd
    lengths, an edge between the two chain endpoints holding a common id.

    Steps that would carry no word are not simulated, so `ledger` is
    charged only for the steps that can move one: nothing when no source
    has color 0, and per phase as many steps as the longest forward queue
    (at most M).  The caller charges the protocol's full rounds.
    """
    ell = cfg.cycle_len
    if not any(colors.get(v) == 0 for v in cfg.sources):
        return False
    ledger = ledger if ledger is not None else CostLedger()
    net = net if net is not None else CongestNet(graph)
    m_bound = cfg.congestion_bound

    def color(v: int) -> Optional[int]:
        return colors.get(v) if v in cfg.active else None

    # received[v]: ids in arrival order; from_up/from_down: chain-tagged ids
    # at the meeting color (even lengths only)
    received: Dict[int, List[int]] = {v: [] for v in cfg.active}
    from_up: Dict[int, Set[int]] = {v: set() for v in cfg.active}
    from_down: Dict[int, Set[int]] = {v: set() for v in cfg.active}

    # initial send: color-0 sources to color 1 / ell-1 neighbors, downhill
    outbox = []
    for v in sorted(cfg.sources):
        if color(v) != 0:
            continue
        for w in graph.neighbors(v):
            cw = color(w)
            if cw in (1, ell - 1) and cfg.height(w) <= cfg.height(v):
                outbox.append((v, w, v))
    inbox = congest_step(net, outbox, ledger, phase="color-bfs")
    for (u, v), word in sorted(inbox.items()):
        if word not in received[v]:
            received[v].append(word)

    phases = ell // 2 - 1
    for phase_i in range(1, phases + 1):
        up_color, up_next = phase_i, phase_i + 1
        down_color, down_next = ell - phase_i, ell - phase_i - 1
        # snapshot forward queues: first M ids received before this phase
        queues: Dict[int, List[int]] = {}
        for v in cfg.active:
            cv = color(v)
            if cv in (up_color, down_color):
                queues[v] = received[v][:m_bound]
        for step in range(max(map(len, queues.values()), default=0)):
            outbox = []
            for v in sorted(queues):
                q = queues[v]
                if step >= len(q):
                    continue
                word = q[step]
                cv = color(v)
                nxt = up_next if cv == up_color else down_next
                for w in graph.neighbors(v):
                    if color(w) == nxt:
                        outbox.append((v, w, word))
            inbox = congest_step(net, outbox, ledger, phase="color-bfs")
            for (u, v) in sorted(inbox):
                word = inbox[(u, v)]
                if word not in received[v]:
                    received[v].append(word)
                cu = color(u)
                if ell % 2 == 0 and color(v) == ell // 2:
                    if cu == ell // 2 - 1:
                        from_up[v].add(word)
                    elif cu == ell // 2 + 1:
                        from_down[v].add(word)

    if ell % 2 == 0:
        mid = ell // 2
        for v in cfg.active:
            if color(v) == mid and from_up[v] & from_down[v]:
                return True
        return False
    lo, hi = (ell - 1) // 2, (ell + 1) // 2
    for a in cfg.active:
        if color(a) != lo:
            continue
        held_a = set(received[a])
        if not held_a:
            continue
        for b in graph.neighbors(a):
            if color(b) == hi and held_a & set(received[b]):
                return True
    return False

# ---------------------------------------------------------------------------
# event engine: exact detection-event sampling over candidate cycles
# ---------------------------------------------------------------------------


def measure_congestion(graph: Graph, cfg: ColorBfsConfig) -> Dict[int, int]:
    """m(v): how many source ids node v may need to forward in one repetition.

    Counts sources w with an active path w = w_0, ..., w_j = v for
    1 <= j <= floor(len/2) - 1 whose first hop goes downhill
    (h(w_1) <= h(w_0)).
    """
    hops = cfg.cycle_len // 2 - 1
    counts = {v: 0 for v in cfg.active}
    if hops < 1:
        return counts
    for w in cfg.sources:
        frontier = {
            u
            for u in graph.neighbors(w)
            if u in cfg.active and cfg.height(u) <= cfg.height(w)
        }
        reached = set(frontier)
        for _ in range(hops - 1):
            nxt = set()
            for u in frontier:
                for x in graph.neighbors(u):
                    if x in cfg.active and x not in reached:
                        nxt.add(x)
            reached |= nxt
            frontier = nxt
        for v in reached:
            counts[v] += 1
    return counts


def _qualifying_patterns(
    graph: Graph,
    cfg: ColorBfsConfig,
    core: Optional[int] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Tuple[List[Tuple[Tuple[int, ...], int]], bool]:
    """(anchored cycles that can fire, congestion_exceeded flag).

    An anchored cycle qualifies when the anchor is a source whose two cycle
    neighbors sit at height <= the anchor's, all nodes are active, and no
    cycle node's measured congestion exceeds M.  Congestion-hit cycles are
    dropped (counted against completeness, never soundness).

    `core` is a mask of active nodes that holds every cycle of the active
    subgraph, such as its 2-core; the enumeration runs inside it.  Without
    it, the enumeration runs over the whole active set.  Congestion is
    measured only when there are more than M sources: m(v) <= |sources|,
    so with at most M sources no cycle is dropped.  `stats` counts the
    queries whose patterns were cut short: `enumeration_truncated` when a
    source hit CYCLE_ENUM_LIMIT, `pattern_capped` when _PATTERN_CAP
    stopped the enumeration.
    """
    ell = cfg.cycle_len
    if core is None:
        core = 0
        for v in cfg.active:
            core |= 1 << v
    congestion = (measure_congestion(graph, cfg)
                  if len(cfg.sources) > cfg.congestion_bound else None)
    out: List[Tuple[Tuple[int, ...], int]] = []
    exceeded = truncated = capped = False
    seen: Set[Tuple[int, ...]] = set()
    for src in sorted(cfg.sources):
        try:
            for cyc in iter_cycles(graph, ell, active_mask=core,
                                   through=src, limit=CYCLE_ENUM_LIMIT):
                # distinct cycles may share a node set; canonicalize the sequence
                canon = _canonical_cycle(cyc)
                if canon in seen:
                    continue
                seen.add(canon)
                if congestion is not None and any(
                        congestion[v] > cfg.congestion_bound for v in cyc):
                    exceeded = True
                    continue
                for pos, v in enumerate(cyc):
                    if v not in cfg.sources:
                        continue
                    prv = cyc[(pos - 1) % ell]
                    nxt = cyc[(pos + 1) % ell]
                    if cfg.height(prv) <= cfg.height(v) and cfg.height(nxt) <= cfg.height(v):
                        out.append((cyc, pos))
                if len(out) >= _PATTERN_CAP:
                    break
        except CycleEnumerationLimit:
            # keep the cycles gathered so far: sampling over a subset of the
            # detection events stays sound, only completeness is understated
            truncated = True
        if len(out) >= _PATTERN_CAP:
            capped = True
            break
    if stats is not None:
        for key, hit in (("enumeration_truncated", truncated), ("pattern_capped", capped)):
            if hit:
                stats[key] = stats.get(key, 0) + 1
    return out[:_PATTERN_CAP], exceeded


def _pattern_specs(patterns: Sequence[Tuple[Tuple[int, ...], int]],
                   ell: int) -> Tuple[List[int], List[np.ndarray]]:
    """(relevant nodes, specs).  There is one spec per orientation of each
    pattern: the positions in relevant of its nodes, read from the anchor."""
    relevant = sorted({v for cyc, _ in patterns for v in cyc})
    index = {v: i for i, v in enumerate(relevant)}
    specs = [np.array([index[cyc[(pos + orient * j) % ell]] for j in range(ell)],
                      dtype=np.int64)
             for cyc, pos in patterns for orient in (1, -1)]
    return relevant, specs


def _fires(colors: np.ndarray, specs: Sequence[np.ndarray]) -> bool:
    """Does some row of colors (repetitions x relevant nodes) read 0..ell-1
    along some spec?"""
    expected = np.arange(len(specs[0]), dtype=np.uint8)
    return any(bool((colors[:, idx] == expected).all(axis=1).any()) for idx in specs)


def event_detect_once(
    graph: Graph, cfg: ColorBfsConfig, colors: Mapping[int, int]
) -> bool:
    """Single-repetition detection under the event engine, fixed colors."""
    patterns, _ = _qualifying_patterns(graph, cfg)
    if not patterns:
        return False
    relevant, specs = _pattern_specs(patterns, cfg.cycle_len)
    return _fires(np.array([[colors[v] for v in relevant]], dtype=np.uint8), specs)


def _event_found(
    graph: Graph, cfg: ColorBfsConfig, seed_parts: Tuple,
    record: Optional[Dict[str, int]] = None,
    core: Optional[int] = None,
) -> bool:
    """Did any of cfg.repetitions random colorings detect?  Exact sampling.

    Only colors of nodes on qualifying cycles matter; everything else is
    independent of the detection event, so the sampling restricts to them.
    Cycles whose nodes exceed the congestion bound were dropped upstream;
    `record` counts those runs (they reduce completeness, never soundness)
    and the truncations of `_qualifying_patterns`, which `core` restricts.
    """
    patterns, exceeded = _qualifying_patterns(graph, cfg, core, record)
    if record is not None and exceeded:
        record["congestion_dropped"] = record.get("congestion_dropped", 0) + 1
    if not patterns:
        return False
    ell = cfg.cycle_len
    relevant, specs = _pattern_specs(patterns, ell)
    rng = np.random.default_rng(_derive_seed(*seed_parts))
    remaining = cfg.repetitions
    while remaining > 0:
        block = min(remaining, _SAMPLE_BLOCK)
        colors = rng.integers(0, ell, size=(block, len(relevant)), dtype=np.uint8)
        if _fires(colors, specs):
            return True
        remaining -= block
    return False


def _protocol_found(net: CongestNet, cfg: ColorBfsConfig, seed_parts: Tuple) -> bool:
    """Did any of cfg.repetitions random colorings detect, hop by hop?"""
    rng = random.Random(_derive_seed("color-bfs-protocol", _derive_seed(*seed_parts)))
    scratch = CostLedger()
    for _ in range(cfg.repetitions):
        colors = {v: rng.randrange(cfg.cycle_len) for v in sorted(cfg.active)}
        if protocol_detect_once(net.graph, cfg, colors, net=net, ledger=scratch):
            return True
    return False


# ---------------------------------------------------------------------------
# the search stage shared by both detectors
# ---------------------------------------------------------------------------


def _check_engine(engine: str) -> None:
    if engine not in ("event", "protocol"):
        raise ValueError(f"unknown engine {engine!r}")


def _stage_search(
    net: CongestNet,
    queries: Sequence[Tuple[FrozenSet[int], int]],
    shared: ColorBfsConfig,
    tag: str,
    phase: str,
    ledger: CostLedger,
    seed: int,
    params: QuantumCostParams,
    engine: str,
    stats: Optional[Dict[str, int]],
) -> bool:
    """One search stage: a quantum search over source sets, one colour BFS each.

    Query i runs the colour BFS of `shared` (its length, active nodes,
    heights, M and repetitions; its sources are not read) from the source
    set queries[i][0], seeded by (tag, seed, queries[i][1]).  The event
    engine samples the detection event inside the 2-core of the active
    nodes; the protocol engine runs the protocol hop by hop.  A detection
    is reported to the leader by the query's first source.  Every query is
    priced by _query_rounds at the measured eccentricity.  A stage with no
    source sets searches nothing and charges nothing.
    """
    if not queries:
        return False
    ell, active, heights = shared.cycle_len, shared.active, shared.heights
    m_bound, reps = shared.congestion_bound, shared.repetitions
    graph = net.graph
    core = two_core(graph, sum(1 << v for v in active))
    query_rounds = _query_rounds(ell, reps, m_bound, net.eccentricity)

    def checker(i: int) -> Tuple[bool, int]:
        sources, label = queries[i]
        cfg = ColorBfsConfig(ell, active, sources, heights, m_bound, reps)
        if engine == "event":
            found = _event_found(graph, cfg, (tag, seed, label), record=stats, core=core)
        else:
            found = _protocol_found(net, cfg, (tag, seed, label))
        if found:
            net.require_reachable(sorted(sources)[:1])
        return found, query_rounds

    outcome = run_search(len(queries), checker, ledger, params, seed=seed,
                         model="congest", phase=phase)
    if stats is not None:
        stats["queries"] = stats.get("queries", 0) + outcome.queries_evaluated
    return outcome.found


# ---------------------------------------------------------------------------
# odd cycles: flat search over all nodes
# ---------------------------------------------------------------------------


def odd_cycle_repetitions(n: int, ell: int) -> int:
    """Per-query success >= 1 - 1/n^2 when a cycle through the source exists."""
    return repetitions_for(single_rep_success(ell), 1.0 / (n * n))


def detect_odd_cycle(
    graph: Graph,
    ell: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    engine: str = "event",
    stats: Optional[Dict[str, int]] = None,
) -> bool:
    """Search over source nodes; each query is a single-source color BFS."""
    if ell % 2 == 0:
        raise ValueError("even length: use detect_even_cycle")
    _check_engine(engine)
    if not 5 <= ell <= graph.n:
        raise ValueError(f"need 5 <= ell <= n, got ell={ell}, n={graph.n}")
    n = graph.n
    shared = ColorBfsConfig(ell, frozenset(range(n)), frozenset(),
                            repetitions=odd_cycle_repetitions(n, ell))
    return _stage_search(CongestNet(graph), [(frozenset({v}), v) for v in range(n)],
                         shared, "odd", "odd-cycle/search", ledger, seed, params,
                         engine, stats)


def odd_cycle_cost_only(
    n: int,
    ell: int,
    ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> None:
    query_rounds = _query_rounds(ell, odd_cycle_repetitions(n, ell), 1, 1)
    charge_search(ledger, n, query_rounds, params, "congest", "odd-cycle/search")


# ---------------------------------------------------------------------------
# forest decomposition of the light nodes
# ---------------------------------------------------------------------------


def _forest_layers(n: int) -> int:
    """Most layers a forest decomposition peels: ceil(2 log2 n), at least 1."""
    return max(1, math.ceil(2 * math.log2(max(n, 2))))


def forest_decomposition(
    graph: Graph,
    nodes: Iterable[int],
    a: int,
    ledger: CostLedger,
) -> Optional[Dict[int, int]]:
    """Iterative peel: layer i takes nodes of residual degree <= 2a.

    Returns node -> layer index (1-based), so each node has at most 2a
    neighbours in its own or a higher layer.  Up to _forest_layers(n)
    layers, one charged round each; a nonempty residue is a failure
    (returned as None, not an exception).
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    alive = set(nodes)
    residual = {v: sum(1 for u in graph.neighbors(v) if u in alive) for v in alive}
    layers: Dict[int, int] = {}
    max_layers = _forest_layers(graph.n)
    layer = 0
    while alive and layer < max_layers:
        layer += 1
        ledger.charge("forest-decomposition", "congest", "route", 1)
        peel = [v for v in alive if residual[v] <= 2 * a]
        if not peel:
            return None
        for v in peel:
            layers[v] = layer
            alive.discard(v)
        for v in peel:
            for u in graph.neighbors(v):
                if u in alive:
                    residual[u] -= 1
    if alive:
        return None
    return layers


# ---------------------------------------------------------------------------
# even cycles: prune, heavy search, light search
# ---------------------------------------------------------------------------


def even_cycle_repetitions(two_k: int) -> int:
    """Per-query success >= 0.99 for one qualifying anchored cycle."""
    return repetitions_for(single_rep_success(two_k), 0.01)


def detect_even_cycle(
    graph: Graph,
    two_k: int,
    ledger: CostLedger,
    seed: int = 0,
    ec_params: Optional[EvenCycleParams] = None,
    params: QuantumCostParams = DEFAULT_PARAMS,
    engine: str = "event",
    stats: Optional[Dict[str, int]] = None,
) -> bool:
    """Edge prune, then heavy-node search, then index-batched light search.

    All stages run (and charge) unconditionally so the ledger never depends
    on the answer; the result is their disjunction.
    """
    if two_k % 2 == 1:
        raise ValueError("odd length: use detect_odd_cycle")
    _check_engine(engine)
    if not 4 <= two_k <= graph.n:
        raise ValueError(f"need 4 <= two_k <= n, got {two_k}, n={graph.n}")
    k = two_k // 2
    ecp = ec_params if ec_params is not None else EvenCycleParams(k=k)
    if ecp.k != k:
        raise ValueError("EvenCycleParams.k disagrees with two_k")
    n = graph.n
    net = CongestNet(graph)
    reps = even_cycle_repetitions(two_k)

    # stage 1: the leader counts edges; too many for C_{2k}-freeness -> yes
    ledger.charge("even-cycle/prune", "congest", "converge", net.converge_cost(net.capacity))
    if graph.m > ecp.prune_const * ceil_pow(n, 1 + Fraction(1, k)):
        return True

    # stage 2: heavy cycles (single-source queries over the measured heavy set)
    heavy_threshold = ceil_pow(n, ecp.delta)
    heavy = [v for v in range(n) if graph.degree(v) >= heavy_threshold]
    shared = ColorBfsConfig(two_k, frozenset(range(n)), frozenset(), repetitions=reps)
    heavy_found = _stage_search(net, [(frozenset({v}), v) for v in heavy], shared,
                                "even-heavy", "even-cycle/heavy-search", ledger, seed, params,
                                engine, stats)

    # stage 3: light cycles via forest decomposition + index batching
    light = [v for v in range(n) if graph.degree(v) < heavy_threshold]
    a = ceil_scaled_pow(n, Fraction(1, k), 4)
    heights = forest_decomposition(graph, light, a, ledger)
    if heights is None:
        return True  # C_{2k}-free graphs admit the decomposition; reject
    n_idx = ceil_pow(n, ecp.alpha)
    rng = random.Random(_derive_seed("even-light-index", seed))
    by_index: List[List[int]] = [[] for _ in range(n_idx)]
    for v in sorted(light):
        by_index[rng.randrange(n_idx)].append(v)
    shared = ColorBfsConfig(two_k, frozenset(light), frozenset(), heights,
                            ecp.a_cong * word_capacity(n), reps)
    light_found = _stage_search(net, [(frozenset(vs), i) for i, vs in enumerate(by_index)],
                                shared, "even-light", "even-cycle/light-search", ledger, seed,
                                params, engine, stats)
    return heavy_found or light_found


def even_cycle_cost_only(
    n: int,
    m: int,
    two_k: int,
    ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
    ec_params: Optional[EvenCycleParams] = None,
) -> Optional[bool]:
    """Charge the even-cycle stages from analytic sizes.

    Where full runs measure, this takes the analytic value: the heavy-set
    size is the extremal bound n^(1 - 1/k - delta); every convergecast
    crosses eccentricity 1 (the prune's one word included); the light
    phase runs at its expected congestion M = 1 (the index partition is
    sized to make expected congestion constant); and the forest
    decomposition peels all _forest_layers(n) layers.
    Returns True when the edge prune alone decides, else None.
    """
    k = two_k // 2
    if two_k % 2 or k < 2:
        raise ValueError("two_k must be even and >= 4")
    ecp = ec_params if ec_params is not None else EvenCycleParams(k=k)
    query_rounds = _query_rounds(two_k, even_cycle_repetitions(two_k), 1, 1)
    ledger.charge("even-cycle/prune", "congest", "converge", 1)
    if m > ecp.prune_const * ceil_pow(n, 1 + Fraction(1, k)):
        return True
    heavy_domain = max(1, ceil_pow(n, 1 - Fraction(1, k) - ecp.delta))
    charge_search(ledger, heavy_domain, query_rounds, params, "congest",
                  "even-cycle/heavy-search")
    ledger.charge("forest-decomposition", "congest", "route", _forest_layers(n))
    light_domain = max(1, ceil_pow(n, ecp.alpha))
    charge_search(ledger, light_domain, query_rounds, params, "congest",
                  "even-cycle/light-search")
    return None
