"""CONGEST-model cycle detection via color-coded BFS and quantum search.

The color-coded BFS assigns each active node a uniform color in
0..len-1; color-0 sources send their id downhill (height-wise) to color-1
and color-(len-1) neighbors, then floor(len/2)-1 phases of M rounds each
forward ids along the two color-increasing chains.  A detection means the
two chains carrying the same id meet, which forces len distinct colors and
hence a genuine simple len-cycle: no false positives, ever.

Two engines compute the same detection event:

* "protocol": faithful hop-by-hop simulation over congest_step, including
  the congestion cap M (forward only the first M ids received).
* "event": exact sampling of the detection event over the enumerated
  candidate cycles.  A repetition detects iff some qualifying (cycle,
  anchor) pair is pattern-colored; runs whose cycle nodes exceed the
  congestion bound are conservatively counted as misses, per the
  completeness accounting.

Both engines charge identical rounds: reps * (1 + (floor(len/2)-1) * M)
plus one leader convergecast.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .graph import CycleEnumerationLimit, Graph, iter_cycles, two_core
from .intmath import ceil_pow, ceil_scaled_pow
from .netsim import CongestNet, CostLedger, congest_step
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
class ForestDecomposition:
    """Layering where each node has few same-or-higher-layer neighbors."""

    layers: Mapping[int, int]  # node -> layer index, 1-based
    bound: int  # the peel threshold parameter a


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


@lru_cache(maxsize=None)
def single_rep_success(ell: int) -> Fraction:
    """Single-repetition detection probability for one anchored cycle.

    Exact enumeration of the colorings of an isolated ell-cycle with a
    single source at its anchor (feasible directly for small ell; beyond
    that the count per anchored orientation is the same two colorings, as
    the enumeration confirms on the small cases).
    """
    if ell < 3:
        raise ValueError("ell must be >= 3")
    if ell <= 6:
        cycle = tuple(range(ell))
        count = 0
        for colors in product(range(ell), repeat=ell):
            if _cycle_pattern_detects(cycle, 0, colors):
                count += 1
        return Fraction(count, ell**ell)
    return Fraction(2, ell**ell)


def _canonical_cycle(cyc: Sequence[int]) -> Tuple[int, ...]:
    """Rotation/reflection-invariant representative of a cycle sequence."""
    ell = len(cyc)
    i = min(range(ell), key=lambda j: cyc[j])
    fwd = tuple(cyc[(i + j) % ell] for j in range(ell))
    bwd = tuple(cyc[(i - j) % ell] for j in range(ell))
    return min(fwd, bwd)


def _cycle_pattern_detects(cycle: Sequence[int], anchor_pos: int, colors: Sequence[int]) -> bool:
    """Does this coloring fire the BFS pattern for the anchored cycle?"""
    ell = len(cycle)
    for orient in (1, -1):
        if all(colors[cycle[(anchor_pos + orient * j) % ell]] == j for j in range(ell)):
            return True
    return False


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


def event_detect_once(
    graph: Graph, cfg: ColorBfsConfig, colors: Mapping[int, int]
) -> bool:
    """Single-repetition detection under the event engine, fixed colors."""
    patterns, _ = _qualifying_patterns(graph, cfg)
    for cyc, pos in patterns:
        colors_by_pos = [colors[v] for v in cyc]
        if _cycle_pattern_detects(range(len(cyc)), pos, colors_by_pos):
            return True
    return False


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
    relevant = sorted({v for cyc, _ in patterns for v in cyc})
    index = {v: i for i, v in enumerate(relevant)}
    specs = []
    for cyc, pos in patterns:
        for orient in (1, -1):
            idx = np.array(
                [index[cyc[(pos + orient * j) % ell]] for j in range(ell)],
                dtype=np.int64,
            )
            expected = np.arange(ell, dtype=np.uint8)
            specs.append((idx, expected))
    rng = np.random.default_rng(_derive_seed(*seed_parts))
    remaining = cfg.repetitions
    while remaining > 0:
        block = min(remaining, _SAMPLE_BLOCK)
        colors = rng.integers(0, ell, size=(block, len(relevant)), dtype=np.uint8)
        for idx, expected in specs:
            if bool((colors[:, idx] == expected).all(axis=1).any()):
                return True
        remaining -= block
    return False


# ---------------------------------------------------------------------------
# color_bfs entry point
# ---------------------------------------------------------------------------


def color_bfs(
    net: CongestNet,
    cfg: ColorBfsConfig,
    seed: int = 0,
    ledger: Optional[CostLedger] = None,
    engine: str = "protocol",
) -> Tuple[bool, int]:
    """Run the repetitions and report to the leader: (found, rounds charged).

    Rounds follow the protocol structure exactly; the event engine only
    shortcuts their execution.
    """
    bfs_rounds = cfg.repetitions * color_bfs_rep_rounds(cfg.cycle_len, cfg.congestion_bound)
    report_rounds = net.converge_cost(1)
    if ledger is not None:
        ledger.charge("color-bfs", "congest", "route", bfs_rounds)
        ledger.charge("color-bfs/report", "congest", "converge", report_rounds)
    if engine == "event":
        found = _event_found(net.graph, cfg, ("color-bfs", seed))
    elif engine == "protocol":
        found = _protocol_found(net, cfg, seed)
        if found:
            net.require_reachable(sorted(cfg.sources)[:1])
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return found, bfs_rounds + report_rounds


def _protocol_found(net: CongestNet, cfg: ColorBfsConfig, seed: int) -> bool:
    """Did any of cfg.repetitions random colorings detect, hop by hop?"""
    rng = random.Random(_derive_seed("color-bfs-protocol", seed))
    scratch = CostLedger()
    for _ in range(cfg.repetitions):
        colors = {v: rng.randrange(cfg.cycle_len) for v in sorted(cfg.active)}
        if protocol_detect_once(net.graph, cfg, colors, net=net, ledger=scratch):
            return True
    return False


def _query_found(
    net: CongestNet,
    cfg: ColorBfsConfig,
    seed_parts: Tuple,
    engine: str,
    stats: Optional[Dict[str, int]],
    core: int,
) -> bool:
    """One search query of a cycle detector: did cfg's color BFS detect?

    The event engine samples the detection event inside `core`; any other
    engine runs the protocol hop by hop, seeded from `seed_parts`.  A
    detection is reported to the leader by the first source.
    """
    if engine == "event":
        found = _event_found(net.graph, cfg, seed_parts, record=stats, core=core)
    else:
        found = _protocol_found(net, cfg, _derive_seed(*seed_parts))
    if found:
        net.require_reachable(sorted(cfg.sources)[:1])
    return found


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
    if not 5 <= ell <= graph.n:
        raise ValueError(f"need 5 <= ell <= n, got ell={ell}, n={graph.n}")
    net = CongestNet(graph)
    n = graph.n
    reps = odd_cycle_repetitions(n, ell)
    query_rounds = reps * color_bfs_rep_rounds(ell, 1) + net.converge_cost(1)
    all_nodes = frozenset(range(n))
    core = two_core(graph, (1 << n) - 1)

    def checker(v: int) -> Tuple[bool, int]:
        cfg = ColorBfsConfig(cycle_len=ell, active=all_nodes, sources=frozenset({v}),
                             congestion_bound=1, repetitions=reps)
        return _query_found(net, cfg, ("odd", seed, v), engine, stats, core), query_rounds

    outcome = run_search(n, checker, ledger, params, seed=seed, model="congest",
                         phase="odd-cycle/search")
    if stats is not None:
        stats["queries"] = stats.get("queries", 0) + outcome.queries_evaluated
    return outcome.found


def odd_cycle_cost_only(
    n: int,
    ell: int,
    ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> None:
    reps = odd_cycle_repetitions(n, ell)
    query_rounds = reps * color_bfs_rep_rounds(ell, 1) + 1  # + a one-round convergecast
    charge_search(ledger, n, query_rounds, params, "congest", "odd-cycle/search")


# ---------------------------------------------------------------------------
# forest decomposition of the light nodes
# ---------------------------------------------------------------------------


def forest_decomposition(
    graph: Graph,
    nodes: Iterable[int],
    a: int,
    ledger: CostLedger,
) -> Optional[ForestDecomposition]:
    """Iterative peel: layer i takes nodes of residual degree <= 2a.

    Up to ceil(2 log2 n) layers, one charged round each; a nonempty residue
    is a failure (returned as None, not an exception).
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    alive = set(nodes)
    residual = {v: sum(1 for u in graph.neighbors(v) if u in alive) for v in alive}
    layers: Dict[int, int] = {}
    max_layers = max(1, math.ceil(2 * math.log2(max(graph.n, 2))))
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
    return ForestDecomposition(layers=layers, bound=a)


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
    all_nodes = frozenset(range(n))
    heavy_query_rounds = reps * color_bfs_rep_rounds(two_k, 1) + net.converge_cost(1)
    heavy_found = False
    if heavy:
        heavy_core = two_core(graph, (1 << n) - 1)

        def heavy_checker(i: int) -> Tuple[bool, int]:
            v = heavy[i]
            cfg = ColorBfsConfig(cycle_len=two_k, active=all_nodes, sources=frozenset({v}),
                                 congestion_bound=1, repetitions=reps)
            found = _query_found(net, cfg, ("even-heavy", seed, v), engine, stats, heavy_core)
            return found, heavy_query_rounds

        heavy_outcome = run_search(len(heavy), heavy_checker, ledger, params,
                                   seed=seed, model="congest",
                                   phase="even-cycle/heavy-search")
        heavy_found = heavy_outcome.found
        if stats is not None:
            stats["queries"] = stats.get("queries", 0) + heavy_outcome.queries_evaluated

    # stage 3: light cycles via forest decomposition + index batching
    light = [v for v in range(n) if graph.degree(v) < heavy_threshold]
    a = ceil_scaled_pow(n, Fraction(1, k), 4)
    decomp = forest_decomposition(graph, light, a, ledger)
    if decomp is None:
        return True  # C_{2k}-free graphs admit the decomposition; reject
    heights = dict(decomp.layers)
    n_idx = ceil_pow(n, ecp.alpha)
    rng = random.Random(_derive_seed("even-light-index", seed))
    by_index: List[List[int]] = [[] for _ in range(n_idx)]
    for v in sorted(light):
        by_index[rng.randrange(n_idx)].append(v)
    light_sources = [frozenset(vs) for vs in by_index]
    m_bound = ecp.a_cong * max(1, math.ceil(math.log2(max(n, 2))))
    light_query_rounds = reps * color_bfs_rep_rounds(two_k, m_bound) + net.converge_cost(1)
    light_active = frozenset(light)
    light_core = two_core(graph, sum(1 << v for v in light))

    def light_checker(i: int) -> Tuple[bool, int]:
        cfg = ColorBfsConfig(cycle_len=two_k, active=light_active, sources=light_sources[i],
                             heights=heights, congestion_bound=m_bound, repetitions=reps)
        found = _query_found(net, cfg, ("even-light", seed, i), engine, stats, light_core)
        return found, light_query_rounds

    light_outcome = run_search(n_idx, light_checker, ledger, params, seed=seed,
                               model="congest", phase="even-cycle/light-search")
    if stats is not None:
        stats["queries"] = stats.get("queries", 0) + light_outcome.queries_evaluated
    return heavy_found or light_outcome.found


def even_cycle_cost_only(
    n: int,
    m: int,
    two_k: int,
    ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
    ec_params: Optional[EvenCycleParams] = None,
) -> Optional[bool]:
    """Charge the even-cycle stages from analytic sizes.

    The light-phase congestion is charged at its expected value (M = 1,
    the index partition is sized to make expected congestion constant);
    the heavy-set size uses the extremal bound n^(1 - 1/k - delta).  Each
    convergecast is charged one round (eccentricity 1, one word).
    Returns True when the edge prune alone decides, else None.
    """
    k = two_k // 2
    if two_k % 2 or k < 2:
        raise ValueError("two_k must be even and >= 4")
    ecp = ec_params if ec_params is not None else EvenCycleParams(k=k)
    reps = even_cycle_repetitions(two_k)
    ledger.charge("even-cycle/prune", "congest", "converge", 1)
    if m > ecp.prune_const * ceil_pow(n, 1 + Fraction(1, k)):
        return True
    heavy_domain = max(1, ceil_pow(n, 1 - Fraction(1, k) - ecp.delta))
    heavy_query = reps * color_bfs_rep_rounds(two_k, 1) + 1
    charge_search(ledger, heavy_domain, heavy_query, params, "congest",
                  "even-cycle/heavy-search")
    layers = max(1, math.ceil(2 * math.log2(max(n, 2))))
    ledger.charge("forest-decomposition", "congest", "route", layers)
    light_domain = max(1, ceil_pow(n, ecp.alpha))
    light_query = reps * color_bfs_rep_rounds(two_k, 1) + 1
    charge_search(ledger, light_domain, light_query, params, "congest",
                  "even-cycle/light-search")
    return None
