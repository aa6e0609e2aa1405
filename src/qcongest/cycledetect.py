"""CONGEST-model cycle detection via color-coded BFS and quantum search.

The color-coded BFS assigns each active node a uniform color in
0..len-1; color-0 sources send their id to color-1 and color-(len-1)
neighbors, then floor(len/2)-1 phases of M rounds each forward ids along
the two color-increasing chains.  A detection means the two chains
carrying the same id meet, which forces len distinct colors and hence a
genuine simple len-cycle: no false positives, ever.

Colour coding (Alon-Yuster-Zwick, JACM 1995) and the heavy/light scheme
for even cycles (Eden-Fiat-Fischer-Kuhn-Oshman, DISC 2019) repeat one
query over different source sets, cycle_repetitions(n, len) times, the one
rule: failure target 1/n^2 per query for odd len, 0.01 for even len.  Each
search stage is one _stage_search in one shape: its source union, its
query count, and a builder of its queries (each node for odd cycles, each
heavy node, each light index class), called only when it is walked.  A
query runs the colour BFS from one source set and reports to the leader;
_query_rounds prices it at reps * (1 + (floor(len/2)-1) * M) plus an
eccentricity-long convergecast.  Full runs price it at the measured
eccentricity and M; cycle_cost_only, the cost-only entry of both
parities, at eccentricity 1 and M = 1, and charges each stage's triple
([domain], [], query) via charge_search.  Both detectors and
cycle_cost_only refuse exactly the (n, len) inapplicable() refuses, those
without a finite repetition count among them.  The ledger also counts the
queries answered and the queries whose candidate cycles were truncated,
capped or dropped for congestion.  Every node set (active nodes, sources,
the heavy and light sets, the light index classes) is an int mask over
node ids, as graph.adj is, and is walked in ascending order with bits().

Each stage first asks two facts that the graph computes once and keeps:
its 2-core (Graph.two_core()), which holds every cycle of every subgraph,
and whether it is bipartite (Graph.leader_bfs().bipartite), so that it has
no odd cycle.  A stage none of whose sources lies on the 2-core, or a
stage of odd len on a bipartite graph, cannot fire: it charges and counts
its queries without building or walking them, and no cycle is enumerated
(so on a forest, whose 2-core is empty, no stage is walked).  Otherwise
each stage, on either engine, enumerates its candidate cycles once,
lazily, into one _CycleIndex that settles what cannot fire before
anything is simulated or drawn; the index files at most CYCLE_ENUM_LIMIT
cycles, found in at most CYCLE_SEARCH_STEPS search steps.  One test,
_CycleIndex.may_fire(), says whether sources can fire: no pattern
anchored there, and no truncation that may have lost one, means they
cannot.  A stage whose sources together cannot fire is settled as a
forest's stage is; otherwise a query that cannot fire answers False from
one mask test, on either engine.  The enumeration has two no-cycle
prunes: iter_cycles visits only the anchors on the 2-core, and skips one
that the certificates of graph.anchor_ball show to lie on no C_len.

The prices of a detection that depend on (n, len) alone (the repetitions,
the heavy threshold, the number of light index classes, the edge prune's
limit, the analytic heavy domain and, in qsearch, each search's charge)
are computed once per key and kept.

Two engines compute the same detection event:

* "protocol": faithful hop-by-hop simulation over congest_step, including
  the congestion cap M (forward only the first M ids received).  Each
  repetition's colouring is ell colour masks, one per colour.  Only
  repetitions in which a source has colour 0 send a word: the idle ones
  are skipped in one geometric draw, a live one draws its source colours
  conditioned on being live, and only nodes within floor(len/2) hops of a
  source, as far as a word travels, draw a colour.  A query the index
  clears is not simulated: every detection is a qualifying pattern.
* "event": an exact draw of the detection event over the enumerated
  candidate cycles.  A repetition detects iff some qualifying (cycle,
  anchor) pair is pattern-colored; runs whose cycle nodes exceed the
  congestion bound are conservatively counted as misses, per the
  completeness accounting.  A query with at most _EXACT_CAP patterns gets
  its per-repetition success probability P by inclusion-exclusion and
  detects on one uniform below 1 - (1 - P)^reps; a query with more
  samples its repetitions' colours in blocks, or draws proposals past
  _BLOCK_REPS repetitions, and is counted as `pattern_sampled`.

Both engines charge identical rounds.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .graph import Graph, SearchCut, ball, bits, iter_cycles, mask_of
from .intmath import ceil_pow
from .netsim import CongestNet, CostLedger, congest_step, word_capacity
from .qsearch import (DEFAULT_PARAMS, QuantumCostParams, charge_search, derive_seed,
                      record_search, run_search)

CYCLE_ENUM_LIMIT = 200_000  # cycles of one search stage's enumeration
CYCLE_SEARCH_STEPS = 2_000_000  # search steps of one search stage's enumeration
_PATTERN_CAP = 4096  # anchored cycles per query; a subset is still sound
_EXACT_CAP = 6  # patterns of a query whose P is exact: at most 3^6 - 1 terms
_SAMPLE_BLOCK = 1 << 15
_BLOCK_REPS = 1 << 26  # the most repetitions drawn in blocks; a query with more proposes


@dataclass(frozen=True)
class ColorBfsConfig:
    """The colour BFS of one search stage; active is a node mask.  Each
    query of the stage runs it from its own source mask."""

    cycle_len: int
    active: int
    congestion_bound: int = 1
    repetitions: int = 1

    def __post_init__(self):
        if self.cycle_len < 3:
            raise ValueError("cycle_len must be >= 3")
        if self.congestion_bound < 1:
            raise ValueError("congestion bound M must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


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


def repetitions_for(p_success: Fraction, failure_target: float) -> int:
    """R = ceil(ln(1/f) / p), so (1 - p)^R <= e^(-pR) <= f = failure_target.

    This may exceed the smallest such R by a little, since ln(1/(1 - p))
    is slightly above p.  The quotient is a float: OverflowError or
    ZeroDivisionError where it is not finite.
    """
    if not 0 < p_success <= 1:
        raise ValueError("p_success must be in (0,1]")
    if not 0 < failure_target < 1:
        raise ValueError("failure_target must be in (0,1)")
    return max(1, math.ceil(math.log(1.0 / failure_target) / float(p_success)))


@functools.lru_cache(maxsize=1024)
def cycle_repetitions(n: int, ell: int) -> Optional[int]:
    """The colour-BFS repetitions of one query for a C_ell on n >= ell
    nodes, the one repetition rule of both detectors and cycle_cost_only:
    repetitions_for at the failure target 1/n^2 for odd ell and 0.01 for
    even ell.  None where the count is not a finite float: from ell = 143
    on, and for odd ell once n passes about 1.34e154, where the float
    1/n^2 has no finite reciprocal.  Computed once per (n, ell)."""
    try:
        return repetitions_for(single_rep_success(ell), 1.0 / (n * n) if ell % 2 else 0.01)
    except (OverflowError, ZeroDivisionError):
        return None


def _query_rounds(ell: int, reps: int, m_bound: int, ecc: int) -> int:
    """Rounds of one query: reps colour-BFS repetitions at congestion bound
    m_bound, each an initial send and floor(ell/2) - 1 phases of m_bound
    rounds, then a one-word convergecast over ecc hops to the leader."""
    return reps * (1 + (ell // 2 - 1) * m_bound) + ecc


# ---------------------------------------------------------------------------
# protocol engine: hop-by-hop simulation
# ---------------------------------------------------------------------------


def protocol_detect_once(
    graph: Graph,
    cfg: ColorBfsConfig,
    sources: int,
    by_colour: Sequence[int],
) -> bool:
    """One repetition from the source mask `sources` with fixed colors,
    message by message.

    The colouring is given as ell disjoint node masks: by_colour[c] holds
    the active nodes of colour c.  A node in no mask never receives a word,
    so nodes more than floor(ell/2) hops from every source, which no word
    reaches, may be left out.  A word's
    receivers are adj[sender] & by_colour[c], ascending, so every step's
    triples come senders ascending, then receivers ascending.  Ids received
    in a round are ordered by sender id; each node forwards only the first
    M ids it has received.  For even lengths, detection is a color-(len/2)
    node holding the same id from both chains; for odd lengths, an edge
    between the two chain endpoints holding a common id.

    Steps that would carry no word are not simulated: none when no source
    has color 0, and per phase as many steps as the longest forward queue
    (at most M).  The caller charges the protocol's full rounds.
    """
    ell = cfg.cycle_len
    starts = by_colour[0] & sources
    if not starts:
        return False
    m_bound = cfg.congestion_bound
    adj = graph.adj

    # received[v]: ids in arrival order; from_up/from_down: chain-tagged ids
    # at the meeting color ell/2 (even lengths only), sent from ell/2 - 1
    # and ell/2 + 1
    received: Dict[int, List[int]] = {}
    from_up: Dict[int, Set[int]] = {}
    from_down: Dict[int, Set[int]] = {}
    meet = by_colour[ell // 2] if ell % 2 == 0 else 0

    def deliver(inbox: Dict[Tuple[int, int], object]) -> None:
        # inbox keeps its outbox's order: (sender, receiver) ascending
        for (u, v), word in inbox.items():
            got = received.setdefault(v, [])
            if word not in got:
                got.append(word)
            if meet >> v & 1:
                if by_colour[ell // 2 - 1] >> u & 1:
                    from_up.setdefault(v, set()).add(word)
                elif by_colour[ell // 2 + 1] >> u & 1:
                    from_down.setdefault(v, set()).add(word)

    # initial send: color-0 sources to color 1 / ell-1 neighbors
    ends = by_colour[1] | by_colour[ell - 1]
    deliver(congest_step(graph, [(v, w, v) for v in bits(starts) for w in bits(adj[v] & ends)]))

    phases = ell // 2 - 1
    for phase_i in range(1, phases + 1):
        up_color, up_next = phase_i, phase_i + 1
        down_color, down_next = ell - phase_i, ell - phase_i - 1
        # snapshot forward queues: per node with ids, the first M ids
        # received before this phase and the nodes of the next colour
        queues: Dict[int, Tuple[List[int], int]] = {}
        for v in bits(by_colour[up_color] | by_colour[down_color]):
            if v in received:
                nxt = up_next if by_colour[up_color] >> v & 1 else down_next
                queues[v] = (received[v][:m_bound], by_colour[nxt])
        for step in range(max((len(q) for q, _ in queues.values()), default=0)):
            outbox = []
            for v, (q, targets) in queues.items():
                if step < len(q):
                    outbox.extend((v, w, q[step]) for w in bits(adj[v] & targets))
            deliver(congest_step(graph, outbox))

    if ell % 2 == 0:
        return any(ids & from_down.get(v, set()) for v, ids in from_up.items())
    lo, hi = (ell - 1) // 2, (ell + 1) // 2
    for a in bits(by_colour[lo]):
        if a not in received:
            continue
        held_a = set(received[a])
        for b in bits(adj[a] & by_colour[hi]):
            if not held_a.isdisjoint(received.get(b, ())):
                return True
    return False

# ---------------------------------------------------------------------------
# event engine: exact detection-event sampling over candidate cycles
# ---------------------------------------------------------------------------


def measure_congestion(graph: Graph, cfg: ColorBfsConfig, sources: int) -> Dict[int, int]:
    """m(v): how many source ids node v may need to forward in one repetition.

    Counts the sources w of the mask `sources` with an active path
    w = w_0, ..., w_j = v for 1 <= j <= floor(len/2) - 1.
    """
    hops = cfg.cycle_len // 2 - 1
    counts = {v: 0 for v in bits(cfg.active)}
    if hops < 1:
        return counts
    adj, active = graph.adj, cfg.active
    for w in bits(sources):
        for v in bits(ball(adj, adj[w] & active, hops - 1, active)):
            counts[v] += 1
    return counts


class _CycleIndex:
    """The qualifying patterns of one search stage, enumerated once, lazily.

    One iter_cycles generator, anchored at the union of the stage's source
    sets inside its active nodes, yields each cycle through a source once,
    anchored at its smallest source, in ascending (lexicographic) order; a
    source off the 2-core costs nothing, and an anchor that
    graph.anchor_ball's no-cycle certificates clear costs one partial BFS.
    Each yielded cycle is filed under every source on it: the cycle read
    from that source is a pattern.  A query reads the lists of its own
    sources, so it sees the patterns that one enumeration anchored at its
    sources alone would give, whatever the order of the queries.

    Cycles are pulled only as far as a query needs: until the enumeration
    has passed the query's highest source t (every cycle through a source
    <= t has then been filed), or until the query's sources hold more than
    _PATTERN_CAP patterns that survive its congestion filter.  The index
    files at most CYCLE_ENUM_LIMIT cycles: it pulls one more to learn that
    the enumeration holds more, discards it and stops there.  Its search
    takes at most CYCLE_SEARCH_STEPS steps (iter_cycles' steps), which
    bounds the time between two cycles: a long length on a sparse graph
    may otherwise search for longer than any caller waits.

    `_filed` is the mask of the sources that anchor a filed pattern.
    may_fire() is the one test of whether a query has a pattern: it pulls
    the enumeration only as far as that question needs, and it answers
    "may fire" also where a bound cut the stage short at or below the
    query's highest source.  _stage_search asks it of the union of the
    stage's sources before the search runs, and of each query's sources
    before that query is checked.  patterns() asks it too, so it
    answers a query that cannot fire without measuring congestion or
    reading any list.
    """

    def __init__(self, graph: Graph, cfg: ColorBfsConfig, anchors: int):
        self._graph, self._cfg, self._anchors = graph, cfg, anchors
        # (how many cycles have been pulled, the cycle), counted from 1
        self._cycles = enumerate(iter_cycles(graph, cfg.cycle_len, active_mask=cfg.active,
                                             anchors=anchors, steps=CYCLE_SEARCH_STEPS), 1)
        self._through: Dict[int, List[Tuple[int, ...]]] = {}  # source -> cycles it anchors
        self._filed = 0  # the mask of the keys of _through
        # every cycle anchored below _front has been filed; graph.n once the
        # enumeration has ended
        self._front = 0
        self._truncated_at: Optional[int] = None  # the anchor where a bound cut it

    def _fill(self, sources: int, hot: int, top: int, have: int, cap: int) -> None:
        """File cycles until one anchored above top has been filed, or the
        query's sources hold more than cap patterns that touch no node of
        hot (`have` of them are filed already), or the enumeration ends, or
        it holds more than CYCLE_ENUM_LIMIT cycles, or its search is cut
        after CYCLE_SEARCH_STEPS steps.  Either bound keeps the cycles
        filed so far: a subset of the detection events stays sound, only
        completeness is understated."""
        anchors, through = self._anchors, self._through
        try:
            for count, cyc in self._cycles:
                if count > CYCLE_ENUM_LIMIT:
                    self._truncated_at = self._front
                    break
                self._front = cyc[0]
                mine = 0
                for v in cyc:
                    if not anchors >> v & 1:
                        continue
                    filed = through.get(v)
                    if filed is None:
                        through[v] = [cyc]
                        self._filed |= 1 << v
                    else:
                        filed.append(cyc)
                    mine += sources >> v & 1
                if mine and not (hot and any(hot >> u & 1 for u in cyc)):
                    have += mine
                if have > cap or cyc[0] > top:
                    return
        except SearchCut as cut:
            self._truncated_at = cut.anchor
        self._front = self._graph.n

    def _truncated_below(self, top: int) -> bool:
        """Did a bound cut the enumeration short at or below the source top?"""
        return self._truncated_at is not None and top >= self._truncated_at

    def may_fire(self, sources: int) -> bool:
        """Can the query from the source mask `sources` have a pattern?

        Pulls the enumeration up to the query's highest source, or until
        the first pattern at its sources is filed; then every pattern at
        its sources that the enumeration holds below that point is filed.
        False means that no qualifying pattern is anchored at its sources.
        True means one is filed, or a bound cut the stage short at or below
        its highest source, so that the patterns it lost may hold one.
        """
        top = sources.bit_length() - 1
        if not sources & self._filed and self._front <= top:
            self._fill(sources, 0, top, 0, 0)  # up to the first pattern at sources
        return bool(sources & self._filed) or self._truncated_below(top)

    def _read(self, sources: int, hot: int,
              k: int) -> Tuple[List[Tuple[Tuple[int, ...], int]], bool]:
        """(the first k filed patterns at sources, in enumeration order, that
        touch no node of the mask hot; whether a pattern before the k-th
        one touched hot and was dropped)."""
        candidates = []
        for v in bits(sources):
            left = k
            for cyc in self._through.get(v, ()):
                candidates.append((cyc, cyc.index(v)))
                if not (hot and any(hot >> u & 1 for u in cyc)):
                    left -= 1
                    if not left:
                        break
        candidates.sort()  # merges the sources' lists, each in enumeration order
        out, dropped = [], False
        for cyc, pos in candidates:
            if len(out) == k:
                break
            if hot and any(hot >> u & 1 for u in cyc):
                dropped = True
            else:
                out.append((cyc, pos))
        return out, dropped

    def patterns(self, sources: int) -> Tuple[List[Tuple[Tuple[int, ...], int]], Set[str]]:
        """(the anchored cycles of the query from the source mask `sources`
        that can fire, the ledger counters the query hit).

        A pattern qualifies when its anchor is a source and no node of its
        cycle has measured congestion above M.  Congestion is measured only
        when there are more than M sources: m(v) <= |sources|, so with at
        most M sources no cycle is dropped.  Congestion-hit cycles are dropped
        (counted against completeness, never soundness).  The counters
        name how the patterns were cut short: `congestion_dropped` when a
        pattern was dropped, `pattern_capped` when more than _PATTERN_CAP
        remained (the first _PATTERN_CAP in enumeration order are kept),
        and `enumeration_truncated` when the query's highest source is at or
        past the point where the stage's enumeration hit CYCLE_ENUM_LIMIT
        or CYCLE_SEARCH_STEPS (an over-approximation: that source may lie
        on no C_ell).

        Most queries have no pattern, and may_fire() tells them apart: a
        query it clears gets ([], no counter), and one that has no filed
        pattern but may fire for the truncation gets ([], the truncation
        counter), both measuring nothing.
        """
        if not self.may_fire(sources):
            return [], set()
        if not sources & self._filed:
            return [], {"enumeration_truncated"}
        top = sources.bit_length() - 1
        cfg, cap = self._cfg, _PATTERN_CAP
        hot = 0
        if sources.bit_count() > cfg.congestion_bound:
            hot = mask_of(v for v, m in measure_congestion(self._graph, cfg, sources).items()
                          if m > cfg.congestion_bound)
        if self._front <= top:
            self._fill(sources, hot, top, len(self._read(sources, hot, cap + 1)[0]), cap)
        out, dropped = self._read(sources, hot, cap + 1)
        hits = {"congestion_dropped"} if dropped else set()
        if len(out) > cap:
            hits.add("pattern_capped")
            del out[cap:]
        elif self._truncated_below(top):
            hits.add("enumeration_truncated")
        return out, hits


def _pattern_specs(patterns: Sequence[Tuple[Tuple[int, ...], int]],
                   ell: int) -> Tuple[List[int], np.ndarray]:
    """(relevant nodes, specs).  specs has one row per orientation of each
    pattern: the positions in relevant of its nodes, read from the anchor.
    One array, not an array per row, keeps the specs of thousands of
    patterns small."""
    relevant = list(bits(mask_of(v for cyc, _ in patterns for v in cyc)))
    index = {v: i for i, v in enumerate(relevant)}
    specs = np.fromiter((index[cyc[(pos + orient * j) % ell]]
                         for cyc, pos in patterns for orient in (1, -1) for j in range(ell)),
                        dtype=np.int64, count=2 * ell * len(patterns))
    return relevant, specs.reshape(-1, ell)


def _fires(colors: np.ndarray, specs: np.ndarray) -> bool:
    """Does some row of colors (repetitions x relevant nodes) read 0..ell-1
    along some row of specs?"""
    expected = np.arange(specs.shape[1], dtype=np.uint8)
    return any(bool((colors[:, idx] == expected).all(axis=1).any()) for idx in specs)


def _success_probability(patterns: Sequence[Tuple[Tuple[int, ...], int]],
                         ell: int) -> Fraction:
    """P(one uniform colouring fires some pattern), by inclusion-exclusion.

    Each orientation of a pattern is the event that its ell nodes read
    colours 0..ell-1 from the anchor.  The two orientations of a pattern
    give the anchor's neighbours colours 1 and ell-1 in opposite order, so
    they are disjoint and a set of events takes at most one of them.  A set
    that gives some node two colours is empty, and so is every superset;
    any other set of j events colouring c nodes adds (-1)^(j+1) ell^(-c).
    The walk extends only nonempty sets, with an explicit stack.
    """
    events = [[tuple((cyc[(pos + orient * j) % ell], j) for j in range(ell))
               for orient in (1, -1)]
              for cyc, pos in patterns]
    nodes = len({v for cyc, _ in patterns for v in cyc})
    count = 0  # the terms times ell^nodes: fired colourings of the pattern nodes
    stack = [(0, {}, -1)]  # (next pattern, colours the set demands, its sign)
    while stack:
        first, demand, sign = stack.pop()
        for i in range(first, len(events)):
            for event in events[i]:
                merged = dict(demand)
                if all(merged.setdefault(v, c) == c for v, c in event):
                    count -= sign * ell ** (nodes - len(merged))
                    stack.append((i + 1, merged, -sign))
    return Fraction(count, ell ** nodes)


def _proposal_found(rng: np.random.Generator, width: int, specs: np.ndarray,
                    reps: int) -> bool:
    """Does some row of reps uniform colourings of width relevant nodes read
    0..ell-1 along some row of specs?  Drawn from proposals, in work that
    does not grow with reps.

    Write K for the rows of specs and S = K / ell^ell, the sum of their
    probabilities (at most 1 here: K <= 2 _PATTERN_CAP < 9^9, and a length
    below 9 passes _BLOCK_REPS repetitions only on over 10^35 nodes).  A
    repetition proposes with probability S; a proposal picks a row
    uniformly, colours its nodes 0..ell-1 and every other relevant node
    uniformly, and is accepted with probability 1/N, N the number of rows
    that colouring fires (Karp-Luby-Madras, J. Algorithms 1989).  A
    colouring c that fires N(c) rows is proposed with probability
    N(c) ell^-width, so a repetition fires with probability
    sum over such c of ell^-width = P, as a uniform colouring does.  The
    proposals are Binomial(reps, S), Poisson(reps * S) past numpy's
    int64 (there reps * S^2 < 1e-11), and the answer is True iff one is
    accepted.
    """
    k, ell = specs.shape
    rate = k / ell**ell
    proposals = rng.binomial(reps, rate) if reps < 2**63 else rng.poisson(reps * rate)
    expected = np.arange(ell, dtype=np.uint8)
    for _ in range(proposals):
        colors = rng.integers(0, ell, size=width, dtype=np.uint8)
        colors[specs[rng.integers(k)]] = expected
        if rng.random() * (colors[specs] == expected).all(axis=1).sum() < 1:
            return True
    return False


def _event_found(patterns: Sequence[Tuple[Tuple[int, ...], int]], cfg: ColorBfsConfig,
                 seed_parts: Tuple) -> Tuple[bool, bool]:
    """(did any of cfg.repetitions random colourings fire one of the
    query's qualifying patterns?, was the detection sampled?).

    Exact.  Repetitions are independent, so with per-repetition success P
    some repetition detects with probability q = 1 - (1 - P)^reps.  With at
    most _EXACT_CAP patterns, P is exact (_success_probability) and one
    uniform of the query's stream is compared with q.  With more, the
    query samples, and the caller counts it as `pattern_sampled`: up to
    _BLOCK_REPS repetitions, it samples colourings in blocks of
    _SAMPLE_BLOCK repetitions; past that, where blocks would take time
    that grows as ell^ell, it draws proposals (_proposal_found).  Only
    colors of nodes on qualifying cycles matter; everything else is
    independent of the detection event, so the sampling restricts to them.
    No pattern means P = 0.
    """
    if not patterns:
        return False, False
    ell = cfg.cycle_len
    rng = np.random.default_rng(derive_seed(*seed_parts))
    if len(patterns) <= _EXACT_CAP:
        p = float(_success_probability(patterns, ell))
        return bool(rng.random() < -math.expm1(cfg.repetitions * math.log1p(-p))), False
    relevant, specs = _pattern_specs(patterns, ell)
    if cfg.repetitions > _BLOCK_REPS:
        return _proposal_found(rng, len(relevant), specs, cfg.repetitions), True
    remaining = cfg.repetitions
    while remaining > 0:
        block = min(remaining, _SAMPLE_BLOCK)
        colors = rng.integers(0, ell, size=(block, len(relevant)), dtype=np.uint8)
        if _fires(colors, specs):
            return True, True
        remaining -= block
    return False, True


def _live_source_colours(rng: random.Random, k: int, ell: int) -> List[int]:
    """Colours of k sources, uniform given that at least one has colour 0.

    The first source of colour 0 is source j with probability proportional
    to (1 - 1/ell)^j, drawn by inverting its distribution function; the
    sources before it draw from 1..ell-1, and those after it from 0..ell-1.
    """
    r = 1 - 1 / ell
    u = rng.random()
    first = min(k - 1, int(math.log1p(-u * (1 - r**k)) / math.log(r)))
    return ([rng.randrange(1, ell) for _ in range(first)] + [0]
            + [rng.randrange(ell) for _ in range(k - first - 1)])


def _protocol_found(graph: Graph, cfg: ColorBfsConfig, sources: int,
                    seed_parts: Tuple) -> bool:
    """Did any of cfg.repetitions random colourings detect from the source
    mask `sources`, hop by hop?

    Only a repetition in which some source has colour 0 sends a word, so
    the idle repetitions before each live one are skipped in one
    geometric draw (a repetition is idle with probability
    (1 - 1/ell)^|sources|), and a live repetition draws its source colours
    conditioned on being live (_live_source_colours).  A word travels at
    most floor(ell/2) hops, so only the active nodes within that many hops
    of a source draw a colour; the others are in no colour mask, which
    changes no answer.  Each colouring fires with the probability of a
    uniform one, so `found` has the law of cfg.repetitions uniform
    colourings.
    """
    source_bits = [1 << v for v in bits(sources)]
    if not source_bits:
        return False
    rng = random.Random(derive_seed("color-bfs-protocol", derive_seed(*seed_parts)))
    ell = cfg.cycle_len
    other_bits = [1 << v for v in bits(ball(graph.adj, sources, ell // 2, cfg.active) & ~sources)]
    log_idle = len(source_bits) * math.log(1 - 1 / ell)
    remaining = cfg.repetitions
    while True:
        remaining -= 1 + int(math.log1p(-rng.random()) / log_idle)
        if remaining < 0:
            return False
        by_colour = [0] * ell
        for bit, c in zip(source_bits, _live_source_colours(rng, len(source_bits), ell)):
            by_colour[c] |= bit
        for bit in other_bits:
            by_colour[rng.randrange(ell)] |= bit
        if protocol_detect_once(graph, cfg, sources, by_colour):
            return True


# ---------------------------------------------------------------------------
# the search stage shared by both detectors
# ---------------------------------------------------------------------------


def inapplicable(n: int, ell: int) -> Optional[str]:
    """Why no detector here looks for a C_ell on n nodes, or None if one does:
    the colour BFS needs floor(ell/2) - 1 >= 1 phases, so ell >= 4 even or
    ell >= 5 odd, a cycle has at most n nodes, and cycle_repetitions(n, ell)
    must be a finite count."""
    if ell < 4 or (ell % 2 and ell < 5):
        return f"ell must be even and >= 4, or odd and >= 5, got {ell}"
    if ell > n:
        return f"ell = {ell} exceeds n = {n}"
    if cycle_repetitions(n, ell) is None:
        return f"ell = {ell} on n = {n} needs more colour-BFS repetitions than a float holds"
    return None


def _repetitions(n: int, ell: int) -> int:
    """cycle_repetitions(n, ell), or ValueError with inapplicable()'s reason."""
    reason = inapplicable(n, ell)
    if reason:
        raise ValueError(reason)
    return cycle_repetitions(n, ell)


def _check_engine(engine: str) -> None:
    if engine not in ("event", "protocol"):
        raise ValueError(f"unknown engine {engine!r}")


def _stage_search(
    net: CongestNet,
    union: int,
    count: int,
    build: Callable[[], Sequence[Tuple[int, int]]],
    shared: ColorBfsConfig,
    tag: str,
    phase: str,
    ledger: CostLedger,
    seed: int,
    params: QuantumCostParams,
    engine: str,
) -> bool:
    """One search stage: a quantum search over source sets, one colour BFS each.

    Every stage comes in one shape: union, the mask of all its sources;
    count, its number of queries; and build(), which returns them, count
    pairs (source mask, label) whose masks' union is union.  build() is
    called only when the stage is walked, so a settled stage never builds
    (or draws) its queries.  Query i runs the colour BFS of `shared` (its
    length, active nodes, M and repetitions) from source mask i, seeded by
    (tag, seed, label i).  `shared` was validated when it was built; a
    union outside its active nodes raises ValueError before anything is
    charged.  Every query is priced by _query_rounds at the measured
    eccentricity.  A stage of no queries searches and charges nothing.

    Both engines first settle what cannot fire.  Every cycle of every
    subgraph lies in the graph's 2-core (Graph.two_core()), and a
    bipartite graph (Graph.leader_bfs().bipartite) has no odd cycle at
    all; so when ell is odd and the graph bipartite, or else when no
    source lies on the 2-core, no query can fire, and the stage builds no
    index.  On a forest the 2-core is empty, so every stage settles so.
    Otherwise the stage's one _CycleIndex, enumerated inside the active
    nodes, asks whether the union can fire (index.may_fire()).  A stage
    that cannot fire, by either test, is not searched: every query answers
    False, so record_search charges the triple ([count], [], query_rounds)
    and counts the queries, exactly as the search would; the walk would
    have found no pattern either, since its enumeration yields no cycle
    through a source off the 2-core and no odd cycle of a bipartite graph.
    The index's pull never goes past what walking the queries would pull:
    every cycle is anchored at or below the union's highest source, so it
    stops at the stage's first pattern, or at the end.  A query that fires
    has pulled at least to its own first pattern, which comes at or after
    the stage's first one.  If none fires, each query is walked: the one
    holding the stage's first pattern pulls at least to it, and with no
    pattern at all, the query with the highest source pulls to the end.

    Otherwise the search walks the queries, and a query that cannot fire
    answers False, drawing nothing, on either engine.  The event engine
    draws each other query's detection from index.patterns() and files its
    truncation and congestion counters in ledger.counts; the protocol
    engine runs it hop by hop.  Skipping is sound on the protocol engine
    too: a protocol detection is a C_ell inside the active nodes through a
    colour-0 source, and every such cycle is a qualifying pattern at the
    source; congestion only removes detections.  Each query's stream is
    seeded by its own (tag, seed, label), so no other query's draws move.  A
    detection is reported to the leader by the query's lowest source.
    """
    if not count:
        return False
    graph = net.graph
    if union & ~shared.active:
        raise ValueError("sources must be a subset of active nodes")
    query_rounds = _query_rounds(shared.cycle_len, shared.repetitions,
                                 shared.congestion_bound, net.eccentricity)
    # the nodes that may lie on a C_ell of any subgraph
    cyclic = 0 if shared.cycle_len % 2 and graph.leader_bfs().bipartite else graph.two_core()
    index = _CycleIndex(graph, shared, union) if union & cyclic else None
    if index is None or not index.may_fire(union):
        record_search(ledger, ([count], [], query_rounds), count, params, "congest", phase)
        return False
    queries = build()

    def checker(i: int) -> Tuple[bool, int]:
        sources, label = queries[i]
        if not index.may_fire(sources):
            return False, query_rounds
        if engine == "event":
            patterns, hits = index.patterns(sources)
            found, sampled = _event_found(patterns, shared, (tag, seed, label))
            if sampled:
                hits.add("pattern_sampled")
            if hits:  # rare; an empty update costs more than the check
                ledger.counts.update(hits)
        else:
            found = _protocol_found(graph, shared, sources, (tag, seed, label))
        if found:
            net.require_reachable(sources & -sources)
        return found, query_rounds

    return run_search(count, checker, ledger, params, seed=seed,
                      model="congest", phase=phase).found


# ---------------------------------------------------------------------------
# odd cycles: flat search over all nodes
# ---------------------------------------------------------------------------


def detect_odd_cycle(
    graph: Graph,
    ell: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    engine: str = "event",
) -> bool:
    """Search over source nodes; each query is a single-source color BFS."""
    if ell % 2 == 0:
        raise ValueError("even length: use detect_even_cycle")
    _check_engine(engine)
    n = graph.n
    shared = ColorBfsConfig(ell, (1 << n) - 1, repetitions=_repetitions(n, ell))
    return _stage_search(CongestNet(graph), shared.active, n,
                         lambda: [(1 << v, v) for v in range(n)],
                         shared, "odd", "odd-cycle/search", ledger, seed, params, engine)


# ---------------------------------------------------------------------------
# even cycles: prune, heavy search, forest decomposition, light search
# ---------------------------------------------------------------------------

_A_CONG = 4  # the light stage's congestion bound M, in words of ceil(log2 n) bits


def _heavy_light_exponents(k: int) -> Tuple[Fraction, Fraction]:
    """(delta, alpha) of the heavy/light split for C_{2k}: a node of degree
    >= ceil(n^delta) is heavy, and the light nodes are drawn into
    ceil(n^alpha) index classes.  delta = (k-2)/(k(k-1)) and
    alpha = 1/k + (k-2) delta."""
    delta = Fraction(k - 2, k * (k - 1))
    return delta, Fraction(1, k) + (k - 2) * delta


def _index_classes(light: int, count: int, seed: int) -> List[Tuple[int, int]]:
    """The light stage's queries, (class mask, index) for each of `count`
    index classes: each light node, in id order, joins the class
    rng.randrange(count) of the stream derive_seed("even-light-index",
    seed).  The classes cover the light nodes, so their union is light."""
    rng = random.Random(derive_seed("even-light-index", seed))
    by_index = [0] * count
    for v in bits(light):
        by_index[rng.randrange(count)] |= 1 << v
    return list(zip(by_index, range(count)))


def forest_decomposition(light: int, ledger: CostLedger) -> None:
    """Charge the forest decomposition of the light node mask: one round
    when a light node exists.

    The decomposition peels, layer by layer, the nodes of residual degree
    <= 2a, a = ceil(4 n^(1/k)).  A light node has degree
    <= ceil(n^delta) - 1 < n^delta <= n^(1/k) <= 2a, since delta < 1/k, so
    the first layer takes every light node.  Every light node thus has the
    same height, and no height gates a first hop or a pattern.
    """
    if light:
        ledger.charge("forest-decomposition", "congest", "route", 1)


@functools.lru_cache(maxsize=1024)
def _even_sizes(n: int, k: int) -> Tuple[int, int, int, int]:
    """(the heavy degree threshold ceil(n^delta), the number of light index
    classes ceil(n^alpha), the edge prune's limit 100k * ceil(n^(1+1/k)),
    the analytic heavy domain max(1, ceil(n^(1 - 1/k - delta)))) of C_{2k}
    on n nodes, computed once per (n, k).

    The prune: more than the limit of edges force a C_{2k}
    (Bondy-Simonovits: ex(n, C_{2k}) = O(k n^(1+1/k))).
    """
    delta, alpha = _heavy_light_exponents(k)
    return (ceil_pow(n, delta), ceil_pow(n, alpha), 100 * k * ceil_pow(n, 1 + Fraction(1, k)),
            max(1, ceil_pow(n, 1 - Fraction(1, k) - delta)))


def detect_even_cycle(
    graph: Graph,
    two_k: int,
    ledger: CostLedger,
    seed: int = 0,
    params: QuantumCostParams = DEFAULT_PARAMS,
    engine: str = "event",
) -> bool:
    """Edge prune, then heavy-node search, then index-batched light search.

    A firing edge prune answers True at once, and the stages after it
    neither run nor charge.  Otherwise both searches run (and charge)
    whatever the heavy search found, and the result is their disjunction.
    """
    if two_k % 2 == 1:
        raise ValueError("odd length: use detect_odd_cycle")
    _check_engine(engine)
    n = graph.n
    reps = _repetitions(n, two_k)
    heavy_threshold, n_idx, prune_limit, _ = _even_sizes(n, two_k // 2)
    net = CongestNet(graph)

    # stage 1: the leader counts edges; too many for C_{2k}-freeness -> yes
    ledger.charge("even-cycle/prune", "congest", "converge", net.eccentricity)
    if graph.m > prune_limit:
        return True

    # stage 2: heavy cycles (single-source queries over the measured heavy set)
    heavy = mask_of(v for v, nbrs in enumerate(graph.adj) if nbrs.bit_count() >= heavy_threshold)
    everyone = (1 << n) - 1
    shared = ColorBfsConfig(two_k, everyone, repetitions=reps)
    heavy_found = _stage_search(net, heavy, heavy.bit_count(),
                                lambda: [(1 << v, v) for v in bits(heavy)], shared,
                                "even-heavy", "even-cycle/heavy-search", ledger, seed, params,
                                engine)

    # stage 3: light cycles via forest decomposition + index batching
    light = everyone & ~heavy
    forest_decomposition(light, ledger)
    shared = ColorBfsConfig(two_k, light, _A_CONG * word_capacity(n), reps)
    light_found = _stage_search(net, light, n_idx, lambda: _index_classes(light, n_idx, seed),
                                shared, "even-light", "even-cycle/light-search", ledger, seed,
                                params, engine)
    return heavy_found or light_found


def cycle_cost_only(
    n: int,
    m: int,
    ell: int,
    ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> Optional[bool]:
    """Charge what the detector of ell's parity charges, from n and m alone.

    A length inapplicable() refuses raises ValueError, as in a full run.
    Where full runs measure, this takes the analytic value: every
    convergecast (the prune's one word included) crosses eccentricity 1,
    queries run at M = 1 (the light index partition is sized to make
    expected congestion constant), the heavy set has the extremal size
    n^(1 - 1/k - delta), and the forest decomposition is charged the cap
    of ceil(2 log2 n) layers.  True when the edge prune decides, else None.
    """
    query_rounds = _query_rounds(ell, _repetitions(n, ell), 1, 1)
    if ell % 2:
        charge_search(ledger, ([n], [], query_rounds), params, "congest", "odd-cycle/search")
        return None
    _, light_domain, prune_limit, heavy_domain = _even_sizes(n, ell // 2)
    ledger.charge("even-cycle/prune", "congest", "converge", 1)
    if m > prune_limit:
        return True
    charge_search(ledger, ([heavy_domain], [], query_rounds), params, "congest",
                  "even-cycle/heavy-search")
    layers = math.ceil(2 * math.log2(max(n, 2)))
    ledger.charge("forest-decomposition", "congest", "route", layers)
    charge_search(ledger, ([light_domain], [], query_rounds), params, "congest",
                  "even-cycle/light-search")
    return None
