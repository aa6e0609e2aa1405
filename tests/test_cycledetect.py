"""Color-coded BFS cycle detection: engines, decomposition, detectors."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongest.cli import fit_slope, main
from qcongest.cycledetect import (
    _A_CONG,
    _EXACT_CAP,
    _PATTERN_CAP,
    ColorBfsConfig,
    _CycleIndex,
    _even_sizes,
    _event_found,
    _fires,
    _heavy_light_exponents,
    _live_source_colours,
    _pattern_specs,
    _protocol_found,
    _query_rounds,
    _stage_search,
    _success_probability,
    cycle_cost_only,
    cycle_repetitions,
    detect_even_cycle,
    detect_odd_cycle,
    forest_decomposition,
    inapplicable,
    measure_congestion,
    protocol_detect_once,
    repetitions_for,
    single_rep_success,
)
from qcongest.graph import (GenSpec, Graph, bits, generate, iter_cycles, mask_of,
                            oracle_has_cycle)
from qcongest.intmath import ceil_pow, ceil_scaled_pow, ceil_scaled_sqrt
from qcongest.netsim import CongestNet, CostLedger, congest_step, word_capacity
from qcongest.qsearch import (DEFAULT_PARAMS, QuantumCostParams, derive_seed, grover_cost,
                              nested_cost_predict, run_search)


def cycle_graph(ell, n=None):
    n = n or ell
    edges = [(i, (i + 1) % ell) for i in range(ell)]
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    return Graph(n, sorted(set(edges)))


def all_active_cfg(g, ell, sources=None, reps=1, m=1):
    """(a config with every node of g active, the source mask of the nodes
    `sources`, or of every node)."""
    active = mask_of(range(g.n))
    cfg = ColorBfsConfig(cycle_len=ell, active=active, congestion_bound=m, repetitions=reps)
    return cfg, mask_of(sources) if sources is not None else active


def patch_cycledetect(monkeypatch, name, value):
    """Set a module constant of cycledetect where this file's functions read it.

    A test module that imports qcongest afresh leaves a newer module under
    `qcongest.cycledetect` than the one these functions were imported from,
    so the constant is set in their own globals.
    """
    monkeypatch.setitem(detect_odd_cycle.__globals__, name, value)


def colour_masks(cfg, colors):
    """The colour masks protocol_detect_once takes, from a node -> colour
    dict: mask c holds the active nodes of colour c."""
    return [mask_of(v for v in bits(cfg.active) if colors.get(v) == c)
            for c in range(cfg.cycle_len)]


def query_patterns(graph, cfg, sources):
    """The patterns and counters of a one-query stage from the source mask
    `sources`, enumerated inside the active nodes."""
    return _CycleIndex(graph, cfg, sources).patterns(sources)


def event_found(graph, cfg, sources, seed_parts):
    """(found, counters hit) of a one-query stage on the event engine."""
    patterns, hits = query_patterns(graph, cfg, sources)
    found, sampled = _event_found(patterns, cfg, seed_parts)
    return found, hits | ({"pattern_sampled"} if sampled else set())


def event_detect_once(graph, cfg, sources, colors):
    """One repetition of the event engine with fixed colours: does some
    qualifying pattern read 0..ell-1 from its anchor?  The event side of
    the fixed-colour agreement tests."""
    patterns, _ = query_patterns(graph, cfg, sources)
    if not patterns:
        return False
    relevant, specs = _pattern_specs(patterns, cfg.cycle_len)
    return _fires(np.array([[colors[v] for v in relevant]], dtype=np.uint8), specs)


def fired_colourings(graph, cfg, sources):
    """(colourings of the nodes on the qualifying patterns at sources on
    which one event-engine repetition fires, all such colourings), by
    enumerating every colouring; event_detect_once agrees on a sample of
    them."""
    patterns, _ = query_patterns(graph, cfg, sources)
    ell = cfg.cycle_len
    relevant, specs = _pattern_specs(patterns, ell)
    grid = np.indices((ell,) * len(relevant), dtype=np.uint8).reshape(len(relevant), -1).T
    fires = np.zeros(len(grid), dtype=bool)
    for idx in specs:
        fires |= (grid[:, idx] == np.arange(ell, dtype=np.uint8)).all(axis=1)
    rng = np.random.default_rng(0)
    sample = np.concatenate([rng.choice(len(grid), 32), rng.choice(np.flatnonzero(fires), 32)])
    for row in sample:
        colors = dict(zip(relevant, grid[row].tolist()))
        assert event_detect_once(graph, cfg, sources, colors) == fires[row]
    return int(fires.sum()), len(grid)


def stage_search(net, queries, *rest):
    """_stage_search over the list `queries` of (source mask, label) pairs."""
    return _stage_search(net, mask_of(v for q, _ in queries for v in bits(q)), len(queries),
                         lambda: queries, *rest)


def stage_found(g, cfg, sources, seed, engine, ledger=None):
    """A search stage of one query: cfg's colour BFS from the source mask
    `sources`."""
    return stage_search(CongestNet(g), [(sources, 0)], cfg, "test", "color-bfs",
                         ledger if ledger is not None else CostLedger(), seed,
                         DEFAULT_PARAMS, engine)


class TestSingleRepSuccess:
    @pytest.mark.parametrize("ell", [3, 4, 5, 6])
    def test_enumeration_matches_protocol_engine(self, ell):
        # exhaustive: run the protocol on every coloring of the single-source cycle
        g = cycle_graph(ell)
        cfg, src = all_active_cfg(g, ell, sources=[0])
        count = 0
        for colors in itertools.product(range(ell), repeat=ell):
            if protocol_detect_once(g, cfg, src, colour_masks(cfg, dict(enumerate(colors)))):
                count += 1
        assert Fraction(count, ell**ell) == single_rep_success(ell)

    def test_known_value(self):
        assert single_rep_success(4) == Fraction(2, 256)
        assert single_rep_success(7) == Fraction(2, 7**7)

    def test_repetitions_for(self):
        import math

        # ceil(ln(1/f) / p); guarantees (1-p)^R <= e^(-pR) <= f
        assert repetitions_for(Fraction(1, 2), 0.25) == math.ceil(math.log(4) * 2)
        assert repetitions_for(Fraction(1), 0.5) == 1
        p, f = Fraction(2, 625), 0.01
        r = repetitions_for(p, f)
        assert (1 - float(p)) ** r <= f < (1 - float(p)) ** max(r - 10, 1)


class TestExactSuccess:
    """The event engine's exact P equals the share of colourings that fire."""

    @staticmethod
    def assert_exact(g, cfg, sources):
        patterns, _ = query_patterns(g, cfg, sources)
        assert patterns
        fired, total = fired_colourings(g, cfg, sources)
        assert _success_probability(patterns, cfg.cycle_len) == Fraction(fired, total)

    @pytest.mark.parametrize("ell", [4, 5, 6, 7])
    def test_lone_cycle_gives_single_rep_success(self, ell):
        g = cycle_graph(ell)
        cfg, src = all_active_cfg(g, ell, sources=[0])
        patterns, _ = query_patterns(g, cfg, src)
        assert _success_probability(patterns, ell) == single_rep_success(ell)
        self.assert_exact(g, cfg, src)

    @pytest.mark.parametrize("edges", [
        # C4s 0-1-2-3 and 0-1-4-3 share the path 3-0-1, so orientations of
        # the two can fire together
        [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (3, 4)],
        # a bowtie: the C4s share only the anchor
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)],
    ])
    def test_two_cycles_sharing_the_anchor(self, edges):
        g = Graph(max(max(e) for e in edges) + 1, edges)
        cfg, src = all_active_cfg(g, 4, sources=[0])
        assert len(query_patterns(g, cfg, src)[0]) == 2
        self.assert_exact(g, cfg, src)

    @pytest.mark.parametrize("n, ell, sources", [(4, 4, [0, 1, 2]), (5, 4, [0, 1]),
                                                 (5, 5, [0, 1])])
    def test_complete_graphs_with_several_sources(self, n, ell, sources):
        g = generate(GenSpec(kind="complete", n=n))
        self.assert_exact(g, *all_active_cfg(g, ell, sources=sources, m=len(sources)))


class TestEventDraw:
    """Both draws of the event engine detect with probability 1 - (1 - P)^reps."""

    SEEDS = 2000

    def test_exact_draw_and_block_sampler_hit_at_q(self, monkeypatch):
        # sources 0 and 2 on the C4s 0-1-2-3, 0-1-4-3 and 1-2-3-4: four
        # patterns, some of whose events intersect
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (3, 4)])
        cfg, src = all_active_cfg(g, 4, sources=[0, 2], m=2)
        patterns, _ = query_patterns(g, cfg, src)
        assert len(patterns) == 4 <= _EXACT_CAP
        p = _success_probability(patterns, 4)
        reps = round(math.log(2) / p)
        q = float(1 - (1 - p) ** reps)
        assert 0.3 <= q <= 0.7
        cfg, src = all_active_cfg(g, 4, sources=[0, 2], m=2, reps=reps)
        bound = 4 * math.sqrt(q * (1 - q) / self.SEEDS)
        for cap, counter in ((_EXACT_CAP, set()), (0, {"pattern_sampled"})):
            patch_cycledetect(monkeypatch, "_EXACT_CAP", cap)
            draws = [event_found(g, cfg, src, ("draw", s)) for s in range(self.SEEDS)]
            assert all(hits == counter for _, hits in draws)
            rate = sum(found for found, _ in draws) / self.SEEDS
            assert abs(rate - q) <= bound, (cap, rate, q)

    def test_above_the_cap_keeps_the_block_sampler(self):
        # K5, C4, sources 0 and 1: 24 patterns, P = 57/512, q = 0.507 at 6
        # reps.  The answers are those of the block sampler before exact
        # draws existed, seed by seed.
        g = generate(GenSpec(kind="complete", n=5))
        cfg, src = all_active_cfg(g, 4, sources=[0, 1], m=2, reps=6)
        assert len(query_patterns(g, cfg, src)[0]) == 24 > _EXACT_CAP
        answers = "".join(str(int(event_found(g, cfg, src, ("sampled", s))[0]))
                          for s in range(32))
        assert answers == "01011111010111100110100011001100"
        ledger = CostLedger()
        stage_found(g, cfg, src, 0, "event", ledger)
        assert ledger.counts["pattern_sampled"] == ledger.counts["queries"] == 1
        # a query at or below the cap is not counted
        ledger = CostLedger()
        g = cycle_graph(4)
        assert stage_found(g, *all_active_cfg(g, 4, sources=[0], reps=2000), 0, "event", ledger)
        assert ledger.counts["pattern_sampled"] == 0


class TestEngineAgreement:
    """Protocol and event engines decide identically when congestion fits."""

    @pytest.mark.parametrize("ell", [4, 5, 6, 7])
    def test_agreement_on_random_graphs(self, ell):
        rng = random.Random(ell)
        for trial in range(40):
            n = rng.randint(ell, 14)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.3
            ]
            g = Graph(n, edges)
            cfg, src = all_active_cfg(g, ell, m=n)  # M large: no congestion drops
            colors = {v: rng.randrange(ell) for v in range(n)}
            assert protocol_detect_once(g, cfg, src, colour_masks(cfg, colors)) == (
                event_detect_once(g, cfg, src, colors)), (n, edges, colors)

    @pytest.mark.parametrize("ell", [4, 5])
    def test_agreement_single_source(self, ell):
        rng = random.Random(10 + ell)
        for trial in range(40):
            n = rng.randint(ell, 12)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.35
            ]
            g = Graph(n, edges)
            src = rng.randrange(n)
            cfg, sources = all_active_cfg(g, ell, sources=[src], m=n)
            colors = {v: rng.randrange(ell) for v in range(n)}
            assert protocol_detect_once(g, cfg, sources, colour_masks(cfg, colors)) == (
                event_detect_once(g, cfg, sources, colors))


class TestColorBfs:
    def test_no_false_positives_on_forest(self):
        g = generate(GenSpec(kind="path", n=50))
        assert not stage_found(g, *all_active_cfg(g, 4, reps=10_000, m=4), 1, "event")
        assert not stage_found(g, *all_active_cfg(g, 4, reps=200, m=4), 1, "protocol")

    def test_rounds_charged_formula(self):
        g = cycle_graph(6, n=10)
        net = CongestNet(g)
        led = CostLedger()
        stage_found(g, *all_active_cfg(g, 6, reps=7, m=3), 2, "event", led)
        # one query: the search charges exactly its price
        assert led.total() == 7 * (1 + 2 * 3) + net.eccentricity

    def test_c6_amplified_detection_rate(self):
        g = cycle_graph(6)
        # all nodes are sources: per-rep success is 6 * 2/6^6 (anchor patterns);
        # amplify to miss <= 1e-3 so 200 Monte-Carlo trials clear 99% solidly
        reps = repetitions_for(single_rep_success(6) * 6, 0.001)
        hits = 0
        trials = 200
        for seed in range(trials):
            hits += stage_found(g, *all_active_cfg(g, 6, reps=reps, m=6), seed, "event")
        assert hits >= 0.99 * trials

    def test_monte_carlo_matches_enumeration_rate(self):
        # isolated C4, all sources, M=4: empirical vs exact over 256 colorings
        g = cycle_graph(4)
        cfg, src = all_active_cfg(g, 4, m=4)
        exact_hits = sum(
            protocol_detect_once(g, cfg, src, colour_masks(cfg, dict(enumerate(c))))
            for c in itertools.product(range(4), repeat=4)
        )
        exact = exact_hits / 256
        rng = random.Random(0)
        trials = 20_000
        hits = sum(
            protocol_detect_once(g, cfg, src,
                                 colour_masks(cfg, {v: rng.randrange(4) for v in range(4)}))
            for _ in range(trials)
        )
        assert abs(hits / trials - exact) < 0.15 * exact


def reference_congestion(graph, cfg, sources):
    """measure_congestion as set-based BFS over ascending neighbours."""
    hops = cfg.cycle_len // 2 - 1
    active = set(bits(cfg.active))
    counts = {v: 0 for v in active}
    if hops < 1:
        return counts
    for w in bits(sources):
        frontier = {u for u in bits(graph.adj[w]) if u in active}
        reached = set(frontier)
        for _ in range(hops - 1):
            nxt = {x for u in frontier for x in bits(graph.adj[u])
                   if x in active and x not in reached}
            reached |= nxt
            frontier = nxt
        for v in reached:
            counts[v] += 1
    return counts


def reference_forest(graph, nodes, a, ledger):
    """The forest decomposition of the node set `nodes` as a set peel with
    per-node residual degrees: layer i takes the nodes of residual degree
    <= 2a, one charged round each, for at most ceil(2 log2 n) layers.
    node -> layer (1-based), or None if nodes remain."""
    alive = set(nodes)
    residual = {v: sum(1 for u in bits(graph.adj[v]) if u in alive) for v in alive}
    layers = {}
    layer = 0
    while alive and layer < max(1, math.ceil(2 * math.log2(max(graph.n, 2)))):
        layer += 1
        ledger.charge("forest-decomposition", "congest", "route", 1)
        peel = [v for v in alive if residual[v] <= 2 * a]
        if not peel:
            return None
        for v in peel:
            layers[v] = layer
            alive.discard(v)
        for v in peel:
            for u in bits(graph.adj[v]):
                if u in alive:
                    residual[u] -= 1
    return None if alive else layers


def reference_protocol(graph, cfg, sources, colors, step):
    """protocol_detect_once with a colour lookup per node, sending through step."""
    ell, m_bound = cfg.cycle_len, cfg.congestion_bound
    active, sources = set(bits(cfg.active)), set(bits(sources))
    if not any(colors.get(v) == 0 for v in sources):
        return False

    def color(v):
        return colors.get(v) if v in active else None

    received = {v: [] for v in active}
    from_up = {v: set() for v in active}
    from_down = {v: set() for v in active}
    outbox = [(v, w, v) for v in sorted(sources) if color(v) == 0
              for w in bits(graph.adj[v])
              if color(w) in (1, ell - 1)]
    for (u, v), word in sorted(step(graph, outbox).items()):
        if word not in received[v]:
            received[v].append(word)
    for phase_i in range(1, ell // 2):
        up_color, down_color = phase_i, ell - phase_i
        queues = {v: received[v][:m_bound] for v in active
                  if color(v) in (up_color, down_color)}
        for k in range(max(map(len, queues.values()), default=0)):
            outbox = []
            for v in sorted(queues):
                if k < len(queues[v]):
                    nxt = phase_i + 1 if color(v) == up_color else ell - phase_i - 1
                    outbox += [(v, w, queues[v][k]) for w in bits(graph.adj[v])
                               if color(w) == nxt]
            inbox = step(graph, outbox)
            for (u, v) in sorted(inbox):
                word = inbox[(u, v)]
                if word not in received[v]:
                    received[v].append(word)
                if ell % 2 == 0 and color(v) == ell // 2:
                    if color(u) == ell // 2 - 1:
                        from_up[v].add(word)
                    elif color(u) == ell // 2 + 1:
                        from_down[v].add(word)
    if ell % 2 == 0:
        return any(color(v) == ell // 2 and from_up[v] & from_down[v] for v in active)
    lo, hi = (ell - 1) // 2, (ell + 1) // 2
    return any(color(a) == lo and color(b) == hi and set(received[a]) & set(received[b])
               for a in active for b in bits(graph.adj[a]))


def reference_patterns(graph, cfg, sources):
    """The qualifying patterns of one query from the source mask `sources`,
    by its own enumeration: one iter_cycles call inside cfg.active anchored
    at the query's sources, with no limit and no cap, and the congestion
    filter of more than M sources.  The per-query path that the stage's
    _CycleIndex replaced; (patterns in that enumeration's order, whether a
    cycle was dropped for congestion)."""
    ell = cfg.cycle_len
    congestion = (measure_congestion(graph, cfg, sources)
                  if sources.bit_count() > cfg.congestion_bound else None)
    out, dropped = [], False
    for cyc in iter_cycles(graph, ell, active_mask=cfg.active, anchors=sources):
        if congestion is not None and any(congestion[v] > cfg.congestion_bound for v in cyc):
            dropped = True
            continue
        out += [(cyc, pos) for pos, v in enumerate(cyc) if sources >> v & 1]
    return out, dropped


def reference_protocol_found(graph, cfg, sources, seed_parts):
    """The protocol engine before it skipped idle repetitions: every
    repetition draws a colour for every active node, in id order."""
    rng = random.Random(derive_seed("color-bfs-protocol", derive_seed(*seed_parts)))
    ell = cfg.cycle_len
    node_bits = [1 << v for v in bits(cfg.active)]
    for _ in range(cfg.repetitions):
        by_colour = [0] * ell
        for bit in node_bits:
            by_colour[rng.randrange(ell)] |= bit
        if protocol_detect_once(graph, cfg, sources, by_colour):
            return True
    return False


def anchored(pattern):
    """A pattern as its anchored cycle, the same for every rotation and
    direction that names it: the smaller of its two readings from the
    anchor."""
    cyc, pos = pattern
    ell = len(cyc)
    return min(tuple(cyc[(pos + j) % ell] for j in range(ell)),
               tuple(cyc[(pos - j) % ell] for j in range(ell)))


def random_cfg(rng, g, ell):
    """(a config on g with random active nodes and M, a random source mask
    among its active nodes)."""
    active = mask_of(v for v in range(g.n) if rng.random() < 0.8)
    sources = mask_of(v for v in bits(active) if rng.random() < 0.4)
    return ColorBfsConfig(ell, active, rng.randint(1, 3), 1), sources


class TestMaskRewritesMatchReferences:
    """The mask BFS and peel give what the set-based versions gave."""

    def test_congestion(self):
        rng = random.Random(7)
        for seed in range(40):
            g = generate(GenSpec(kind="gnp", n=rng.randint(2, 30),
                                 edge_prob=rng.choice([0.1, 0.2, 0.4]), seed=seed))
            cfg, src = random_cfg(rng, g, rng.randint(4, 9))
            assert measure_congestion(g, cfg, src) == reference_congestion(g, cfg, src), seed

    def test_protocol_answers_and_steps(self, monkeypatch):
        rng = random.Random(9)
        sent = []

        def recording_step(graph, outbox):
            sent.append(list(outbox))
            return congest_step(graph, outbox)

        monkeypatch.setitem(protocol_detect_once.__globals__, "congest_step", recording_step)
        answers = set()
        for seed in range(150):
            g = generate(GenSpec(kind="gnp", n=rng.randint(4, 14),
                                 edge_prob=rng.choice([0.2, 0.35, 0.6]), seed=seed))
            ell = rng.randint(4, min(g.n, 8))
            cfg, src = random_cfg(rng, g, ell)
            colors = {v: rng.randrange(ell) for v in bits(cfg.active)}
            sent.clear()
            got = protocol_detect_once(g, cfg, src, colour_masks(cfg, colors))
            got_sent = list(sent)
            sent.clear()
            assert got == reference_protocol(g, cfg, src, colors, recording_step), seed
            assert got_sent == sent, seed
            answers.add(got)
        assert answers == {True, False}


class TestCongestionMeasurement:
    def test_star_congestion(self):
        # sources = leaves; the center may need to forward every leaf id
        g = Graph(6, [(0, i) for i in range(1, 6)])
        cfg = ColorBfsConfig(cycle_len=6, active=mask_of(range(6)),
                             congestion_bound=1, repetitions=1)
        m = measure_congestion(g, cfg, mask_of(range(1, 6)))
        assert m[0] == 5
        # a leaf sees every source through the center (2 hops), its own id
        # included: the protocol forwards received ids regardless of origin
        assert m[1] == 5


class TestForestDecomposition:
    """The peel of the forest decomposition lives here as reference_forest.
    Under the heavy/light exponents every light node peels in layer 1, so
    forest_decomposition charges one round when a light node exists."""

    def test_star_two_layers(self):
        g = Graph(11, [(0, i) for i in range(1, 11)])
        fd = reference_forest(g, range(11), 1, CostLedger())
        assert fd is not None
        assert all(fd[i] == 1 for i in range(1, 11))
        assert fd[0] == 2

    def test_k8_fails(self):
        g = generate(GenSpec(kind="complete", n=8))
        assert reference_forest(g, range(8), 1, CostLedger()) is None

    def test_sparse_gnp_layer_property(self):
        g = generate(GenSpec(kind="gnp", n=200, edge_prob=4 / 200, seed=6))
        fd = reference_forest(g, range(200), 8, CostLedger())
        assert fd is not None
        for v in range(200):
            higher = sum(
                1 for u in bits(g.adj[v]) if fd[u] >= fd[v]
            )
            assert higher <= 16

    def test_a_light_degree_never_exceeds_2a(self):
        # ceil(n^delta) - 1 <= 2 ceil(4 n^(1/k)), in exact integers
        rng = random.Random(26)
        ns = list(range(1, 4097)) + [rng.randrange(4097, 10**12) for _ in range(500)]
        for k in range(2, 13):
            delta, _ = _heavy_light_exponents(k)
            assert delta < Fraction(1, k)
            for n in ns:
                assert ceil_pow(n, delta) - 1 <= 2 * ceil_scaled_pow(n, Fraction(1, k), 4), (k, n)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_the_light_set_peels_in_one_layer(self, data):
        # a connected G(n, p): the run reaches the light stage whatever it finds
        n = data.draw(st.integers(4, 30), label="n")
        seed = data.draw(st.integers(0, 10**6), label="seed")
        g = generate(GenSpec(kind="gnp", n=n, seed=seed,
                             edge_prob=data.draw(st.sampled_from([0.05, 0.1, 0.2]), label="p")))
        g = Graph(n, sorted(set(g.edges()) | {(v, v + 1) for v in range(n - 1)}))
        k = data.draw(st.integers(2, min(4, n // 2)), label="k")
        delta, _ = _heavy_light_exponents(k)
        light = [v for v in range(n) if g.adj[v].bit_count() < ceil_pow(n, delta)]
        want = CostLedger()
        layers = reference_forest(g, light, ceil_scaled_pow(n, Fraction(1, k), 4), want)
        assert layers is not None and set(layers.values()) <= {1}
        got = CostLedger()
        detect_even_cycle(g, 2 * k, got, seed=seed)
        assert [e for e in got.entries if e.phase == "forest-decomposition"] == want.entries
        direct = CostLedger()
        forest_decomposition(mask_of(light), direct)
        assert direct.entries == want.entries


class TestDetectOddCycle:
    def test_planted_c5_rate(self):
        hits = 0
        for seed in range(200):
            g = generate(GenSpec(kind="planted_cycle", n=40, edge_prob=0.0,
                                 planted_size=5, seed=seed))
            hits += detect_odd_cycle(g, 5, CostLedger(), seed=seed)
        assert hits >= 198

    def test_tree_never_fires(self):
        g = generate(GenSpec(kind="path", n=40))
        for seed in range(300):
            assert not detect_odd_cycle(g, 5, CostLedger(), seed=seed)

    def test_even_length_rejected(self):
        g = cycle_graph(6, n=10)
        with pytest.raises(ValueError, match="even"):
            detect_odd_cycle(g, 6, CostLedger())

    def test_unknown_engine_rejected_before_any_charge(self):
        g = cycle_graph(5, n=8)
        led = CostLedger()
        with pytest.raises(ValueError, match="unknown engine 'nosuch'"):
            detect_odd_cycle(g, 5, led, engine="nosuch")
        assert led.entries == []

    def test_accounting_identity(self):
        g = generate(GenSpec(kind="planted_cycle", n=24, edge_prob=0.0,
                             planted_size=5, seed=1))
        net = CongestNet(g)
        led = CostLedger()
        detect_odd_cycle(g, 5, led, seed=3)
        reps = cycle_repetitions(24, 5)
        query = reps * (1 + 1) + net.eccentricity
        assert led.total() == grover_cost(24, query)


class TestDetectEvenCycle:
    def test_planted_c4_rate(self):
        hits = 0
        for seed in range(200):
            g = generate(GenSpec(kind="planted_cycle", n=64, edge_prob=0.0,
                                 planted_size=4, seed=seed))
            hits += detect_even_cycle(g, 4, CostLedger(), seed=seed)
        assert hits >= 198

    def test_planted_c6_rate(self):
        hits = 0
        for seed in range(100):
            g = generate(GenSpec(kind="planted_cycle", n=96, edge_prob=0.01,
                                 planted_size=6, seed=seed))
            hits += detect_even_cycle(g, 6, CostLedger(), seed=seed)
        assert hits >= 99

    def test_tree_never_fires(self):
        g = generate(GenSpec(kind="path", n=40))
        for seed in range(200):
            assert not detect_even_cycle(g, 4, CostLedger(), seed=seed)
            assert not detect_even_cycle(g, 6, CostLedger(), seed=seed)

    def test_odd_length_rejected(self):
        g = cycle_graph(4, n=10)
        with pytest.raises(ValueError, match="odd"):
            detect_even_cycle(g, 5, CostLedger())

    def test_unknown_engine_rejected_before_any_charge(self):
        g = cycle_graph(4, n=8)
        led = CostLedger()
        with pytest.raises(ValueError, match="unknown engine 'nosuch'"):
            detect_even_cycle(g, 4, led, engine="nosuch")
        assert led.entries == []

    def test_prune_path_cost_only(self):
        led = CostLedger()
        # synthetic m beyond the extremal bound: immediate yes at 1 round
        got = cycle_cost_only(64, 10**9, 4, led)
        assert got is True
        assert led.total() == 1

    def test_prune_does_not_fire_on_real_dense_gnp(self):
        g = generate(GenSpec(kind="gnp", n=64, edge_prob=0.9, seed=1))
        assert g.m <= 100 * 2 * 64 ** 1.5
        led = CostLedger()
        got = cycle_cost_only(g.n, g.m, 4, led)
        assert got is None

    def test_cost_only_slope_k2(self):
        ns = [2**k for k in range(10, 17)]
        ys = []
        for n in ns:
            led = CostLedger()
            cycle_cost_only(n, n, 4, led)
            ys.append(led.total())
        slope = fit_slope(ns, ys)
        assert 0.19 <= slope <= 0.31

    def test_odd_cost_only_charges(self):
        led = CostLedger()
        cycle_cost_only(1024, 1024, 5, led)
        assert led.total() == grover_cost(
            1024, cycle_repetitions(1024, 5) * (1 + 1) + 1
        )


class TestCongestionDrops:
    def test_exceeded_runs_recorded_and_conservative(self):
        g = cycle_graph(4)
        # four sources, M=1: every node may need to forward two ids
        cfg, src = all_active_cfg(g, 4, reps=5000, m=1)
        found, hits = event_found(g, cfg, src, ("drop-test",))
        assert hits == {"congestion_dropped"}
        assert not found  # dropped cycles count against completeness only

    def test_one_source_more_than_m_is_measured(self):
        # C4 on 0..3 plus leaves 4, 5 at node 0: with ell = 4 a node's
        # congestion is its number of source neighbours, and node 0 has
        # four, one more than M = 3, so the only C4 is dropped
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5)])
        cfg, src = all_active_cfg(g, 4, sources=[1, 3, 4, 5], reps=5000, m=3)
        assert measure_congestion(g, cfg, src)[0] == 4
        assert event_found(g, cfg, src, ("drop-test-3",)) == (
            False, {"congestion_dropped"})
        # one source fewer: m(v) <= |sources| = M, nothing is dropped
        cfg, src = all_active_cfg(g, 4, sources=[1, 3, 4], reps=5000, m=3)
        assert event_found(g, cfg, src, ("drop-test-3",)) == (True, set())

    def test_single_source_never_exceeds_m1(self):
        g = cycle_graph(4)
        cfg, src = all_active_cfg(g, 4, sources=[0], reps=2000, m=1)
        found, hits = event_found(g, cfg, src, ("drop-test-2",))
        assert "congestion_dropped" not in hits
        assert found


class TestNonPlantedAgreement:
    """Completeness sampling on organic connected instances.

    On disconnected inputs a detection outside the leader's component
    raises loudly instead of being lost; connectivity is a precondition of
    the fixed-leader convention.
    """

    def test_even_c4_on_random_graphs(self):
        from qcongest.graph import oracle_has_cycle

        hits = truths = sampled = 0
        for seed in range(20):
            g = generate(GenSpec(kind="gnp", n=48, edge_prob=0.12, seed=seed))
            if g.leader_bfs().components > 1:
                continue
            sampled += 1
            truth = oracle_has_cycle(g, 4)
            got = detect_even_cycle(g, 4, CostLedger(), seed=seed)
            assert got <= truth  # soundness is unconditional
            truths += truth
            hits += got
        assert sampled >= 10 and truths > 5
        assert hits == truths  # amplification makes misses vanishingly rare

    def test_odd_c5_on_random_graphs(self):
        from qcongest.graph import oracle_has_cycle

        sampled = 0
        for seed in range(20):
            g = generate(GenSpec(kind="gnp", n=40, edge_prob=0.12, seed=seed))
            if g.leader_bfs().components > 1:
                continue
            sampled += 1
            truth = oracle_has_cycle(g, 5)
            got = detect_odd_cycle(g, 5, CostLedger(), seed=seed)
            assert got <= truth
            if truth:
                assert got
        assert sampled >= 10

    def test_detection_outside_leader_component_is_loud(self):
        # cycle on nodes 5..8, leader 0 isolated in a separate path
        edges = [(0, 1), (1, 2)] + [(5, 6), (6, 7), (7, 8), (5, 8)]
        g = Graph(10, edges)
        with pytest.raises(RuntimeError, match="leader cannot aggregate"):
            for seed in range(50):
                detect_even_cycle(g, 4, CostLedger(), seed=seed)


class TestLightStageEngineAgreement:
    def test_multi_source_classes(self):
        # the light-search configuration: a random class of sources, large M
        rng = random.Random(99)
        for trial in range(25):
            n = rng.randint(8, 16)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.25
            ]
            g = Graph(n, edges)
            sources = mask_of(v for v in range(n) if rng.random() < 0.5)
            for two_k in (4, 6):
                cfg = ColorBfsConfig(cycle_len=two_k, active=mask_of(range(n)),
                                     congestion_bound=n * n, repetitions=1)
                colors = {v: rng.randrange(two_k) for v in range(n)}
                assert protocol_detect_once(g, cfg, sources, colour_masks(cfg, colors)) == (
                    event_detect_once(g, cfg, sources, colors)), (n, edges, sources, colors,
                                                                   two_k)


class TestGirthControlledSoundness:
    """Graphs with cycles, just never of the target length: still zero fires."""

    def test_long_cycle_graphs_never_fire_shorter_targets(self):
        trials = 0
        for length in (9, 11, 15, 25, 48):
            g = cycle_graph(length, n=max(length, 40))
            for seed in range(100):
                assert not detect_odd_cycle(g, 5, CostLedger(), seed=seed)
                assert not detect_odd_cycle(g, 7, CostLedger(), seed=seed)
                assert not detect_even_cycle(g, 4, CostLedger(), seed=seed)
                assert not detect_even_cycle(g, 6, CostLedger(), seed=seed)
                trials += 4
        assert trials == 2000

    def test_protocol_engine_on_wrong_length_cycle(self, monkeypatch):
        # girth 8: no C4/C6 patterns can complete, whatever the colors
        g = cycle_graph(8)
        calls = count_calls(monkeypatch, "protocol_detect_once")
        for ell in (4, 6):
            cfg, src = all_active_cfg(g, ell, reps=500, m=8)
            assert not stage_found(g, cfg, src, 1, "protocol")
            assert not calls  # the stage's index settles it: nothing is simulated
            # the simulation itself, run hop by hop, never fires here either
            assert not _protocol_found(g, cfg, src, ("girth", ell))
            assert calls["protocol_detect_once"] > 100
            calls.clear()


class TestSingleQueryPrice:
    """Full and cost-only runs price a query by the same function."""

    @staticmethod
    def hub_graph(n, extra_edges):
        # node 0 is adjacent to every node: the leader's eccentricity is 1
        return Graph(n, sorted({(0, v) for v in range(1, n)} | set(extra_edges)))

    def test_odd_ledger_equals_cost_only_at_eccentricity_1(self):
        graphs = [
            self.hub_graph(9, []),  # a star: no cycle at all
            self.hub_graph(12, [(1, 2), (3, 4), (5, 6)]),  # triangles only
            self.hub_graph(10, [(1, 2), (2, 3), (3, 4), (6, 7)]),  # C5s through 0
            self.hub_graph(16, [(v, v + 1) for v in range(1, 15)]),  # a fan
        ]
        for g in graphs:
            assert CongestNet(g).eccentricity == 1
            for ell in (5, 7):
                full, cost_only = CostLedger(), CostLedger()
                detect_odd_cycle(g, ell, full, seed=g.n)
                cycle_cost_only(g.n, g.m, ell, cost_only)
                assert full.entries == cost_only.entries, (g.n, ell)

    def test_light_bound_is_a_cong_words(self):
        # the light stage's M = a_cong * word_capacity(n) is the float form
        # a_cong * max(1, ceil(log2 n)) exactly
        for n in range(1, 2**16 + 1):
            assert (_A_CONG * word_capacity(n)
                    == _A_CONG * max(1, math.ceil(math.log2(max(n, 2)))))


class TestEvenHeavyStage:
    def test_heavy_cycle_found_via_heavy_search(self):
        # C6 whose nodes each carry 3 extra leaves: degree 5 >= n^(1/6),
        # so the cycle is heavy and the light stage has nothing to find
        n = 6 + 18
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges = [(min(u, v), max(u, v)) for u, v in edges]
        leaf = 6
        for v in range(6):
            for _ in range(3):
                edges.append((v, leaf))
                leaf += 1
        g = Graph(n, sorted(set(edges)))
        threshold = math.ceil(n ** (1 / 6))
        assert all(g.adj[v].bit_count() >= threshold for v in range(6))
        hits = sum(
            detect_even_cycle(g, 6, CostLedger(), seed=s) for s in range(50)
        )
        assert hits == 50

    def test_minimal_n_equals_cycle(self):
        g = cycle_graph(4)
        assert detect_even_cycle(g, 4, CostLedger(), seed=0)
        g6 = cycle_graph(6)
        assert detect_even_cycle(g6, 6, CostLedger(), seed=0)


def polarity_graph(q):
    """Erdos-Renyi polarity graph ER_q, q prime: points of PG(2, q), joined
    when orthogonal.  C4-free, n = q^2 + q + 1, degrees q and q + 1."""
    points = [p for p in itertools.product(range(q), repeat=3)
              if any(p) and p[next(i for i in range(3) if p[i])] == 1]
    edges = [(i, j) for i, a in enumerate(points) for j in range(i + 1, len(points))
             if sum(x * y for x, y in zip(a, points[j])) % q == 0]
    return Graph(len(points), edges)


def random_bipartite(n, avg_degree, seed):
    rng = random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    prob = 2.0 * avg_degree / n
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if side[u] != side[v] and rng.random() < prob])


def girth_above(n, ell, avg_degree, seed):
    """G(n, p) minus every edge that would close a cycle of length <= ell."""
    rng = random.Random(seed)
    prob = avg_degree / (n - 1)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
    adj = [set() for _ in range(n)]
    kept = []
    for u, v in candidates:
        near, frontier = {u}, [u]
        for _ in range(ell - 1):
            frontier = [w for x in frontier for w in adj[x] if w not in near]
            near.update(frontier)
        if v not in near:
            adj[u].add(v)
            adj[v].add(u)
            kept.append((u, v))
    return Graph(n, kept)


class TestCycleRichSoundness:
    """Many cycles, none of the target length: the no-cycle certificates
    cannot clear every anchor, so the detectors really search, and none
    may fire."""

    @staticmethod
    def assert_never_fires(g, ell, seeds, engine="event"):
        assert g.m >= g.n, "the family must keep cycles"  # no forest has n edges
        detect = detect_odd_cycle if ell % 2 else detect_even_cycle
        for seed in seeds:
            ledger = CostLedger()
            assert not detect(g, ell, ledger, seed=seed, engine=engine), (g, ell, seed)
            assert ledger.counts["queries"] > 0

    @pytest.mark.parametrize("ell", [5, 7])
    def test_bipartite_graphs_have_no_odd_cycles(self, ell):
        for n, seed in ((24, 1), (48, 2), (72, 3)):
            g = random_bipartite(n, 4.0, seed)
            assert oracle_has_cycle(g, 4) or oracle_has_cycle(g, 6)
            self.assert_never_fires(g, ell, range(4))

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_polarity_graphs_have_no_c4(self, q):
        g = polarity_graph(q)
        assert g.n == q * q + q + 1
        assert not oracle_has_cycle(g, 4) and oracle_has_cycle(g, 5)
        self.assert_never_fires(g, 4, range(4))
        # with delta = 0 for C4 every non-isolated node is heavy, so the
        # light stage's multi-source search runs here directly: every node
        # in ceil(n^alpha) random index classes, at the light stage's M
        classes = ceil_pow(g.n, _heavy_light_exponents(2)[1])
        shared = ColorBfsConfig(4, (1 << g.n) - 1, _A_CONG * word_capacity(g.n),
                                cycle_repetitions(g.n, 4))
        for seed in range(3):
            rng = random.Random(seed)
            queries = [0] * classes
            for v in range(g.n):
                queries[rng.randrange(classes)] |= 1 << v
            ledger = CostLedger()
            assert not stage_search(CongestNet(g), [(q, i) for i, q in enumerate(queries)],
                                     shared, "even-light", "even-cycle/light-search", ledger,
                                     seed, DEFAULT_PARAMS, "event")
            assert ledger.counts["queries"] > 0

    def test_polarity_graph_on_the_protocol_engine(self, monkeypatch):
        g = polarity_graph(3)
        calls = count_calls(monkeypatch, "protocol_detect_once")
        self.assert_never_fires(g, 4, range(2), engine="protocol")
        assert not calls  # the stages' indexes settle them: nothing is simulated
        # the simulation itself, from each node and from every node at once,
        # at the heavy stage's repetitions, never fires either
        reps = cycle_repetitions(g.n, 4)
        for sources in [[v] for v in range(g.n)] + [list(range(g.n))]:
            cfg, src = all_active_cfg(g, 4, sources=sources, reps=reps, m=len(sources))
            assert not _protocol_found(g, cfg, src, ("polarity", len(sources), sources[0]))
        assert calls["protocol_detect_once"] > 1000

    @pytest.mark.parametrize("ell", [6, 7])
    def test_girth_above_ell(self, ell):
        for n, seed in ((32, 1), (64, 2)):
            g = girth_above(n, ell, 4.0, seed)
            assert not any(oracle_has_cycle(g, length) for length in range(3, ell + 1))
            assert oracle_has_cycle(g, ell + 1) or oracle_has_cycle(g, ell + 2)
            self.assert_never_fires(g, ell, range(4))


class TestTruncationCounters:
    """The enumeration limit bounds a stage, and the counters name the
    queries that lost patterns to it or to the pattern cap."""

    def test_enumeration_limit_is_counted(self, monkeypatch):
        # K9, C5, one stage of the queries {0, 1} and {5, 6}: its
        # enumeration, anchored at 0, 1, 5 and 6, first yields hundreds of
        # cycles through 0, so a limit of 10 leaves both queries short
        g = generate(GenSpec(kind="complete", n=9))
        cfg, src = all_active_cfg(g, 5, sources=[0, 1, 5, 6], m=9)
        queries = [mask_of([0, 1]), mask_of([5, 6])]
        index = _CycleIndex(g, cfg, src)
        assert all(len(index.patterns(q)[0]) > 20 and not index.patterns(q)[1]
                   for q in queries)
        patch_cycledetect(monkeypatch, "CYCLE_ENUM_LIMIT", 10)
        index = _CycleIndex(g, cfg, src)
        first = list(itertools.islice(iter_cycles(g, 5, anchors=src), 10))
        for q in queries:
            patterns, hits = index.patterns(q)
            assert hits == {"enumeration_truncated"}
            # the patterns at the query's sources on the stage's first 10 cycles
            assert patterns == sorted((c, c.index(v)) for c in first for v in c if q >> v & 1)

    def test_pattern_cap_is_counted(self, monkeypatch):
        patch_cycledetect(monkeypatch, "_PATTERN_CAP", 8)
        g = generate(GenSpec(kind="complete", n=9))
        patterns, hits = query_patterns(g, *all_active_cfg(g, 5, m=9))
        assert len(patterns) == 8
        assert hits == {"pattern_capped"}

    def test_detector_reports_truncation(self, monkeypatch):
        patch_cycledetect(monkeypatch, "CYCLE_ENUM_LIMIT", 3)
        g = generate(GenSpec(kind="complete", n=9))
        ledger = CostLedger()
        assert detect_odd_cycle(g, 5, ledger, seed=0)
        assert ledger.counts["enumeration_truncated"] >= 1
        assert ledger.counts["enumeration_truncated"] <= ledger.counts["queries"]


def assert_files_the_first_cycles(g, ell, active, anchors, limit):
    """With CYCLE_ENUM_LIMIT = limit, a stage index pulled to its end files
    the patterns of the first `limit` cycles of the stage's enumeration,
    and it is truncated, at the anchor of cycle number `limit` (0 if limit
    is 0), exactly when the enumeration holds more.  Returns whether it
    does."""
    every = iter_cycles(g, ell, active_mask=active, anchors=anchors)
    first = list(itertools.islice(every, limit))
    more = next(every, None) is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(detect_odd_cycle.__globals__, "CYCLE_ENUM_LIMIT", limit)
        index = _CycleIndex(g, ColorBfsConfig(ell, active), anchors)
        index.patterns(anchors)  # pulls past every anchor: to the end, or to the limit
    want = {}
    for cyc in first:  # every anchor on a cycle anchors a pattern
        for v in cyc:
            if anchors >> v & 1:
                want.setdefault(v, []).append(cyc)
    assert index._through == want
    assert index._truncated_at == ((first[-1][0] if first else 0) if more else None)
    return more


class TestCycleIndex:
    """One lazy index per stage serves each query what the query's own
    enumeration gave."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_the_limit_bounds_the_filed_cycles(self, data):
        n = data.draw(st.integers(3, 11), label="n")
        g = generate(GenSpec(kind="gnp", n=n,
                             edge_prob=data.draw(st.sampled_from([0.3, 0.5, 0.8]), label="p"),
                             seed=data.draw(st.integers(0, 10**6), label="seed")))
        ell = data.draw(st.integers(3, min(n, 6)), label="ell")
        active = mask_of(v for v in range(n) if data.draw(st.booleans(), label=f"active {v}"))
        anchors = mask_of(v for v in bits(active)
                          if data.draw(st.booleans(), label=f"anchor {v}"))
        assert_files_the_first_cycles(g, ell, active, anchors,
                                      data.draw(st.sampled_from([0, 1, 4, 25]), label="limit"))

    @pytest.mark.parametrize("limit", [0, 1, 4, 25])
    def test_a_stage_with_exactly_limit_cycles_is_not_truncated(self, limit):
        # limit disjoint C4s hold exactly limit cycles; one more C4 holds more
        for count, truncated in ((limit, False), (limit + 1, True)):
            g = Graph(4 * count + 4, [(4 * i + a, 4 * i + b) for i in range(count)
                                      for a, b in ((0, 1), (1, 2), (2, 3), (0, 3))])
            everyone = (1 << g.n) - 1
            assert assert_files_the_first_cycles(g, 4, everyone, everyone, limit) == truncated

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_each_query_gets_the_reference_patterns(self, data):
        n = data.draw(st.integers(4, 11), label="n")
        prob = data.draw(st.sampled_from([0.3, 0.5, 0.8]), label="edge_prob")
        g = generate(GenSpec(kind="gnp", n=n, edge_prob=prob,
                             seed=data.draw(st.integers(0, 10**6), label="seed")))
        ell = data.draw(st.integers(4, min(n, 7)), label="ell")
        active = mask_of(v for v in range(n) if data.draw(st.booleans(), label=f"active {v}"))
        # a partition of some active nodes into source sets
        classes = data.draw(st.integers(1, 4), label="classes")
        queries = [0] * classes
        for v in bits(active):
            i = data.draw(st.integers(-1, classes - 1), label=f"class of {v}")
            if i >= 0:
                queries[i] |= 1 << v
        m_bound = data.draw(st.integers(1, 3), label="M")
        union = mask_of(v for q in queries for v in bits(q))
        shared = ColorBfsConfig(ell, active, m_bound, 1)
        index = _CycleIndex(g, shared, union)
        for i in data.draw(st.permutations(range(classes)), label="query order"):
            q = queries[i]
            want, dropped = reference_patterns(g, shared, q)
            got, hits = index.patterns(q)
            if "pattern_capped" in hits:  # _PATTERN_CAP of the patterns, in the stage's order
                assert len(want) > _PATTERN_CAP == len(got)
                assert not Counter(map(anchored, got)) - Counter(map(anchored, want))
            else:
                assert Counter(map(anchored, got)) == Counter(map(anchored, want))
            assert got == sorted(got)  # enumeration order, which is lexicographic
            assert hits <= {"congestion_dropped", "pattern_capped"}
            # a dropped pattern is a dropped cycle
            assert dropped or "congestion_dropped" not in hits

    @pytest.mark.parametrize("graph, ell, sources", [
        (cycle_graph(4), 4, [0]),  # one pattern
        (generate(GenSpec(kind="complete", n=6)), 5, [0, 3]),  # 2 * 60 patterns
    ])
    def test_the_cap_counts_only_what_it_cuts(self, monkeypatch, graph, ell, sources):
        cfg, src = all_active_cfg(graph, ell, sources=sources, m=len(sources))
        every, hits = query_patterns(graph, cfg, src)
        assert hits == set()
        patch_cycledetect(monkeypatch, "_PATTERN_CAP", len(every))
        assert query_patterns(graph, cfg, src) == (every, set())
        patch_cycledetect(monkeypatch, "_PATTERN_CAP", len(every) - 1)
        assert query_patterns(graph, cfg, src) == (every[:-1], {"pattern_capped"})

    def test_a_capped_query_keeps_its_first_patterns_whatever_the_order(self, monkeypatch):
        # K7, C5, queries {0}, {1, 4}, {2}, {3, 5, 6}: each keeps the first
        # _PATTERN_CAP of its patterns in enumeration order, asked first or last
        g = generate(GenSpec(kind="complete", n=7))
        cfg, _ = all_active_cfg(g, 5, m=3)
        queries = [mask_of([0]), mask_of([1, 4]), mask_of([2]), mask_of([3, 5, 6])]
        every = [_CycleIndex(g, cfg, cfg.active).patterns(q)[0] for q in queries]
        assert all(len(p) > 30 for p in every)
        patch_cycledetect(monkeypatch, "_PATTERN_CAP", 30)
        for order in (range(4), range(3, -1, -1), (2, 0, 3, 1)):
            index = _CycleIndex(g, cfg, cfg.active)
            for i in order:
                assert index.patterns(queries[i]) == (every[i][:30], {"pattern_capped"})

    def test_the_cap_stops_the_enumeration(self, monkeypatch):
        # a capped query pulls just past its cap, not up to its highest source
        g = generate(GenSpec(kind="complete", n=9))
        cfg, _ = all_active_cfg(g, 6, m=9)
        patch_cycledetect(monkeypatch, "_PATTERN_CAP", 5)
        index = _CycleIndex(g, cfg, cfg.active)
        assert index.patterns(mask_of([0]))[1] == {"pattern_capped"}
        assert sum(map(len, index._through.values())) == 6 * 6  # six cycles, six sources each


class TestProtocolDraws:
    """The protocol engine skips idle repetitions and draws only the colours
    a word can read, without changing the law of `found`."""

    @staticmethod
    def ball(g, cfg, sources):
        """Active nodes within floor(ell/2) hops of a source, through active nodes."""
        near = frontier = set(bits(sources))
        for _ in range(cfg.cycle_len // 2):
            frontier = {u for v in frontier for u in bits(g.adj[v] & cfg.active)} - near
            near |= frontier
        return near

    def test_colours_beyond_the_ball_change_nothing(self):
        rng = random.Random(11)
        far_graphs = answers = 0
        for seed in range(300):
            g = generate(GenSpec(kind="gnp", n=rng.randint(5, 16),
                                 edge_prob=rng.choice([0.15, 0.25, 0.4]), seed=seed))
            ell = rng.randint(4, min(g.n, 8))
            cfg, src = random_cfg(rng, g, ell)
            colors = {v: rng.randrange(ell) for v in bits(cfg.active)}
            patterns, _ = reference_patterns(g, cfg, src)
            if patterns:  # colour one pattern to fire, so that many answers are True
                cyc, pos = rng.choice(patterns)
                colors.update((cyc[(pos + j) % ell], j) for j in range(ell))
            got = protocol_detect_once(g, cfg, src, colour_masks(cfg, colors))
            near = self.ball(g, cfg, src)
            far_graphs += any(v not in near for v in bits(cfg.active))
            answers += got
            for _ in range(3):
                recoloured = {v: (c if v in near else rng.randrange(ell))
                              for v, c in colors.items()}
                assert protocol_detect_once(g, cfg, src, colour_masks(cfg, recoloured)) == got
            # uncoloured, as the engine leaves them
            uncoloured = {v: c for v, c in colors.items() if v in near}
            assert protocol_detect_once(g, cfg, src, colour_masks(cfg, uncoloured)) == got
        assert far_graphs > 50 and answers > 30

    @pytest.mark.parametrize("k, ell", [(1, 4), (2, 4), (3, 4), (2, 5)])
    def test_live_source_colours_match_brute_force(self, k, ell):
        live = [c for c in itertools.product(range(ell), repeat=k) if 0 in c]
        rng = random.Random(k * 10 + ell)
        draws = 12_000
        counts = Counter(tuple(_live_source_colours(rng, k, ell)) for _ in range(draws))
        assert set(counts) <= set(live)
        p = 1 / len(live)
        bound = 5 * math.sqrt(draws * p * (1 - p))
        assert all(abs(counts[c] - draws * p) <= bound for c in live), counts

    def test_no_sources_never_detect(self):
        g = cycle_graph(4)
        assert not _protocol_found(g, *all_active_cfg(g, 4, sources=[], reps=10**6), ("none",))

    @staticmethod
    def exact_p(g, cfg, sources):
        """The share of all colourings of the active nodes on which one
        repetition from sources detects."""
        nodes = list(bits(cfg.active))
        fired = sum(protocol_detect_once(g, cfg, sources, colour_masks(cfg, dict(zip(nodes, c))))
                    for c in itertools.product(range(cfg.cycle_len), repeat=len(nodes)))
        return fired / cfg.cycle_len ** len(nodes)

    @pytest.mark.parametrize("name", ["c4-one-source", "c4-with-tail", "c5-all-sources",
                                      "k4-two-sources"])
    def test_detection_rate_matches_the_reference(self, name):
        g, ell, sources, m = {
            "c4-one-source": (cycle_graph(4), 4, [0], 1),
            # nodes 4..7 of the tail lie beyond the source's ball
            "c4-with-tail": (Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (4, 5),
                                       (5, 6), (6, 7)]), 4, [0], 1),
            "c5-all-sources": (cycle_graph(5), 5, range(5), 5),
            "k4-two-sources": (generate(GenSpec(kind="complete", n=4)), 4, [0, 1], 2),
        }[name]
        if name == "c4-with-tail":  # the tail's colours change nothing: enumerate the C4
            p = self.exact_p(cycle_graph(4), *all_active_cfg(cycle_graph(4), 4, sources=[0]))
        else:
            p = self.exact_p(g, *all_active_cfg(g, ell, sources=sources, m=m))
        reps = max(1, round(math.log(2) / p))
        cfg, src = all_active_cfg(g, ell, sources=sources, m=m, reps=reps)
        q = 1 - (1 - p) ** reps
        seeds = 400
        bound = 4 * math.sqrt(q * (1 - q) / seeds)
        for found in (_protocol_found, reference_protocol_found):
            rate = sum(found(g, cfg, src, ("rate", name, s)) for s in range(seeds)) / seeds
            assert abs(rate - q) <= bound, (found.__name__, rate, q)


@pytest.mark.parametrize("engine", ["event", "protocol"])
@pytest.mark.parametrize("fields, message", [
    ({"cycle_len": 2}, "cycle_len must be >= 3"),
    ({"congestion_bound": 0}, "congestion bound M must be >= 1"),
    ({"repetitions": 0}, "repetitions must be >= 1"),
    # node 5 is not active: the first query may fire, the second leaves the
    # active nodes
    ({"queries": [(1 << 0, 0), (mask_of([1, 5]), 1)]}, "sources must be a subset of active"),
])
def test_invalid_stages_are_refused_before_any_charge(fields, message, engine):
    g = cycle_graph(4, n=6)
    stage = {"cycle_len": 4, "active": mask_of(range(5)), "congestion_bound": 1,
             "repetitions": 10**4, "queries": [(1 << v, v) for v in range(5)], **fields}
    queries = stage.pop("queries")
    ledger = CostLedger()
    with pytest.raises(ValueError, match=message):
        stage_search(CongestNet(g), queries, ColorBfsConfig(**stage), "test", "color-bfs",
                      ledger, 0, DEFAULT_PARAMS, engine)
    assert ledger.entries == [] and not ledger.counts


class TestLengthRule:
    """One rule says which lengths the detectors and cycle_cost_only take."""

    def test_callers_raise_exactly_when_refused(self):
        for n in range(1, 13):
            g = Graph(n, [])
            for ell in range(3, 15):
                refused = inapplicable(n, ell) is not None
                assert refused == (ell > n or ell < (5 if ell % 2 else 4)), (n, ell)
                detect = detect_odd_cycle if ell % 2 else detect_even_cycle
                for run in (lambda led: detect(g, ell, led),
                            lambda led: cycle_cost_only(n, 0, ell, led)):
                    led = CostLedger()
                    if refused:
                        with pytest.raises(ValueError):
                            run(led)
                        assert led.entries == [], (n, ell)
                    else:
                        run(led)
                        assert led.entries, (n, ell)

    @pytest.mark.parametrize("ell, refused", [(141, False), (142, False), (143, True),
                                              (144, True), (151, True)])
    def test_the_longest_length_is_the_last_with_a_float_repetition_count(self, ell, refused):
        # 2 / ell^ell: ln(100) over it passes the largest float at ell = 143,
        # and the float division by it fails from ell = 150 on
        assert (inapplicable(ell, ell) is not None) == refused
        assert (inapplicable(10**6, ell) is not None) == refused
        detect = detect_odd_cycle if ell % 2 else detect_even_cycle
        for run in (lambda led: detect(Graph(ell, []), ell, led),
                    lambda led: cycle_cost_only(ell, 0, ell, led)):
            led = CostLedger()
            if refused:
                with pytest.raises(ValueError, match="repetitions"):
                    run(led)
                assert led.entries == []
            else:
                assert not run(led) and led.entries
        if not refused:
            reps = cycle_repetitions(ell, ell)
            assert 10**300 < reps < 2**1024

    # the largest n of a finite odd count: from the next n on, the float
    # 1/n^2 is so small that its reciprocal passes the largest float
    ODD_N_LIMIT = int("1340780792994259449458403712275049733821478583289318909761378127523926"
                      "3790902956834608130340918239177124493456292993870521322719327448258877"
                      "371065532861439")

    @pytest.mark.parametrize("ell", [5, 7, 141])
    def test_the_largest_n_of_an_odd_count(self, capsys, ell):
        last = self.ODD_N_LIMIT
        assert 1.34e154 < last < 1.35e154
        assert inapplicable(last, ell) is None
        assert cycle_repetitions(last, ell) == repetitions_for(single_rep_success(ell),
                                                               1.0 / (last * last))
        led = CostLedger()
        assert cycle_cost_only(last, 0, ell, led) is None and led.entries
        sweep = ["sweep", "--algo", "odd-cycle", "--ell", str(ell), "--n-list"]
        assert main([*sweep, str(last)]) == 0
        for n in (last + 1, 10**155, 10**200):
            assert cycle_repetitions(n, ell) is None
            assert "repetitions" in inapplicable(n, ell)
            led = CostLedger()
            with pytest.raises(ValueError, match="repetitions"):
                cycle_cost_only(n, 0, ell, led)
            assert led.entries == []
            assert main([*sweep, str(n)]) == 2
        capsys.readouterr()
        # the even target does not depend on n
        assert cycle_repetitions(10**200, ell + 1) == cycle_repetitions(ell + 1, ell + 1)


class TestPatternDedupe:
    """Each cycle through a source is a candidate once, whatever the sources."""

    @staticmethod
    def canonical(cyc):
        ell = len(cyc)
        i = cyc.index(min(cyc))
        fwd = tuple(cyc[(i + j) % ell] for j in range(ell))
        bwd = tuple(cyc[(i - j) % ell] for j in range(ell))
        return min(fwd, bwd)

    def test_each_cycle_once_and_every_cycle_covered(self):
        graphs = ([generate(GenSpec(kind="complete", n=n)) for n in (6, 7, 8)]
                  + [generate(GenSpec(kind="gnp", n=12, edge_prob=0.4, seed=s))
                     for s in range(3)])
        for g in graphs:
            for ell in (4, 5, 6):
                for sources in ([0, 1], [1, 3, 4], [0, 2, 5]):
                    patterns, hits = query_patterns(
                        g, *all_active_cfg(g, ell, sources=sources, m=len(sources)))
                    assert hits == set()
                    cycles = list(dict.fromkeys(cyc for cyc, _ in patterns))
                    canon = [self.canonical(cyc) for cyc in cycles]
                    assert len(set(canon)) == len(canon), (g.n, g.m, ell, sources)
                    brute = {self.canonical(cyc) for cyc in iter_cycles(g, ell)
                             if set(cyc) & set(sources)}
                    assert set(canon) == brute, (g.n, g.m, ell, sources)
                    # every source on a cycle anchors it once
                    assert len(patterns) == sum(len(set(c) & set(sources)) for c in brute)

    def test_the_limit_bounds_the_whole_query(self, monkeypatch):
        # CYCLE_ENUM_LIMIT counts the cycles of the stage's one enumeration,
        # whichever source anchors them.  On K7 with C4 and the single-source
        # queries 0..3, 60, 30, 12 and 3 cycles have smallest source 0, 1, 2
        # and 3, and the enumeration yields them in that order.  A query is
        # complete once the enumeration has passed its source, so limit 10
        # leaves every query short, 100 the queries 2 and 3, 104 query 3
        # only, and 105 none
        g, ell, sources = generate(GenSpec(kind="complete", n=7)), 4, [0, 1, 2, 3]
        cfg, src = all_active_cfg(g, ell, sources=sources, m=1)
        owned = [sum(min(set(c) & set(sources)) == s for c in iter_cycles(g, ell))
                 for s in sources]
        assert owned == [60, 30, 12, 3]
        enumeration = list(iter_cycles(g, ell, anchors=mask_of(sources)))
        assert [c[0] for c in enumeration] == [s for s, k in zip(sources, owned)
                                               for _ in range(k)]
        for limit, short in ((10, {0, 1, 2, 3}), (100, {2, 3}), (104, {3}), (105, set())):
            patch_cycledetect(monkeypatch, "CYCLE_ENUM_LIMIT", limit)
            for order in (sources, sources[::-1]):
                index = _CycleIndex(g, cfg, src)
                for s in order:
                    patterns, hits = index.patterns(1 << s)
                    assert hits == ({"enumeration_truncated"} if s in short else set()), limit
                    assert patterns == [(c, c.index(s)) for c in enumeration[:limit] if s in c]
                    for cyc, pos in patterns:
                        assert len(set(cyc)) == ell and cyc[pos] == s
                        assert all(g.has_edge(cyc[i], cyc[(i + 1) % ell]) for i in range(ell))


def evaluate_every_query(net, queries, shared, ledger, seed, engine="event", tag="test",
                         phase="color-bfs", simulate_cleared=True):
    """A stage with nothing settled, seeded and charged as _stage_search
    seeds and charges the stage (tag, phase).  On the event engine every
    query measures its congestion and reads its lists in index.patterns,
    draws through _event_found and files its counters.  On the protocol
    engine every query asks index.may_fire(), which pulls the enumeration
    as the stage's check does, and runs hop by hop (with simulate_cleared
    False, only if may_fire() does not clear it); a detection that
    may_fire() would have skipped fails the test.  The search walks every
    stage, and the index yields what _stage_search's walk of the queries
    pulls.  No source set: nothing is searched or charged."""
    if not queries:
        return False
    graph = net.graph
    rounds = _query_rounds(shared.cycle_len, shared.repetitions, shared.congestion_bound,
                           net.eccentricity)
    index = _CycleIndex(graph, shared, mask_of(v for q, _ in queries for v in bits(q)))
    if engine == "event":
        index._filed = -1  # every source seems to anchor a pattern: no query is cut short

    def checker(i):
        sources, label = queries[i]
        if engine == "event":
            patterns, hits = index.patterns(sources)
            found, sampled = _event_found(patterns, shared, (tag, seed, label))
            ledger.counts.update(hits | ({"pattern_sampled"} if sampled else set()))
        else:
            may = index.may_fire(sources)
            found = (may or simulate_cleared) and _protocol_found(graph, shared, sources,
                                                                  (tag, seed, label))
            assert may or not found, "a protocol detection would have been skipped"
        if found:
            net.require_reachable(sources & -sources)
        return found, rounds

    return run_search(len(queries), checker, ledger, DEFAULT_PARAMS, seed=seed,
                      model="congest", phase=phase).found


def stage_outcome(run):
    """(found, or the leader fault's message; ledger rows; nonzero counters)
    of run(ledger) on a fresh ledger."""
    ledger = CostLedger()
    try:
        found = run(ledger)
    except RuntimeError as exc:
        found = str(exc)
    rows = [(e.phase, e.model, e.kind, e.rounds) for e in ledger.entries]
    return found, rows, +ledger.counts


def same_as_every_query(g, queries, shared, seed, engine, limit=None, cap=None):
    """Assert that _stage_search gives what evaluate_every_query gives, with
    CYCLE_ENUM_LIMIT and _PATTERN_CAP set when given; return the outcome."""
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setitem(detect_odd_cycle.__globals__, "CYCLE_ENUM_LIMIT", limit)
        if cap is not None:
            mp.setitem(detect_odd_cycle.__globals__, "_PATTERN_CAP", cap)
        got = stage_outcome(lambda ledger: stage_search(
            CongestNet(g), queries, shared, "test", "color-bfs", ledger, seed,
            DEFAULT_PARAMS, engine))
        want = stage_outcome(lambda ledger: evaluate_every_query(
            CongestNet(g), queries, shared, ledger, seed, engine))
    assert got == want
    return got


def count_calls(monkeypatch, name):
    """Count the calls of cycledetect's function `name` from its callers
    there; the Counter is keyed by name."""
    calls = Counter()
    real = detect_odd_cycle.__globals__[name]

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    patch_cycledetect(monkeypatch, name, counted)
    return calls


class TestNoFireQueries:
    """A query that cannot fire answers False without being checked, and a
    stage none of whose queries can fire is not walked: the stage gives
    what evaluating every query in full gave, on both engines."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_answers_ledgers_and_counters(self, data):
        engine = data.draw(st.sampled_from(["event", "protocol"]), label="engine")
        n = data.draw(st.integers(4, 12), label="n")
        seed = data.draw(st.integers(0, 10**6), label="seed")
        family = data.draw(st.sampled_from(["forest", "bipartite", "0.15", "0.4", "0.8"]),
                           label="family")
        rng = random.Random(seed)
        if family == "forest":  # anchor_ball clears every anchor
            g = Graph(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9])
        elif family == "bipartite":
            g = random_bipartite(n, 3.0, seed)
        else:
            g = generate(GenSpec(kind="gnp", n=n, edge_prob=float(family), seed=seed))
        ell = data.draw(st.integers(4, min(n, 7)), label="ell")
        active = (1 << n) - 1
        if data.draw(st.booleans(), label="masked"):
            active = mask_of(v for v in range(n) if rng.random() < 0.8)
        classes = data.draw(st.integers(1, 5), label="classes")
        queries = [0] * classes
        for v in bits(active):
            i = rng.randrange(-1, classes)
            if i >= 0:
                queries[i] |= 1 << v
        queries = [(q, i) for i, q in enumerate(queries)]
        shared = ColorBfsConfig(ell, active, data.draw(st.integers(1, 3), label="M"),
                                data.draw(st.sampled_from([1, 3, 40]), label="reps"))
        # limit 0 truncates a stage before it files anything
        same_as_every_query(
            g, queries, shared, seed, engine,
            limit=data.draw(st.sampled_from([None, 0, 2, 5, 20]), label="CYCLE_ENUM_LIMIT"),
            cap=data.draw(st.sampled_from([None, 1, 3]), label="_PATTERN_CAP"))

    @pytest.mark.parametrize("engine", ["event", "protocol"])
    def test_a_truncated_stage_with_nothing_filed_is_walked(self, monkeypatch, engine):
        # K_{4,4}, C4, limit 0: the enumeration stops at its first cycle
        # with nothing filed, so every query may fire and the stage is
        # walked: the event engine counts each query as truncated, and the
        # protocol engine simulates
        g = Graph(8, [(u, v) for u in range(4) for v in range(4, 8)])
        queries = [(1 << v, v) for v in range(4)]
        shared = ColorBfsConfig(4, (1 << 8) - 1, 1, 5)
        patch_cycledetect(monkeypatch, "CYCLE_ENUM_LIMIT", 0)
        index = _CycleIndex(g, shared, mask_of(range(4)))
        assert index.may_fire(mask_of(range(4))) and not index._filed
        assert all(index.may_fire(q) for q, _ in queries)
        calls = count_calls(monkeypatch, "protocol_detect_once")
        outcome = stage_outcome(lambda ledger: stage_search(
            CongestNet(g), queries, shared, "test", "color-bfs", ledger, 3,
            DEFAULT_PARAMS, engine))
        assert (calls["protocol_detect_once"] > 0) == (engine == "protocol")
        if engine == "event":
            assert (outcome[0], outcome[2]) == (False, {"queries": 4,
                                                        "enumeration_truncated": 4})
        assert same_as_every_query(g, queries, shared, 3, engine, 0) == outcome

    @pytest.mark.parametrize("engine", ["event", "protocol"])
    def test_a_cut_at_or_below_a_cycle_free_source_walks_its_query(self, monkeypatch,
                                                                    engine):
        # K_{4,4} on 0..7 and node 8 pendant on node 7, C4, limit 2: the
        # enumeration stops inside the cycles through node 0.  Query {8} lies
        # on no cycle, yet its highest source is above the cut, so it may
        # fire: the event engine counts it as truncated and the protocol
        # engine simulates it.  Neither answer can change.
        g = Graph(9, [(u, v) for u in range(4) for v in range(4, 8)] + [(7, 8)])
        queries = [(1 << 8, 0), (1 << 0, 1)]
        shared = ColorBfsConfig(4, (1 << 9) - 1, 1, 1)
        patch_cycledetect(monkeypatch, "CYCLE_ENUM_LIMIT", 2)
        assert _CycleIndex(g, shared, 1 << 8 | 1).patterns(1 << 8) == (
            [], {"enumeration_truncated"})
        calls = count_calls(monkeypatch, "_protocol_found")
        found, _, counts = stage_outcome(lambda ledger: stage_search(
            CongestNet(g), queries, shared, "test", "color-bfs", ledger, 1,
            DEFAULT_PARAMS, engine))
        assert found is False
        if engine == "event":  # {0} needed cycles past the cut too
            assert counts == {"queries": 2, "enumeration_truncated": 2}
        else:
            assert counts == {"queries": 2} and calls["_protocol_found"] == 2

    def test_no_fire_queries_measure_and_draw_nothing(self, monkeypatch):
        # odd cycles on bipartite graphs: no query of any stage can fire,
        # multi-source queries above M included
        calls = Counter()
        for name in ("measure_congestion", "_event_found"):
            real = detect_odd_cycle.__globals__[name]

            def counted(*args, _real=real, _name=name):
                if _name != "_event_found" or args[0]:  # a draw needs a pattern
                    calls[_name] += 1
                return _real(*args)

            patch_cycledetect(monkeypatch, name, counted)
        real_read = _CycleIndex._read

        def counted_read(*args):
            calls["_read"] += 1
            return real_read(*args)

        monkeypatch.setattr(_CycleIndex, "_read", counted_read)
        g = random_bipartite(40, 4.0, 3)
        assert g.m >= g.n  # no forest has n edges
        ledger = CostLedger()
        assert not detect_odd_cycle(g, 5, ledger, seed=1)
        classes = [mask_of(range(i, 40, 5)) for i in range(5)]
        shared = ColorBfsConfig(7, (1 << 40) - 1, 1, 3)
        assert not stage_search(CongestNet(g), [(q, i) for i, q in enumerate(classes)],
                                 shared, "test", "color-bfs", ledger, 1, DEFAULT_PARAMS, "event")
        assert ledger.counts["queries"] > 0 and not calls
        # a query with a pattern still reads its lists and draws
        assert detect_odd_cycle(cycle_graph(5, 8), 5, CostLedger(), seed=1)
        assert calls["_event_found"] > 0 and calls["_read"] > 0


def count_yields(monkeypatch):
    """Count the cycles that the iter_cycles generators of cycledetect's
    stage indexes yield; the Counter's key is "cycles"."""
    yields = Counter()
    real = detect_odd_cycle.__globals__["iter_cycles"]

    def counted(*args, **kwargs):
        for cyc in real(*args, **kwargs):
            yields["cycles"] += 1
            yield cyc

    patch_cycledetect(monkeypatch, "iter_cycles", counted)
    return yields


class TestSettledQueries:
    """The protocol engine skips a query with no pattern, and the pull that
    settles a stage that cannot fire costs nothing that the search would
    not cost."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_protocol_detection_is_never_skipped(self, data):
        # whenever one hop-by-hop repetition detects, the stage's index says
        # that the query's sources may fire
        n = data.draw(st.integers(4, 12), label="n")
        seed = data.draw(st.integers(0, 10**6), label="seed")
        g = generate(GenSpec(kind="gnp", n=n, seed=seed,
                             edge_prob=data.draw(st.sampled_from([0.2, 0.35, 0.6, 0.9]),
                                                 label="edge_prob")))
        ell = data.draw(st.integers(4, min(n, 7)), label="ell")
        rng = random.Random(seed)
        active = mask_of(v for v in range(n) if rng.random() < 0.85)
        # sources above n/2 leave the cycles of lower anchors to come out
        # first, so that a small limit cuts the query's own cycles off
        low = n // 2 if data.draw(st.booleans(), label="high sources") else 0
        sources = mask_of(v for v in bits(active >> low << low) if rng.random() < 0.4)
        others = [mask_of(v for v in bits(active & ~sources) if rng.random() < 0.3)
                  for _ in range(2)]  # the stage's other queries
        cfg = ColorBfsConfig(ell, active, data.draw(st.integers(1, 3), label="M"), 1)
        limit = data.draw(st.sampled_from([None, 1, 3, 10]), label="CYCLE_ENUM_LIMIT")
        with pytest.MonkeyPatch.context() as mp:
            if limit is not None:
                mp.setitem(detect_odd_cycle.__globals__, "CYCLE_ENUM_LIMIT", limit)
            index = _CycleIndex(g, cfg, sources | others[0] | others[1])
            queries = [sources] + others
            rng.shuffle(queries)  # the other queries may pull the enumeration first
            may = {q: index.may_fire(q) for q in queries}[sources]
        # colour an ell-cycle through a source 0..ell-1 from it, or colour
        # at random
        cycles = list(iter_cycles(g, ell, active_mask=active, anchors=sources))
        for _ in range(20):
            colours = {v: rng.randrange(ell) for v in bits(active)}
            if cycles and rng.random() < 0.7:
                cyc = rng.choice(cycles)
                pos = rng.choice([i for i, v in enumerate(cyc) if sources >> v & 1])
                step = rng.choice([1, -1])
                colours.update((cyc[(pos + step * j) % ell], j) for j in range(ell))
            if protocol_detect_once(g, cfg, sources, colour_masks(cfg, colours)):
                assert may, (colours, limit)

    @pytest.mark.parametrize("engine", ["event", "protocol"])
    def test_the_settle_step_adds_no_yield(self, monkeypatch, engine):
        # detections whose queries fire, through _stage_search and through
        # evaluate_every_query, whose walk has no settle step: the same
        # outcomes, and the index generators yield the same cycles.  The
        # walk simulates only the queries that may fire, as _stage_search
        # does, which keeps the protocol engine's C6 negatives fast.  On a
        # planted C6 or C8 at n >= 65 the cycle's degree-2 nodes are light
        # (2 < ceil(n^(1/6))), so the light stage's multi-source index
        # classes fire; the protocol engine's C8 takes a minute and is left
        # to the event engine
        yields = count_yields(monkeypatch)
        planted = [generate(GenSpec(kind="planted_cycle", n=n, edge_prob=p, planted_size=ell,
                                    seed=s)) for n, p, ell, s in
                   ((24, 0.0, 5, 1), (24, 0.0, 6, 2), (40, 0.03, 5, 3), (40, 0.03, 4, 4))]
        dense = [generate(GenSpec(kind="gnp", n=n, edge_prob=0.4, seed=s))
                 for n, s in ((14, 5), (18, 6))]
        runs = []
        for g in planted + dense:
            for ell in (4, 5, 6):
                runs.append(lambda led, g=g, ell=ell: (
                    detect_odd_cycle(g, ell, led, seed=7, engine=engine) if ell % 2 else
                    detect_even_cycle(g, ell, led, seed=7, engine=engine)))
        for ell in (6, 8) if engine == "event" else (6,):
            g = generate(GenSpec(kind="planted_cycle", n=80, edge_prob=0.0, planted_size=ell,
                                 seed=1))
            runs.append(lambda led, g=g, ell=ell: detect_even_cycle(g, ell, led, seed=7,
                                                                   engine=engine))

        def walk(net, union, count, build, shared, tag, phase, ledger, seed, params, engine):
            assert params is DEFAULT_PARAMS
            queries = build()
            assert len(queries) == count
            assert mask_of(v for q, _ in queries for v in bits(q)) == union
            return evaluate_every_query(net, queries, shared, ledger, seed, engine, tag, phase,
                                        simulate_cleared=False)

        fired = 0
        for run in runs:
            outcomes = []
            for settle in (True, False):
                with pytest.MonkeyPatch.context() as mp:
                    if not settle:
                        mp.setitem(detect_odd_cycle.__globals__, "_stage_search", walk)
                    yields.clear()
                    outcomes.append((stage_outcome(run), yields["cycles"]))
            assert outcomes[0] == outcomes[1]
            fired += outcomes[0][0][0] is True
        assert fired >= len(runs) // 2

    @pytest.mark.parametrize("engine", ["event", "protocol"])
    def test_the_settle_step_stops_at_the_first_pattern(self, monkeypatch, engine):
        # queries {0} and {5}; C4s 0-1-2-3, 5-6-7-8 and 5-9-10-11 come out in
        # that order.  The query {0} fires: on the event engine its
        # patterns() stops the walk at the first cycle anchored past 0 (two
        # yields), and on the protocol engine its may_fire() stops at its
        # first pattern (one).  The settle step, which stops at the stage's
        # first pattern, adds none; one that stopped at its second pattern
        # would pull two on the protocol engine, and one that pulled to the
        # end three on both
        g = Graph(12, [(0, 1), (1, 2), (2, 3), (0, 3), (5, 6), (6, 7), (7, 8), (5, 8),
                       (5, 9), (9, 10), (10, 11), (5, 11)])
        shared = ColorBfsConfig(4, (1 << 12) - 1, 1, cycle_repetitions(12, 4))
        queries = [(1 << 0, 0), (1 << 5, 5)]
        yields = count_yields(monkeypatch)
        assert stage_search(CongestNet(g), queries, shared, "test", "color-bfs", CostLedger(),
                             1, DEFAULT_PARAMS, engine)
        assert yields["cycles"] == (2 if engine == "event" else 1)


def random_forest(n, seed, isolated=0):
    """A forest on n nodes (each node but the first joins a random earlier
    node with probability 0.8), then `isolated` nodes with no edge, the
    first of them at id 0 when isolated > 1."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
    shift = 1 if isolated > 1 else 0
    return Graph(n + isolated, [(u + shift, v + shift) for u, v in edges])


def forests():
    stars = [Graph(n, [(c, v) for v in range(n) if v != c]) for n, c in ((9, 0), (14, 5))]
    return ([random_forest(n, seed) for n, seed in ((8, 1), (12, 2), (20, 3), (30, 4))]
            + [generate(GenSpec(kind="path", n=n)) for n in (8, 15)] + stars
            + [random_forest(n, seed, isolated) for n, seed, isolated in
               ((10, 5, 1), (16, 6, 3), (24, 7, 5))])


def detect(g, ell, ledger, engine, seed=3):
    fn = detect_odd_cycle if ell % 2 else detect_even_cycle
    return fn(g, ell, ledger, seed=seed, engine=engine)


class TestForestCertificate:
    """On a graph of cycle rank 0 every stage is settled without a cycle
    index, and charges and counts what the walk charges and counts."""

    @pytest.mark.parametrize("engine", ["event", "protocol"])
    def test_forests_are_settled_as_the_walk_settles_them(self, engine):
        def refuse(*args, **kwargs):
            raise AssertionError("a forest's stage built an index or a ball")

        runs = 0
        for g in forests():
            assert g.cycle_rank() == 0
            for ell in range(4, min(g.n, 8) + 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setitem(detect_odd_cycle.__globals__, "_CycleIndex", refuse)
                    mp.setitem(iter_cycles.__globals__, "anchor_ball", refuse)
                    settled = stage_outcome(lambda led: detect(g, ell, led, engine))
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(Graph, "cycle_rank", lambda self: 1)
                    walked = stage_outcome(lambda led: detect(g, ell, led, engine))
                assert settled == walked and settled[0] is False, (g, ell)
                runs += 1
        assert runs > 40

    def test_a_graph_with_one_triangle_still_builds_its_index(self, monkeypatch):
        # cycle rank 1, though no C4 or C5 exists: the stages walk
        g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        assert g.cycle_rank() == 1
        calls = count_calls(monkeypatch, "_CycleIndex")
        for ell in (4, 5):
            assert not detect(g, ell, CostLedger(), "event")
        assert calls["_CycleIndex"] >= 3  # the odd search, the heavy and the light stage


class TestPrices:
    """Every price that a detection computes once per (n, ell) equals its
    formula, however often it is read."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(4, 5000), ell=st.integers(4, 12))
    def test_each_cached_price_is_its_formula(self, n, ell):
        k = ell // 2
        delta, alpha = _heavy_light_exponents(k)
        classes = ceil_pow(n, alpha)
        for _ in range(2):  # computed, then read back
            target = 1.0 / (n * n) if ell % 2 else 0.01
            assert cycle_repetitions(n, ell) == repetitions_for(single_rep_success(ell), target)
            assert _even_sizes(n, k) == (ceil_pow(n, delta), classes,
                                         100 * k * ceil_pow(n, 1 + Fraction(1, k)),
                                         max(1, ceil_pow(n, 1 - Fraction(1, k) - delta)))
            for params in (DEFAULT_PARAMS, QuantumCostParams(Fraction(3, 2), 2)):
                c = params.c_grover
                for domain, m_bound, ecc in ((n, 1, 1), (classes, _A_CONG * word_capacity(n),
                                                          n % 7)):
                    rounds = _query_rounds(ell, cycle_repetitions(n, ell), m_bound, ecc)
                    flat = grover_cost(domain, rounds, params)
                    assert nested_cost_predict([domain], [], rounds, params) == flat
                    assert nested_cost_predict([domain], [0], rounds, params) == flat
                    two = params.reps * ceil_scaled_sqrt(ell, c) * (
                        ecc + ceil_scaled_sqrt(domain, c) * rounds)
                    assert nested_cost_predict([ell, domain], [ecc], rounds, params) == two

    @pytest.mark.parametrize("args", [
        ["sweep", "--algo", "even-cycle", "--ell", "6", "--n-list", "64,256,1024"],
        ["sweep", "--algo", "odd-cycle", "--ell", "7", "--n-list", "64,256,1024"]])
    def test_cost_only_sweeps_print_what_uncached_prices_print(self, capsys, args):
        cached = [(glob, name) for glob, names in (
            (detect_odd_cycle.__globals__, ("cycle_repetitions", "_even_sizes")),
            (nested_cost_predict.__globals__, ("_nested_cost",))) for name in names]

        def reads():
            return [glob[name].cache_info()[:2] for glob, name in cached]

        printed = []
        for uncached in (False, True):
            before = reads()
            with pytest.MonkeyPatch.context() as mp:
                if uncached:
                    for glob, name in cached:
                        mp.setitem(glob, name, glob[name].__wrapped__)
                assert main(args) == 0
            assert (reads() == before) == uncached  # the uncached run reads no cache
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0].count("\n") == 4


class TestLightClassDraws:
    """A stage's queries are built only when the stage is walked: an odd,
    heavy or light stage that the cycle rank or may_fire() settles never
    calls its query builder (the light one draws no index class), and still
    charges and counts its queries."""

    @staticmethod
    def count_draws(monkeypatch):
        # on the event engine the light classes are the one random.Random draw
        draws = []
        randrange = random.Random.randrange
        monkeypatch.setattr(random.Random, "randrange",
                            lambda self, *args: draws.append(args) or randrange(self, *args))
        return draws

    @staticmethod
    def count_builds(monkeypatch):
        """Count, per stage tag, the calls of the query builders that the
        detectors hand to _stage_search."""
        builds = Counter()
        real = detect_odd_cycle.__globals__["_stage_search"]

        def spy(net, union, count, build, shared, tag, *rest):
            def counted():
                builds[tag] += 1
                return build()
            return real(net, union, count, counted, shared, tag, *rest)

        patch_cycledetect(monkeypatch, "_stage_search", spy)
        return builds

    @pytest.mark.parametrize("name,graph", [
        ("forest", Graph(40, [(v // 2, v) for v in range(1, 40)])),
        ("leaves-off-a-cycle", Graph(40, [(0, 1), (1, 2), (0, 2)]
                                     + [(v - 1, v) for v in range(3, 40)]))])
    def test_a_settled_stage_draws_nothing(self, monkeypatch, name, graph):
        n = graph.n
        threshold, n_idx, _, _ = _even_sizes(n, 3)
        light = mask_of(v for v in range(n) if graph.adj[v].bit_count() < threshold)
        heavy = n - light.bit_count()
        assert light and heavy, name  # every stage has queries to build
        draws = self.count_draws(monkeypatch)
        builds = self.count_builds(monkeypatch)
        ledger = CostLedger()
        assert not detect_odd_cycle(graph, 5, ledger, seed=3)
        assert not detect_even_cycle(graph, 6, ledger, seed=3)
        assert draws == [] and not builds
        ecc = CongestNet(graph).eccentricity
        for phase, count, ell, m_bound in (
                ("odd-cycle/search", n, 5, 1), ("even-cycle/heavy-search", heavy, 6, 1),
                ("even-cycle/light-search", n_idx, 6, _A_CONG * word_capacity(n))):
            rounds = _query_rounds(ell, cycle_repetitions(n, ell), m_bound, ecc)
            assert [e.rounds for e in ledger.entries if e.phase == phase] == [
                grover_cost(count, rounds)], phase
        assert ledger.counts["queries"] == n + heavy + n_idx

    def test_a_walked_stage_draws_each_light_node_once(self, monkeypatch):
        # a planted C6 of degree-2 nodes at n = 80: its nodes are light, and
        # no node is heavy, so the heavy stage has no query to build
        graph = generate(GenSpec(kind="planted_cycle", n=80, edge_prob=0.0, planted_size=6,
                                 seed=1))
        threshold, n_idx, _, _ = _even_sizes(graph.n, 3)
        light = sum(1 for v in range(graph.n) if graph.adj[v].bit_count() < threshold)
        draws = self.count_draws(monkeypatch)
        builds = self.count_builds(monkeypatch)
        assert detect_even_cycle(graph, 6, CostLedger(), seed=7)
        assert draws == [(n_idx,)] * light
        assert detect_odd_cycle(cycle_graph(5, 8), 5, CostLedger(), seed=1)
        assert builds == {"even-light": 1, "odd": 1}
