"""Color-coded BFS cycle detection: engines, decomposition, detectors."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qcongest.cli import fit_slope
from qcongest.cycledetect import (
    ColorBfsConfig,
    EvenCycleParams,
    _stage_search,
    color_bfs_rep_rounds,
    detect_even_cycle,
    detect_odd_cycle,
    even_cycle_cost_only,
    event_detect_once,
    forest_decomposition,
    measure_congestion,
    odd_cycle_cost_only,
    odd_cycle_repetitions,
    protocol_detect_once,
    repetitions_for,
    single_rep_success,
)
from qcongest.graph import GenSpec, Graph, generate, oracle_has_cycle, two_core
from qcongest.netsim import CongestNet, CostLedger, word_capacity
from qcongest.qsearch import DEFAULT_PARAMS, grover_cost


def cycle_graph(ell, n=None):
    n = n or ell
    edges = [(i, (i + 1) % ell) for i in range(ell)]
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    return Graph(n, sorted(set(edges)))


def all_active_cfg(g, ell, sources=None, reps=1, m=1, heights=None):
    active = frozenset(range(g.n))
    return ColorBfsConfig(
        cycle_len=ell,
        active=active,
        sources=frozenset(sources) if sources is not None else active,
        heights=heights,
        congestion_bound=m,
        repetitions=reps,
    )


def stage_found(g, cfg, seed, engine, ledger=None):
    """A search stage of one query: cfg's colour BFS from all of cfg.sources."""
    return _stage_search(CongestNet(g), [(cfg.sources, 0)], cfg, "test", "color-bfs",
                         ledger if ledger is not None else CostLedger(), seed,
                         DEFAULT_PARAMS, engine, None)


class TestSingleRepSuccess:
    @pytest.mark.parametrize("ell", [3, 4, 5, 6])
    def test_enumeration_matches_protocol_engine(self, ell):
        # exhaustive: run the protocol on every coloring of the single-source cycle
        g = cycle_graph(ell)
        cfg = all_active_cfg(g, ell, sources=[0])
        count = 0
        for colors in itertools.product(range(ell), repeat=ell):
            if protocol_detect_once(g, cfg, dict(enumerate(colors))):
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
            cfg = all_active_cfg(g, ell, m=n)  # M large: no congestion drops
            colors = {v: rng.randrange(ell) for v in range(n)}
            assert protocol_detect_once(g, cfg, colors) == event_detect_once(
                g, cfg, colors
            ), (n, edges, colors)

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
            cfg = all_active_cfg(g, ell, sources=[src], m=n)
            colors = {v: rng.randrange(ell) for v in range(n)}
            assert protocol_detect_once(g, cfg, colors) == event_detect_once(
                g, cfg, colors
            )

    def test_heights_constrain_first_hop(self):
        g = cycle_graph(4)
        heights = {0: 0, 1: 1, 2: 0, 3: 1}
        cfg = ColorBfsConfig(cycle_len=4, active=frozenset(range(4)),
                             sources=frozenset({0}), heights=heights,
                             congestion_bound=4, repetitions=1)
        colors = {0: 0, 1: 1, 2: 2, 3: 3}
        # both neighbors of the source sit higher: no send, no detection
        assert not protocol_detect_once(g, cfg, colors)
        assert not event_detect_once(g, cfg, colors)
        cfg2 = ColorBfsConfig(cycle_len=4, active=frozenset(range(4)),
                              sources=frozenset({1}), heights=heights,
                              congestion_bound=4, repetitions=1)
        colors2 = {1: 0, 2: 1, 3: 2, 0: 3}
        assert protocol_detect_once(g, cfg2, colors2)
        assert event_detect_once(g, cfg2, colors2)


class TestColorBfs:
    def test_no_false_positives_on_forest(self):
        g = generate(GenSpec(kind="path", n=50))
        cfg = all_active_cfg(g, 4, reps=10_000, m=4)
        assert not stage_found(g, cfg, 1, "event")
        cfg_small = all_active_cfg(g, 4, reps=200, m=4)
        assert not stage_found(g, cfg_small, 1, "protocol")

    def test_rounds_charged_formula(self):
        g = cycle_graph(6, n=10)
        net = CongestNet(g)
        cfg = all_active_cfg(g, 6, reps=7, m=3)
        led = CostLedger()
        stage_found(g, cfg, 2, "event", led)
        # one query: the search charges exactly its price
        assert led.total() == 7 * color_bfs_rep_rounds(6, 3) + net.converge_cost(1)

    def test_c6_amplified_detection_rate(self):
        g = cycle_graph(6)
        # all nodes are sources: per-rep success is 6 * 2/6^6 (anchor patterns);
        # amplify to miss <= 1e-3 so 200 Monte-Carlo trials clear 99% solidly
        reps = repetitions_for(single_rep_success(6) * 6, 0.001)
        hits = 0
        trials = 200
        for seed in range(trials):
            cfg = all_active_cfg(g, 6, reps=reps, m=6)
            hits += stage_found(g, cfg, seed, "event")
        assert hits >= 0.99 * trials

    def test_monte_carlo_matches_enumeration_rate(self):
        # isolated C4, all sources, M=4: empirical vs exact over 256 colorings
        g = cycle_graph(4)
        cfg = all_active_cfg(g, 4, m=4)
        exact_hits = sum(
            protocol_detect_once(g, cfg, dict(enumerate(c)))
            for c in itertools.product(range(4), repeat=4)
        )
        exact = exact_hits / 256
        rng = random.Random(0)
        trials = 20_000
        hits = sum(
            protocol_detect_once(g, cfg, {v: rng.randrange(4) for v in range(4)})
            for _ in range(trials)
        )
        assert abs(hits / trials - exact) < 0.15 * exact


class TestCongestionMeasurement:
    def test_star_congestion(self):
        # sources = leaves; the center may need to forward every leaf id
        g = Graph(6, [(0, i) for i in range(1, 6)])
        cfg = ColorBfsConfig(cycle_len=6, active=frozenset(range(6)),
                             sources=frozenset(range(1, 6)),
                             congestion_bound=1, repetitions=1)
        m = measure_congestion(g, cfg)
        assert m[0] == 5
        # a leaf sees every source through the center (2 hops), its own id
        # included: the protocol forwards received ids regardless of origin
        assert m[1] == 5

    def test_height_gate(self):
        g = Graph(3, [(0, 1), (1, 2)])
        heights = {0: 0, 1: 5, 2: 0}
        cfg = ColorBfsConfig(cycle_len=6, active=frozenset(range(3)),
                             sources=frozenset({0}), heights=heights,
                             congestion_bound=1, repetitions=1)
        m = measure_congestion(g, cfg)
        assert m[1] == 0  # first hop must go downhill


class TestForestDecomposition:
    def test_star_two_layers(self):
        g = Graph(11, [(0, i) for i in range(1, 11)])
        led = CostLedger()
        fd = forest_decomposition(g, range(11), 1, led)
        assert fd is not None
        assert all(fd[i] == 1 for i in range(1, 11))
        assert fd[0] == 2

    def test_k8_fails(self):
        g = generate(GenSpec(kind="complete", n=8))
        assert forest_decomposition(g, range(8), 1, CostLedger()) is None

    def test_sparse_gnp_layer_property(self):
        g = generate(GenSpec(kind="gnp", n=200, edge_prob=4 / 200, seed=6))
        fd = forest_decomposition(g, range(200), 8, CostLedger())
        assert fd is not None
        for v in range(200):
            higher = sum(
                1 for u in g.neighbors(v) if fd[u] >= fd[v]
            )
            assert higher <= 16


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
        reps = odd_cycle_repetitions(24, 5)
        query = reps * color_bfs_rep_rounds(5, 1) + net.converge_cost(1)
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
        got = even_cycle_cost_only(64, 10**9, 4, led)
        assert got is True
        assert led.total() == 1

    def test_prune_does_not_fire_on_real_dense_gnp(self):
        g = generate(GenSpec(kind="gnp", n=64, edge_prob=0.9, seed=1))
        assert g.m <= 100 * 2 * 64 ** 1.5
        led = CostLedger()
        got = even_cycle_cost_only(g.n, g.m, 4, led)
        assert got is None

    def test_cost_only_slope_k2(self):
        ns = [2**k for k in range(10, 17)]
        ys = []
        for n in ns:
            led = CostLedger()
            even_cycle_cost_only(n, n, 4, led)
            ys.append(led.total())
        slope = fit_slope(ns, ys)
        assert 0.19 <= slope <= 0.31

    def test_odd_cost_only_charges(self):
        led = CostLedger()
        odd_cycle_cost_only(1024, 5, led)
        assert led.total() == grover_cost(
            1024, odd_cycle_repetitions(1024, 5) * color_bfs_rep_rounds(5, 1) + 1
        )


class TestCongestionDrops:
    def test_exceeded_runs_recorded_and_conservative(self):
        from qcongest.cycledetect import _event_found

        g = cycle_graph(4)
        # four sources, M=1: every node may need to forward two ids
        cfg = all_active_cfg(g, 4, reps=5000, m=1)
        record = {}
        found = _event_found(g, cfg, ("drop-test",), record=record)
        assert record.get("congestion_dropped", 0) == 1
        assert not found  # dropped cycles count against completeness only

    def test_one_source_more_than_m_is_measured(self):
        # C4 on 0..3 plus leaves 4, 5 at node 0: with ell = 4 a node's
        # congestion is its number of source neighbours, and node 0 has
        # four, one more than M = 3, so the only C4 is dropped
        from qcongest.cycledetect import _event_found

        g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5)])
        cfg = all_active_cfg(g, 4, sources=[1, 3, 4, 5], reps=5000, m=3)
        assert measure_congestion(g, cfg)[0] == 4
        record = {}
        assert not _event_found(g, cfg, ("drop-test-3",), record=record)
        assert record == {"congestion_dropped": 1}
        # one source fewer: m(v) <= |sources| = M, nothing is dropped
        cfg = all_active_cfg(g, 4, sources=[1, 3, 4], reps=5000, m=3)
        record = {}
        assert _event_found(g, cfg, ("drop-test-3",), record=record)
        assert record == {}

    def test_single_source_never_exceeds_m1(self):
        from qcongest.cycledetect import _event_found

        g = cycle_graph(4)
        cfg = all_active_cfg(g, 4, sources=[0], reps=2000, m=1)
        record = {}
        found = _event_found(g, cfg, ("drop-test-2",), record=record)
        assert record.get("congestion_dropped", 0) == 0
        assert found


class TestNonPlantedAgreement:
    """Completeness sampling on organic connected instances.

    On disconnected inputs a detection outside the leader's component
    raises loudly instead of being lost; connectivity is a precondition of
    the fixed-leader convention.
    """

    @staticmethod
    def _connected(g):
        net = CongestNet(g)
        return all(net.reachable(v) for v in range(g.n))

    def test_even_c4_on_random_graphs(self):
        from qcongest.graph import oracle_has_cycle

        hits = truths = sampled = 0
        for seed in range(20):
            g = generate(GenSpec(kind="gnp", n=48, edge_prob=0.12, seed=seed))
            if not self._connected(g):
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
            if not self._connected(g):
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
    def test_multi_source_with_forest_heights(self):
        # the light-search configuration: height-gated sources, large M
        rng = random.Random(99)
        checked = 0
        for trial in range(25):
            n = rng.randint(8, 16)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.25
            ]
            g = Graph(n, edges)
            fd = forest_decomposition(g, range(n), a=2, ledger=CostLedger())
            if fd is None:
                continue
            heights = fd
            sources = frozenset(v for v in range(n) if rng.random() < 0.5)
            for two_k in (4, 6):
                cfg = ColorBfsConfig(
                    cycle_len=two_k, active=frozenset(range(n)),
                    sources=sources, heights=heights,
                    congestion_bound=n * n, repetitions=1,
                )
                colors = {v: rng.randrange(two_k) for v in range(n)}
                assert protocol_detect_once(g, cfg, colors) == event_detect_once(
                    g, cfg, colors
                ), (n, edges, sources, heights, colors, two_k)
                checked += 1
        assert checked >= 20


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

    def test_protocol_engine_on_wrong_length_cycle(self):
        # girth 8: no C4/C6 patterns can complete, whatever the colors
        g = cycle_graph(8)
        for ell in (4, 6):
            cfg = all_active_cfg(g, ell, reps=500, m=8)
            assert not stage_found(g, cfg, 1, "protocol")


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
                odd_cycle_cost_only(g.n, ell, cost_only)
                assert full.entries == cost_only.entries, (g.n, ell)

    def test_light_bound_is_a_cong_words(self):
        # the light stage's M = a_cong * word_capacity(n) is the float form
        # a_cong * max(1, ceil(log2 n)) exactly
        a_cong = EvenCycleParams(k=2).a_cong
        for n in range(1, 2**16 + 1):
            assert a_cong * word_capacity(n) == a_cong * max(1, math.ceil(math.log2(max(n, 2))))


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
        assert all(g.degree(v) >= threshold for v in range(6))
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
    """Many cycles, none of the target length: the 2-core keeps every node
    that matters, so the detectors really search, and none may fire."""

    @staticmethod
    def assert_never_fires(g, ell, seeds, engine="event"):
        assert two_core(g, (1 << g.n) - 1), "the family must keep cycles"
        detect = detect_odd_cycle if ell % 2 else detect_even_cycle
        for seed in seeds:
            stats = {}
            assert not detect(g, ell, CostLedger(), seed=seed, engine=engine,
                              stats=stats), (g, ell, seed)
            assert stats["queries"] > 0

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
        # with the default delta = 0 for C4 every non-isolated node is heavy;
        # delta = 9/10 makes every node light, so the forest decomposition
        # (whose failure would answer True) and the multi-source light
        # search also run on the densest C4-free graphs
        light = EvenCycleParams(k=2, delta=Fraction(9, 10))
        for seed in range(3):
            assert not detect_even_cycle(g, 4, CostLedger(), seed=seed, ec_params=light)

    def test_polarity_graph_on_the_protocol_engine(self):
        self.assert_never_fires(polarity_graph(3), 4, range(2), engine="protocol")

    @pytest.mark.parametrize("ell", [6, 7])
    def test_girth_above_ell(self, ell):
        for n, seed in ((32, 1), (64, 2)):
            g = girth_above(n, ell, 4.0, seed)
            assert not any(oracle_has_cycle(g, length) for length in range(3, ell + 1))
            assert oracle_has_cycle(g, ell + 1) or oracle_has_cycle(g, ell + 2)
            self.assert_never_fires(g, ell, range(4))


class TestTruncationCounters:
    def test_enumeration_limit_is_counted(self, monkeypatch):
        from qcongest import cycledetect
        from qcongest.cycledetect import _qualifying_patterns

        g = generate(GenSpec(kind="complete", n=9))
        cfg = all_active_cfg(g, 5, sources=[0, 1], m=9)
        stats = {}
        patterns, _ = _qualifying_patterns(g, cfg, stats=stats)
        assert stats == {} and len(patterns) > 20
        monkeypatch.setattr(cycledetect, "CYCLE_ENUM_LIMIT", 10)
        patterns, _ = _qualifying_patterns(g, cfg, stats=stats)
        assert stats == {"enumeration_truncated": 1}
        assert 0 < len(patterns) <= 2 * 10 * 2  # two sources, two anchors each at most

    def test_pattern_cap_is_counted(self, monkeypatch):
        from qcongest import cycledetect
        from qcongest.cycledetect import _qualifying_patterns

        monkeypatch.setattr(cycledetect, "_PATTERN_CAP", 8)
        g = generate(GenSpec(kind="complete", n=9))
        stats = {}
        patterns, _ = _qualifying_patterns(g, all_active_cfg(g, 5, m=9), stats=stats)
        assert len(patterns) == 8
        assert stats == {"pattern_capped": 1}

    def test_detector_reports_truncation(self, monkeypatch):
        from qcongest import cycledetect

        monkeypatch.setattr(cycledetect, "CYCLE_ENUM_LIMIT", 3)
        g = generate(GenSpec(kind="complete", n=9))
        stats = {}
        assert detect_odd_cycle(g, 5, CostLedger(), seed=0, stats=stats)
        assert stats["enumeration_truncated"] >= 1
        assert stats["enumeration_truncated"] <= stats["queries"]
