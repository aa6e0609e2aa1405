"""Clique detection strategies against the brute-force oracles."""

from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongest import cliquelist
from qcongest.cli import fit_slope
from qcongest.cliquedetect import (
    applicable_strategies,
    blackbox_cost_only,
    degree_batching,
    detect_clique,
    detect_nested,
    detect_plus1,
    detect_triangle_quintic,
    extend_blackbox,
    extend_sparse,
    _nested_costs,
    nested_cost_only,
    plan_strategy,
    plus1_cost_only,
    sparse_cost_only,
    triangle_cost_only,
)
from qcongest.cliquelist import clique_reach, list_kp
from qcongest.graph import (
    GenSpec,
    Graph,
    generate,
    oracle_has_clique,
    oracle_has_extension,
)
from qcongest.netsim import CostLedger
from qcongest.qsearch import QuantumCostParams, nested_cost_predict


def gnp(n, p, seed):
    return generate(GenSpec(kind="gnp", n=n, edge_prob=p, seed=seed))


class TestTriangle:
    def test_planted_triangle(self):
        g = Graph(32, [(0, 1), (0, 2), (1, 2)])
        assert detect_triangle_quintic(g, CostLedger())

    def test_star_is_triangle_free(self):
        g = Graph(64, [(0, i) for i in range(1, 64)])
        assert not detect_triangle_quintic(g, CostLedger())

    def test_matches_oracle_on_sparse_gnp(self):
        g = gnp(512, 0.05, 11)
        assert detect_triangle_quintic(g, CostLedger()) == oracle_has_clique(g, 3)

    def test_needs_32_nodes(self):
        with pytest.raises(ValueError):
            detect_triangle_quintic(Graph(16, [(0, 1)]), CostLedger())

    def test_cost_only_matches_full_mode_ledger(self):
        # identical accounting on the same realized (n, m)
        g = gnp(1024, 0.5, 1)
        full = CostLedger()
        detect_triangle_quintic(g, full)
        cost = CostLedger()
        triangle_cost_only(g.n, g.m, cost)
        assert [e.rounds for e in full.entries] == [e.rounds for e in cost.entries]
        assert [e.kind for e in full.entries] == [e.kind for e in cost.entries]


class TestExtendBlackbox:
    def test_k5_from_triangles(self):
        g = generate(GenSpec(kind="complete", n=5))
        inv = list_kp(g, 3, CostLedger())
        assert extend_blackbox(g, inv, 2, CostLedger())

    def test_empty_inventory(self):
        # K_{3,3} holds no triangle, so its 3-clique inventory is empty
        g = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        inv = list_kp(g, 3, CostLedger())
        assert not inv.member_masks
        assert not extend_blackbox(g, inv, 2, CostLedger())

    def test_matches_extension_oracle(self):
        g = gnp(128, 0.4, 2)
        inv = list_kp(g, 3, CostLedger())
        got = extend_blackbox(g, inv, 1, CostLedger())
        assert got == oracle_has_extension(g, inv, 1)

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("prob,seed", [(0.3, 4), (0.5, 5)])
    def test_every_depth_matches_extension_oracle(self, t, prob, seed):
        g = gnp(40, prob, seed)
        inv = list_kp(g, 3, CostLedger())
        got = extend_blackbox(g, inv, t, CostLedger())
        assert got == oracle_has_extension(g, inv, t)


def extend_masks(adj, masks, part):
    """Reference: the common masks of the one-node extensions drawn from part."""
    out = []
    for common in masks:
        cand = common & part
        while cand:
            low = cand & -cand
            cand ^= low
            out.append(common & adj[low.bit_length() - 1])
    return out


@st.composite
def reach_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=130))
    kind = draw(st.sampled_from(["random", "empty", "complete"]))
    if kind == "empty":
        return Graph(n, [])
    if kind == "complete":
        n = min(n, 11)  # the reference lists every extension of every clique
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    prob = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9] if n <= 24 else [0.05, 0.15, 0.3]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return generate(GenSpec(kind="gnp", n=n, edge_prob=prob, seed=seed))


class TestExtensionReach:
    @settings(max_examples=150, deadline=None)
    @given(graph=reach_graphs(), p=st.integers(2, 5),
           part_seeds=st.lists(st.integers(0, 2**130), max_size=2))
    def test_equals_or_of_the_extensions(self, graph, p, part_seeds):
        # clique_reach with the t - 1 <= 2 parts of a level-(t-1) setup
        # equals the old scan: extend the common masks part by part, then OR
        n = graph.n
        if graph.m > 6 * n and n > 24:
            p = min(p, 3)  # keeps the reference's lists small
        full = (1 << n) - 1
        parts = tuple(seed & full for seed in part_seeds)
        adj = graph.adj_masks()
        inv = list_kp(graph, p, CostLedger())
        masks = inv.commons
        for part in parts:
            masks = extend_masks(adj, masks, part)
        expected = reduce(or_, masks, 0)
        assert clique_reach(adj, parts, p, inv.reach()) == expected
        assert clique_reach(adj, parts, p, full) == expected
        assert inv.reach() == reduce(or_, inv.commons, 0)


class TestExtendSparse:
    def test_planted_k5_with_path(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        edges += [(i, i + 1) for i in range(5, 127)]
        g = Graph(128, edges)
        inv = list_kp(g, 4, CostLedger())
        sparse_led = CostLedger()
        assert extend_sparse(g, inv, 1, sparse_led)
        black_led = CostLedger()
        assert extend_blackbox(g, inv, 1, black_led)
        # mu << n: the sparsity-aware search is much cheaper
        assert sparse_led.total() < black_led.total() / 4

    def test_empty_inventory(self):
        g = generate(GenSpec(kind="cycle", n=64))  # triangle-free
        inv = list_kp(g, 3, CostLedger())
        assert not inv.member_masks
        assert not extend_sparse(g, inv, 1, CostLedger())

    def test_empty_graph_zero_rounds(self):
        g = generate(GenSpec(kind="empty", n=32))
        led = CostLedger()
        assert not extend_sparse(g, list_kp(g, 3, CostLedger()), 1, led)
        assert led.total() == 0

    def test_triangle_via_edge_inventory(self):
        g = gnp(256, 3 / 256, 4)
        inv = list_kp(g, 2, CostLedger())
        got = extend_sparse(g, inv, 1, CostLedger())
        assert got == oracle_has_clique(g, 3)

    def test_recursive_t2_matches_oracle(self):
        for seed in range(4):
            g = gnp(48, 0.35, seed + 100)
            inv = list_kp(g, 2, CostLedger())
            got = extend_sparse(g, inv, 2, CostLedger())
            assert got == oracle_has_clique(g, 4)

    def test_degree_batching_bounds(self):
        g = gnp(96, 0.3, 7)
        batches = degree_batching(g.degrees(), target=96)
        nodes = sorted(v for b in batches for v in b)
        assert nodes == list(range(96))
        maxdeg = max(g.degrees())
        for batch in batches[:-1]:
            s = sum(g.degree(v) for v in batch)
            assert 96 / 2 <= s <= 96 + maxdeg


class TestDetectPlus1:
    def test_k6_contains_k4(self):
        g = generate(GenSpec(kind="planted_clique", n=32, edge_prob=0.0,
                             planted_size=6, seed=0))
        assert detect_plus1(g, 3, CostLedger())

    def test_bipartite_has_no_k4(self):
        edges = [(u, v) for u in range(8) for v in range(8, 16)]
        g = Graph(16, edges)
        assert not detect_plus1(g, 3, CostLedger())

    def test_exponent_one_third_for_p3(self):
        ns = [2**k for k in range(10, 17)]
        ys = []
        for n in ns:
            led = CostLedger()
            plus1_cost_only(n, n * (n - 1) // 2, 3, led)
            ys.append(led.total())
        assert abs(fit_slope(ns, ys) - 1 / 3) < 0.05


class TestDetectNested:
    def test_planted_k5(self):
        g = generate(GenSpec(kind="planted_clique", n=32, edge_prob=0.0,
                             planted_size=5, seed=0))
        assert detect_nested(g, 3, 2, CostLedger())

    def test_level_exponents_p3_t2(self):
        # r_i = (1 - 1/p) / 2^(t-i): levels of n^(1/3) and n^(2/3) parts
        for n, want in ((64, [4, 16]), (4096, [16, 256]), (100, [5, 22])):
            sizes, _, _ = _nested_costs(n, n * (n - 1) // 2, 3, 2)
            assert sizes == want

    def test_constraint_rejected(self):
        g = gnp(64, 0.5, 0)
        with pytest.raises(ValueError, match="constraint"):
            detect_nested(g, 3, 3, CostLedger())

    def test_matches_oracle_q6(self):
        g = gnp(128, 0.5, 8)
        got = detect_nested(g, 4, 2, CostLedger())
        assert got == oracle_has_clique(g, 6)

    def test_rounds_equal_predictor(self):
        # full run charges exactly the closed-form prediction
        g = generate(GenSpec(kind="planted_clique", n=128, edge_prob=0.3,
                             planted_size=7, seed=5))
        led = CostLedger()
        assert detect_nested(g, 5, 2, led)
        sizes, setups, check = _nested_costs(g.n, g.m, 5, 2)
        quantum = [e for e in led.entries if e.kind == "quantum"]
        assert len(quantum) == 1
        assert quantum[0].rounds == nested_cost_predict(sizes, setups, check)

    def test_ledger_independent_of_answer(self):
        # same (n, m), clique present vs destroyed: identical ledgers
        g1 = generate(GenSpec(kind="planted_clique", n=48, edge_prob=0.15,
                              planted_size=5, seed=3))
        edges = g1.edges()
        assert oracle_has_clique(g1, 5)
        # break the planted clique, keep m: swap one clique edge for a non-edge
        edges.remove((0, 1))
        non_edge = next(
            (u, v) for u in range(48) for v in range(u + 1, 48)
            if not g1.has_edge(u, v)
        )
        g2 = Graph(48, edges + [non_edge])
        led1, led2 = CostLedger(), CostLedger()
        r1 = detect_nested(g1, 4, 1, led1)
        r2 = detect_nested(g2, 4, 1, led2)
        assert g1.m == g2.m
        assert led1.entries == led2.entries
        assert r1  # sanity: answers may differ, charges may not


class TestPlanner:
    def test_q5_dense(self):
        n = 64
        plan = plan_strategy(n, n * (n - 1) // 2, 5)
        assert (plan.p, plan.t) == (4, 1)
        assert abs(plan.predicted_exponent - 0.5) < 1e-9

    def test_q4(self):
        n = 64
        plan = plan_strategy(n, n * (n - 1) // 2, 4)
        assert (plan.p, plan.t) == (3, 1)
        assert abs(plan.predicted_exponent - 1 / 3) < 1e-9

    def test_q6_nested_beats_plus1(self):
        n = 64
        plan = plan_strategy(n, n * (n - 1) // 2, 6)
        assert plan.strategy == "nested" and (plan.p, plan.t) == (4, 2)
        assert abs(plan.predicted_exponent - 0.5625) < 1e-9
        # cross-check by enumerating feasible pairs
        best = min(
            max(1 - 2 / p, (1 - 1 / p) * (1 - 1 / 2 ** (6 - p)))
            for p in range(3, 6)
            if 2 ** (6 - p - 1) <= p - 1
        )
        assert abs(plan.predicted_exponent - best) < 1e-9

    def test_sparse_wins_on_sparse_graphs(self):
        plan = plan_strategy(4096, 4096 * 4, 5)
        assert plan.strategy == "sparse"

    def test_strategy_filter(self):
        plan = plan_strategy(64, 2016, 5, strategy="blackbox")
        assert plan.strategy == "blackbox"

    def test_applicable_strategies_q7(self):
        plans = applicable_strategies(64, 2016, 7)
        names = {p.strategy for p in plans}
        assert names == {"plus1", "nested", "blackbox", "sparse"}
        small = applicable_strategies(32, 496, 7)
        assert {p.strategy for p in small} == {"nested", "blackbox", "sparse"}


class TestDetectClique:
    @pytest.mark.parametrize("q", [3, 4, 5, 6, 7])
    def test_complete_padded(self, q):
        g = generate(GenSpec(kind="planted_clique", n=64, edge_prob=0.05,
                             planted_size=q, seed=q))
        assert detect_clique(g, q, CostLedger(), seed=1)

    def test_multipartite_one_short(self):
        # complete (q-1)-partite graph: clique number q-1
        q = 5
        parts = [range(i * 8, (i + 1) * 8) for i in range(q - 1)]
        edges = []
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                edges += [(u, v) for u in a for v in b]
        g = Graph(8 * (q - 1), edges)
        assert not detect_clique(g, q, CostLedger(), seed=2)

    def test_degenerate_inputs(self):
        g = gnp(16, 0.5, 0)
        led = CostLedger()
        assert not detect_clique(g, 20, led)
        assert led.total() == 0
        empty = generate(GenSpec(kind="empty", n=16))
        assert not detect_clique(empty, 3, led)
        assert led.total() == 0

    @pytest.mark.parametrize("strategy", ["plus1", "nested", "blackbox", "sparse"])
    def test_fail_injection_never_creates_positives(self, strategy):
        g = generate(GenSpec(kind="planted_clique", n=32, edge_prob=0.2,
                             planted_size=5, seed=4))
        params = QuantumCostParams(fail_prob=0.999999)
        led = CostLedger()
        found = detect_clique(g, 5, led, strategy=strategy, seed=0, params=params)
        assert not found  # injected misses only ever flip found -> False

    def test_small_oracle_suite(self):
        agree = 0
        for seed in range(20):
            n = 32 + (seed % 16)
            g = gnp(n, (0.2, 0.5, 0.8)[seed % 3], seed + 50)
            q = 4 + seed % 3
            got = detect_clique(g, q, CostLedger(), seed=seed)
            assert got == oracle_has_clique(g, q)
            agree += 1
        assert agree == 20


class TestSharedInventory:
    @pytest.mark.parametrize("kind,n,prob,q", [
        ("gnp", 40, 0.5, 5), ("gnp", 48, 0.8, 7), ("gnp", 64, 0.2, 4),
        ("planted_clique", 48, 0.3, 6), ("planted_clique", 64, 0.1, 7),
    ])
    def test_detection_never_lists(self, monkeypatch, kind, n, prob, q):
        def refuse(*args):
            raise AssertionError("detection listed the K_p inventory")

        monkeypatch.setattr(cliquelist, "_list_cliques", refuse)
        g = generate(GenSpec(kind=kind, n=n, edge_prob=prob, planted_size=q, seed=n + q))
        expected = oracle_has_clique(g, q)
        inventories = {}
        plans = applicable_strategies(g.n, g.m, q)
        assert len(plans) >= 3
        for plan in plans:
            if plan.p not in inventories:
                inventories[plan.p] = list_kp(g, plan.p, CostLedger())
            found = detect_clique(g, q, CostLedger(), strategy=plan.strategy, seed=1,
                                  inv=inventories[plan.p])
            assert found == expected, plan

    @pytest.mark.parametrize("entry", [
        lambda g, inv: detect_plus1(g, 3, CostLedger(), inv=inv),
        lambda g, inv: detect_nested(g, 3, 1, CostLedger(), inv=inv),
        lambda g, inv: detect_clique(g, 4, CostLedger(), strategy="blackbox", inv=inv),
        lambda g, inv: detect_clique(g, 5, CostLedger(), strategy="sparse", inv=inv),
        lambda g, inv: extend_blackbox(g, inv, 1, CostLedger()),
        lambda g, inv: extend_sparse(g, inv, 1, CostLedger()),
    ], ids=["plus1", "nested", "clique-blackbox", "clique-sparse", "blackbox", "sparse"])
    def test_inventory_of_another_graph_rejected(self, entry):
        # same n and p, other edges: extending its cliques would be meaningless
        g = gnp(40, 0.5, 1)
        other = list_kp(gnp(40, 0.5, 2), 3, CostLedger())
        with pytest.raises(ValueError, match="another graph"):
            entry(g, other)
        assert isinstance(entry(g, list_kp(g, 3, CostLedger())), bool)


class TestCostOnlySlopes:
    def test_blackbox_extension_exponents(self):
        for t in (1, 2):
            ns = [2**k for k in range(10, 17)]
            ys = []
            for n in ns:
                led = CostLedger()
                blackbox_cost_only(n, t, led, packing=False)
                ys.append(led.total())
            assert abs(fit_slope(ns, ys) - (1 - 1 / 2**t)) < 0.05

    def test_sparse_mu_scaling(self):
        n = 2**14
        mus = [2**k for k in range(4, 11)]
        ys = []
        for mu in mus:
            led = CostLedger()
            sparse_cost_only(n, mu * n, 1, led)
            ys.append(led.total())
        assert abs(fit_slope(mus, ys) - 0.5) < 0.07

    def test_nested_exponents(self):
        for p, t in ((3, 1), (4, 1), (4, 2), (5, 2)):
            ns = [2**k for k in range(10, 17)]
            ys = []
            for n in ns:
                led = CostLedger()
                nested_cost_only(n, n * (n - 1) // 2, p, t, led)
                ys.append(led.total())
            target = max(1 - 2 / p, (1 - 1 / p) * (1 - 1 / 2**t))
            assert abs(fit_slope(ns, ys) - target) < 0.05, (p, t)


class TestLedgerDeterminism:
    def test_identical_runs_identical_ledgers(self):
        g = gnp(48, 0.4, 12)
        ledgers = []
        for _ in range(2):
            led = CostLedger()
            detect_nested(g, 3, 2, led, seed=5)
            ledgers.append(led.entries)
        assert ledgers[0] == ledgers[1]

    def test_identical_cycle_runs_identical_ledgers(self):
        from qcongest.cycledetect import detect_even_cycle
        from qcongest.graph import GenSpec, generate

        g = generate(GenSpec(kind="planted_cycle", n=48, edge_prob=0.02,
                             planted_size=4, seed=3))
        entries = []
        for _ in range(2):
            led = CostLedger()
            detect_even_cycle(g, 4, led, seed=9)
            entries.append(led.entries)
        assert entries[0] == entries[1]


class TestNestedDepthThree:
    def test_t3_matches_oracle(self):
        # t = 3 is feasible from p = 5 (2^(t-1) <= p-1)
        for kind, prob, seed in (("planted_clique", 0.25, 3), ("gnp", 0.25, 4),
                                 ("gnp", 0.55, 5)):
            spec = GenSpec(kind=kind, n=40, edge_prob=prob,
                           planted_size=8 if kind == "planted_clique" else 0,
                           seed=seed)
            g = generate(spec)
            got = detect_nested(g, 5, 3, CostLedger(), seed=1)
            assert got == oracle_has_clique(g, 8)
