"""Clique detection strategies against the brute-force oracles."""

from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongest import cliquelist
from qcongest.cli import fit_slope, main
from qcongest.cliquedetect import (
    STRATEGIES,
    applicable_strategies,
    blackbox_cost_only,
    clique_cost_only,
    degenerate,
    detect_clique,
    detect_nested,
    detect_plus1,
    detect_triangle_quintic,
    extend_blackbox,
    extend_sparse,
    _blackbox_costs,
    _candidate_plans,
    _first_id_part,
    _first_meeting,
    _id_parts,
    inapplicable,
    _nested_costs,
    _plus1_costs,
    _sparse_costs,
    _triangle_costs,
    nested_cost_only,
    plan_strategy,
    plus1_cost_only,
    sparse_cost_only,
    triangle_cost_only,
    _triangle_batches,
)
from qcongest.cliquelist import clique_reach, list_kp
from qcongest import graph as graph_module
from qcongest.graph import (
    GenSpec,
    Graph,
    bits,
    degree_batching,
    generate,
    oracle_has_clique,
    oracle_has_extension,
)
from qcongest.intmath import ceil_div, ceil_pow
from qcongest.netsim import CostLedger
from qcongest.qsearch import QuantumCostParams, nested_cost_predict


def gnp(n, p, seed):
    return generate(GenSpec(kind="gnp", n=n, edge_prob=p, seed=seed))


def ranges_reference(n, count):
    """0..n-1 cut into count contiguous ranges, larger first: the range
    form of the search parts, kept here as the reference of the masks."""
    base, extra = divmod(n, count)
    parts, start = [], 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        parts.append(range(start, start + size))
        start += size
    return parts


def range_mask(r):
    return ((1 << len(r)) - 1) << r.start


def degree_batching_reference(degrees, target):
    """The id-tuple batches of the greedy degree fill."""
    batches, current, acc = [], [], 0
    for v, d in enumerate(degrees):
        current.append(v)
        acc += d
        if acc >= target:
            batches.append(tuple(current))
            current, acc = [], 0
    if current or not batches:
        batches.append(tuple(current))
    return batches


class TestPartitions:
    """Every node set a strategy searches is an int mask: the search parts,
    the triangle batches and the degree batches equal their range and
    id-tuple references, part for part and in order."""

    @staticmethod
    def assert_contiguous_cover(n, parts):
        # ascending, contiguous, disjoint and covering 0..n-1
        start = 0
        for part in parts:
            size = part.bit_count()
            assert part == ((1 << size) - 1) << start
            start += size
        assert start == n

    def test_search_parts(self):
        for n in range(1, 2100):
            counts = {1, 2, ceil_pow(n, Fraction(1, 5)), ceil_pow(n, Fraction(2, 5)),
                      ceil_pow(n, Fraction(1, 2)), ceil_pow(n, Fraction(2, 3))}
            for count in counts:
                parts = _id_parts(n, count)
                assert parts == tuple(range_mask(r) for r in ranges_reference(n, count)), (n, count)
                self.assert_contiguous_cover(n, parts)
                sizes = [part.bit_count() for part in parts]
                assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1

    @given(st.integers(0, 3000), st.integers(1, 3100))
    @settings(max_examples=300, deadline=None)
    def test_search_parts_of_any_count(self, n, count):
        parts = _id_parts(n, count)
        assert len(parts) == count
        assert parts == tuple(range_mask(r) for r in ranges_reference(n, count))
        self.assert_contiguous_cover(n, parts)

    def test_search_parts_need_a_count(self):
        with pytest.raises(ValueError):
            _id_parts(8, 0)

    def test_triangle_batches(self):
        for n in range(32, 2100):
            domain = ceil_pow(n, Fraction(2, 5))
            q_parts = ranges_reference(n, ceil_pow(n, Fraction(1, 5)))
            sizes = [ceil_div(len(part), domain) for part in q_parts]
            want = tuple(sum(range_mask(part[ell * size:(ell + 1) * size])
                             for part, size in zip(q_parts, sizes))
                         for ell in range(domain))
            batches = _triangle_batches(n, domain)
            assert batches == want, n
            assert sum(b.bit_count() for b in batches) == n
            assert reduce(or_, batches) == (1 << n) - 1

    @given(st.lists(st.integers(0, 60), max_size=200), st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_degree_batches(self, degrees, target):
        batches = degree_batching(degrees, target)
        assert batches == tuple(sum(1 << v for v in b)
                                for b in degree_batching_reference(degrees, target))
        self.assert_contiguous_cover(len(degrees), batches)


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
        assert not inv.union().members
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
        # clique_reach with the t - 1 <= 2 parts of a last-level scan
        # equals the old scan: extend the common masks part by part, then OR
        n = graph.n
        if graph.m > 6 * n and n > 24:
            p = min(p, 3)  # keeps the reference's lists small
        full = (1 << n) - 1
        parts = tuple(seed & full for seed in part_seeds)
        adj = graph.adj
        inv = list_kp(graph, p, CostLedger())
        masks = inv.mask_list(graph)
        for part in parts:
            masks = extend_masks(adj, masks, part)
        expected = reduce(or_, masks, 0)
        assert clique_reach(adj, parts, p, inv.reach()) == expected
        assert clique_reach(adj, parts, p, full) == expected
        assert inv.reach() == reduce(or_, inv.mask_list(graph), 0)


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
        assert not inv.union().members
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

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("p,prob,seed", [(2, 0.03, 100), (2, 0.15, 101), (2, 0.2, 100),
                                             (3, 0.3, 102), (3, 0.4, 103), (3, 0.55, 102)])
    def test_every_depth_matches_oracle(self, t, p, prob, seed):
        g = gnp(40, prob, seed)
        inv = list_kp(g, p, CostLedger())
        assert extend_sparse(g, inv, t, CostLedger()) == oracle_has_clique(g, p + t)

    def test_degree_batching_bounds(self):
        g = gnp(96, 0.3, 7)
        batches = g.degree_batches(96)
        assert batches == degree_batching(g.degrees(), 96)
        nodes = sorted(v for b in batches for v in bits(b))
        assert nodes == list(range(96))
        maxdeg = max(g.degrees())
        for batch in batches[:-1]:
            s = sum(g.adj[v].bit_count() for v in bits(batch))
            assert 96 / 2 <= s <= 96 + maxdeg


    def test_degree_batches_are_computed_once_per_graph_and_target(self, monkeypatch):
        # repeated extensions on one graph read the batches the first one
        # built, and answer and charge as on a graph that has built none
        def run(g, t):
            led = CostLedger()
            return extend_sparse(g, list_kp(g, 2, CostLedger()), t, led), led.entries, led.counts

        fresh = {t: run(gnp(96, 0.3, 7), t) for t in (1, 2, 3)}
        calls = []

        def counted(degrees, target):
            calls.append(target)
            return degree_batching(degrees, target)

        monkeypatch.setattr(graph_module, "degree_batching", counted)
        g = gnp(96, 0.3, 7)
        for rep in range(3):
            for t in (1, 2, 3):
                assert run(g, t) == fresh[t]
            if rep == 0:
                first = list(calls)
        assert calls == first and len(set(calls)) == len(calls) > 1
        assert g.degree_batches(96) is g.degree_batches(96)


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
        for n, want in ((64, (4, 16)), (4096, (16, 256)), (100, (5, 22))):
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


class TestApplicabilityRule:
    """inapplicable() is the one rule: the planner proposes, and cost-only
    runs accept, exactly the plans it passes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 33, 63, 64, 70])
    def test_grid(self, n):
        for m in (0, n * (n - 1) // 2):
            for q in range(3, 11):
                proposed = {(plan.strategy, plan.p, plan.t)
                            for _, plan in _candidate_plans(n, m, q)}
                accepted = {(s, p, q - p) for s in STRATEGIES for p in range(2, q)
                            if inapplicable(s, n, p, q - p) is None}
                assert proposed == accepted, (n, m, q)
            for strategy in STRATEGIES:
                for p in range(2, 7):
                    for t in range(1, 5):
                        refused = inapplicable(strategy, n, p, t) is not None
                        try:
                            clique_cost_only(strategy, n, m, p, t, CostLedger())
                            raised = False
                        except ValueError:
                            raised = True
                        assert raised == (refused and not degenerate(n, m, p + t)), \
                            (strategy, n, m, p, t)

    def test_reasons(self):
        assert "n >= 32" in inapplicable("triangle15", 31, 2, 1)
        assert inapplicable("triangle15", 32, 2, 1) is None
        assert inapplicable("triangle15", 64, 3, 1)
        assert "2^3" in inapplicable("plus1", 7, 3, 1)
        assert inapplicable("plus1", 8, 3, 1) is None
        assert inapplicable("plus1", 64, 2, 1) and inapplicable("plus1", 64, 3, 2)
        assert "violates the constraint" in inapplicable("nested", 64, 4, 3)
        assert inapplicable("nested", 64, 5, 3) is None
        assert inapplicable("blackbox", 64, 1, 1) and inapplicable("sparse", 64, 2, 0)
        assert "unknown" in inapplicable("nosuch", 64, 2, 1)

    def test_detectors_refuse_what_the_rule_refuses(self):
        g = gnp(40, 0.5, 0)
        with pytest.raises(ValueError, match="p >= 3"):
            detect_plus1(g, 2, CostLedger())
        with pytest.raises(ValueError, match="2\\^6"):
            detect_plus1(g, 6, CostLedger())
        with pytest.raises(ValueError, match="t >= 1"):
            extend_blackbox(g, list_kp(g, 2, CostLedger()), 0, CostLedger())


class TestPlanner:
    @pytest.mark.parametrize("n", range(1, 71))
    def test_definition(self, n):
        """The best split whose listing does not degenerate (n >= 2^p), else
        the best split overall; best is the smallest (exponent, t, p, order)."""
        def best(plans):
            return min(plans, key=lambda pl: (pl.predicted_exponent, pl.t, pl.p,
                                              STRATEGIES.index(pl.strategy)))

        for m in (0, n, n * (n - 1) // 2):
            for q in range(3, 9):
                for strategy in (None,) + STRATEGIES:
                    plans = [pl for _, pl in _candidate_plans(n, m, q)
                             if strategy in (None, pl.strategy)]
                    if not plans:
                        with pytest.raises(ValueError, match="no applicable strategy"):
                            plan_strategy(n, m, q, strategy)
                        continue
                    listed = [pl for pl in plans if n >= 2**pl.p]
                    assert plan_strategy(n, m, q, strategy) == best(listed or plans)

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


class TestTriangleNodesOnce:
    """Every reach and triangle15 read the graph's one stored triangle mask."""

    @pytest.mark.parametrize("graph", [
        gnp(40, 0.3, 5),
        Graph(64, [(u, v) for u in range(32) for v in range(32, 64) if (u + v) % 5 == 0]),
    ], ids=["gnp", "bipartite"])
    def test_one_computation_per_graph(self, monkeypatch, graph):
        computed = []
        real = Graph.triangle_nodes

        def counting(g):
            if g._triangle_nodes is None:
                computed.append(g)
            return real(g)

        monkeypatch.setattr(Graph, "triangle_nodes", counting)
        g = Graph(graph.n, graph.edges())  # a fresh graph: nothing stored yet
        for p in (2, 3, 4):
            list_kp(g, p, CostLedger()).reach()
        detect_triangle_quintic(g, CostLedger())
        strategies = set()
        for q in (3, 4, 5):
            for plan in applicable_strategies(g.n, g.m, q):
                strategies.add(plan.strategy)
                detect_clique(g, q, CostLedger(), strategy=plan.strategy, seed=2)
        assert strategies == set(STRATEGIES)
        assert computed == [g]

    def test_reach_of_p_2_is_the_triangle_mask(self):
        for g in (gnp(40, 0.2, 3), gnp(36, 0.05, 4), Graph(40, [(0, 1)])):
            assert list_kp(g, 2, CostLedger()).reach() == g.triangle_nodes()


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


class TestCostOnlyMatchesFullRuns:
    """clique_cost_only charges what detect_clique charges, from (n, m) alone."""

    @staticmethod
    def rows(ledger):
        # sparse's last search level is measured in full runs, analytic here
        return [(e.phase, e.model, e.kind, None if e.phase == "sparse/search" else e.rounds)
                for e in ledger.entries]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 33, 48])
    @pytest.mark.parametrize("prob", [0.0, 0.3, 0.7, 1.0])
    def test_same_ledger_rows(self, n, prob):
        g = gnp(n, prob, n)
        compared = []
        for strategy in STRATEGIES:
            for q in (3,) if strategy == "triangle15" else (3, 4, 5, 6):
                full = CostLedger()
                try:
                    detect_clique(g, q, full, strategy=strategy)
                except ValueError:  # no plan of this strategy applies
                    continue
                if degenerate(g.n, g.m, q):
                    assert full.entries == []
                    p, t = q - 1, 1
                else:
                    plan = plan_strategy(g.n, g.m, q, strategy)
                    p, t = plan.p, plan.t
                cost = CostLedger()
                clique_cost_only(strategy, g.n, g.m, p, t, cost)
                assert self.rows(cost) == self.rows(full), (strategy, q)
                compared.append(strategy)
        assert compared
        if n >= 33 and 0 < prob < 1:
            assert set(compared) == set(STRATEGIES)


REPS_CASES = ([("sparse", 2, t) for t in (1, 2, 3)]
              + [("nested", p, t) for p, t in ((3, 1), (3, 2), (5, 3))]
              + [("blackbox", 3, t) for t in (1, 2, 3)])


class TestRepsScaleLinearly:
    """reps multiplies a search's charge once, outermost, at every depth."""

    @staticmethod
    def quantum_rounds(run):
        out = []
        for reps in (1, 2, 3):
            led = CostLedger()
            run(led, QuantumCostParams(reps=reps))
            out.append(led.total_by_kind()["quantum"])
        return out

    @pytest.mark.parametrize("strategy,p,t", REPS_CASES)
    def test_full_runs(self, strategy, p, t):
        g = gnp(40, 0.5, 21)
        inv = list_kp(g, p, CostLedger())

        def run(led, params):
            if strategy == "sparse":
                extend_sparse(g, inv, t, led, params=params)
            elif strategy == "nested":
                detect_nested(g, p, t, led, params=params, inv=inv)
            else:
                extend_blackbox(g, inv, t, led, params=params)

        one, two, three = self.quantum_rounds(run)
        assert one > 0 and (two, three) == (2 * one, 3 * one)

    @pytest.mark.parametrize("strategy,p,t", REPS_CASES)
    @pytest.mark.parametrize("n,m", [(256, 512), (4096, 262144), (1024, 1024 * 1023 // 2)])
    def test_cost_only(self, strategy, p, t, n, m):
        def run(led, params):
            if strategy == "sparse":
                sparse_cost_only(n, m, t, led, params)
            elif strategy == "nested":
                nested_cost_only(n, m, p, t, led, params)
            else:
                blackbox_cost_only(n, t, led, params)

        one, two, three = self.quantum_rounds(run)
        assert one > 0 and (two, three) == (2 * one, 3 * one)


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


# every pure function of the clique layer that keeps its values, each
# with the module globals that callers read it through
CACHED = {fn: glob for glob, fns in (
    (detect_nested.__globals__, (_candidate_plans, _triangle_costs, _plus1_costs,
                                 _nested_costs, _blackbox_costs, _sparse_costs, _id_parts,
                                 _triangle_batches)),
    (cliquelist.list_kp.__globals__, (cliquelist.listing_route_rounds,))) for fn in fns}


def assert_tuples(value):
    assert isinstance(value, tuple)
    for item in value:
        if isinstance(item, (list, tuple, set, dict)):
            assert_tuples(item)


class TestCachedPrices:
    """The planner's candidates, the cost triples, the listing charge and
    the part masks are computed once per key: each equals its uncached
    formula, holds only tuples, and has a bounded cache."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 5000), density=st.sampled_from([0, 1, 3, 8, 16, 25, 60, 100]),
           q=st.integers(3, 8))
    def test_each_is_its_formula(self, n, density, q):
        m = n * (n - 1) // 2 * density // 100
        for _ in range(2):  # computed, then read back
            assert _candidate_plans(n, m, q) == _candidate_plans.__wrapped__(n, m, q)
            for p in range(2, q):
                t = q - p
                assert (cliquelist.listing_route_rounds(n, m, p)
                        == cliquelist.listing_route_rounds.__wrapped__(n, m, p))
                costs = []
                if inapplicable("triangle15", n, p, t) is None:
                    costs.append((_triangle_costs, (n, m)))
                if inapplicable("plus1", n, p, t) is None:
                    costs.append((_plus1_costs, (n, m, p)))
                if inapplicable("nested", n, p, t) is None:
                    costs.append((_nested_costs, (n, m, p, t)))
                costs += [(_blackbox_costs, (n, t, packing)) for packing in (True, False)]
                costs.append((_sparse_costs, (n, m, t)))
                for fn, args in costs:
                    got = fn(*args)
                    assert got == fn.__wrapped__(*args), (fn.__name__, args)
                    assert_tuples(got)
                    if fn is _triangle_costs:
                        domain = got[0][0]
                        assert _triangle_batches(n, domain) == \
                            _triangle_batches.__wrapped__(n, domain)
                    elif fn is not _sparse_costs:
                        for count in got[0][:-1]:  # the levels searched through masks
                            assert _id_parts(n, count) == _id_parts.__wrapped__(n, count)

    def test_stored_values_are_tuples_and_caches_are_bounded(self):
        for fn in CACHED:
            assert fn.cache_info().maxsize is not None, fn.__name__
        for value in (_candidate_plans(64, 2016, 7), _triangle_costs(64, 100),
                      _plus1_costs(64, 100, 3), _nested_costs(64, 100, 5, 2),
                      _blackbox_costs(64, 3, True), _sparse_costs(64, 100, 3),
                      _id_parts(64, 8), _triangle_batches(64, 6)):
            assert_tuples(value)

    @pytest.mark.parametrize("args", [
        ["sweep", "--algo", "triangle15", "--n-list", "64,256,1024"],
        ["sweep", "--algo", "plus1", "--p", "4", "--n-list", "64,256,1024"],
        ["sweep", "--algo", "nested", "--p", "5", "--t", "3", "--n-list", "64,256,1024"],
        ["sweep", "--algo", "blackbox", "--t", "3", "--n-list", "64,256,1024"],
        ["sweep", "--algo", "sparse", "--t", "2", "--n-list", "64,256,1024",
         "--m-list", "256,4096,32768"],
        ["sweep", "--algo", "auto", "--mode", "full", "--q", "4", "--n-list", "32,40",
         "--edge-prob", "0.5"],
        ["sweep", "--algo", "blackbox", "--mode", "full", "--q", "5", "--n-list", "32,40",
         "--edge-prob", "0.5"]])
    def test_sweeps_print_the_same_cold_warm_and_uncached(self, capsys, args):
        printed = []
        for start in ("cold", "warm", "uncached"):
            with pytest.MonkeyPatch.context() as mp:
                for fn, glob in CACHED.items():
                    if start == "cold":
                        fn.cache_clear()
                    elif start == "uncached":
                        mp.setitem(glob, fn.__name__, fn.__wrapped__)
                assert main(args) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] == printed[2] and printed[0].count("\n") >= 3


class TestLastLevelParts:
    """A search's last level is found from the reach alone: the first part
    that meets it."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 3000), count=st.integers(1, 3100), seed=st.integers(0, 2**64))
    def test_first_id_part_is_the_first_part_meeting_the_reach(self, n, count, seed):
        parts = _id_parts.__wrapped__(n, count)
        for reach in (0, 1 << (seed % n), seed & ((1 << n) - 1), ((1 << n) - 1) >> (seed % n)):
            want = next((j for j, part in enumerate(parts) if part & reach), None)
            assert _first_id_part(n, count, reach) == want == _first_meeting(parts, reach)

    def test_triangle_batches_are_scanned_in_order(self):
        batches = _triangle_batches(40, 5)
        for v in range(40):
            j = _first_meeting(batches, 1 << v)
            assert batches[j] >> v & 1
        assert _first_meeting(batches, 0) is None


class TestNoNodes:
    """A graph without nodes holds no clique: direct calls answer False."""

    @pytest.mark.parametrize("p,t", [(2, 1), (3, 1), (3, 2), (5, 3)])
    def test_nested_and_blackbox_answer_false(self, p, t):
        g = Graph(0, [])
        led = CostLedger()
        assert not detect_nested(g, p, t, led)
        assert [e.rounds for e in led.entries] == [0]  # the listing, at zero rounds
        assert led.counts["queries"] == 0
        for packing in (True, False):
            led = CostLedger()
            assert not extend_blackbox(g, list_kp(g, p, CostLedger()), t, led, packing=packing)
            assert led.entries == [] and led.counts["queries"] == 0
