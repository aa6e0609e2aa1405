"""Graph construction, generators, and brute-force oracles."""

import itertools
import random
from types import SimpleNamespace
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongest import graph as graph_module
from qcongest.graph import (
    CliqueSet,
    GenSpec,
    Graph,
    GraphFormatError,
    MAX_EDGES,
    MAX_NODES,
    anchor_ball,
    ball,
    bits,
    generate,
    iter_cliques,
    iter_cycles,
    load_graph,
    mask_of,
    neighbours,
    oracle_cliques,
    oracle_has_clique,
    oracle_has_cycle,
    oracle_has_extension,
    save_graph,
)


def gnp(n, p, seed):
    return generate(GenSpec(kind="gnp", n=n, edge_prob=p, seed=seed))


def inventory(p, cliques):
    """A stand-in for a list_kp inventory that holds only the given p-cliques."""
    return SimpleNamespace(union=lambda: CliqueSet(p, frozenset(cliques)))


class TestGraph:
    """adj is the one adjacency; has_edge, edges, degrees and m agree with it."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 16), data=st.data())
    def test_views_agree_with_the_edge_list(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, k in zip(pairs, keep) if k]
        g = Graph(n, [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)])
        assert isinstance(g.adj, tuple) and len(g.adj) == n
        assert g.edges() == edges and g.m == len(edges)
        for u, v in pairs:
            assert g.has_edge(u, v) == g.has_edge(v, u) == ((u, v) in edges)
        nbrs = [sorted({x for e in edges if v in e for x in e} - {v}) for v in range(n)]
        assert [list(bits(mask)) for mask in g.adj] == nbrs
        assert g.degrees() == [len(nb) for nb in nbrs]
        assert [mask_of(nb) for nb in nbrs] == list(g.adj)
        mask = data.draw(st.integers(0, (1 << n) - 1), label="mask")
        assert neighbours(g.adj, mask) == mask_of(x for v in bits(mask) for x in nbrs[v])


def triangle_scan(graph):
    """Bitmask of the nodes on a triangle, by a scan of every node triple."""
    mask = 0
    for u, v, w in itertools.combinations(range(graph.n), 3):
        if graph.has_edge(u, v) and graph.has_edge(v, w) and graph.has_edge(u, w):
            mask |= 1 << u | 1 << v | 1 << w
    return mask


class TestTriangleNodes:
    """triangle_nodes() is the triple scan, stored on the graph it describes."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 14), prob=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
           seed=st.integers(0, 10**6))
    def test_equals_a_triple_scan(self, n, prob, seed):
        g = gnp(n, prob, seed)
        assert g.triangle_nodes() == triangle_scan(g)
        assert g.triangle_nodes() == triangle_scan(g)  # the stored value

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 9])
    def test_empty_and_complete_graphs(self, n):
        assert generate(GenSpec(kind="empty", n=n)).triangle_nodes() == 0
        full = (1 << n) - 1 if n >= 3 else 0
        assert generate(GenSpec(kind="complete", n=n)).triangle_nodes() == full

    def test_each_graph_keeps_its_own_mask(self):
        # a triangle on 0..2 beside one on 3..5, and alternating reads
        a = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        b = Graph(6, [(3, 4), (4, 5), (3, 5), (0, 1)])
        for _ in range(2):
            assert (a.triangle_nodes(), b.triangle_nodes()) == (0b000111, 0b111000)


class TestLeaderBfs:
    """leader_bfs() and cycle_rank() are networkx's values, stored on the
    graph they describe."""

    @staticmethod
    def assert_matches_networkx(g):
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        hops = nx.single_source_shortest_path_length(ref, 0) if g.n else {}
        facts = g.leader_bfs()
        assert facts.component == mask_of(nx.node_connected_component(ref, 0) if g.n else ())
        assert facts.eccentricity == max(hops.values(), default=0)
        assert facts.components == nx.number_connected_components(ref)
        assert g.cycle_rank() == len(nx.cycle_basis(ref))
        # a second read is the stored value: no new BFS runs (each BFS step
        # calls neighbours, so a fresh graph's first read trips the mock)
        with mock.patch.dict(Graph.leader_bfs.__globals__,
                             neighbours=mock.Mock(side_effect=AssertionError("a second BFS"))):
            assert g.leader_bfs() is facts
            assert g.cycle_rank() == len(nx.cycle_basis(ref))
            if g.n:
                with pytest.raises(AssertionError, match="a second BFS"):
                    Graph(g.n, g.edges()).leader_bfs()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 16), data=st.data())
    def test_matches_networkx(self, n, data):
        # sparse edge sets, so that most draws are disconnected
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = data.draw(st.sets(st.integers(0, len(pairs) - 1), max_size=n + 2)
                           if pairs else st.just(set()))
        edges = [pairs[i] for i in sorted(picked)]
        if data.draw(st.booleans(), label="isolate node 0"):
            edges = [e for e in edges if 0 not in e]
        self.assert_matches_networkx(Graph(n, edges))

    @pytest.mark.parametrize("g", [Graph(0, []), Graph(1, []), Graph(5, []),
                                   Graph(4, [(1, 2), (2, 3), (1, 3)]),
                                   Graph(5, [(0, 3), (1, 2), (2, 4)]),
                                   generate(GenSpec(kind="complete", n=6)),
                                   generate(GenSpec(kind="path", n=7))],
                             ids=["empty", "n1", "no-edges", "isolated-0", "two-parts", "K6",
                                  "path"])
    def test_edge_cases(self, g):
        self.assert_matches_networkx(g)

    @pytest.mark.parametrize("g, facts", [
        (Graph(0, []), (0, 0, 0)),
        (Graph(1, []), (0b1, 0, 1)),
        (Graph(4, [(1, 2), (2, 3), (1, 3)]), (0b1, 0, 2)),
        (Graph(5, [(0, 3), (1, 2), (2, 4)]), (0b1001, 1, 2)),
        (generate(GenSpec(kind="path", n=4)), (0b1111, 3, 1)),
    ], ids=["empty", "n1", "isolated-0", "two-parts", "path"])
    def test_the_facts(self, g, facts):
        assert g.leader_bfs() == facts

    def test_the_facts_are_read_only(self):
        facts = generate(GenSpec(kind="path", n=4)).leader_bfs()
        with pytest.raises(AttributeError):
            facts.component = 0


class TestBall:
    """ball(adj, start, radius, allowed) is networkx's hop distance from the
    node mask start on the subgraph that allowed | start induces."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 14), data=st.data())
    def test_matches_networkx(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [e for e, k in zip(pairs, keep) if k])
        full = (1 << n) - 1
        allowed = data.draw(st.integers(0, full), label="allowed")
        outside = full & ~allowed
        # start: any mask, or one node that lies outside allowed
        start = data.draw(st.integers(0, full) if not outside or data.draw(st.booleans())
                          else st.sampled_from([1 << v for v in bits(outside)]), label="start")
        radius = data.draw(st.integers(0, 4), label="radius")
        ref = nx.Graph()
        ref.add_nodes_from([*bits(allowed | start), "s"])
        ref.add_edges_from((u, v) for u, v in g.edges() if u in ref and v in ref)
        ref.add_edges_from(("s", v) for v in bits(start))  # one source joined to every start node
        hops = nx.single_source_shortest_path_length(ref, "s", cutoff=radius + 1)
        assert ball(g.adj, start, radius, allowed) == mask_of(v for v in hops if v != "s")

    def test_radius_zero_is_start_and_a_path_grows_one_node_per_hop(self):
        path = generate(GenSpec(kind="path", n=6))
        assert ball(path.adj, 0b1, 0, 0) == 0b1
        assert [ball(path.adj, 0b1, r, 0b111110) for r in range(7)] == \
            [0b1, 0b11, 0b111, 0b1111, 0b11111, 0b111111, 0b111111]
        # a node outside allowed is not passed through
        assert ball(path.adj, 0b1, 5, 0b111010) == 0b11


class TestLoadGraph:
    def test_path_readback(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3 2\n0 1\n1 2\n")
        g = load_graph(str(f))
        assert (g.n, g.m) == (3, 2)
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)

    def test_self_loop_rejected_with_line(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n0 0\n")
        with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
            load_graph(str(f))

    def test_duplicate_edge_rejected_with_line(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("4 2\n0 1\n0 1\n")
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            load_graph(str(f))

    def test_id_out_of_range(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3 1\n0 5\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(str(f))

    def test_unordered_edge_rejected(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3 1\n2 1\n")
        with pytest.raises(GraphFormatError):
            load_graph(str(f))

    def test_bad_header(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("three nodes\n")
        with pytest.raises(GraphFormatError, match="header"):
            load_graph(str(f))

    def test_edge_count_mismatch(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3 2\n0 1\n")
        with pytest.raises(GraphFormatError, match="promised 2"):
            load_graph(str(f))

    def test_a_header_above_the_node_limit_is_refused(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(f"{MAX_NODES + 1} 0\n")
        with pytest.raises(GraphFormatError, match="line 1.*node limit"):
            load_graph(str(f))
        f.write_text("100000000000 0\n")
        with pytest.raises(GraphFormatError, match="line 1.*node limit"):
            load_graph(str(f))

    def test_comments_ignored_and_roundtrip(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# a comment\n4 2\n# another\n0 3\n1 2\n")
        g = load_graph(str(f))
        out = tmp_path / "h.txt"
        save_graph(g, str(out))
        assert out.read_text() == "4 2\n0 3\n1 2\n"


class TestGenerate:
    def test_gnp_zero_prob_empty(self):
        g = gnp(16, 0.0, 1)
        assert g.m == 0

    def test_planted_clique_present(self):
        g = generate(GenSpec(kind="planted_clique", n=32, edge_prob=0.1,
                             planted_size=5, seed=9))
        for u in range(5):
            for v in range(u + 1, 5):
                assert g.has_edge(u, v)

    def test_determinism(self):
        a = gnp(64, 0.5, 7)
        b = gnp(64, 0.5, 7)
        assert a.edges() == b.edges()

    def test_planted_cycle_edges(self):
        g = generate(GenSpec(kind="planted_cycle", n=12, edge_prob=0.0,
                             planted_size=6, seed=0))
        assert g.m == 6
        assert oracle_has_cycle(g, 6)

    def test_fixed_kinds(self):
        assert generate(GenSpec(kind="complete", n=5)).m == 10
        assert generate(GenSpec(kind="path", n=5)).m == 4
        assert generate(GenSpec(kind="cycle", n=5)).m == 5
        assert generate(GenSpec(kind="empty", n=5)).m == 0

    def test_planted_size_too_large(self):
        with pytest.raises(ValueError):
            generate(GenSpec(kind="planted_clique", n=4, planted_size=5, seed=0))

    @pytest.mark.parametrize("spec", [
        GenSpec(kind="gnp", n=-1, edge_prob=0.5),
        GenSpec(kind="cycle", n=2),
        GenSpec(kind="planted_cycle", n=8, planted_size=2),
        GenSpec(kind="empty", n=MAX_NODES + 1),
        GenSpec(kind="gnp", n=100000000000, edge_prob=0.5),
    ], ids=["negative-n", "short-cycle", "short-planted-cycle", "above-the-limit",
            "far-above-the-limit"])
    def test_validate_makes_the_size_checks(self, spec):
        with pytest.raises(ValueError):
            spec.validate()

    def test_the_node_limit_itself_is_accepted(self):
        GenSpec(kind="gnp", n=MAX_NODES, edge_prob=3 / MAX_NODES).validate()
        assert generate(GenSpec(kind="empty", n=MAX_NODES)).n == MAX_NODES

    @pytest.mark.parametrize("spec", [
        GenSpec(kind="complete", n=20000),
        GenSpec(kind="gnp", n=MAX_NODES, edge_prob=0.5, seed=1),
        GenSpec(kind="planted_clique", n=4000, edge_prob=0.0, planted_size=3000),
        GenSpec(kind="planted_cycle", n=MAX_NODES, edge_prob=0.01, planted_size=5),
    ], ids=["complete", "dense-gnp", "large-planted-clique", "planted-cycle-in-gnp"])
    def test_the_edge_budget_refuses_dense_specs(self, spec):
        with pytest.raises(ValueError, match="edge limit"):
            spec.validate()

    def test_the_edge_budget_boundary(self):
        # the largest complete graph within the budget, and the next one
        n = max(n for n in range(2, MAX_NODES) if n * (n - 1) // 2 <= MAX_EDGES)
        GenSpec(kind="complete", n=n).validate()
        with pytest.raises(ValueError, match="edge limit"):
            GenSpec(kind="complete", n=n + 1).validate()
        # the sparse kinds stay within it at the node limit
        GenSpec(kind="path", n=MAX_NODES).validate()
        GenSpec(kind="cycle", n=MAX_NODES).validate()

    @pytest.mark.parametrize("spec", [
        GenSpec(kind="complete", n=30), GenSpec(kind="path", n=30), GenSpec(kind="path", n=0),
        GenSpec(kind="cycle", n=30), GenSpec(kind="empty", n=30),
        GenSpec(kind="gnp", n=30, edge_prob=1.0), GenSpec(kind="gnp", n=30, edge_prob=0.0),
        GenSpec(kind="planted_clique", n=30, planted_size=7),
        GenSpec(kind="planted_cycle", n=30, planted_size=7),
        GenSpec(kind="planted_clique", n=30, edge_prob=1.0, planted_size=7),
    ])
    def test_expected_edges_are_exact_where_nothing_is_drawn(self, spec):
        assert spec.expected_edges() == generate(spec).m

    def test_expected_edges_of_a_drawn_graph_are_its_mean(self):
        # planted edges plus p times the other pairs, averaged over seeds
        for kind, size in (("gnp", 0), ("planted_clique", 8), ("planted_cycle", 8)):
            specs = [GenSpec(kind=kind, n=40, edge_prob=0.2, planted_size=size, seed=s)
                     for s in range(200)]
            mean = sum(generate(spec).m for spec in specs) / len(specs)
            free = 40 * 39 // 2 - (28 if kind == "planted_clique" else size)
            assert abs(mean - specs[0].expected_edges()) < 4 * (free * 0.2 * 0.8 / 200) ** 0.5

    @given(st.integers(0, 2**64 - 1), st.integers(4, 24),
           st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_pure_function_of_spec(self, seed, n, prob):
        spec = GenSpec(kind="gnp", n=n, edge_prob=prob, seed=seed)
        assert generate(spec).edges() == generate(spec).edges()


def scan_reference(spec):
    """The pair-by-pair scan that generate's bulk draw replaces: one
    random() per pair u < v in row order, none for a planted pair."""
    n, s = spec.n, spec.planted_size
    planted = set()
    if spec.kind == "planted_clique":
        planted = {(u, v) for u in range(s) for v in range(u + 1, s)}
    elif spec.kind == "planted_cycle":
        planted = {(min(i, (i + 1) % s), max(i, (i + 1) % s)) for i in range(s)}
    rng = random.Random(spec.seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (u, v) in planted or rng.random() < spec.edge_prob])


EDGE_PROBS = [0.0, 2.0**-53, 1e-9, 0.01, 0.5, 1 - 2.0**-53, 1.0]


@st.composite
def coin_specs(draw, max_n=150):
    """gnp and planted specs over n, planted sizes, seeds and the edge
    probabilities at the ends of the coin's range."""
    kind = draw(st.sampled_from(["gnp", "planted_clique", "planted_cycle"]))
    least = {"gnp": 0, "planted_clique": 1, "planted_cycle": 3}[kind]
    n = draw(st.integers(least, max_n))
    size = draw(st.integers(least, n)) if least else 0
    prob = draw(st.one_of(st.sampled_from(EDGE_PROBS), st.floats(0.0, 1.0)))
    return GenSpec(kind=kind, n=n, edge_prob=prob, planted_size=size,
                   seed=draw(st.integers(0, 2**64 - 1)))


class TestBulkDraw:
    """generate reads each pair's coin in bulk from the stream the
    pair-by-pair scan reads, so it builds the scan's graph exactly."""

    @staticmethod
    def assert_same(spec):
        got, want = generate(spec), scan_reference(spec)
        assert (got.adj, got.m) == (want.adj, want.m), spec

    @given(coin_specs())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_pair_scan(self, spec):
        self.assert_same(spec)

    @pytest.mark.parametrize("chunk", [1, 7, 97])
    @given(spec=coin_specs(max_n=40))
    @settings(max_examples=40, deadline=None)
    def test_chunk_edges_fall_anywhere(self, chunk, spec):
        # chunks far smaller than a row: rows and planted pairs straddle
        # the chunk edges
        with mock.patch.object(graph_module, "_PAIR_CHUNK", chunk):
            self.assert_same(spec)

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_a_probability_equal_to_a_coin_keeps_that_pair_out(self, seed):
        # random() < p is strict: a coin that equals p does not come up
        stream = random.Random(seed)
        coins = [stream.random() for _ in range(300)]  # one per pair of 25 nodes
        for prob in (coins[0], coins[137], coins[-1]):
            for kind, size in (("gnp", 0), ("planted_clique", 4), ("planted_cycle", 5)):
                self.assert_same(GenSpec(kind=kind, n=25, edge_prob=prob, planted_size=size,
                                         seed=seed))

    def test_a_large_sparse_graph(self):
        self.assert_same(GenSpec(kind="gnp", n=2000, edge_prob=3 / 2000, seed=11))

    @pytest.mark.parametrize("kind, size", [("gnp", 0), ("planted_clique", 6),
                                            ("planted_cycle", 6)])
    def test_probability_zero_draws_nothing(self, kind, size):
        def no_generator(*args):
            raise AssertionError("a generator was made at edge_prob 0")

        with mock.patch.object(random, "Random", no_generator):
            g = generate(GenSpec(kind=kind, n=40, edge_prob=0.0, planted_size=size, seed=3))
        assert g.m == {"gnp": 0, "planted_clique": 15, "planted_cycle": 6}[kind]

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 9])
    @pytest.mark.parametrize("k", [1, 2, 5, 1000])
    def test_the_stream_contract(self, seed, k):
        # generate's exactness rests on this: getrandbits(64 k) returns the
        # next 2k 32-bit words, lowest first, and random() is
        # ((a >> 5) * 2^26 + (b >> 6)) / 2^53 of two consecutive words
        rng = random.Random(seed)
        want = [rng.random() for _ in range(k)]
        block = random.Random(seed).getrandbits(64 * k)
        words = [block >> (32 * i) & 0xFFFFFFFF for i in range(2 * k)]
        got = [((a >> 5) * 2**26 + (b >> 6)) / 2**53 for a, b in zip(words[0::2], words[1::2])]
        assert got == want


class TestOracleCliques:
    def test_k4_triangles(self):
        g = generate(GenSpec(kind="complete", n=4))
        assert len(oracle_cliques(g, 3)) == 4

    def test_c5_no_triangles(self):
        g = generate(GenSpec(kind="cycle", n=5))
        assert len(oracle_cliques(g, 3)) == 0

    def test_matches_subset_enumeration(self):
        # independent oracle: test all 4-subsets directly
        g = gnp(16, 0.5, 7)
        expected = {
            quad
            for quad in itertools.combinations(range(16), 4)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(quad, 2))
        }
        assert oracle_cliques(g, 4).members == frozenset(expected)

    def test_work_cap(self):
        g = generate(GenSpec(kind="empty", n=128))
        with pytest.raises(ValueError, match="work cap"):
            oracle_cliques(g, 8)

    def test_pre_violation(self):
        g = generate(GenSpec(kind="complete", n=4))
        with pytest.raises(ValueError):
            oracle_cliques(g, 1)

    @given(st.integers(0, 1000), st.integers(6, 16))
    @settings(max_examples=25, deadline=None)
    def test_members_pairwise_adjacent_nonmembers_missing_edge(self, seed, n):
        g = gnp(n, 0.5, seed)
        got = oracle_cliques(g, 3).members
        for tri in itertools.combinations(range(n), 3):
            is_clique = all(g.has_edge(u, v) for u, v in itertools.combinations(tri, 2))
            assert (tri in got) == is_clique

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 11), prob=st.sampled_from([0.3, 0.6, 0.9]),
           seed=st.integers(0, 10**6), p=st.integers(1, 5), data=st.data())
    def test_within_a_mask_matches_subset_enumeration(self, n, prob, seed, p, data):
        g = gnp(n, prob, seed)
        within = data.draw(st.integers(0, (1 << n) - 1), label="within")
        want = [c for c in itertools.combinations(bits(within), p)
                if all(g.has_edge(u, v) for u, v in itertools.combinations(c, 2))]
        assert list(iter_cliques(g, p, within)) == want
        # no mask is the whole graph
        assert list(iter_cliques(g, p)) == list(iter_cliques(g, p, (1 << n) - 1))


class TestOracleExtension:
    def test_k5_triangles_extend_by_two(self):
        g = generate(GenSpec(kind="complete", n=5))
        inv = inventory(3, oracle_cliques(g, 3).members)
        assert oracle_has_extension(g, inv, 2)

    def test_empty_inventory_false(self):
        g = generate(GenSpec(kind="complete", n=5))
        assert not oracle_has_extension(g, inventory(3, ()), 2)

    def test_extension_is_relative_to_inventory(self):
        # two disjoint K4s plus a triangle contained in neither
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
        edges += [(3, 8), (3, 9), (8, 9)]
        g = Graph(10, edges)
        assert oracle_has_clique(g, 4)
        lone_triangle = inventory(3, {(3, 8, 9)})
        # direct check of the definition: no 4-clique contains {3,8,9}
        direct = any(
            set((3, 8, 9)) <= set(k) for k in oracle_cliques(g, 4).members
        )
        assert not direct
        assert not oracle_has_extension(g, lone_triangle, 1)

    @given(st.integers(0, 500), st.integers(8, 20))
    @settings(max_examples=20, deadline=None)
    def test_full_inventory_equals_clique_oracle(self, seed, n):
        g = gnp(n, 0.4, seed)
        for p, t in ((2, 1), (2, 2), (3, 1)):
            if p + t > n:
                continue
            inv = inventory(p, oracle_cliques(g, p).members)
            assert oracle_has_extension(g, inv, t) == oracle_has_clique(g, p + t)


class TestOracleCycles:
    def test_cycle_graph_lengths(self):
        g = generate(GenSpec(kind="cycle", n=6))
        assert oracle_has_cycle(g, 6)
        assert not oracle_has_cycle(g, 5)

    def test_tree_no_cycles(self):
        g = generate(GenSpec(kind="path", n=10))
        for length in range(3, 10):
            assert not oracle_has_cycle(g, length)

    def test_c4_matches_common_neighbor_count(self):
        g = gnp(48, 0.15, 3)
        # second oracle: C4 exists iff some pair has >= 2 common neighbors
        pairs = 0
        for u in range(48):
            for v in range(u + 1, 48):
                common = (g.adj[u] & g.adj[v]).bit_count()
                pairs += common * (common - 1) // 2
        assert oracle_has_cycle(g, 4) == (pairs > 0)

    def test_iter_cycles_through_counts_each_once(self):
        g = generate(GenSpec(kind="cycle", n=5))
        cycles = list(iter_cycles(g, 5, anchors=1 << 0))
        assert len(cycles) == 1
        assert set(cycles[0]) == set(range(5))

    def test_iter_cycles_k4(self):
        g = generate(GenSpec(kind="complete", n=4))
        # K4 has 3 distinct 4-cycles
        assert len(list(iter_cycles(g, 4))) == 3
        assert len(list(iter_cycles(g, 3))) == 4


def reference_cycles(graph, length, active_mask=None, anchors=None):
    """Plain DFS over ascending neighbours, no pruning: the reference order.

    Each cycle holding an anchor comes out once, from its smallest anchor:
    the DFS from an anchor skips every smaller anchor."""
    if length < 3:
        return
    active = (1 << graph.n) - 1 if active_mask is None else active_mask
    if anchors is None:
        anchors = active

    def dfs(anchor, path, visited):
        if len(path) == length:
            if graph.has_edge(path[-1], anchor) and path[1] < path[-1]:
                yield tuple(path)
            return
        for u in bits(graph.adj[path[-1]]):
            if visited >> u & 1 or not active >> u & 1 or (anchors >> u & 1 and u < anchor):
                continue
            path.append(u)
            yield from dfs(anchor, path, visited | (1 << u))
            path.pop()

    for s in range(graph.n):
        if active >> s & 1 and anchors >> s & 1:
            yield from dfs(s, [s], 1 << s)


def canonical(cyc):
    """The cycle's node sequence from its minimum node, in its smaller direction."""
    i = cyc.index(min(cyc))
    fwd = cyc[i:] + cyc[:i]
    return min(fwd, fwd[:1] + fwd[:0:-1])


class TestIterCyclesMatchesReference:
    """The pruned mask DFS yields the reference's tuples in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 13),
           length=st.integers(3, 8), prob=st.sampled_from([0.2, 0.35, 0.6]),
           one_anchor=st.booleans(), masked=st.booleans())
    def test_same_tuples_same_order(self, seed, n, length, prob, one_anchor, masked):
        import random

        rng = random.Random(seed)
        g = gnp(n, prob, seed)
        kwargs = {}
        if masked:
            kwargs["active_mask"] = rng.getrandbits(n)
        if one_anchor:
            kwargs["anchors"] = 1 << rng.randrange(n)
        assert list(iter_cycles(g, length, **kwargs)) == list(
            reference_cycles(g, length, **kwargs))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 13),
           length=st.integers(3, 8), prob=st.sampled_from([0.2, 0.35, 0.6]),
           masked=st.booleans())
    def test_anchor_masks(self, seed, n, length, prob, masked):
        import random

        rng = random.Random(seed)
        g = gnp(n, prob, seed)
        active = rng.getrandbits(n) if masked else None
        anchors = rng.getrandbits(n)
        cycles = list(iter_cycles(g, length, active, anchors))
        assert cycles == list(reference_cycles(g, length, active, anchors))
        for c in cycles:  # anchored at its smallest anchor
            assert c[0] == min(v for v in c if anchors >> v & 1)
        # every cycle holding an anchor, once
        every = iter_cycles(g, length, active)
        assert sorted(map(canonical, cycles)) == sorted(
            canonical(c) for c in every if mask_of(c) & anchors)

    def test_sparse_graphs_with_long_cycles(self):
        for seed in range(6):
            g = gnp(40, 3 / 40, seed)
            for length in (4, 5, 6, 7, 9):
                assert list(iter_cycles(g, length)) == list(reference_cycles(g, length))
                for v in range(0, 40, 7):
                    assert list(iter_cycles(g, length, anchors=1 << v)) == list(
                        reference_cycles(g, length, anchors=1 << v))


def cycle_rank(g):
    """m - n + the number of components: 0 exactly when g is a forest."""
    components, left = 0, (1 << g.n) - 1
    while left:
        reach = frontier = left & -left
        while frontier:
            frontier = mask_of(w for v in bits(frontier) for w in bits(g.adj[v])) & ~reach
            reach |= frontier
        left &= ~reach
        components += 1
    return g.m - g.n + components


def girth_above(n, length, avg_degree, seed):
    """G(n, avg_degree / n) minus every edge that would close a cycle of
    length <= `length`, so the girth exceeds it."""
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < avg_degree / n:
                near = frontier = 1 << u
                for _ in range(length - 1):
                    frontier = mask_of(w for x in bits(frontier) for w in bits(adj[x])) & ~near
                    near |= frontier
                if not near >> v & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
    return Graph(n, [(u, v) for u in range(n) for v in bits(adj[u]) if u < v])


def sparse_graph(family, n, length, seed):
    """A graph of one of the sparse families on which the no-cycle
    certificates fire: G(n, c/n), random bipartite, a random tree plus a few
    edges, or girth above `length`."""
    rng = random.Random(seed)
    if family == "gnp":
        return gnp(n, rng.choice([1.0, 2.0, 3.0]) / n, seed)
    if family == "bipartite":
        side = [rng.random() < 0.5 for _ in range(n)]
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                         if side[u] != side[v] and rng.random() < 5.0 / n])
    if family == "tree_plus":
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(1, 3)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        return Graph(n, sorted(edges))
    return girth_above(n, length, 3.0, seed)


class TestNoCycleCertificates:
    """An anchor that anchor_ball clears lies on no C_length, so iter_cycles
    still yields what the unpruned DFS yields."""

    @settings(max_examples=400, deadline=None)
    @given(family=st.sampled_from(["gnp", "bipartite", "tree_plus", "girth"]),
           seed=st.integers(0, 10**6), n=st.integers(3, 18), length=st.integers(3, 9),
           masked=st.booleans(), anchors=st.sampled_from(["all", "one", "some"]))
    def test_sparse_families_match_the_reference(self, family, seed, n, length, masked,
                                                 anchors):
        rng = random.Random(seed)
        g = sparse_graph(family, n, length, seed)
        active = rng.getrandbits(n) | rng.getrandbits(n) if masked else None
        anchor_mask = {"all": None, "one": 1 << rng.randrange(n),
                       "some": rng.getrandbits(n)}[anchors]
        assert list(iter_cycles(g, length, active, anchor_mask)) == list(
            reference_cycles(g, length, active, anchor_mask))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 40), length=st.integers(3, 9),
           keep=st.sampled_from([0.3, 0.7, 0.9, 1.0]))
    def test_every_anchor_of_a_forest_is_certified(self, seed, n, length, keep):
        # every subgraph of a forest is a forest: no BFS layer holds an edge
        # and no node has two neighbours in the layer before, so anchor_ball
        # clears every anchor, whatever the allowed mask
        rng = random.Random(seed)
        label = rng.sample(range(n), n)
        g = Graph(n, [tuple(sorted((label[rng.randrange(v)], label[v])))
                      for v in range(1, n) if rng.random() < 0.9])
        allowed = mask_of(v for v in range(n) if rng.random() < keep)
        for v in range(n):
            assert anchor_ball(g.adj, length, v, allowed & ~(1 << v)) is None, (g, v)
        shrinking = allowed
        for v in bits(allowed):
            shrinking &= ~(1 << v)  # as iter_cycles takes the anchors
            assert anchor_ball(g.adj, length, v, shrinking) is None, (g, v)

    @pytest.mark.parametrize("length", range(3, 10))
    def test_every_anchor_of_a_girth_above_length_graph_is_certified(self, length):
        # C_{length+1} and random graphs of girth > length: for even lengths
        # a radius-r tree test would not certify the anchors on a C_{length+1}
        graphs = [generate(GenSpec(kind="cycle", n=length + 1))]
        graphs += [girth_above(n, length, 3.0, seed) for n, seed in ((48, 1), (96, 2))]
        for g in graphs:
            assert not any(oracle_has_cycle(g, k) for k in range(3, length + 1))
            full = (1 << g.n) - 1
            assert cycle_rank(g), "the family must keep cycles"
            allowed = full
            for v in range(g.n):
                assert anchor_ball(g.adj, length, v, full & ~(1 << v)) is None, (g, v)
                allowed &= ~(1 << v)  # as iter_cycles takes the anchors
                assert anchor_ball(g.adj, length, v, allowed) is None, (g, v)

    def test_certificates_fire_on_the_sparse_families(self):
        # no anchor on a C_length is certified, and most anchors of the
        # cycle-free negatives (odd lengths on bipartite graphs, girth above
        # the length) are, so the families above exercise the skip
        certified = negatives = on_cycles = 0
        for seed, family, length in itertools.product(
                range(10), ("gnp", "bipartite", "tree_plus", "girth"), (4, 5, 6)):
            g = sparse_graph(family, 16, length, seed)
            negative = family == "girth" or (family == "bipartite" and length % 2)
            full = (1 << g.n) - 1
            for v in range(g.n):
                ok = anchor_ball(g.adj, length, v, full & ~(1 << v)) is None
                if any(True for _ in reference_cycles(g, length, anchors=1 << v)):
                    assert not ok, (family, seed, length, v)
                    on_cycles += 1
                elif negative:
                    certified += ok
                    negatives += 1
        assert on_cycles > 50 and certified > negatives // 2

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(["gnp", "bipartite", "tree_plus", "girth"]),
           seed=st.integers(0, 10**6), n=st.integers(3, 16), length=st.integers(3, 9))
    def test_an_uncleared_anchor_gets_every_ball(self, family, seed, n, length):
        g = sparse_graph(family, n, length, seed)
        allowed = random.Random(seed).getrandbits(n)
        for v in range(n):
            ball = anchor_ball(g.adj, length, v, allowed & ~(1 << v))
            if ball is None:
                continue
            near = frontier = 1 << v
            for r in range(1, length):
                nxt = mask_of(w for x in bits(frontier) for w in bits(g.adj[x]))
                frontier = nxt & allowed & ~near
                near |= frontier
                assert ball[r] == near & ~(1 << v), (v, r)
            assert len(ball) == length

    @pytest.mark.parametrize("length", range(3, 10))
    def test_an_anchor_on_a_cycle_is_never_certified(self, length):
        g = generate(GenSpec(kind="cycle", n=length))
        for v in range(length):
            assert anchor_ball(g.adj, length, v, ((1 << length) - 1) & ~(1 << v)) is not None
        assert len(list(iter_cycles(g, length))) == 1
