"""Round accounting: ledger, word capacity, convergecast, CONGEST steps."""

import networkx as nx
import pytest

from qcongest.cli import CSV_HEADER
from qcongest.graph import GenSpec, Graph, bits, generate
from qcongest.netsim import KINDS, CongestNet, CostLedger, congest_step, word_capacity


class TestWord:
    def test_capacity(self):
        assert word_capacity(4096) == 12
        assert word_capacity(2) == 1
        assert word_capacity(3) == 2
        assert word_capacity(1024) == 10
        assert word_capacity(1) == 1


class TestLedger:
    def test_total_and_kinds(self):
        led = CostLedger()
        led.charge("a", "clique", "route", 3)
        led.charge("b", "clique", "quantum", 5)
        led.charge("c", "congest", "converge", 0)
        assert led.total() == 8
        assert led.total_by_kind() == {"route": 3, "broadcast": 0, "converge": 0, "quantum": 5}
        # the kinds are exactly the CSV's per-kind round columns, so those
        # columns sum to rounds_total
        per_kind = {c for c in CSV_HEADER.split(",") if c.startswith("rounds_")} - {"rounds_total"}
        assert {f"rounds_{k}" for k in KINDS} == per_kind and len(KINDS) == 4

    def test_rejects_bad_kind(self):
        led = CostLedger()
        for kind in ("teleport", "local"):
            with pytest.raises(ValueError):
                led.charge("x", "clique", kind, 1)
        with pytest.raises(ValueError):
            led.charge("x", "clique", "route", -1)


class TestConverge:
    def test_congest_path(self):
        # a one-word convergecast crosses the leader's eccentricity
        net = CongestNet(generate(GenSpec(kind="path", n=5)))
        assert net.eccentricity == 4
        assert net.component == 0b11111

    def test_congest_star(self):
        net = CongestNet(Graph(5, [(0, i) for i in range(1, 5)]))
        assert net.eccentricity == 1

    def test_reads_the_graphs_stored_facts(self):
        g = Graph(5, [(0, 3), (1, 2), (2, 4)])
        net = CongestNet(g)
        assert (net.component, net.eccentricity) == g.leader_bfs()[:2] == (0b1001, 1)

    def test_disconnected_reporting_errors(self):
        net = CongestNet(Graph(4, [(0, 1)]))
        with pytest.raises(RuntimeError) as err:
            net.require_reachable(0b1110)
        assert str(err.value) == ("leader cannot aggregate: nodes [2, 3] are disconnected "
                                  "from node 0")
        # silent nodes in other components are fine
        net.require_reachable(0b11)


    def test_component_matches_networkx_on_disconnected_graphs(self):
        disconnected = 0
        for seed in range(40):
            n = 1 + seed % 30
            g = generate(GenSpec(kind="gnp", n=n, edge_prob=min(1, (1 + seed % 4) / (2 * n)),
                                 seed=seed))
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(g.edges())
            hops = nx.single_source_shortest_path_length(ref, 0)
            net = CongestNet(g)
            assert list(bits(net.component)) == sorted(hops), seed
            assert net.eccentricity == max(hops.values())
            disconnected += len(hops) < n
        assert disconnected > 20  # most draws leave nodes outside node 0's component


class TestCongestStep:
    def test_delivery(self):
        g = generate(GenSpec(kind="path", n=3))
        assert congest_step(g, [(0, 1, 7)]) == {(0, 1): 7}

    def test_empty_step_still_one_round(self):
        g = generate(GenSpec(kind="path", n=3))
        assert congest_step(g, []) == {}

    def test_c4_all_directions(self):
        g = generate(GenSpec(kind="cycle", n=4))
        out = []
        for v in range(4):
            for u in bits(g.adj[v]):
                out.append((v, u, v))
        inbox = congest_step(g, out)
        assert len(inbox) == 8

    def test_double_word_rejected(self):
        g = generate(GenSpec(kind="path", n=3))
        with pytest.raises(ValueError, match="two words"):
            congest_step(g, [(0, 1, 1), (0, 1, 2)])

    def test_non_edge_rejected(self):
        g = generate(GenSpec(kind="path", n=3))
        with pytest.raises(ValueError, match="no edge"):
            congest_step(g, [(0, 2, 1)])
