"""Round accounting: ledger, word capacity, convergecast, CONGEST steps."""

import pytest

from qcongest.graph import GenSpec, Graph, generate
from qcongest.netsim import CongestNet, CostLedger, congest_step, word_capacity


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
        led.charge("c", "congest", "local", 0)
        assert led.total() == 8
        assert led.total_by_kind()["route"] == 3

    def test_rejects_bad_kind(self):
        led = CostLedger()
        with pytest.raises(ValueError):
            led.charge("x", "clique", "teleport", 1)
        with pytest.raises(ValueError):
            led.charge("x", "clique", "route", -1)


class TestConverge:
    def test_congest_path(self):
        net = CongestNet(generate(GenSpec(kind="path", n=5)))
        assert net.converge_cost(1) == 4
        # words of capacity ceil(log2 5) = 3 bits, one per hop per round
        assert net.converge_cost(net.capacity + 1) == 8
        assert net.converge_cost(0) == 0

    def test_congest_star(self):
        net = CongestNet(Graph(5, [(0, i) for i in range(1, 5)]))
        assert net.converge_cost(1) == 1

    def test_disconnected_reporting_errors(self):
        net = CongestNet(Graph(4, [(0, 1)]))
        with pytest.raises(RuntimeError, match="disconnected"):
            net.require_reachable([3])
        # silent nodes in other components are fine
        net.require_reachable([1])


class TestCongestStep:
    def test_delivery(self):
        g = generate(GenSpec(kind="path", n=3))
        net = CongestNet(g)
        led = CostLedger()
        inbox = congest_step(net, [(0, 1, 7)], led)
        assert inbox == {(0, 1): 7}
        assert led.total() == 1

    def test_empty_step_still_one_round(self):
        g = generate(GenSpec(kind="path", n=3))
        led = CostLedger()
        assert congest_step(CongestNet(g), [], led) == {}
        assert led.total() == 1

    def test_c4_all_directions(self):
        g = generate(GenSpec(kind="cycle", n=4))
        net = CongestNet(g)
        out = []
        for v in range(4):
            for u in g.neighbors(v):
                out.append((v, u, v))
        led = CostLedger()
        inbox = congest_step(net, out, led)
        assert len(inbox) == 8
        assert led.total() == 1

    def test_double_word_rejected(self):
        g = generate(GenSpec(kind="path", n=3))
        led = CostLedger()
        with pytest.raises(ValueError, match="two words"):
            congest_step(CongestNet(g), [(0, 1, 1), (0, 1, 2)], led)

    def test_non_edge_rejected(self):
        g = generate(GenSpec(kind="path", n=3))
        led = CostLedger()
        with pytest.raises(ValueError, match="no edge"):
            congest_step(CongestNet(g), [(0, 2, 1)], led)
