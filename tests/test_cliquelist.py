"""K_p listing: tuple assignment, completeness, soundness, cost scaling."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongest import cliquelist
from qcongest.cli import fit_slope
from qcongest.cliquelist import list_kp, listing_route_rounds, tuple_assignment
from qcongest.graph import GenSpec, Graph, bits, generate, oracle_cliques
from qcongest.netsim import CostLedger


def gnp(n, p, seed):
    return generate(GenSpec(kind="gnp", n=n, edge_prob=p, seed=seed))


def dumped(inv):
    """(owner, members) of each line of inv.dump(), in dump order."""
    return [(int(owner), tuple(int(v) for v in nodes.split()))
            for owner, nodes in (line.split(": ") for line in inv.dump().splitlines())]


def listed(inv, graph):
    """The listing as the views show it: the sorted (owner, members) pairs
    of the dump and the sorted common masks."""
    return sorted(dumped(inv)), sorted(inv.mask_list(graph))


def triples_view(triples):
    """listed() of (owner, member mask, common mask) triples."""
    return (sorted((owner, tuple(bits(members))) for owner, members, _ in triples),
            sorted(common for _, _, common in triples))


class TestTupleAssignment:
    def test_n16_p2(self):
        ta = tuple_assignment(16, 2)
        assert ta.s == 4
        assert ta.groups == (0xF, 0xF0, 0xF00, 0xF000)
        assert len(ta.multisets) == comb(5, 2) == 10
        assert [ta.owner(r) for r in range(10)] == list(range(10))

    def test_n8_p3(self):
        ta = tuple_assignment(8, 3)
        assert ta.s == 2
        assert len(ta.multisets) == comb(4, 3) == 4

    def test_lexicographic_owner(self):
        ta = tuple_assignment(16, 2)
        rank = ta.multisets.index((1, 3))
        assert ta.owner(rank) == rank == 6

    def test_groups_cover_disjointly(self):
        for n, p in ((16, 2), (33, 3), (64, 4), (100, 5)):
            ta = tuple_assignment(n, p)
            seen = sorted(v for g in ta.groups for v in bits(g))
            assert seen == list(range(n))

    def test_groups_are_the_masks_of_the_id_ranges(self):
        # group i: the ids i*size .. (i+1)*size - 1 below n, size = ceil(n / s),
        # as the range-built partition had them
        for p in (2, 3, 4, 5):
            for n in range(0, 300):
                ta = tuple_assignment(n, p)
                size = -(-n // ta.s)
                want = tuple(sum(1 << v for v in range(i * size, min((i + 1) * size, n)))
                             for i in range(ta.s))
                assert ta.groups == want, (n, p)

    def test_ownership_bound(self):
        for n, p in ((16, 2), (32, 3), (64, 4)):
            ta = tuple_assignment(n, p)
            counts = {}
            for rank in range(len(ta.multisets)):
                counts[ta.owner(rank)] = counts.get(ta.owner(rank), 0) + 1
            bound = -(-len(ta.multisets) // n)
            assert max(counts.values()) <= bound


class TestListKp:
    def test_complete_graph_edges(self):
        g = generate(GenSpec(kind="complete", n=16))
        led = CostLedger()
        inv = list_kp(g, 2, led)
        assert len(inv.union()) == 120

    def test_matches_oracle(self):
        g = gnp(32, 0.3, 5)
        inv = list_kp(g, 3, CostLedger())
        assert inv.union().members == oracle_cliques(g, 3).members

    def test_empty_graph_free(self):
        g = generate(GenSpec(kind="empty", n=32))
        led = CostLedger()
        inv = list_kp(g, 3, led)
        assert len(inv.union()) == 0
        assert led.total() == 0

    @pytest.mark.parametrize("n,p,prob,seed", [
        (24, 2, 0.4, 1), (40, 3, 0.3, 2), (64, 4, 0.25, 3), (33, 3, 0.5, 4),
    ])
    def test_completeness_and_soundness(self, n, p, prob, seed):
        g = gnp(n, prob, seed)
        inv = list_kp(g, p, CostLedger())
        union = inv.union().members
        assert union == oracle_cliques(g, p).members
        for clique in union:
            assert all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))

    def test_exactly_one_owner_per_clique(self):
        g = gnp(48, 0.35, 9)
        inv = list_kp(g, 3, CostLedger())
        cliques = [clique for _, clique in dumped(inv)]
        assert cliques and len(set(cliques)) == len(cliques)
        assert set(cliques) == inv.union().members

    @pytest.mark.parametrize("n,p,prob,seed", [
        (20, 2, 0.5, 11), (37, 3, 0.4, 12), (50, 4, 0.5, 13), (64, 3, 0.2, 14),
    ])
    def test_entries_match_oracle_and_signatures(self, n, p, prob, seed):
        # every (owner, members, common) entry follows from the oracle's
        # cliques, the owner of their group signature, and the adjacency
        g = gnp(n, prob, seed)
        ta = tuple_assignment(n, p)
        group_of = {v: gi for gi, grp in enumerate(ta.groups) for v in bits(grp)}
        rank = {ms: r for r, ms in enumerate(ta.multisets)}
        expected = set()
        for clique in oracle_cliques(g, p).members:
            common = (1 << n) - 1
            for v in clique:
                common &= g.adj[v]
            owner = ta.owner(rank[tuple(sorted(group_of[v] for v in clique))])
            expected.add((owner, sum(1 << v for v in clique), common))
        inv = list_kp(g, p, CostLedger())
        assert listed(inv, g) == triples_view(expected)

    def test_dump_format(self):
        g = generate(GenSpec(kind="complete", n=4))
        inv = list_kp(g, 3, CostLedger())
        dump = inv.dump()
        for line in dump.splitlines():
            owner, nodes = line.split(": ")
            assert len(nodes.split()) == 3


def reference_listing(graph, p):
    """(owner, members, common) per clique, listed owner by owner.

    The Dolev-Lenzen-Peled partition walked literally: for each multiset
    of groups, in rank order, one DFS with slot i drawn from the i-th
    group, a repeated group taking a higher node than the previous slot.
    """
    n = graph.n
    ta = tuple_assignment(n, p)
    adj = graph.adj
    out = []

    def rec(slots, owner, slot, chosen, common, prev):
        cand = common & slots[slot][0]
        if slots[slot][1]:
            cand &= -(prev << 1)
        while cand:
            low = cand & -cand
            cand ^= low
            nxt = common & adj[low.bit_length() - 1]
            if slot == p - 1:
                out.append((owner, chosen | low, nxt))
            else:
                rec(slots, owner, slot + 1, chosen | low, nxt, low)

    for rank, ms in enumerate(ta.multisets):
        slots = [(ta.groups[gi], i > 0 and ms[i - 1] == gi)
                 for i, gi in enumerate(ms)]
        rec(slots, ta.owner(rank), 0, 0, (1 << n) - 1, 0)
    return sorted(out)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=130))
    kind = draw(st.sampled_from(["random", "empty", "complete"]))
    if kind == "empty":
        return Graph(n, [])
    if kind == "complete":
        n = min(n, 16)  # K_16 already holds 8008 6-cliques
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    # dense enough for 6-cliques on small n, sparse enough to list at n = 130
    prob = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9] if n <= 24 else [0.05, 0.2, 0.4]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return generate(GenSpec(kind="gnp", n=n, edge_prob=prob, seed=seed))


class TestListingMatchesPartitionWalk:
    @settings(max_examples=120, deadline=None)
    @given(graph=graphs(), p=st.integers(min_value=2, max_value=6))
    def test_same_triples_as_per_multiset_listing(self, graph, p):
        if graph.m > 20 * graph.n and p >= 4:
            p = 3  # dense large graphs hold too many 4..6-cliques to list here
        inv = list_kp(graph, p, CostLedger())
        assert listed(inv, graph) == triples_view(reference_listing(graph, p))

    @pytest.mark.parametrize("n,p", [(3, 2), (7, 3), (15, 4), (24, 5), (20, 6), (5, 6)])
    def test_complete_graphs_below_2_to_the_p(self, n, p):
        g = generate(GenSpec(kind="complete", n=n))
        inv = list_kp(g, p, CostLedger())
        assert len(inv.union().members) == comb(n, p)
        assert listed(inv, g) == triples_view(reference_listing(g, p))


class TestLazyInventory:
    def test_views_list_once_and_reuse_the_listing(self, monkeypatch):
        calls = []
        real = cliquelist._list_cliques

        def counting(*args):
            calls.append(args[1])
            real(*args)

        monkeypatch.setattr(cliquelist, "_list_cliques", counting)
        g = gnp(40, 0.4, 21)
        inv = list_kp(g, 3, CostLedger())
        assert calls == []  # list_kp charges the route and lists nothing
        assert inv.reach() and calls == []
        commons = inv.mask_list(g)
        assert calls == [3]
        inv.union(), inv.dump()
        assert calls == [3]
        assert inv.mask_list(g) is commons
        assert inv.union().members == oracle_cliques(g, 3).members

    def test_reach_is_every_node_on_a_p_plus_1_clique(self):
        # K4 on 0..3 plus the edge 4-5, which no node extends
        g = Graph(6, [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(4, 5)])
        assert list_kp(g, 2, CostLedger()).reach() == 0b001111
        assert list_kp(g, 3, CostLedger()).reach() == 0b001111
        assert list_kp(g, 4, CostLedger()).reach() == 0

    def test_other_graph_rejected(self):
        g = gnp(30, 0.5, 1)
        inv = list_kp(g, 3, CostLedger())
        with pytest.raises(ValueError, match="another graph"):
            inv.mask_list(gnp(30, 0.5, 2))


class TestListingCost:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_slope_matches_one_minus_two_over_p(self, p):
        ns = [2**k for k in range(10, 17)]
        ys = [listing_route_rounds(n, n * (n - 1) // 2, p) for n in ns]
        slope = fit_slope(ns, ys)
        assert abs(slope - (1 - 2 / p)) < 0.05

    def test_density_scaling(self):
        n = 4096
        dense = listing_route_rounds(n, n * (n - 1) // 2, 3)
        sparse = listing_route_rounds(n, n, 3)
        assert sparse < dense
        assert listing_route_rounds(n, 0, 3) == 0
