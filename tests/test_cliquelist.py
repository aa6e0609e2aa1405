"""K_p listing: tuple assignment, completeness, soundness, cost scaling."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongest.cli import fit_slope
from qcongest.cliquelist import (
    CliqueInventory,
    list_kp,
    listing_route_rounds,
    tuple_assignment,
)
from qcongest.graph import GenSpec, Graph, generate, oracle_cliques, range_mask
from qcongest.netsim import CostLedger


def gnp(n, p, seed):
    return generate(GenSpec(kind="gnp", n=n, edge_prob=p, seed=seed))


class TestTupleAssignment:
    def test_n16_p2(self):
        ta = tuple_assignment(16, 2)
        assert ta.s == 4
        assert all(len(g) == 4 for g in ta.groups)
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
            seen = sorted(v for g in ta.groups for v in g)
            assert seen == list(range(n))

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
        counts = {}
        for node, cliques in inv.per_node.items():
            for c in cliques:
                counts[c] = counts.get(c, 0) + 1
        assert counts and set(counts.values()) == {1}

    @pytest.mark.parametrize("n,p,prob,seed", [
        (20, 2, 0.5, 11), (37, 3, 0.4, 12), (50, 4, 0.5, 13), (64, 3, 0.2, 14),
    ])
    def test_entries_match_oracle_and_signatures(self, n, p, prob, seed):
        # every (owner, members, common) entry follows from the oracle's
        # cliques, the owner of their group signature, and the adjacency
        g = gnp(n, prob, seed)
        ta = tuple_assignment(n, p)
        group_of = {v: gi for gi, grp in enumerate(ta.groups) for v in grp}
        rank = {ms: r for r, ms in enumerate(ta.multisets)}
        expected = set()
        for clique in oracle_cliques(g, p).members:
            common = (1 << n) - 1
            for v in clique:
                common &= g.adj_mask(v)
            owner = ta.owner(rank[tuple(sorted(group_of[v] for v in clique))])
            expected.add((owner, clique, common))
        inv = list_kp(g, p, CostLedger())
        commons = inv.common_masks(g)
        got = {(owner, c, commons[c]) for owner, cs in inv.per_node.items() for c in cs}
        assert got == expected
        assert sorted(inv.mask_list(g)) == sorted(c for _, _, c in expected)

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
    adj = [graph.adj_mask(v) for v in range(n)]
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
        slots = [(range_mask(ta.groups[gi]), i > 0 and ms[i - 1] == gi)
                 for i, gi in enumerate(ms)]
        rec(slots, ta.owner(rank), 0, 0, (1 << n) - 1, 0)
    return sorted(out)


def listed_triples(inv):
    return sorted(zip(inv.owners(), inv.member_masks, inv.commons))


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
        expected = reference_listing(graph, p)
        assert listed_triples(inv) == expected
        assert sorted(inv.mask_list(graph)) == sorted(c for _, _, c in expected)

    @pytest.mark.parametrize("n,p", [(3, 2), (7, 3), (15, 4), (24, 5), (20, 6), (5, 6)])
    def test_complete_graphs_below_2_to_the_p(self, n, p):
        g = generate(GenSpec(kind="complete", n=n))
        inv = list_kp(g, p, CostLedger())
        assert len(inv.member_masks) == comb(n, p)
        assert listed_triples(inv) == reference_listing(g, p)

    def test_added_entries_keep_their_owner(self):
        g = generate(GenSpec(kind="complete", n=5))
        inv = list_kp(g, 4, CostLedger())
        listed = inv.owners()
        inv.add(3, (0, 1, 2, 3))
        assert inv.owners() == listed + [3]
        assert (0, 1, 2, 3) in inv.per_node[3]


class TestHandBuiltInventory:
    def test_repeats_count_once(self):
        # K4 on 0..3: each view treats a repeated (node, clique) as one entry
        g = generate(GenSpec(kind="complete", n=4))
        inv = CliqueInventory.from_cliques(3, 4, [(0, 1, 2), (2, 1, 0), (1, 2, 3)])
        inv.add(1, (0, 1, 2))
        assert inv.per_node == {0: {(0, 1, 2), (1, 2, 3)}, 1: {(0, 1, 2)}}
        assert inv.union().members == {(0, 1, 2), (1, 2, 3)}
        assert inv.common_masks(g) == {(0, 1, 2): 0b1000, (1, 2, 3): 0b0001}
        assert sorted(inv.mask_list(g)) == [0b0001, 0b1000]
        assert inv.dump() == "0: 0 1 2\n0: 1 2 3\n1: 0 1 2\n"

    def test_reach_follows_add(self):
        # K4 on 0..3 plus the edge 4-5, which no node extends; the reach is
        # kept until add() changes the inventory
        g = Graph(6, [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(4, 5)])
        inv = list_kp(g, 2, CostLedger())
        assert inv.reach(g) == 0b001111
        inv = CliqueInventory.from_cliques(3, 6, [(0, 1, 2)])
        assert inv.reach(g) == 0b001000
        inv.add(2, (1, 2, 3))
        assert inv.reach(g) == 0b001001
        assert CliqueInventory(3, 6).reach(g) == 0


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
