"""Classical K_p listing in the Congested Clique.

The protocol is the Dolev-Lenzen-Peled partition (DISC 2012): nodes are
split into s = ceil(n^(1/p)) contiguous groups; each size-p multiset of
group indices is owned by one node (round-robin over the lexicographic
multiset order).  The owner collects the edges among its groups via Lenzen
routing and lists every p-clique whose group signature (the multiset of
its members' groups) is its multiset, so each p-clique has exactly one
owner and the union over owners is exactly the set of p-cliques.

The simulator does not replay the partition owner by owner.  list_kp
charges the route and returns a CliqueInventory that lists nothing until
a view asks for its cliques; then it lists every p-clique once with one
ordered bitmask DFS over v1 < v2 < ... < vp (Chiba-Nishizeki, SIAM J.
Comput. 1985) and derives a clique's owner from its group signature.  A
partial clique that still needs r nodes is dropped when fewer than r of
its candidates (common neighbours above its last node) remain: every
later member is one of them, so the prune never loses a clique.

Detection never lists.  Its questions are whether constrained cliques
exist (which nodes lie on a K_{p+1}; which nodes form a K_{p+t} with one
node of each chosen part and some K_p), and clique_reach answers them
with one early-exit search per candidate node.

The route is charged as Lenzen routing (PODC 2013): a worst per-node load
of L words costs ceil(L / n) rounds (listing_route_rounds, the one listing
charge, made by list_kp and by every detector handed an inventory).  The
load uses the idealized exact-divisibility parameters (group size
n^(1-1/p), multiset count n/p!) scaled by graph density, so ledgers are
deterministic functions of (n, m, p); see the project notes on cost
accounting in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graph import CliqueSet, Graph, _bits, density, triangle_nodes
from .intmath import ceil_div, ceil_root, ceil_scaled_pow
from .netsim import CostLedger


@dataclass(frozen=True)
class TupleAssignment:
    """Group partition plus the multiset-of-groups ownership map."""

    n: int
    p: int
    s: int
    groups: Tuple[range, ...]
    multisets: Tuple[Tuple[int, ...], ...]

    def owner(self, rank: int) -> int:
        return rank % self.n


class CliqueInventory:
    """The p-cliques of one graph, listed only when a view asks for them.

    The inventory holds its graph's adjacency masks and p.  The detection
    strategies never list: they ask reach() (and clique_reach) whether
    constrained cliques exist.  The views below (member_masks, commons,
    mask_list, owners, per_node, union, dump) list every p-clique once, on
    the first request, and keep the result: entry i is the clique whose
    members are the set bits of member_masks[i], and commons[i] is the
    bitmask of nodes adjacent to every member.  Each entry is owned by the
    owner of its group signature under the list_kp partition.
    """

    def __init__(self, adj: List[int], p: int, assignment: TupleAssignment):
        self.adj = adj
        self.p = p
        self.n = len(adj)
        self._assignment = assignment
        self._listed: Optional[Tuple[List[int], List[int]]] = None
        self._reach: Optional[int] = None

    def check_graph(self, graph: Graph) -> None:
        """Raise ValueError unless the inventory was made from this graph's edges."""
        if self.adj != graph.adj_masks():
            raise ValueError("the clique inventory belongs to another graph")

    def _listing(self) -> Tuple[List[int], List[int]]:
        if self._listed is None:
            member_masks: List[int] = []
            commons: List[int] = []
            _list_cliques(self.adj, self.p, member_masks, commons)
            self._listed = (member_masks, commons)
        return self._listed

    @property
    def member_masks(self) -> List[int]:
        return self._listing()[0]

    @property
    def commons(self) -> List[int]:
        return self._listing()[1]

    def mask_list(self, graph: Graph) -> List[int]:
        """Common-neighbourhood masks, one per clique of `graph`."""
        self.check_graph(graph)
        return self.commons

    def owners(self) -> List[int]:
        """The owner of each entry, in entry order."""
        ta = self._assignment
        size = len(ta.groups[0])  # group i holds nodes i*size .. (i+1)*size - 1
        by_signature = {ms: ta.owner(rank) for rank, ms in enumerate(ta.multisets)}
        return [by_signature[tuple(v // size for v in _bits(mask))]
                for mask in self.member_masks]

    @property
    def per_node(self) -> Dict[int, Set[Tuple[int, ...]]]:
        """owner -> its listed cliques, as ascending node tuples."""
        out: Dict[int, Set[Tuple[int, ...]]] = {}
        for owner, mask in zip(self.owners(), self.member_masks):
            out.setdefault(owner, set()).add(tuple(_bits(mask)))
        return out

    def reach(self) -> int:
        """Every node that lies on some (p+1)-clique: the OR of the common masks.

        Answered by clique_reach without listing, once per inventory, so
        the strategies that share one inventory share its reach.
        """
        if self._reach is None:
            self._reach = clique_reach(self.adj, (), self.p, (1 << self.n) - 1)
        return self._reach

    def union(self) -> CliqueSet:
        return CliqueSet(p=self.p, members=frozenset(tuple(_bits(mask))
                                                     for mask in self.member_masks))

    def dump(self) -> str:
        """Debug format: one line 'v: u1 u2 ... up' per listed clique, sorted."""
        per_node = self.per_node
        lines = []
        for v in sorted(per_node):
            for clique in sorted(per_node[v]):
                lines.append(f"{v}: " + " ".join(str(u) for u in clique))
        return "\n".join(lines) + ("\n" if lines else "")


def tuple_assignment(n: int, p: int) -> TupleAssignment:
    """Deterministic group partition and multiset ownership for K_p listing."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    s = ceil_root(n, p)
    size = ceil_div(n, s)
    groups = tuple(range(i * size, min((i + 1) * size, n)) for i in range(s))
    multisets = tuple(combinations_with_replacement(range(s), p))
    return TupleAssignment(n=n, p=p, s=s, groups=groups, multisets=multisets)


def listing_route_load(n: int, m: int, p: int) -> int:
    """Worst per-owner receive load for the listing route, in words.

    Idealized load: (multisets per node) * p * g^2 * rho with group size
    g = n^(1-1/p) and rho the graph density.
    """
    if m <= 0 or n < 2:
        return 0
    s = ceil_root(n, p)
    ms_per_node = ceil_div(comb(s + p - 1, p), n)
    return ceil_scaled_pow(n, Fraction(2 * (p - 1), p), ms_per_node * p * density(n, m))


def listing_route_rounds(n: int, m: int, p: int) -> int:
    """Lenzen rounds for the listing route: ceil(load / n)."""
    load = listing_route_load(n, m, p)
    return ceil_div(load, n) if load else 0


def list_kp(graph: Graph, p: int, ledger: CostLedger) -> CliqueInventory:
    """Charge the listing route; the inventory's union equals oracle_cliques(G, p).

    The inventory lists when a view first asks for its cliques, not here.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    ledger.charge("kp-listing", "clique", "route", listing_route_rounds(graph.n, graph.m, p))
    return CliqueInventory(graph.adj_masks(), p, tuple_assignment(graph.n, p))


def _list_cliques(
    adj: List[int],
    p: int,
    member_masks: List[int],
    commons: List[int],
) -> None:
    """Append the member and common masks of every p-clique, once each.

    A partial clique carries its member mask, its common mask (the nodes
    adjacent to every member) and its candidates (the common nodes above
    its last member); each clique is reached through its members in
    ascending order only.  A child that still needs r nodes after taking
    one candidate is entered only if it keeps at least r candidates.
    """
    add_member, add_common = member_masks.append, commons.append

    def rec(chosen: int, common: int, cand: int, need: int) -> None:
        # need >= 2 nodes still to take, all from cand
        if need == 2:
            while cand:
                low = cand & -cand
                cand ^= low
                adj_v = adj[low.bit_length() - 1]
                last = cand & adj_v
                if last:
                    pair, pair_common = chosen | low, common & adj_v
                    while last:
                        top = last & -last
                        last ^= top
                        add_member(pair | top)
                        add_common(pair_common & adj[top.bit_length() - 1])
            return
        need -= 1
        while cand:
            low = cand & -cand
            cand ^= low
            adj_v = adj[low.bit_length() - 1]
            nxt = cand & adj_v  # cand now holds only nodes above low
            if nxt.bit_count() >= need:
                rec(chosen | low, common & adj_v, nxt, need)

    full = (1 << len(adj)) - 1
    rec(0, full, full, p)
    del rec  # it refers to itself; freeing it here keeps listings out of the cyclic GC


def clique_reach(adj: Sequence[int], parts: Sequence[int], p: int, ceiling: int) -> int:
    """The nodes x that some clique of k + p + 1 nodes holds with one node
    of each of the k masks in parts and a p-clique: x, w_1 in parts[0], ...,
    w_k in parts[k-1] and the p-clique are distinct and pairwise adjacent.

    With no parts this is every node on a (p+1)-clique, the OR of the
    inventory's common masks; with parts it is the OR of the common masks
    of the one-node extensions drawn from each part in turn.  Every node of
    such a clique lies on a (p+1)-clique, so the search stays inside
    ceiling, which must hold all of those nodes (the no-part reach, or
    every node).

    Two exact prefilters bound the x to search: x is adjacent to some node
    of ceiling & part for every part (its w), and with no parts and p >= 2
    x lies on a triangle.  Each x is then one early-exit search: draw w_i
    from the common neighbours and parts[i], then look for a p-clique in
    what stays common (_has_clique).  A branch whose common mask holds
    fewer nodes than it still needs is dropped.  Nothing is listed.
    """
    k = len(parts)
    xs = ceiling
    for part in parts:
        near = 0
        cand = ceiling & part
        while cand:
            low = cand & -cand
            cand ^= low
            near |= adj[low.bit_length() - 1]
        xs &= near
    if not parts and p >= 2:
        xs &= triangle_nodes(adj)

    def extends(common: int, i: int) -> bool:
        # common: the nodes of ceiling adjacent to x and w_1..w_i
        if i == k:
            return _has_clique(adj, common, p)
        need = p + k - i - 1  # nodes still to take once w_{i+1} is chosen
        cand = common & parts[i]
        while cand:
            low = cand & -cand
            cand ^= low
            nxt = common & adj[low.bit_length() - 1]
            if nxt.bit_count() >= need and extends(nxt, i + 1):
                return True
        return False

    reach = 0
    while xs:
        low = xs & -xs
        xs ^= low
        common = ceiling & adj[low.bit_length() - 1]
        if common.bit_count() >= p + k and extends(common, 0):
            reach |= low
    del extends  # it refers to itself; freeing it here keeps searches out of the cyclic GC
    return reach


def _has_clique(adj: Sequence[int], cand: int, need: int) -> bool:
    """True iff the nodes of cand hold a need-clique (need >= 1).

    Ordered DFS (Chiba-Nishizeki): a member is followed only by its
    neighbours above it in cand, and a node is tried only while enough
    nodes remain above it to complete the clique.
    """
    if need == 1:
        return cand != 0
    need -= 1  # nodes to take after the lowest member
    while cand.bit_count() > need:
        low = cand & -cand
        cand ^= low  # cand now holds only nodes above low
        nxt = cand & adj[low.bit_length() - 1]
        if need == 1:
            if nxt:
                return True
        elif nxt.bit_count() >= need and _has_clique(adj, nxt, need):
            return True
    return False
