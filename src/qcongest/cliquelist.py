"""Classical K_p listing in the Congested Clique.

The protocol is the Dolev-Lenzen-Peled partition (DISC 2012): nodes are
split into s = ceil(n^(1/p)) contiguous groups; each size-p multiset of
group indices is owned by one node (round-robin over the lexicographic
multiset order).  The owner collects the edges among its groups via Lenzen
routing and lists every p-clique whose group signature (the multiset of
its members' groups) is its multiset, so each p-clique has exactly one
owner and the union over owners is exactly the set of p-cliques.

The simulator does not replay the partition owner by owner.  It lists
every p-clique once with one ordered bitmask DFS over v1 < v2 < ... < vp
(Chiba-Nishizeki, SIAM J. Comput. 1985) and derives a clique's owner from
its group signature when a view asks for it.  A partial clique that still
needs r nodes is dropped when fewer than r of its candidates (common
neighbours above its last node) remain: every later member is one of
them, so the prune never loses a clique.

Round charges use the idealized exact-divisibility parameters (group size
n^(1-1/p), multiset count n/p!) scaled by graph density, so ledgers are
deterministic functions of (n, m, p); see the project notes on cost
accounting in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import comb
from operator import or_
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .graph import CliqueSet, Graph, _bits, density, range_mask
from .intmath import ceil_div, ceil_root, ceil_scaled_pow
from .netsim import CostLedger, KnowledgeState, RoutingDemand, route_lenzen


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
    """Listed p-cliques as flat parallel lists of bitmasks.

    Entry i is the clique whose members are the set bits of
    member_masks[i]; commons[i] is the bitmask of nodes adjacent to every
    member, or None for a clique added without one.  The entries list_kp
    makes come first; each is owned by the owner of its group signature,
    which the views derive.  Each entry add() appends later keeps the owner
    it was given.  Extension algorithms need only the common masks and
    their OR (reach); member tuples and owners are decoded on demand, for
    dumps and tests.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.member_masks: List[int] = []
        self.commons: List[Optional[int]] = []
        # set by list_kp, whose entries lead and are owned by group
        # signature under this assignment; add() records its owners
        self._assignment: Optional[TupleAssignment] = None
        self._added_owners: List[int] = []
        self._reach: Optional[int] = None

    def add(self, node: int, clique: Tuple[int, ...], common: Optional[int] = None) -> None:
        """Give node the clique; the views treat a repeated entry as one."""
        mask = 0
        for v in clique:
            mask |= 1 << v
        self.member_masks.append(mask)
        self.commons.append(common)
        self._added_owners.append(node)
        self._reach = None

    def owners(self) -> List[int]:
        """The owner of each entry, in entry order."""
        listed = len(self.member_masks) - len(self._added_owners)
        out: List[int] = []
        if listed:
            ta = self._assignment
            size = len(ta.groups[0])  # group i holds nodes i*size .. (i+1)*size - 1
            by_signature = {ms: ta.owner(rank) for rank, ms in enumerate(ta.multisets)}
            out = [by_signature[tuple(v // size for v in _bits(mask))]
                   for mask in self.member_masks[:listed]]
        return out + self._added_owners

    @property
    def per_node(self) -> Dict[int, Set[Tuple[int, ...]]]:
        """owner -> its listed cliques, as ascending node tuples."""
        out: Dict[int, Set[Tuple[int, ...]]] = {}
        for owner, mask in zip(self.owners(), self.member_masks):
            out.setdefault(owner, set()).add(tuple(_bits(mask)))
        return out

    def _common_by_member_mask(self, graph) -> Dict[int, int]:
        """member mask -> common mask, one entry per distinct clique."""
        out: Dict[int, Optional[int]] = {}
        for mask, common in zip(self.member_masks, self.commons):
            if out.get(mask) is None:
                out[mask] = common
        full = (1 << self.n) - 1
        for mask, common in out.items():
            if common is None:
                common = full
                for v in _bits(mask):
                    common &= graph.adj_mask(v)
                out[mask] = common
        return out

    def common_masks(self, graph) -> Dict[Tuple[int, ...], int]:
        """clique -> bitmask of nodes adjacent to every member."""
        return {tuple(_bits(mask)): common
                for mask, common in self._common_by_member_mask(graph).items()}

    def mask_list(self, graph) -> List[int]:
        """Common-neighborhood masks of the union, one per distinct clique."""
        if not self._added_owners:
            return self.commons  # list_kp lists every clique once
        return list(self._common_by_member_mask(graph).values())

    def reach(self, graph) -> int:
        """OR of the common masks: every node that extends some clique by one.

        Computed once and kept until add() changes the inventory, so the
        strategies that share one inventory share its reach.
        """
        if self._reach is None:
            self._reach = reduce(or_, self.mask_list(graph), 0)
        return self._reach

    def union(self) -> CliqueSet:
        return CliqueSet(p=self.p, members=frozenset(self.union_members()))

    def union_members(self) -> Set[Tuple[int, ...]]:
        return {tuple(_bits(mask)) for mask in set(self.member_masks)}

    @classmethod
    def from_cliques(cls, p: int, n: int, cliques: Iterable[Tuple[int, ...]],
                     node: int = 0) -> "CliqueInventory":
        inv = cls(p, n)
        for c in cliques:
            inv.add(node, tuple(sorted(c)))
        return inv

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


def list_kp(
    graph: Graph,
    p: int,
    ledger: CostLedger,
    phase: str = "kp-listing",
    knowledge: Optional[KnowledgeState] = None,
) -> CliqueInventory:
    """List all p-cliques; union over owners equals oracle_cliques(G, p)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    n = graph.n
    ta = tuple_assignment(n, p)
    transfer = None
    if knowledge is not None:
        # each owner learns every slot inside its multisets' group union
        group_masks = [range_mask(g) for g in ta.groups]
        transfer = []
        for rank, ms in enumerate(ta.multisets):
            union = 0
            for gi in set(ms):
                union |= group_masks[gi]
            transfer.append((ta.owner(rank), union, union))
    demand = RoutingDemand.single_load(listing_route_load(n, graph.m, p))
    route_lenzen(ledger, demand, n, phase=phase, knowledge=knowledge,
                 transfer=transfer)
    inv = CliqueInventory(p, n)
    _list_cliques(graph.adj_masks(), p, inv.member_masks, inv.commons)
    inv._assignment = ta
    return inv


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
