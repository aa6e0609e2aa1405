"""Classical K_p listing in the Congested Clique.

Nodes are split into s = ceil(n^(1/p)) contiguous groups; each size-p
multiset of group indices is owned by one node (round-robin over the
lexicographic multiset order).  The owner collects the edges among its
groups via Lenzen routing and enumerates every p-clique whose group
signature matches, so the union over owners is exactly the set of
p-cliques.

Round charges use the idealized exact-divisibility parameters (group size
n^(1-1/p), multiset count n/p!) scaled by graph density, so ledgers are
deterministic functions of (n, m, p); see the project notes on cost
accounting in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .graph import CliqueSet, Graph, _bits, range_mask
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

    def multisets_per_node(self) -> int:
        return ceil_div(len(self.multisets), self.n)


class CliqueInventory:
    """Listed p-cliques as flat parallel lists of bitmasks.

    Entry i is the clique whose members are the set bits of
    member_masks[i], listed by node owners[i]; commons[i] is the bitmask of
    nodes adjacent to every member, or None for a clique added without one.
    Extension algorithms need only the common masks; member tuples are
    decoded on demand, for dumps and tests.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.owners: List[int] = []
        self.member_masks: List[int] = []
        self.commons: List[Optional[int]] = []
        # list_kp lists every clique once, under the owner of its group
        # signature; add() may list a clique under several owners
        self._one_entry_per_clique = True

    def add(self, node: int, clique: Tuple[int, ...], common: Optional[int] = None) -> None:
        """Give node the clique; the views treat a repeated entry as one."""
        mask = 0
        for v in clique:
            mask |= 1 << v
        self.owners.append(node)
        self.member_masks.append(mask)
        self.commons.append(common)
        self._one_entry_per_clique = False

    @property
    def per_node(self) -> Dict[int, Set[Tuple[int, ...]]]:
        """owner -> its listed cliques, as ascending node tuples."""
        out: Dict[int, Set[Tuple[int, ...]]] = {}
        for owner, mask in zip(self.owners, self.member_masks):
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
        if self._one_entry_per_clique:
            return self.commons
        return list(self._common_by_member_mask(graph).values())

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
    rho = Fraction(2 * m, n * (n - 1))
    s = ceil_root(n, p)
    ms_per_node = ceil_div(comb(s + p - 1, p), n)
    return ceil_scaled_pow(n, Fraction(2 * (p - 1), p), ms_per_node * p * rho)


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
    group_masks = [range_mask(g) for g in ta.groups]
    transfer = None
    if knowledge is not None:
        # each owner learns every slot inside its multisets' group union
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
    adj = graph.adj_masks()
    full = (1 << n) - 1
    for rank, ms in enumerate(ta.multisets):
        before = len(inv.member_masks)
        _list_multiset([group_masks[gi] for gi in ms],
                       [i > 0 and ms[i - 1] == ms[i] for i in range(p)],
                       adj, full, inv.member_masks, inv.commons)
        inv.owners.extend([ta.owner(rank)] * (len(inv.member_masks) - before))
    return inv


def _list_multiset(
    slot_masks: List[int],
    repeats: List[bool],
    adj: List[int],
    full: int,
    member_masks: List[int],
    commons: List[int],
) -> None:
    """Append the member and common masks of every clique of one multiset.

    Slot i takes one node of the group with mask slot_masks[i].  Where
    slot i repeats the previous slot's group (repeats[i]) its node must be
    higher, so each clique with this group signature is listed once.  The
    common mask is the candidate intersection after the last slot.
    """
    last = len(slot_masks) - 1
    add_member, add_common = member_masks.append, commons.append

    def rec(slot: int, chosen: int, common: int, prev: int) -> None:
        cand = common & slot_masks[slot]
        if repeats[slot]:
            cand &= -(prev << 1)  # nodes above the previous slot's node
        if slot == last:
            while cand:
                low = cand & -cand
                cand ^= low
                add_member(chosen | low)
                add_common(common & adj[low.bit_length() - 1])
            return
        nxt_mask = slot_masks[slot + 1]
        while cand:
            low = cand & -cand
            cand ^= low
            nxt = common & adj[low.bit_length() - 1]
            if nxt & nxt_mask:
                rec(slot + 1, chosen | low, nxt, low)

    rec(0, 0, full, 0)
