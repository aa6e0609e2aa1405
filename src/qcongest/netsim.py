"""Round accounting for the Congested Clique and CONGEST models.

A ledger entry records rounds charged to one phase of a protocol.  The
clique model moves one word per ordered node pair per round; CONGEST moves
one word per directed graph edge per round.  Word capacity is
ceil(log2 n) bits, so one word carries a node id.

The detectors compute their charges from closed-form cost functions (the
Lenzen routing charge of the K_p listing lives in cliquelist) and hand the
rounds to a CostLedger.  This module adds the CONGEST leader convergecast
(CongestNet) and the hop-by-hop steps of the cycle protocols
(congest_step), the only place where payloads are materialized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .intmath import ceil_div

KINDS = ("route", "broadcast", "converge", "quantum", "local")
MODELS = ("clique", "congest")


def word_capacity(n: int) -> int:
    """Bits per message word: ceil(log2 n), at least 1."""
    return max(1, (max(n, 2) - 1).bit_length())


@dataclass(frozen=True)
class LedgerEntry:
    phase: str
    model: str
    kind: str
    rounds: int


class CostLedger:
    """Append-only log of rounds charged per phase."""

    def __init__(self) -> None:
        self.entries: List[LedgerEntry] = []

    def charge(self, phase: str, model: str, kind: str, rounds: int) -> int:
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        self.entries.append(LedgerEntry(phase, model, kind, int(rounds)))
        return rounds

    def total(self) -> int:
        return sum(e.rounds for e in self.entries)

    def total_by_kind(self) -> Dict[str, int]:
        out = {k: 0 for k in KINDS}
        for e in self.entries:
            out[e.kind] += e.rounds
        return out


class CongestNet:
    """CONGEST instance: messages travel only along graph edges.

    The leader is node 0 by convention; aggregation happens along a
    precomputed BFS tree of the leader's component.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self.n = graph.n
        self.capacity = word_capacity(graph.n)
        self.leader = 0
        self.dist = self._bfs_from_leader()
        reach = [d for d in self.dist if d >= 0]
        self.eccentricity = max(reach) if reach else 0

    def _bfs_from_leader(self) -> List[int]:
        dist = [-1] * self.n
        dist[self.leader] = 0
        q = deque([self.leader])
        while q:
            v = q.popleft()
            for u in self.graph.neighbors(v):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    q.append(u)
        return dist

    def reachable(self, v: int) -> bool:
        return self.dist[v] >= 0

    def require_reachable(self, nodes: Iterable[int]) -> None:
        bad = [v for v in nodes if not self.reachable(v)]
        if bad:
            raise RuntimeError(
                f"leader cannot aggregate: nodes {bad} are disconnected from node 0"
            )

    def converge_cost(self, bits_per_node: int) -> int:
        if bits_per_node <= 0:
            return 0
        return self.eccentricity * ceil_div(bits_per_node, self.capacity)


def congest_step(
    net: CongestNet,
    outboxes: Iterable[Tuple[int, int, object]],
    ledger: CostLedger,
    phase: str = "congest-step",
) -> Dict[Tuple[int, int], object]:
    """Deliver at most one word per directed edge; charges exactly 1 round.

    `outboxes` holds (sender, receiver, word) triples; the result maps
    (sender, receiver) to the delivered word.
    """
    inboxes: Dict[Tuple[int, int], object] = {}
    for u, v, payload in outboxes:
        if not net.graph.has_edge(u, v):
            raise ValueError(f"no edge {u}-{v} to send on")
        if (u, v) in inboxes:
            raise ValueError(f"two words on directed edge ({u},{v}) in one step")
        inboxes[(u, v)] = payload
    ledger.charge(phase, "congest", "route", 1)
    return inboxes
