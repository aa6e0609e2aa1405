"""Round accounting for the Congested Clique and CONGEST models.

A ledger entry records rounds charged to one phase of a protocol.  The
clique model moves one word per ordered node pair per round; CONGEST moves
one word per directed graph edge per round.  Word capacity is
ceil(log2 n) bits, so one word carries a node id.

The detectors compute their charges from closed-form cost functions (the
Lenzen routing charge of the K_p listing lives in cliquelist) and hand the
rounds to a CostLedger.  The ledger is the whole record of a run: beside
its entries it counts what the run did without charging it (the queries
every search answered, and the cycle queries whose candidate patterns
were truncated, capped or dropped for congestion).  This module adds the
CONGEST leader convergecast (CongestNet, which reads the leader's
component mask and eccentricity from the graph's once-computed
Graph.leader_bfs()) and the hop-by-hop steps of the cycle protocols
(congest_step), the only place where payloads are materialized; a step
charges nothing, its detector charges the rounds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .graph import bits

KINDS = ("route", "broadcast", "converge", "quantum")
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
    """Append-only log of rounds charged per phase, plus the run's counters.

    `counts` holds "queries" (the queries answered over every search of
    the run, whether checked or settled without a check, as a cycle stage
    that cannot fire settles them) and, for cycle detection,
    "enumeration_truncated", "pattern_capped" and "congestion_dropped"
    (queries whose patterns were cut short), and
    "pattern_sampled" (queries with too many patterns for an exact
    detection probability, whose colourings were sampled).
    """

    def __init__(self) -> None:
        self.entries: List[LedgerEntry] = []
        self.counts: Counter[str] = Counter()

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

    The leader is node 0 by convention; aggregation happens along a BFS
    tree of the leader's component, whose node mask is `component`, and a
    one-word convergecast takes `eccentricity` rounds.  Both are read from
    graph.leader_bfs(), which the graph computes once and keeps, so a
    detection pays no BFS of its own.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self.component, self.eccentricity, _ = graph.leader_bfs()

    def require_reachable(self, nodes: int) -> None:
        bad = nodes & ~self.component
        if bad:
            raise RuntimeError(
                f"leader cannot aggregate: nodes {list(bits(bad))} are disconnected from node 0"
            )


def congest_step(
    graph, outboxes: Iterable[Tuple[int, int, object]]
) -> Dict[Tuple[int, int], object]:
    """Deliver at most one word per directed edge of graph, in one round.

    `outboxes` holds (sender, receiver, word) triples; the result maps
    (sender, receiver) to the delivered word.  The caller charges the rounds.
    """
    inboxes: Dict[Tuple[int, int], object] = {}
    for u, v, payload in outboxes:
        if not graph.has_edge(u, v):
            raise ValueError(f"no edge {u}-{v} to send on")
        if (u, v) in inboxes:
            raise ValueError(f"two words on directed edge ({u},{v}) in one step")
        inboxes[(u, v)] = payload
    return inboxes
