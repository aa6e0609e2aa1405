"""Simple undirected graphs, deterministic generators, and brute-force oracles.

A graph's adjacency is one tuple of per-node bitmasks (Graph.adj); every
layer of the simulator reads it, and bits/mask_of convert between node
masks and ascending node ids, and neighbours/ball are the one BFS step and walk.

The oracles are the ground truth every detection algorithm is checked
against; they are desk-scale tools (clique enumeration refuses instances
whose estimated work exceeds 1e9 subsets).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

GEN_KINDS = ("gnp", "planted_clique", "planted_cycle", "complete", "path", "cycle", "empty")

ORACLE_WORK_CAP = 10**9

# the most nodes of a --gen spec or a graph file, checked before anything is allocated:
# a row reaches its highest neighbour, so a path on 2^16 nodes holds ~280 MiB (README)
MAX_NODES = 1 << 16

# the most edges a --gen spec may expect, checked before anything is allocated:
# generate peaks at about 190 bytes per edge of G(n, p) (README), so ~512 MiB
MAX_EDGES = (512 << 20) // 190


class GraphFormatError(ValueError):
    """Malformed edge-list input."""


class LeaderBfs(NamedTuple):
    """What one breadth-first pass over a graph finds: the node mask of
    node 0's component, node 0's eccentricity (its largest hop distance)
    and the number of connected components."""

    component: int
    eccentricity: int
    components: int


class Graph:
    """Immutable simple undirected graph on nodes 0..n-1.

    `adj` is the one adjacency: a tuple of per-node bitmasks, bit u of
    adj[v] set iff u-v is an edge.  A clique check is one AND, a degree is
    adj[v].bit_count(), and bits(adj[v]) lists the neighbours ascending.
    Three facts are stored lazily, computed on first use and kept, which
    is sound because the graph never changes: triangle_nodes(),
    leader_bfs(), which cycle_rank() reads too, and degree_batches(target)
    per target.  Each is an int or a tuple of ints, so no caller can change
    the stored value.
    """

    __slots__ = ("n", "adj", "m", "_triangle_nodes", "_leader_bfs", "_degree_batches")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = n
        masks = [0] * n
        count = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"node id out of range in edge ({u},{v})")
            if masks[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            count += 1
        self.adj = tuple(masks)
        self.m = count
        self._triangle_nodes: Optional[int] = None
        self._leader_bfs: Optional[LeaderBfs] = None
        self._degree_batches: Optional[Dict[int, Tuple[int, ...]]] = None

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u, mask in enumerate(self.adj) for v in bits(mask & ~((2 << u) - 1))]

    def degrees(self) -> List[int]:
        return [mask.bit_count() for mask in self.adj]

    def triangle_nodes(self) -> int:
        """Bitmask of the nodes that lie on some triangle.

        One pass over the edges u < v on first use, O(m) mask operations:
        the nodes adjacent to both ends of an edge are exactly the apexes
        of its triangles, so u adds adj[u] & neighbours(its higher nodes).
        """
        if self._triangle_nodes is None:
            adj, apex = self.adj, 0
            for u, adj_u in enumerate(adj):
                apex |= adj_u & neighbours(adj, adj_u >> (u + 1) << (u + 1))
            self._triangle_nodes = apex
        return self._triangle_nodes

    def leader_bfs(self) -> LeaderBfs:
        """Node 0's component and eccentricity, and the component count.

        One frontier-mask pass on first use, O(n + m) mask operations: a
        BFS from node 0 finds its component and eccentricity, then a BFS
        from the smallest unreached node, while one is left, counts each
        further component.  The empty graph has no component: its mask is 0.
        """
        if self._leader_bfs is None:
            adj = self.adj
            everyone = unreached = (1 << self.n) - 1
            component = eccentricity = components = 0
            while unreached:
                frontier = unreached & -unreached  # node 0, then the smallest unreached node
                hops = 0
                while frontier:
                    unreached &= ~frontier
                    frontier = neighbours(adj, frontier) & unreached
                    hops += 1
                if not components:
                    component, eccentricity = everyone & ~unreached, hops - 1
                components += 1
            self._leader_bfs = LeaderBfs(component, eccentricity, components)
        return self._leader_bfs

    def degree_batches(self, target: int) -> Tuple[int, ...]:
        """degree_batching(self.degrees(), target), computed once per target."""
        if self._degree_batches is None:
            self._degree_batches = {}
        got = self._degree_batches.get(target)
        if got is None:
            got = self._degree_batches[target] = degree_batching(self.degrees(), target)
        return got

    def cycle_rank(self) -> int:
        """m - n + c, c the number of components: the number of independent
        cycles, 0 exactly when the graph is a forest."""
        return self.m - self.n + self.leader_bfs().components

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def bits(mask: int) -> Iterator[int]:
    """The set bits of mask (the nodes of a node mask), ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def neighbours(adj: Sequence[int], mask: int) -> int:
    """The OR of the rows adj[v] of the nodes v of mask: the nodes adjacent
    to some node of mask."""
    near = 0
    while mask:
        low = mask & -mask
        near |= adj[low.bit_length() - 1]
        mask ^= low
    return near


def ball(adj: Sequence[int], start: int, radius: int, allowed: int) -> int:
    """The node mask start together with the nodes of allowed within radius
    hops of it along paths through allowed nodes (one BFS layer per hop)."""
    reach = frontier = start
    for _ in range(radius):
        frontier = neighbours(adj, frontier) & allowed & ~reach
        reach |= frontier
    return reach


def degree_batching(degrees: Sequence[int], target: int) -> Tuple[int, ...]:
    """Greedy fill in id order; a batch (a node mask) closes once its degree sum >= target."""
    if target < 1:
        raise ValueError("target must be >= 1")
    batches: List[int] = []
    start = acc = 0
    for v, d in enumerate(degrees):
        acc += d
        if acc >= target:
            batches.append((1 << v + 1) - (1 << start))
            start, acc = v + 1, 0
    if start < len(degrees) or not batches:
        batches.append((1 << len(degrees)) - (1 << start))
    return tuple(batches)


def mask_of(nodes: Iterable[int]) -> int:
    """The node mask of an iterable of node ids (the inverse of bits)."""
    mask = 0
    for v in nodes:
        mask |= 1 << v
    return mask


def density(n: int, m: int) -> Fraction:
    """Edge density m / C(n, 2) of an n-node graph with m edges (0 if n < 2)."""
    pairs = n * (n - 1) // 2
    return Fraction(m, pairs) if pairs else Fraction(0)


@dataclass(frozen=True)
class GenSpec:
    """Deterministic test-instance description: same spec, same edge set."""

    kind: str
    n: int
    edge_prob: float = 0.0
    planted_size: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in GEN_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0,1]")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.n > MAX_NODES:
            raise ValueError(f"n = {self.n} exceeds the {MAX_NODES}-node limit")
        if self.kind == "cycle" and self.n < 3:
            raise ValueError("cycle needs n >= 3")
        if self.kind.startswith("planted") and not 0 < self.planted_size <= self.n:
            raise ValueError("planted_size must be in 1..n")
        if self.kind == "planted_cycle" and self.planted_size < 3:
            raise ValueError("planted cycle needs planted_size >= 3")
        if self.expected_edges() > MAX_EDGES:
            raise ValueError(f"{self.kind} on n = {self.n} expects {self.expected_edges():.0f} "
                             f"edges, above the {MAX_EDGES}-edge limit")

    def expected_edges(self) -> float:
        """The edges generate builds: exact for complete, path, cycle and
        empty; for gnp and the planted kinds, the planted edges plus
        edge_prob times the remaining pairs."""
        n, s = self.n, self.planted_size
        pairs = n * (n - 1) // 2
        planted = {"planted_clique": s * (s - 1) // 2, "planted_cycle": s}.get(self.kind, 0)
        return {"complete": pairs, "path": max(n - 1, 0), "cycle": n, "empty": 0}.get(
            self.kind, planted + self.edge_prob * (pairs - planted))


@dataclass(frozen=True)
class CliqueSet:
    """Canonical set of p-cliques, each an ascending node tuple."""

    p: int
    members: FrozenSet[Tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.members)


def generate(spec: GenSpec) -> Graph:
    """Build the graph described by `spec`; a pure function of the spec.

    gnp and the planted kinds give each pair u < v that is not planted, in
    row order (u, then v), one coin of random.Random(spec.seed): an edge
    iff random() < edge_prob.  A planted pair takes no coin, and at
    edge_prob 0 no generator is made.

    The coins are drawn in bulk from that same stream, so every graph is
    the one a pair-by-pair random() scan builds.  This rests on CPython's
    stream contract: random() is ((a >> 5) * 2^26 + (b >> 6)) / 2^53 for
    the next two 32-bit Mersenne Twister words a and b, and
    getrandbits(64 k) returns the next 2k words, lowest word first.  One
    getrandbits call reads at most _PAIR_CHUNK = 2^13 coins (64 KiB of
    stream), and a coin comes up iff its 53-bit integer is below
    ceil(edge_prob * 2^53), which is exact.  The draw still takes O(n^2)
    time: every pair's coin is read.
    """
    spec.validate()
    n = spec.n
    planted: List[Tuple[int, int]] = []
    if spec.kind == "complete":
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if spec.kind == "empty":
        return Graph(n, [])
    if spec.kind == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if spec.kind == "cycle":
        return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    if spec.kind == "planted_clique":
        s = spec.planted_size
        planted = [(u, v) for u in range(s) for v in range(u + 1, s)]
    elif spec.kind == "planted_cycle":
        s = spec.planted_size
        planted = [(i, i + 1) for i in range(s - 1)] + [(0, s - 1)]
    return Graph(n, planted + _coin_pairs(n, spec.edge_prob, spec.seed, planted))


# coins per getrandbits call: each array of a chunk holds at most 64 KiB,
# below glibc's 128 KiB mmap threshold, so the heap reuses its buffers
_PAIR_CHUNK = 1 << 13


def _coin_pairs(n: int, prob: float, seed: int,
                planted: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The pairs u < v, not planted, whose coin random() < prob comes up
    (see generate); the coins are read _PAIR_CHUNK at a time."""
    threshold = ceil(prob * 2**53)
    if threshold == 0:
        return []
    rng = random.Random(seed)
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # index of pair (u, u + 1) in row order
    skip = np.array(sorted(u * (2 * n - u - 1) // 2 + v - u - 1 for u, v in planted),
                    dtype=np.int64)
    skip -= np.arange(len(skip), dtype=np.int64)  # the coin that each planted pair precedes
    coins = n * (n - 1) // 2 - len(planted)
    hits = [np.empty(0, dtype=np.int64)]
    for first in range(0, coins, _PAIR_CHUNK):
        k = min(_PAIR_CHUNK, coins - first)
        words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4")
        x = (words[0::2] >> 5).astype(np.uint64) << 26 | words[1::2] >> 6
        hits.append(np.flatnonzero(x < np.uint64(threshold)) + first)
    coin = np.concatenate(hits)
    pair = coin + np.searchsorted(skip, coin, side="right")
    u = np.searchsorted(starts, pair, side="right") - 1
    return list(zip(u.tolist(), (pair - starts[u] + u + 1).tolist()))


def load_graph(path: str) -> Graph:
    """Read the edge-list format: header "n m", then m lines "u v", u < v."""
    n = m = None
    edges: List[Tuple[int, int]] = []
    seen_mask: List[int] = []
    # surrogateescape keeps the line breaks of utf-8 reading; a byte that is
    # not utf-8 decodes to a lone surrogate, which encode() refuses
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise GraphFormatError(f"line {lineno}: not utf-8 text") from None
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2:
                    raise GraphFormatError(f"line {lineno}: header must be 'n m'")
                try:
                    n, m = int(parts[0]), int(parts[1])
                except ValueError:
                    raise GraphFormatError(f"line {lineno}: header must be 'n m'") from None
                if n < 0 or m < 0:
                    raise GraphFormatError(f"line {lineno}: negative header values")
                if n > MAX_NODES:
                    raise GraphFormatError(
                        f"line {lineno}: n = {n} exceeds the {MAX_NODES}-node limit")
                seen_mask = [0] * max(n, 1)
                continue
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'u v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: expected integer ids") from None
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at node {u}")
            if not (0 <= u < v < n):
                raise GraphFormatError(
                    f"line {lineno}: edge ({u},{v}) violates 0 <= u < v < n={n}"
                )
            if seen_mask[u] >> v & 1:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u},{v})")
            seen_mask[u] |= 1 << v
            edges.append((u, v))
    if n is None:
        raise GraphFormatError("missing header line 'n m'")
    if len(edges) != m:
        raise GraphFormatError(f"header promised {m} edges, found {len(edges)}")
    return Graph(n, edges)


def save_graph(graph: Graph, path: str) -> None:
    """Write the bit-exact edge-list format (edges sorted lexicographically)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def _check_oracle_cap(n: int, p: int) -> None:
    if comb(n, p) > ORACLE_WORK_CAP:
        raise ValueError(
            f"oracle refuses: C({n},{p}) = {comb(n, p)} exceeds the {ORACLE_WORK_CAP:.0e} work cap"
        )


def iter_cliques(graph: Graph, p: int, within: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """Yield all p-cliques as ascending tuples (backtracking enumeration),
    only those inside the node mask `within` when one is given."""
    if p < 1 or p > graph.n:
        return
    adj = graph.adj

    def rec(chosen: Tuple[int, ...], cand: int) -> Iterator[Tuple[int, ...]]:
        if len(chosen) == p:
            yield chosen
            return
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            # nodes below v stay excluded: ascending order kills duplicates
            yield from rec(chosen + (v,), cand & adj[v])

    yield from rec((), (1 << graph.n) - 1 if within is None else within)


def oracle_cliques(graph: Graph, p: int) -> CliqueSet:
    """Exactly the p-cliques of the graph. Pre: 2 <= p <= n."""
    if not 2 <= p <= graph.n:
        raise ValueError(f"need 2 <= p <= n, got p={p}, n={graph.n}")
    _check_oracle_cap(graph.n, p)
    return CliqueSet(p=p, members=frozenset(iter_cliques(graph, p)))


def oracle_has_clique(graph: Graph, p: int) -> bool:
    """Emptiness check with short-circuit (no work cap; prunes hard)."""
    return next(iter_cliques(graph, p), None) is not None


def oracle_has_extension(graph: Graph, inv, t: int) -> bool:
    """True iff some p-clique of the inventory inv (list_kp's) extends to a
    (p+t)-clique of the graph.

    Brute force: for each listed clique, look for a t-clique in the common
    neighborhood of its members.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    for members in inv.union().members:
        common = (1 << graph.n) - 1
        for v in members:
            common &= graph.adj[v]
        if next(iter_cliques(graph, t, common), None) is not None:
            return True
    return False


def oracle_has_cycle(graph: Graph, length: int) -> bool:
    """True iff a simple cycle of exactly `length` exists (DFS, n <= ~128)."""
    if not 3 <= length <= graph.n:
        raise ValueError(f"need 3 <= length <= n, got {length}")
    for _ in iter_cycles(graph, length):
        return True
    return False


def iter_cycles(
    graph: Graph,
    length: int,
    active_mask: Optional[int] = None,
    anchors: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield simple cycles of exactly `length` as node sequences, each once.

    Only the cycles of the active subgraph that hold a node of the mask
    `anchors` (default: every active node) come out, each anchored at its
    smallest anchor: anchors are taken in ascending order, and each leaves
    the active set before its search starts.  So anchors=1 << v gives the
    cycles through v, and the default gives every cycle, anchored at its
    minimum node.  Direction is canonicalized by requiring the second node
    to be smaller than the last.  Cycles come out in the order of a
    depth-first search that tries neighbors in ascending order.

    The search is over bitmasks and prunes exactly: the node at path
    position k lies within length - k hops of the anchor (the rest of the
    cycle leads back there), so its candidates are ANDed with the anchor's
    ball of that radius, and the last node must also exceed the second.
    Only branches that close no cycle are cut, so the cycles and their
    order are those of the unpruned search.

    The balls come from anchor_ball, which also clears, before the rest of
    its ball is built, an anchor that a no-cycle certificate shows to lie
    on no such cycle; such an anchor is skipped, and nothing less comes
    out.
    """
    if length < 3:
        return
    n = graph.n
    adj = graph.adj
    full = (1 << n) - 1
    active = full if active_mask is None else active_mask & full

    def from_anchor(anchor: int, balls: List[int]) -> Iterator[Tuple[int, ...]]:
        path = [anchor]
        visited = 1 << anchor
        # stack[k - 1]: untried candidates for path position k
        stack = [balls[1]]
        while stack:
            cand = stack[-1]
            if not cand:
                stack.pop()
                visited ^= 1 << path.pop()
                continue
            low = cand & -cand
            stack[-1] = cand ^ low
            path.append(low.bit_length() - 1)
            visited |= low
            k = len(path)
            nxt = adj[path[-1]] & balls[length - k] & ~visited
            if k == length - 1:
                # the last node closes the cycle (it is in balls[1]) and exceeds path[1]
                last = nxt & ~((2 << path[1]) - 1)
                while last:
                    bit = last & -last
                    yield tuple(path) + (bit.bit_length() - 1,)
                    last ^= bit
                visited ^= low
                path.pop()
            else:
                stack.append(nxt)

    for s in bits(active if anchors is None else active & anchors):
        active &= ~(1 << s)
        balls = anchor_ball(adj, length, s, active)
        if balls is not None:
            yield from from_anchor(s, balls)


def anchor_ball(adj: Tuple[int, ...], length: int, anchor: int,
                allowed: int) -> Optional[List[int]]:
    """The balls that iter_cycles' search from the anchor reads, or None
    when a certificate shows that the anchor lies on no C_length whose
    other nodes are in the mask `allowed` (which excludes the anchor).

    ball[r], for r < length, is the mask of the allowed nodes within r hops
    of the anchor through allowed nodes.  It is grown one BFS layer L_1,
    L_2, ... at a time; every edge of the ball joins two nodes of one layer
    or of consecutive layers.  The certificates are read off the first
    layers as they are built, and a cleared anchor returns before the rest
    of its ball is built.  So it keeps its own layer step, not ball():
    the certificates also read twice and inner off each layer.  Write
    r = floor(length / 2).
      * Fewer than two allowed neighbours.
      * Odd length: no edge joins two nodes of one layer L_1..L_r.  Then
        the r-ball is bipartite, yet every node of a C_length through the
        anchor lies within r hops of it along the cycle, so the cycle would
        be an odd cycle of the ball.  (An r-ball that induces a tree passes
        the same test.)
      * Even length: the (r-1)-ball induces a tree (no edge inside L_1..
        L_{r-1}, and each node of L_2..L_{r-1} has one neighbour in the
        layer before), and no node of L_r has two neighbours in L_{r-1}:
        no allowed node outside the (r-1)-ball has two neighbours in it.
        Every node of a C_length through the anchor but its antipode lies
        within r - 1 hops of it along the cycle.  The antipode either lies
        in the (r-1)-ball too, which then holds the whole cycle and is no
        tree, or lies outside it with its two cycle neighbours inside.
    Both certificates clear every anchor of a graph of girth above length;
    a radius-r tree test for even lengths would miss the anchors on a
    C_{length+1}.
    """
    reach = layer = adj[anchor] & allowed
    if not layer & (layer - 1):
        return None
    ball = [0, reach]
    even = length % 2 == 0
    last = (length - 1) // 2  # the certificates read the layers L_1..L_last
    clear = True  # no certificate has failed on the layers read so far
    for r in range(2, length):
        nxt = twice = 0  # twice: the nodes adjacent to two nodes of L_{r-1}
        rest = layer
        while rest:
            low = rest & -rest
            nb = adj[low.bit_length() - 1]
            twice |= nxt & nb
            nxt |= nb
            rest ^= low
        inner = nxt & layer  # the nodes of L_{r-1} with a neighbour in L_{r-1}
        layer = nxt & allowed & ~reach
        if clear:
            if inner or even and twice & layer:
                clear = False
            elif r > last:
                return None
        reach |= layer
        ball.append(reach)
    return ball

