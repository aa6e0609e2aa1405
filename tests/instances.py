"""Instance recipes that several test files build: criterion 1's clique
instances, criterion 8's planted cycles, random bipartite graphs, and the
ledger rows that the golden files pin.

Each recipe draws exactly the coins it drew where it was first written, so
the golden files keep their instances.
"""

import random

from qcongest.graph import GenSpec, Graph, generate


def criterion1_instance(i):
    """(graph, q) of criterion 1's instance i: n in 32..64 and q = 4 + i % 4;
    every fourth a planted q-clique in G(n, 0.2), the others G(n, p), p
    cycling through 0.2, 0.5 and 0.8."""
    rng = random.Random(1000 + i)
    n = rng.randint(32, 64)
    q = 4 + i % 4
    if i % 4 == 3:
        spec = GenSpec(kind="planted_clique", n=n, edge_prob=0.2, planted_size=q, seed=i)
    else:
        spec = GenSpec(kind="gnp", n=n, edge_prob=(0.2, 0.5, 0.8)[i % 3], seed=i)
    return generate(spec), q


def criterion8_planted(ell, trial):
    """Criterion 8's planted C_ell of trial: n in max(20, ell)..96, with
    G(n, 0.01) edges around it for C6 and up, none otherwise."""
    rng = random.Random(8000 + 100 * ell + trial)
    n = rng.randint(max(20, ell), 96)
    prob = 0.0 if ell % 2 or ell == 4 else 0.01
    return generate(GenSpec(kind="planted_cycle", n=n, edge_prob=prob,
                            planted_size=ell, seed=trial))


def bipartite(n, avg_degree, seed):
    """Nodes on two random sides, each pair across joined with probability
    2 avg_degree / n (a probability of 1 or more joins every such pair)."""
    rng = random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    prob = 2.0 * avg_degree / n
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if side[u] != side[v] and rng.random() < prob])


def ledger_rows(ledger):
    """The ledger's entries as [phase, model, kind, rounds] lists, as JSON
    holds them."""
    return [[e.phase, e.model, e.kind, e.rounds] for e in ledger.entries]
