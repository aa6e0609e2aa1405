"""Golden answers, query counts and ledgers of cycle detection.

Pruning in the cycle layer (the enumeration's distance bound, the no-cycle
certificates that skip an anchor, skipped congestion measurements and idle
protocol steps) must not change what a detector answers or charges.  Every
entry of `cycle_golden.json` pins `found`, the query count, `congestion_dropped` and
the ledger rows of one `detect_odd_cycle` or `detect_even_cycle` call.  The
instance set is criterion 8's planted instances 0..23 for each length, graphs
of girth > ell, random bipartite graphs for odd ell, sparse G(n, p) graphs
(many cycles; a detection apart from node 0 pins the leader fault's message
instead), the same G(n, p) graphs with a light stage that holds most nodes
in a few index classes (so congestion drops happen), and small graphs
(n <= 16) run on both engines.

Regenerate only after an intended change to the cost model or the random
streams:

    PYTHONPATH=src python tests/test_cycle_golden.py --regen
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qcongest.cycledetect import EvenCycleParams, detect_even_cycle, detect_odd_cycle
from qcongest.graph import GenSpec, Graph, generate
from qcongest.netsim import CostLedger

GOLDEN = Path(__file__).with_name("cycle_golden.json")
LENGTHS = (5, 7, 4, 6)


def criterion8_planted(ell, trial):
    rng = random.Random(8000 + 100 * ell + trial)
    n = rng.randint(max(20, ell), 96)
    prob = 0.0 if ell % 2 or ell == 4 else 0.01
    return generate(GenSpec(kind="planted_cycle", n=n, edge_prob=prob,
                            planted_size=ell, seed=trial))


def high_girth(n, ell, avg_degree, seed):
    """Random edges, each between nodes >= ell hops apart: girth > ell."""
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    edges = []
    target = int(avg_degree * n / 2)
    for _ in range(2 * target):
        if len(edges) >= target:
            break
        u = rng.randrange(n)
        near, frontier = {u}, [u]
        for _ in range(ell - 1):
            frontier = [w for x in frontier for w in adj[x] if w not in near]
            near.update(frontier)
        far = [v for v in range(n) if v not in near]
        if not far:
            continue
        v = rng.choice(far)
        adj[u].add(v)
        adj[v].add(u)
        edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def bipartite(n, avg_degree, seed):
    rng = random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    prob = min(1.0, 2.0 * avg_degree / n)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if side[u] != side[v] and rng.random() < prob])


def instances():
    """(name, graph, ell, detection seed, detector keywords) of the golden set."""
    for ell in LENGTHS:
        for trial in range(24):
            yield f"c8-C{ell}-{trial}", criterion8_planted(ell, trial), ell, trial, {}
    for ell in LENGTHS:
        for n in (24, 48, 72):
            seed = 100 * ell + n
            yield f"girth-C{ell}-{n}", high_girth(n, ell, 3.0, seed), ell, seed, {}
            if ell % 2:
                yield f"bip-C{ell}-{n}", bipartite(n, 3.0, seed), ell, seed, {}
    for ell in LENGTHS:
        for n in (24, 40):
            seed = 200 * ell + n
            graph = generate(GenSpec(kind="gnp", n=n, edge_prob=3.0 / n, seed=seed))
            yield f"gnp-C{ell}-{n}", graph, ell, seed, {}
            if ell % 2 == 0:
                # nearly every node light, two index classes, M = log2 n
                light = EvenCycleParams(k=ell // 2, delta=Fraction(9, 10),
                                        alpha=Fraction(1, 10), a_cong=1)
                yield f"light-C{ell}-{n}", graph, ell, seed, {"ec_params": light}
    for engine in ("event", "protocol"):
        for n in (8, 12, 16):
            for ell in (4, 5):
                graph = generate(GenSpec(kind="planted_cycle", n=n, edge_prob=0.1,
                                         planted_size=ell, seed=n))
                yield f"small-{engine}-C{ell}-{n}", graph, ell, n, {"engine": engine}
            yield (f"small-{engine}-girth-{n}", high_girth(n, 4, 3.0, n), 4, n,
                   {"engine": engine})


def rows(ledger):
    return [[e.phase, e.model, e.kind, e.rounds] for e in ledger.entries]


def observe(graph, ell, seed, keywords):
    detect = detect_odd_cycle if ell % 2 else detect_even_cycle
    ledger = CostLedger()
    try:
        found = detect(graph, ell, ledger, seed=seed, **keywords)
    except RuntimeError as exc:  # the leader fault: a detection apart from node 0
        return {"error": str(exc), "ledger": rows(ledger)}
    return {"found": found, "queries": ledger.counts["queries"],
            "congestion_dropped": ledger.counts["congestion_dropped"],
            "ledger": rows(ledger)}


def observe_all():
    return {name: observe(graph, ell, seed, keywords)
            for name, graph, ell, seed, keywords in instances()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def observed():
    return observe_all()


def test_instance_set_unchanged(golden, observed):
    assert sorted(observed) == sorted(golden)


@pytest.mark.parametrize("name", sorted(json.loads(GOLDEN.read_text())))
def test_answers_and_ledgers_match_golden(golden, observed, name):
    assert observed[name] == golden[name]


def test_golden_covers_both_answers_and_congestion(golden):
    found = [entry["found"] for entry in golden.values() if "found" in entry]
    assert any(found) and not all(found)
    assert any(entry.get("congestion_dropped") for entry in golden.values())
    assert any(name.startswith("small-protocol") and entry["found"]
               for name, entry in golden.items())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_cycle_golden.py --regen")
    entries = sorted(observe_all().items())
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}" for name, entry in entries
    ) + "\n}\n")
    print(f"wrote {GOLDEN}")
