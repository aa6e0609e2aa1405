"""Golden answers, query counts and ledgers of cycle detection.

Pruning in the cycle layer (the enumeration's distance bound, the no-cycle
certificates that skip an anchor, skipped congestion measurements and idle
protocol steps) must not change what a detector answers or charges.  Every
entry of `cycle_golden.json` pins `found`, the query count, `congestion_dropped` and
the ledger rows of one `detect_odd_cycle`, `detect_even_cycle` or light-stage
`_stage_search` call.  The
instance set is criterion 8's planted instances 0..23 for each length, graphs
of girth > ell, random bipartite graphs for odd ell, sparse G(n, p) graphs
(many cycles; a detection apart from node 0 pins the leader fault's message
instead), the light stage alone on the same G(n, p) graphs, with every node
in two index classes at M = ceil(log2 n) (so congestion drops happen), and
small graphs (n <= 16) run on both engines.

Regenerate only after an intended change to the cost model or the random
streams:

    PYTHONPATH=src python tests/test_cycle_golden.py --regen
"""

import json
import random
import sys
from pathlib import Path

import pytest

from qcongest.cycledetect import (ColorBfsConfig, _index_classes, _stage_search,
                                  cycle_repetitions, detect_even_cycle, detect_odd_cycle)
from qcongest.graph import GenSpec, Graph, generate
from qcongest.netsim import CongestNet, CostLedger, word_capacity
from qcongest.qsearch import DEFAULT_PARAMS

from instances import bipartite, criterion8_planted, ledger_rows

GOLDEN = Path(__file__).with_name("cycle_golden.json")
LENGTHS = (5, 7, 4, 6)


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


def detector(graph, ell, seed, **keywords):
    """run(ledger) of the detector of ell's parity on graph."""
    detect = detect_odd_cycle if ell % 2 else detect_even_cycle
    return lambda ledger: detect(graph, ell, ledger, seed=seed, **keywords)


def light_stage(graph, ell, seed):
    """run(ledger) of one light-stage search over every node of graph, drawn
    into two index classes as the light stage draws them, at
    M = ceil(log2 n): each class holds more than M sources."""
    everyone = (1 << graph.n) - 1
    shared = ColorBfsConfig(ell, everyone, word_capacity(graph.n),
                            cycle_repetitions(graph.n, ell))
    return lambda ledger: _stage_search(
        CongestNet(graph), everyone, 2, lambda: _index_classes(everyone, 2, seed), shared,
        "even-light", "even-cycle/light-search", ledger, seed, DEFAULT_PARAMS, "event")


def instances():
    """(name, run) of the golden set: run(ledger) answers one instance."""
    for ell in LENGTHS:
        for trial in range(24):
            yield f"c8-C{ell}-{trial}", detector(criterion8_planted(ell, trial), ell, trial)
    for ell in LENGTHS:
        for n in (24, 48, 72):
            seed = 100 * ell + n
            yield f"girth-C{ell}-{n}", detector(high_girth(n, ell, 3.0, seed), ell, seed)
            if ell % 2:
                yield f"bip-C{ell}-{n}", detector(bipartite(n, 3.0, seed), ell, seed)
    for ell in LENGTHS:
        for n in (24, 40):
            seed = 200 * ell + n
            graph = generate(GenSpec(kind="gnp", n=n, edge_prob=3.0 / n, seed=seed))
            yield f"gnp-C{ell}-{n}", detector(graph, ell, seed)
            if ell % 2 == 0:
                yield f"light-C{ell}-{n}", light_stage(graph, ell, seed)
    for engine in ("event", "protocol"):
        for n in (8, 12, 16):
            for ell in (4, 5):
                graph = generate(GenSpec(kind="planted_cycle", n=n, edge_prob=0.1,
                                         planted_size=ell, seed=n))
                yield f"small-{engine}-C{ell}-{n}", detector(graph, ell, n, engine=engine)
            yield f"small-{engine}-girth-{n}", detector(high_girth(n, 4, 3.0, n), 4, n,
                                                        engine=engine)


def observe(run):
    ledger = CostLedger()
    try:
        found = run(ledger)
    except RuntimeError as exc:  # the leader fault: a detection apart from node 0
        return {"error": str(exc), "ledger": ledger_rows(ledger)}
    return {"found": found, "queries": ledger.counts["queries"],
            "congestion_dropped": ledger.counts["congestion_dropped"],
            "ledger": ledger_rows(ledger)}


def observe_all():
    return {name: observe(run) for name, run in instances()}


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
