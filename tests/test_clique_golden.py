"""Golden answers, query counts and ledgers of clique detection.

Rounds come from `listing_route_rounds` and the analytic cost functions,
never from the enumeration, so a change to the listing or search code must
leave every entry of `clique_golden.json` identical.  The instance set is
criterion 1's instances 0..23, plus bipartite graphs and a relabelled
planted 5-clique at n = 256 with q = 3, 4, 5.  Each instance runs every
plan of `applicable_strategies`, with one shared inventory per p as in
criterion 1; triangle15, plus1 and nested also pin their cost-only ledgers.

Regenerate only after an intended change to the cost model:

    PYTHONPATH=src python tests/test_clique_golden.py --regen
"""

import json
import random
import sys
from pathlib import Path

import pytest

from qcongest.cliquedetect import (
    applicable_strategies,
    detect_clique,
    nested_cost_only,
    plus1_cost_only,
    triangle_cost_only,
)
from qcongest.cliquelist import list_kp
from qcongest.graph import GenSpec, Graph, generate
from qcongest.netsim import CostLedger

GOLDEN = Path(__file__).with_name("clique_golden.json")


def criterion1_instance(i):
    rng = random.Random(1000 + i)
    n = rng.randint(32, 64)
    q = 4 + i % 4
    if i % 4 == 3:
        spec = GenSpec(kind="planted_clique", n=n, edge_prob=0.2, planted_size=q, seed=i)
    else:
        spec = GenSpec(kind="gnp", n=n, edge_prob=(0.2, 0.5, 0.8)[i % 3], seed=i)
    return generate(spec), q


def bipartite(n, avg_degree, seed):
    rng = random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    prob = min(1.0, 2.0 * avg_degree / n)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if side[u] != side[v] and rng.random() < prob])


def planted_relabelled(n, size, avg_degree, seed):
    base = generate(GenSpec(kind="planted_clique", n=n, edge_prob=avg_degree / n,
                            planted_size=size, seed=seed))
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph(n, [(min(perm[u], perm[v]), max(perm[u], perm[v]))
                     for u, v in base.edges()])


def instances():
    """(name, graph, q, detection seed) of the golden instance set."""
    for i in range(24):
        graph, q = criterion1_instance(i)
        yield f"c1-{i}", graph, q, i
    scale = [(f"bip{deg}-256", bipartite(256, deg, 50 + deg)) for deg in (8, 16, 32)]
    scale.append(("k5-256", planted_relabelled(256, 5, 8, 77)))
    for name, graph in scale:
        for q in (3, 4, 5):
            yield f"{name}-q{q}", graph, q, q


def rows(ledger):
    return [[e.phase, e.model, e.kind, e.rounds] for e in ledger.entries]


def cost_only_rows(plan, n, m):
    ledger = CostLedger()
    if plan.strategy == "triangle15":
        triangle_cost_only(n, m, ledger)
    elif plan.strategy == "plus1":
        plus1_cost_only(n, m, plan.p, ledger)
    elif plan.strategy == "nested":
        nested_cost_only(n, m, plan.p, plan.t, ledger)
    else:
        return None
    return rows(ledger)


def observe(graph, q, seed):
    """Listing ledgers per p, and per plan: found, queries and ledgers."""
    out = {"listing": {}, "plans": []}
    inventories = {}
    for plan in applicable_strategies(graph.n, graph.m, q):
        inv = None
        if plan.strategy != "triangle15":
            if plan.p not in inventories:
                listing = CostLedger()
                inventories[plan.p] = list_kp(graph, plan.p, listing)
                out["listing"][str(plan.p)] = rows(listing)
            inv = inventories[plan.p]
        ledger = CostLedger()
        found = detect_clique(graph, q, ledger, strategy=plan.strategy, seed=seed,
                              inv=inv)
        out["plans"].append({
            "strategy": plan.strategy, "p": plan.p, "t": plan.t, "found": found,
            "queries": ledger.counts["queries"], "ledger": rows(ledger),
            "cost_only": cost_only_rows(plan, graph.n, graph.m),
        })
    return out


def observe_all():
    return {name: observe(graph, q, seed) for name, graph, q, seed in instances()}


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


def test_golden_covers_every_strategy(golden):
    seen = {plan["strategy"] for entry in golden.values() for plan in entry["plans"]}
    assert seen == {"triangle15", "plus1", "nested", "blackbox", "sparse"}
    found = [plan["found"] for entry in golden.values() for plan in entry["plans"]]
    assert any(found) and not all(found)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_clique_golden.py --regen")
    entries = sorted(observe_all().items())
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}" for name, entry in entries
    ) + "\n}\n")
    print(f"wrote {GOLDEN}")
