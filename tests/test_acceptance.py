"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The exponent criteria (4-7 and 10) and the cycle exponents are rows of one
table, CLAIMS, fitted by one test.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines and
timings.
"""

import itertools
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import pytest

from qcongest.cli import fit_slope, main
from qcongest.cliquedetect import (
    applicable_strategies,
    blackbox_cost_only,
    detect_clique,
    nested_cost_only,
    sparse_cost_only,
    triangle_cost_only,
)
from qcongest.cliquelist import list_kp
from qcongest.cycledetect import (
    ColorBfsConfig,
    cycle_cost_only,
    cycle_repetitions,
    detect_even_cycle,
    detect_odd_cycle,
    protocol_detect_once,
)
from qcongest.graph import (GenSpec, Graph, generate, mask_of, oracle_cliques,
                            oracle_has_clique)
from qcongest.netsim import CostLedger
from qcongest.qsearch import (
    NestedSearchPlan,
    QuantumCostParams,
    SearchLevel,
    nested_cost_predict,
    run_nested_search,
)

from instances import criterion1_instance, criterion8_planted

SWEEP_NS = [2**k for k in range(10, 17)]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_oracle_equivalence():
    """300 instances, every applicable strategy, 100% oracle agreement."""
    t0 = time.time()
    checked = mismatches = 0
    for i in range(300):
        graph, q = criterion1_instance(i)
        truth = oracle_has_clique(graph, q)
        inv_cache = {}
        for plan in applicable_strategies(graph.n, graph.m, q):
            if plan.p not in inv_cache:
                inv_cache[plan.p] = list_kp(graph, plan.p, CostLedger())
            got = detect_clique(
                graph, q, CostLedger(), strategy=plan.strategy, seed=i,
                inv=inv_cache[plan.p],
            )
            checked += 1
            if got != truth:
                mismatches += 1
    elapsed = time.time() - t0
    report(
        "criterion 1: oracle equivalence over 300 instances",
        mismatches == 0 and elapsed <= 600,
        f"{checked} strategy runs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_listing_completeness():
    """list_kp union equals oracle_cliques for 100 random graphs, p in 2..4."""
    bad = 0
    for i in range(100):
        rng = random.Random(2000 + i)
        n = rng.randint(8, 64)
        prob = rng.choice([0.15, 0.3, 0.5])
        graph = generate(GenSpec(kind="gnp", n=n, edge_prob=prob, seed=i))
        for p in (2, 3, 4):
            if p > n:
                continue
            inv = list_kp(graph, p, CostLedger())
            if inv.union().members != oracle_cliques(graph, p).members:
                bad += 1
    report("criterion 2: listing completeness (100 graphs, p in {2,3,4})",
           bad == 0, f"{bad} mismatched listings")


def test_criterion_03_cost_formula_exactness():
    """Engine round totals equal the closed-form prediction on 1000 plans."""
    rng = random.Random(3)
    bad = 0
    for _ in range(1000):
        k = rng.randint(1, 4)
        sizes = [rng.randint(1, 9) for _ in range(k)]
        setups = [rng.randint(0, 9) for _ in range(k)]
        check = rng.randint(0, 9)
        params = QuantumCostParams(
            c_grover=rng.choice(["1", "2", "0.5"]), reps=rng.randint(1, 3)
        )
        marked = set()
        if rng.random() < 0.5:
            marked.add(tuple(rng.randrange(s) for s in sizes))
        levels = [
            SearchLevel(sizes[i], (lambda c: (lambda pfx: c))(setups[i]))
            for i in range(k)
        ]
        plan = NestedSearchPlan(levels, lambda prefix: (next(
            (x for x in range(sizes[-1]) if prefix + (x,) in marked), None), check), params)
        out = run_nested_search(plan, CostLedger())
        if out.rounds_charged != nested_cost_predict(sizes, setups, check, params):
            bad += 1
    report("criterion 3: cost-formula exactness (1000 randomized plans)",
           bad == 0, f"{bad} disagreements")


def rounds(cost_only, *args, **keywords) -> int:
    """The ledger total that cost_only(*args, ledger, **keywords) charges."""
    ledger = CostLedger()
    cost_only(*args, ledger, **keywords)
    return ledger.total()


def dense(n: int) -> int:
    """The edge count of the complete graph on n nodes."""
    return n * (n - 1) // 2


def even_cycle_exponent(k: int) -> Fraction:
    """alpha/2 of the C_2k parameter set (Eden-Fiat-Fischer-Kuhn-Oshman,
    DISC 2019): alpha = 1/k + (k-2) delta with delta = (k-2)/(k(k-1)), and
    both stages search n^alpha items (heavy nodes, light index classes)."""
    delta = Fraction(k - 2, k * (k - 1))
    return (Fraction(1, k) + (k - 2) * delta) / 2


class Claim(NamedTuple):
    """One exponent claim: the rounds charge(x), divided by the declared
    factor(x), grow as x^exponent.  The fitted slope over xs must lie
    within tol of the exponent.  The factor is a count the code itself
    charges by (never fitted), and 1 where none is declared."""

    label: str
    exponent: Fraction
    source: str
    xs: Sequence[int]
    charge: Callable[[int], int]
    factor: Callable[[int], int] = lambda x: 1
    tol: float = 0.05


SPARSE_N = 2**14
SPARSE_MUS = [2**k for k in range(4, 11)]

CLAIMS = [
    Claim("criterion 4 triangle", Fraction(1, 5),
          "README, cliquedetect: triangle detection in ~n^(1/5) rounds",
          SWEEP_NS, lambda n: rounds(triangle_cost_only, n, dense(n))),
    *(Claim(f"criterion 5 nested p{p} t{t}",
            max(1 - Fraction(2, p), (1 - Fraction(1, p)) * (1 - Fraction(1, 2**t))),
            "README, cliquedetect: nested K_{p+t} detection, level exponents "
            "(1-1/p)/2^(t-i), above the Dolev-Lenzen-Peled K_p listing's n^(1-2/p)",
            SWEEP_NS, lambda n, p=p, t=t: rounds(nested_cost_only, n, dense(n), p, t))
      for p, t in ((3, 1), (4, 1), (4, 2), (5, 2))),
    *(Claim(f"criterion 6 blackbox t{t}", 1 - Fraction(1, 2**t),
            "the paper's black-box extension of K_p listing; README, cliquedetect: "
            "n^(1-1/2^t), packing off",
            SWEEP_NS, lambda n, t=t: rounds(blackbox_cost_only, n, t, packing=False))
      for t in (1, 2)),
    Claim("criterion 7 sparse mu", Fraction(1, 2),
          "README, cliquedetect: sparsity-aware extension mu^(1-1/2^t), t = 1, "
          "at n = 2^14",
          SPARSE_MUS, lambda mu: rounds(sparse_cost_only, SPARSE_N, mu * SPARSE_N, 1),
          tol=0.07),
    Claim("criterion 10 C4", even_cycle_exponent(2),
          "README, cycledetect: heavy/light split of C_2k, alpha/2 at k = 2",
          SWEEP_NS, lambda n: rounds(cycle_cost_only, n, n, 4), tol=0.06),
    *(Claim(f"odd C{ell}", Fraction(1, 2),
            "README, cycledetect: odd-cycle search over the n sources, sqrt(n) "
            "queries of cycle_repetitions(n, ell) colour-BFS repetitions each",
            SWEEP_NS, lambda n, ell=ell: rounds(cycle_cost_only, n, n, ell),
            factor=lambda n, ell=ell: cycle_repetitions(n, ell))
      for ell in (5, 7, 9)),
    *(Claim(f"even C{2 * k}", even_cycle_exponent(k),
            f"README, cycledetect: heavy/light split of C_2k, alpha/2 at k = {k}",
            SWEEP_NS, lambda n, k=k: rounds(cycle_cost_only, n, n, 2 * k))
      for k in (3, 4)),
]


@pytest.mark.parametrize("claim", CLAIMS, ids=["-".join(c.label.split()) for c in CLAIMS])
def test_claim(claim):
    """Criteria 4-7 and 10, and the cycle exponents: fit one row of CLAIMS."""
    t0 = time.time()
    ys = [claim.charge(x) / claim.factor(x) for x in claim.xs]
    slope = fit_slope(claim.xs, ys)
    elapsed = time.time() - t0
    report(f"{claim.label}: exponent {claim.exponent} ± {claim.tol}",
           abs(slope - claim.exponent) <= claim.tol and elapsed <= 30,
           f"slope={slope:.4f}, {elapsed:.2f}s; {claim.source}")


def _forest(n: int, seed: int):
    """Random forest: each non-root attaches to a random earlier node."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.9:
            edges.append((rng.randrange(v), v))
    return Graph(n, edges)


def detector(ell: int):
    return detect_odd_cycle if ell % 2 else detect_even_cycle


def test_criterion_08_cycle_correctness():
    t0 = time.time()
    details = []
    ok = True
    # completeness: planted cycles, 200 trials each
    lengths = (5, 7, 4, 6)
    for ell in lengths:
        hits = sum(detector(ell)(criterion8_planted(ell, trial), ell, CostLedger(), seed=trial)
                   for trial in range(200))
        details.append(f"C{ell}: {hits}/200")
        ok &= hits >= 198
    # soundness: 10^4 cycle-free trials, zero tolerance
    false_pos = 0
    for trial in range(10_000):
        ell = lengths[trial % 4]
        g = _forest(20 + trial % 77, seed=trial)
        false_pos += detector(ell)(g, ell, CostLedger(), seed=trial)
    elapsed = time.time() - t0
    details.append(f"false positives: {false_pos}/10000")
    ok &= false_pos == 0
    report("criterion 8: cycle detection >=99% complete, 0 false positives",
           ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_09_color_bfs_single_rep_rate():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cfg = ColorBfsConfig(cycle_len=4, active=mask_of(range(4)), congestion_bound=4,
                         repetitions=1)

    def colour_masks(colors):  # node v has colour colors[v]
        return [mask_of(v for v, c in enumerate(colors) if c == k) for k in range(4)]

    exact_hits = sum(
        protocol_detect_once(g, cfg, mask_of(range(4)), colour_masks(colors))
        for colors in itertools.product(range(4), repeat=4)
    )
    exact = exact_hits / 256
    rng = random.Random(9)
    trials = 100_000
    hits = sum(
        protocol_detect_once(g, cfg, mask_of(range(4)),
                             colour_masks([rng.randrange(4) for _ in range(4)]))
        for _ in range(trials)
    )
    rate = hits / trials
    rel = abs(rate - exact) / exact
    report("criterion 9: single-repetition rate matches enumeration ±15%",
           rel <= 0.15,
           f"empirical={rate:.5f}, exact={exact:.5f} ({exact_hits}/256), rel={rel:.3f}")


def test_criterion_11_cli_determinism(tmp_path):
    cases = [
        ["detect-clique", "--gen", "gnp,48,0.5,0,9", "--q", "5", "--seed", "3"],
        ["sweep", "--algo", "triangle15", "--mode", "cost-only",
         "--n-list", ",".join(str(n) for n in SWEEP_NS)],
        ["verify", "--q", "4", "--trials", "8", "--seed", "1"],
        ["detect-cycle", "--gen", "planted_cycle,48,0.0,5,3", "--ell", "5",
         "--seed", "2"],
    ]
    ok = True
    for idx, args in enumerate(cases):
        a = tmp_path / f"a{idx}.csv"
        b = tmp_path / f"b{idx}.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    report("criterion 11: byte-identical CSV on repeated invocations", ok,
           f"{len(cases)} commands checked")
