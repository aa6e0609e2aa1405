"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time

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
    detect_even_cycle,
    detect_odd_cycle,
    protocol_detect_once,
)
from qcongest.graph import GenSpec, generate, oracle_cliques, oracle_has_clique
from qcongest.netsim import CostLedger
from qcongest.qsearch import (
    NestedSearchPlan,
    QuantumCostParams,
    SearchLevel,
    nested_cost_predict,
    run_nested_search,
)

SWEEP_NS = [2**k for k in range(10, 17)]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_oracle_equivalence():
    """300 instances, every applicable strategy, 100% oracle agreement."""
    t0 = time.time()
    probs = (0.2, 0.5, 0.8)
    checked = mismatches = 0
    for i in range(300):
        rng = random.Random(1000 + i)
        n = rng.randint(32, 64)
        q = 4 + i % 4
        if i % 4 == 3:
            spec = GenSpec(kind="planted_clique", n=n, edge_prob=0.2,
                           planted_size=q, seed=i)
        else:
            spec = GenSpec(kind="gnp", n=n, edge_prob=probs[i % 3], seed=i)
        graph = generate(spec)
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


def test_criterion_04_triangle_exponent():
    t0 = time.time()
    ys = []
    for n in SWEEP_NS:
        led = CostLedger()
        triangle_cost_only(n, n * (n - 1) // 2, led)
        ys.append(led.total())
    slope = fit_slope(SWEEP_NS, ys)
    elapsed = time.time() - t0
    report("criterion 4: triangle exponent in [0.15, 0.25]",
           0.15 <= slope <= 0.25 and elapsed <= 60,
           f"slope={slope:.4f}, {elapsed:.2f}s")


def test_criterion_05_nested_exponents():
    t0 = time.time()
    results = []
    ok = True
    for p, t in ((3, 1), (4, 1), (4, 2), (5, 2)):
        ys = []
        for n in SWEEP_NS:
            led = CostLedger()
            nested_cost_only(n, n * (n - 1) // 2, p, t, led)
            ys.append(led.total())
        slope = fit_slope(SWEEP_NS, ys)
        target = max(1 - 2 / p, (1 - 1 / p) * (1 - 1 / 2**t))
        results.append(f"(p={p},t={t}): {slope:.4f} vs {target:.4f}")
        ok &= abs(slope - target) <= 0.05
    elapsed = time.time() - t0
    report("criterion 5: nested-detection exponents within ±0.05",
           ok and elapsed <= 120, "; ".join(results) + f", {elapsed:.2f}s")


def test_criterion_06_blackbox_extension_exponent():
    results = []
    ok = True
    for t in (1, 2):
        ys = []
        for n in SWEEP_NS:
            led = CostLedger()
            blackbox_cost_only(n, t, led, packing=False)
            ys.append(led.total())
        slope = fit_slope(SWEEP_NS, ys)
        target = 1 - 1 / 2**t
        results.append(f"t={t}: {slope:.4f} vs {target}")
        ok &= abs(slope - target) <= 0.05
    report("criterion 6: black-box extension exponents (packing off)",
           ok, "; ".join(results))


def test_criterion_07_sparse_mu_sensitivity():
    n = 2**14
    mus = [2**k for k in range(4, 11)]
    ys = []
    for mu in mus:
        led = CostLedger()
        sparse_cost_only(n, mu * n, 1, led)
        ys.append(led.total())
    slope = fit_slope(mus, ys)
    report("criterion 7: sparse extension scales as mu^0.5 ± 0.07",
           abs(slope - 0.5) <= 0.07, f"slope={slope:.4f} at n=2^14")


def _forest(n: int, seed: int):
    """Random forest: each non-root attaches to a random earlier node."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.9:
            edges.append((rng.randrange(v), v))
    from qcongest.graph import Graph

    return Graph(n, edges)


def test_criterion_08_cycle_correctness():
    t0 = time.time()
    details = []
    ok = True
    # completeness: planted cycles, 200 trials each
    for ell, even in ((5, False), (7, False), (4, True), (6, True)):
        hits = 0
        for trial in range(200):
            rng = random.Random(8000 + 100 * ell + trial)
            n = rng.randint(max(20, ell), 96)
            prob = 0.0 if not even or ell == 4 else 0.01
            g = generate(GenSpec(kind="planted_cycle", n=n, edge_prob=prob,
                                 planted_size=ell, seed=trial))
            led = CostLedger()
            if even:
                hits += detect_even_cycle(g, ell, led, seed=trial)
            else:
                hits += detect_odd_cycle(g, ell, led, seed=trial)
        details.append(f"C{ell}: {hits}/200")
        ok &= hits >= 198
    # soundness: 10^4 cycle-free trials, zero tolerance
    false_pos = 0
    for trial in range(10_000):
        ell, even = ((5, False), (7, False), (4, True), (6, True))[trial % 4]
        g = _forest(20 + trial % 77, seed=trial)
        if even:
            fp = detect_even_cycle(g, ell, CostLedger(), seed=trial)
        else:
            fp = detect_odd_cycle(g, ell, CostLedger(), seed=trial)
        false_pos += fp
    elapsed = time.time() - t0
    details.append(f"false positives: {false_pos}/10000")
    ok &= false_pos == 0
    report("criterion 8: cycle detection >=99% complete, 0 false positives",
           ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_09_color_bfs_single_rep_rate():
    from qcongest.graph import Graph, mask_of

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


def test_criterion_10_c4_exponent():
    ys = []
    for n in SWEEP_NS:
        led = CostLedger()
        cycle_cost_only(n, n, 4, led)
        ys.append(led.total())
    slope = fit_slope(SWEEP_NS, ys)
    report("criterion 10: C4 detection exponent in [0.19, 0.31]",
           0.19 <= slope <= 0.31, f"slope={slope:.4f}")


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
