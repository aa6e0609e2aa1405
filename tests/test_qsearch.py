"""Search cost formulas and the classical-evaluation execution engine."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongest.intmath import ceil_pow, ceil_scaled_pow
from qcongest.netsim import CostLedger
from qcongest.qsearch import (
    NestedSearchPlan,
    QuantumCostParams,
    SearchLevel,
    grover_cost,
    nested_cost_predict,
    run_nested_search,
    run_search,
)


class TestGroverCost:
    def test_examples(self):
        assert grover_cost(100, 3) == 30
        assert grover_cost(1, 5) == 5
        assert grover_cost(1024, 2, QuantumCostParams(c_grover=2, reps=3)) == 384

    def test_ceiling(self):
        assert grover_cost(10, 1) == 4  # ceil(sqrt(10)) = 4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            grover_cost(0, 1)
        with pytest.raises(ValueError):
            QuantumCostParams(reps=0)
        with pytest.raises(ValueError):
            QuantumCostParams(fail_prob=1.0)


class TestNestedPredict:
    def test_two_level_example(self):
        assert nested_cost_predict([16, 64], [4], 2) == 80

    def test_k1_reduces_to_grover(self):
        assert nested_cost_predict([100], [3], 2) == grover_cost(100, 5)

    @given(st.integers(1, 10**6), st.integers(0, 100), st.integers(0, 100),
           st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_k1_identity_property(self, size, s1, c, cg, reps):
        params = QuantumCostParams(c_grover=cg, reps=reps)
        assert (nested_cost_predict([size], [s1], c, params)
                == grover_cost(size, s1 + c, params))

    def test_detection_parameter_example(self):
        # n = 4096, p = 3, t = 2: level exponents r_1 = 1/3, r_2 = 2/3
        n, p, t = 4096, 3, 2
        r1 = Fraction(p - 1, p) / 2 ** (t - 1)
        r2 = Fraction(p - 1, p) / 2 ** (t - 2)
        sizes = [ceil_pow(n, r1), ceil_pow(n, r2)]
        s1 = ceil_scaled_pow(n, 1 - Fraction(1, p) - r1, 1)
        c = ceil_scaled_pow(n, 1 - Fraction(1, p) - r2, 1)
        assert sizes == [16, 256] and s1 == 16 and c == 1
        assert nested_cost_predict(sizes, [s1], c) == 128

    def test_optional_level_k_setup(self):
        # explicit s_k participates in the innermost term
        assert nested_cost_predict([4, 4], [1, 2], 3) == 2 * (1 + 2 * (2 + 3))


class TestRunSearch:
    def test_witness_and_cost(self):
        led = CostLedger()
        out = run_search(10, lambda i: (i == 7, 3), led)
        assert out.found and out.witness == (7,)
        assert out.rounds_charged == 4 * 3
        assert out.queries_evaluated == 8
        assert led.total() == 12

    def test_not_found_same_cost(self):
        led = CostLedger()
        out = run_search(10, lambda i: (False, 3), led)
        assert not out.found and out.rounds_charged == 12
        assert out.queries_evaluated == 10

    def test_fail_injection(self):
        led = CostLedger()
        params = QuantumCostParams(fail_prob=0.999999)
        out = run_search(10, lambda i: (i == 7, 1), led, params, seed=5)
        assert not out.found and out.witness is None
        assert out.rounds_charged == 4  # cost unchanged

    def test_checker_error_propagates(self):
        led = CostLedger()

        def bad(i):
            raise KeyError("boom")

        with pytest.raises(KeyError):
            run_search(4, bad, led)

    def test_inhomogeneous_cost_rejected(self):
        led = CostLedger()
        with pytest.raises(RuntimeError, match="inhomogeneity"):
            run_search(4, lambda i: (False, i), led)


class TestFlatIsOneLevelNested:
    def test_same_outcome_and_ledger(self):
        import random

        rng = random.Random(3)
        for seed in range(120):
            size = rng.randint(1, 300)
            cost = rng.randint(0, 9)
            marked = {rng.randrange(size) for _ in range(rng.randint(0, 3))}
            params = QuantumCostParams(c_grover=Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                                       reps=rng.randint(1, 4))
            flat_led, nested_led = CostLedger(), CostLedger()
            flat = run_search(size, lambda i: (i in marked, cost), flat_led, params,
                              seed=seed, phase="search")
            plan = NestedSearchPlan([SearchLevel(size)],
                                    lambda tup: (tup[0] in marked, cost), params)
            nested = run_nested_search(plan, nested_led, seed=seed, phase="search")
            assert flat == nested
            assert flat.found == bool(marked)
            assert flat_led.entries == nested_led.entries

    def test_searches_leave_no_cyclic_garbage(self):
        # reference counting alone must free a search: cyclic garbage left by
        # the many flat searches of cycle detection slowed them measurably
        import gc

        plan = NestedSearchPlan([SearchLevel(3, lambda pfx: 1), SearchLevel(4)],
                                lambda tup: (tup == (2, 1), 1))
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                run_search(10, lambda i: (i == 3, 2), CostLedger())
                run_nested_search(plan, CostLedger())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_detectors_leave_no_cyclic_garbage(self):
        # the same for the recursive clique searches and listings, and for
        # every detector built on the search engine
        import gc

        from qcongest.cliquedetect import applicable_strategies, detect_clique
        from qcongest.cliquelist import clique_reach, list_kp
        from qcongest.cycledetect import detect_even_cycle, detect_odd_cycle
        from qcongest.graph import GenSpec, generate

        g = generate(GenSpec(kind="gnp", n=40, edge_prob=0.5, seed=2))
        adj = g.adj_masks()
        cyc = generate(GenSpec(kind="planted_cycle", n=12, edge_prob=0.1,
                               planted_size=6, seed=1))
        gc.collect()
        gc.disable()
        try:
            for p in (2, 3):
                clique_reach(adj, (), p, (1 << g.n) - 1)
                clique_reach(adj, (0xFFFFF, 0xFFFFF << 20), p, (1 << g.n) - 1)
                assert list_kp(g, p, CostLedger()).member_masks
            for q in (3, 4, 5, 6):
                for plan in applicable_strategies(g.n, g.m, q):
                    detect_clique(g, q, CostLedger(), strategy=plan.strategy)
            for engine in ("event", "protocol"):
                detect_odd_cycle(cyc, 5, CostLedger(), engine=engine)
                detect_even_cycle(cyc, 4, CostLedger(), engine=engine)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRunNestedSearch:
    def _plan(self, marked, sizes=(4, 4), setup_cost=0, check_cost=1):
        levels = [
            SearchLevel(sizes[0], (lambda pfx: setup_cost) if setup_cost else None),
            SearchLevel(sizes[1], None),
        ][: len(sizes)]

        def checker(tup):
            return tup in marked, check_cost

        return NestedSearchPlan(levels=levels, checker=checker)

    def test_toy_found(self):
        led = CostLedger()
        out = run_nested_search(self._plan({(2, 3)}), led)
        assert out.found and out.witness == (2, 3)
        assert out.rounds_charged == 2 * (0 + 2 * 1) == 4

    def test_toy_not_found(self):
        led = CostLedger()
        out = run_nested_search(self._plan(set()), led)
        assert not out.found and out.rounds_charged == 4
        assert out.queries_evaluated == 16

    def test_matches_predictor_on_random_plans(self):
        import random

        rng = random.Random(0)
        for _ in range(50):
            k = rng.randint(1, 4)
            sizes = [rng.randint(1, 9) for _ in range(k)]
            setups = [rng.randint(0, 7) for _ in range(k)]
            check = rng.randint(0, 7)
            marked = set()
            if rng.random() < 0.6:
                marked.add(tuple(rng.randrange(s) for s in sizes))
            levels = [
                SearchLevel(sizes[i], (lambda c: (lambda pfx: c))(setups[i]))
                for i in range(k)
            ]
            plan = NestedSearchPlan(levels, lambda tup: (tup in marked, check))
            led = CostLedger()
            out = run_nested_search(plan, led)
            assert out.rounds_charged == nested_cost_predict(sizes, setups, check)
            assert out.found == bool(marked)

    def test_exhaustive_equivalence_with_brute_force(self):
        import random

        rng = random.Random(1)
        for _ in range(30):
            k = rng.randint(1, 3)
            sizes = [rng.randint(1, 21) for _ in range(k)]  # products up to ~1e4
            table = {
                tup: rng.random() < 0.02
                for tup in itertools.product(*(range(s) for s in sizes))
            }
            plan = NestedSearchPlan(
                [SearchLevel(s) for s in sizes], lambda tup: (table[tup], 1)
            )
            led = CostLedger()
            out = run_nested_search(plan, led)
            assert out.found == any(table.values())
            if out.found:
                assert table[out.witness]

    def test_setup_inhomogeneity_names_level(self):
        costs = iter([1, 2, 2, 2])
        levels = [SearchLevel(2, lambda pfx: next(costs)), SearchLevel(2, None)]
        plan = NestedSearchPlan(levels, lambda tup: (False, 1))
        with pytest.raises(RuntimeError, match="level 1"):
            run_nested_search(plan, CostLedger())

    def test_cost_independent_of_marked_position(self):
        sizes = (3, 5)
        charges = set()
        for marked in itertools.product(range(3), range(5)):
            plan = self._plan({marked}, sizes=sizes)
            led = CostLedger()
            out = run_nested_search(plan, led)
            assert out.found
            charges.add(out.rounds_charged)
        assert len(charges) == 1

    def test_fail_injection_one_sided(self):
        plan = self._plan(set())
        plan = NestedSearchPlan(plan.levels, plan.checker,
                                QuantumCostParams(fail_prob=0.9))
        for seed in range(20):
            out = run_nested_search(plan, CostLedger(), seed=seed)
            assert not out.found  # never invents a witness


class TestWitnessReverification:
    @pytest.mark.parametrize("fail_prob", [0.0, 0.3, 0.7])
    def test_flat_search_witness_reverifies(self, fail_prob):
        import random as _random

        rng = _random.Random(42)
        params = QuantumCostParams(fail_prob=fail_prob)
        for seed in range(40):
            marked = {rng.randrange(12) for _ in range(rng.randint(0, 3))}
            checker = lambda i: (i in marked, 2)
            led = CostLedger()
            out = run_search(12, checker, led, params, seed=seed)
            if out.found:
                assert checker(out.witness[0])[0]

    @pytest.mark.parametrize("fail_prob", [0.0, 0.5])
    def test_nested_search_witness_reverifies(self, fail_prob):
        import random as _random

        rng = _random.Random(7)
        for seed in range(30):
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
            marked = {tuple(rng.randrange(s) for s in sizes)}
            checker = lambda tup: (tup in marked, 1)
            plan = NestedSearchPlan(
                [SearchLevel(s) for s in sizes], checker,
                QuantumCostParams(fail_prob=fail_prob),
            )
            out = run_nested_search(plan, CostLedger(), seed=seed)
            if out.found:
                assert checker(out.witness)[0]
