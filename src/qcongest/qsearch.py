"""Distributed quantum search, simulated at the round-cost level.

The checking procedures of every algorithm here are classical, so answers
are computed exactly by ordered enumeration with short-circuit, while the
rounds charged follow the search-cost formulas: a flat search over X costs
reps * ceil(c * sqrt(|X|)) * r, and a nested search over X_1 x ... x X_k
costs sqrt(|X_1|)(s_1 + sqrt(|X_2|)(s_2 + ... + sqrt(|X_k|)(s_k + c))),
with the ceil applied at each level and the reps factor once, outermost.

Cost and answer are fully separated: which element is marked never changes
the rounds charged.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .intmath import ceil_scaled_sqrt
from .netsim import CostLedger


@dataclass(frozen=True)
class QuantumCostParams:
    """Search cost knobs.

    c_grover scales the sqrt query count, reps models success
    amplification, and fail_prob injects one-sided false negatives.
    Defaults make predicted and measured costs match exactly.
    """

    c_grover: Fraction = Fraction(1)
    reps: int = 1
    fail_prob: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c_grover", Fraction(str(self.c_grover))
                           if not isinstance(self.c_grover, Fraction) else self.c_grover)
        if self.c_grover <= 0:
            raise ValueError("c_grover must be positive")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0.0 <= self.fail_prob < 1.0:
            raise ValueError("fail_prob must be in [0,1)")


DEFAULT_PARAMS = QuantumCostParams()

# checker(i) -> (marked, rounds); setup(prefix) -> rounds
Checker = Callable[[int], Tuple[bool, int]]
TupleChecker = Callable[[Tuple[int, ...]], Tuple[bool, int]]
Setup = Callable[[Tuple[int, ...]], int]


@dataclass(frozen=True)
class SearchLevel:
    domain_size: int
    setup: Optional[Setup] = None

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError("level domain size must be >= 1")


@dataclass(frozen=True)
class NestedSearchPlan:
    levels: Sequence[SearchLevel]
    checker: TupleChecker
    params: QuantumCostParams = DEFAULT_PARAMS

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ValueError("need at least one search level")


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    witness: Optional[Tuple[int, ...]]
    rounds_charged: int
    queries_evaluated: int


def grover_cost(domain_size: int, query_rounds: int, params: QuantumCostParams = DEFAULT_PARAMS) -> int:
    """reps * ceil(c_grover * sqrt(domain_size)) * query_rounds."""
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")
    if query_rounds < 0:
        raise ValueError("query_rounds must be >= 0")
    return params.reps * ceil_scaled_sqrt(domain_size, params.c_grover) * query_rounds


def nested_cost_predict(
    sizes: Sequence[int],
    setup_costs: Sequence[int],
    check_cost: int,
    params: QuantumCostParams = DEFAULT_PARAMS,
) -> int:
    """Evaluate the nested search recursion on explicit per-level costs.

    setup_costs may have k-1 or k entries; the final level's setup defaults
    to 0 (level-k setup is optional in this framework).
    """
    k = len(sizes)
    if k < 1:
        raise ValueError("need at least one level")
    costs = list(setup_costs)
    if len(costs) == k - 1:
        costs.append(0)
    if len(costs) != k:
        raise ValueError(f"expected {k - 1} or {k} setup costs, got {len(costs)}")
    acc = check_cost
    for size, s in zip(reversed(sizes), reversed(costs)):
        acc = ceil_scaled_sqrt(size, params.c_grover) * (s + acc)
    return params.reps * acc


def charge_search(
    ledger: CostLedger,
    domain_size: int,
    query_rounds: int,
    params: QuantumCostParams,
    model: str,
    phase: str,
) -> int:
    rounds = grover_cost(domain_size, query_rounds, params)
    ledger.charge(phase, model, "quantum", rounds)
    return rounds


def run_search(
    domain_size: int,
    checker: Checker,
    ledger: CostLedger,
    params: QuantumCostParams = DEFAULT_PARAMS,
    seed: int = 0,
    model: str = "clique",
    phase: str = "quantum-search",
) -> SearchOutcome:
    """Flat search: ordered classical evaluation, search-formula round charge.

    The charge uses the measured per-query rounds and is independent of
    where (or whether) a marked element lies.  Query costs must be uniform
    across the domain; checkers here derive them from analytic set sizes.
    """
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")
    found = False
    witness: Optional[Tuple[int, ...]] = None
    queries = 0
    query_rounds: Optional[int] = None
    for i in range(domain_size):
        marked, rounds = checker(i)
        queries += 1
        if query_rounds is None:
            query_rounds = rounds
        elif rounds != query_rounds:
            raise RuntimeError(
                f"query cost inhomogeneity: query {i} cost {rounds}, expected {query_rounds}"
            )
        if marked:
            found = True
            witness = (i,)
            break
    charged = charge_search(ledger, domain_size, query_rounds or 0, params, model, phase)
    if found and params.fail_prob > 0.0:
        rng = random.Random(_derive_seed(seed, "search-fail"))
        if rng.random() < params.fail_prob:
            found, witness = False, None
    return SearchOutcome(found, witness, charged, queries)


def run_nested_search(
    plan: NestedSearchPlan,
    ledger: CostLedger,
    seed: int = 0,
    model: str = "clique",
    phase: str = "nested-search",
) -> SearchOutcome:
    """Nested search: DFS enumeration with short-circuit; formula charge.

    Setups execute once per enumerated prefix (the checks below them read
    what they compute) but their rounds enter the charge once per
    level, inside the nesting formula, since quantum queries reuse the same
    distributed setup.  Setup costs must be homogeneous within a level.
    """
    k = len(plan.levels)
    setup_costs: List[Optional[int]] = [None] * k
    check_cost: Optional[int] = None
    queries = 0
    witness: Optional[Tuple[int, ...]] = None

    def record_setup(level: int, rounds: int) -> None:
        if setup_costs[level] is None:
            setup_costs[level] = rounds
        elif setup_costs[level] != rounds:
            raise RuntimeError(
                f"setup cost inhomogeneity at level {level + 1}: "
                f"{rounds} != {setup_costs[level]}"
            )

    def descend(level: int, prefix: Tuple[int, ...]) -> bool:
        nonlocal check_cost, queries, witness
        lv = plan.levels[level]
        for x in range(lv.domain_size):
            pfx = prefix + (x,)
            if lv.setup is not None:
                record_setup(level, lv.setup(pfx))
            if level == k - 1:
                marked, rounds = plan.checker(pfx)
                queries += 1
                if check_cost is None:
                    check_cost = rounds
                elif check_cost != rounds:
                    raise RuntimeError(
                        f"check cost inhomogeneity: {rounds} != {check_cost}"
                    )
                if marked:
                    witness = pfx
                    return True
            else:
                if descend(level + 1, pfx):
                    return True
        return False

    found = descend(0, ())
    sizes = [lv.domain_size for lv in plan.levels]
    costs = [c or 0 for c in setup_costs]
    charged = nested_cost_predict(sizes, costs, check_cost or 0, plan.params)
    ledger.charge(phase, model, "quantum", charged)
    if found and plan.params.fail_prob > 0.0:
        rng = random.Random(_derive_seed(seed, "nested-fail"))
        if rng.random() < plan.params.fail_prob:
            found, witness = False, None
    return SearchOutcome(found, witness, charged, queries)


def _derive_seed(*parts) -> int:
    """Stable integer seed from mixed parts (independent of PYTHONHASHSEED)."""
    text = "|".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
