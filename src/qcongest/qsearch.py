"""Distributed quantum search, simulated at the round-cost level.

The checking procedures of every algorithm here are classical, so answers
are computed exactly by ordered enumeration with short-circuit, while the
rounds charged follow the search-cost formulas: a flat search over X costs
reps * ceil(c * sqrt(|X|)) * r, and a nested search over X_1 x ... x X_k
costs sqrt(|X_1|)(s_1 + sqrt(|X_2|)(s_2 + ... + sqrt(|X_k|)(s_k + c))),
with the ceil applied at each level and the reps factor once, outermost.
There is one search engine: the flat search is the one-level nested
search, so both enumerate, check cost homogeneity and inject failures the
same way.  The engine enumerates the levels above the last one element at
a time and answers each last level with one scan: the plan's checker
returns the index of the scan's first marked element, and the leaf
queries counted are the ones a walk of that level up to it would check.

Cost and answer are fully separated: which element is marked never changes
the rounds charged.  A search's price is a function of its cost triple
(level sizes, setup rounds, check rounds) alone, and charge_search charges
that price: a full search charges the triple it measured, and a cost-only
run the triple its closed form predicts (one level without setups is the
flat grover_cost).
"""

from __future__ import annotations

import functools
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
# scan(prefix of the levels above the last) -> (first marked index or None, rounds)
Scan = Callable[[Tuple[int, ...]], Tuple[Optional[int], int]]
Setup = Callable[[Tuple[int, ...]], int]
# (level domain sizes, setup rounds s_1..s_{k-1} or s_1..s_k, check rounds)
Costs = Tuple[Sequence[int], Sequence[int], int]


@dataclass(frozen=True)
class SearchLevel:
    domain_size: int
    setup: Optional[Setup] = None

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError("level domain size must be >= 1")


@dataclass(frozen=True)
class NestedSearchPlan:
    """A search over levels[0] x ... x levels[k-1].

    checker(prefix) answers the whole last level under one prefix of the
    levels above (a (k-1)-tuple of indices): it returns the index of the
    first marked element of the last level, or None, and the rounds of
    one check, which every element of the level must share.  A level's
    setup runs once per element of its own level with the prefix that
    ends in that element; the last level's setup runs once per scan, with
    the scan's prefix.
    """

    levels: Sequence[SearchLevel]
    checker: Scan
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


def grover_cost(domain_size: int, query_rounds: int,
                params: QuantumCostParams = DEFAULT_PARAMS) -> int:
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
    to 0 (level-k setup is optional in this framework).  The value is a
    pure function of its arguments, computed once per key and kept, so a
    search of the same sizes and costs (the same stage of a detection run
    again) does no arithmetic.
    """
    return _nested_cost(tuple(sizes), tuple(setup_costs), check_cost, params)


@functools.lru_cache(maxsize=4096)
def _nested_cost(sizes: Tuple[int, ...], setup_costs: Tuple[int, ...], check_cost: int,
                 params: QuantumCostParams) -> int:
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
    costs: Costs,
    params: QuantumCostParams,
    model: str,
    phase: str,
) -> int:
    """Charge a search from its cost triple alone, as a full run charges it."""
    rounds = nested_cost_predict(*costs, params)
    ledger.charge(phase, model, "quantum", rounds)
    return rounds


def record_search(
    ledger: CostLedger,
    costs: Costs,
    queries: int,
    params: QuantumCostParams,
    model: str,
    phase: str,
) -> int:
    """Charge a search's cost triple and add its `queries` leaf queries to
    ledger.counts["queries"]: the one place where queries are counted,
    whether each was checked (_search) or the search was settled without
    a check because every query is known to answer False."""
    rounds = charge_search(ledger, costs, params, model, phase)
    ledger.counts["queries"] += queries
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
    """Flat search: the one-level nested search over range(domain_size).

    The charge uses the measured per-query rounds and is independent of
    where (or whether) a marked element lies.  Query costs must be uniform
    across the domain; checkers here derive them from analytic set sizes.
    The per-index checker runs inside the level's one scan, in index
    order, up to the first marked index.
    """
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")

    def scan(prefix: Tuple[int, ...]) -> Tuple[Optional[int], int]:
        cost = None
        for i in range(domain_size):
            marked, rounds = checker(i)
            if cost is None:
                cost = rounds
            elif cost != rounds:
                raise RuntimeError(f"check cost inhomogeneity: {rounds} != {cost}")
            if marked:
                return i, cost
        return None, cost

    return _search(NestedSearchPlan([SearchLevel(domain_size)], scan, params), ledger, seed,
                   model, phase)


def run_nested_search(
    plan: NestedSearchPlan,
    ledger: CostLedger,
    seed: int = 0,
    model: str = "clique",
    phase: str = "nested-search",
) -> SearchOutcome:
    """Nested search: DFS enumeration with short-circuit; formula charge.

    The levels above the last are enumerated, and each last level is one
    scan (plan.checker).  Setups execute once per enumerated prefix, and
    the last level's once per scan, but their rounds enter the charge once
    per level, inside the nesting formula, since quantum queries reuse the
    same distributed setup.  Setup costs must be homogeneous within a
    level, and check costs across scans.
    """
    return _search(plan, ledger, seed, model, phase)


def _search(
    plan: NestedSearchPlan,
    ledger: CostLedger,
    seed: int,
    model: str,
    phase: str,
) -> SearchOutcome:
    """The one search engine behind run_search and run_nested_search.

    Neither public name calls the other, so a tracer that wraps both counts
    each search once.  A scan that finds its first marked element at index
    i counts i + 1 leaf checks and ends the search; one that finds none
    counts its level's size.  That is what a walk of the level, element
    by element up to the first marked one, would check.  record_search
    charges the measured triple and counts those leaf checks.  A found
    witness is dropped with probability fail_prob, drawn from
    derive_seed(seed, "search-fail") for flat and nested searches alike;
    the charge stays the same.
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
        if level == k - 1:
            if lv.setup is not None:
                record_setup(level, lv.setup(prefix))
            hit, rounds = plan.checker(prefix)
            if check_cost is None:
                check_cost = rounds
            elif check_cost != rounds:
                raise RuntimeError(f"check cost inhomogeneity: {rounds} != {check_cost}")
            if hit is None:
                queries += lv.domain_size
                return False
            queries += hit + 1
            witness = prefix + (hit,)
            return True
        for x in range(lv.domain_size):
            pfx = prefix + (x,)
            if lv.setup is not None:
                record_setup(level, lv.setup(pfx))
            if descend(level + 1, pfx):
                return True
        return False

    found = descend(0, ())
    del descend  # it refers to itself; freeing it here keeps searches out of the cyclic GC
    costs = ([lv.domain_size for lv in plan.levels], [c or 0 for c in setup_costs],
             check_cost or 0)
    charged = record_search(ledger, costs, queries, plan.params, model, phase)
    if found and plan.params.fail_prob > 0.0:
        rng = random.Random(derive_seed(seed, "search-fail"))
        if rng.random() < plan.params.fail_prob:
            found, witness = False, None
    return SearchOutcome(found, witness, charged, queries)


def derive_seed(*parts) -> int:
    """Stable integer seed from mixed parts (independent of PYTHONHASHSEED)."""
    text = "|".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
