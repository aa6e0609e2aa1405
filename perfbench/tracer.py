"""Per-layer tracing by rebinding the public functions of `qcongest`.

A traced run replaces each listed function with a wrapper in every
`qcongest` module that holds a reference to it, so callers that imported the
name (``from .graph import iter_cycles``) go through the wrapper too.  Each
wrapper opens a span; a span's self time is its duration minus the time of
the spans opened inside it.  Only per-name aggregates are kept in memory
(a protocol run opens millions of spans); they are written out at the end.

Search callbacks (checkers and level setups handed to `run_search` and
`run_nested_search`) are re-attributed to the span that called the search,
so `qsearch` self time is the search engine alone and the detector keeps
the time of its own checking code.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter

# (module, attribute, span name); one span name may cover several functions
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("graph", "generate", "graph.build"),
    ("graph", "oracle_has_clique", "graph.oracle"),
    ("cliquedetect", "detect_triangle_quintic", "cliquedetect.triangle15"),
    ("cliquedetect", "detect_plus1", "cliquedetect.plus1"),
    ("cliquedetect", "detect_nested", "cliquedetect.nested"),
    ("cliquedetect", "extend_blackbox", "cliquedetect.blackbox"),
    ("cliquedetect", "extend_sparse", "cliquedetect.sparse"),
    ("cliquedetect", "triangle_cost_only", "cliquedetect.cost_only"),
    ("cliquedetect", "plus1_cost_only", "cliquedetect.cost_only"),
    ("cliquedetect", "nested_cost_only", "cliquedetect.cost_only"),
    ("cliquedetect", "blackbox_cost_only", "cliquedetect.cost_only"),
    ("cliquedetect", "sparse_cost_only", "cliquedetect.cost_only"),
    ("cycledetect", "detect_odd_cycle", "cycledetect.detect"),
    ("cycledetect", "detect_even_cycle", "cycledetect.detect"),
    ("cycledetect", "forest_decomposition", "cycledetect.forest_decomposition"),
    ("cycledetect", "measure_congestion", "cycledetect.measure_congestion"),
    ("cycledetect", "protocol_detect_once", "cycledetect.protocol_detect_once"),
    ("intmath", "ceil_scaled_pow", "intmath.ceil_scaled_pow"),
)

# per-layer metric -> (span name, "s" for self seconds or "calls")
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "graph.build_s": ("graph.build", "s"),
    "graph.oracle_s": ("graph.oracle", "s"),
    "graph.iter_cycles_s": ("graph.iter_cycles", "s"),
    "cliquelist.list_kp_s": ("cliquelist.list_kp", "s"),
    "cliquelist.list_kp_calls": ("cliquelist.list_kp", "calls"),
    "cliquedetect.triangle15_s": ("cliquedetect.triangle15", "s"),
    "cliquedetect.plus1_s": ("cliquedetect.plus1", "s"),
    "cliquedetect.nested_s": ("cliquedetect.nested", "s"),
    "cliquedetect.blackbox_s": ("cliquedetect.blackbox", "s"),
    "cliquedetect.sparse_s": ("cliquedetect.sparse", "s"),
    "cliquedetect.cost_only_s": ("cliquedetect.cost_only", "s"),
    "qsearch.search_s": ("qsearch.search", "s"),
    "cycledetect.detect_s": ("cycledetect.detect", "s"),
    "cycledetect.measure_congestion_s": ("cycledetect.measure_congestion", "s"),
    "cycledetect.measure_congestion_calls": ("cycledetect.measure_congestion", "calls"),
    "cycledetect.forest_decomposition_s": ("cycledetect.forest_decomposition", "s"),
    "cycledetect.protocol_detect_once_s": ("cycledetect.protocol_detect_once", "s"),
    "cycledetect.protocol_reps": ("cycledetect.protocol_detect_once", "calls"),
    "netsim.congest_step_s": ("netsim.congest_step", "s"),
    "netsim.congest_steps": ("netsim.congest_step", "calls"),
    "netsim.congestnet_s": ("netsim.congestnet", "s"),
    "intmath.ceil_scaled_pow_s": ("intmath.ceil_scaled_pow", "s"),
    "intmath.ceil_scaled_pow_calls": ("intmath.ceil_scaled_pow", "calls"),
}

# per-layer metric -> counter kept by a wrapper
COUNT_METRICS = (
    "graph.iter_cycles_calls",
    "graph.cycles_yielded",
    "cliquelist.cliques_listed",
    "qsearch.queries_evaluated",
    "qsearch.domain_size",
    "netsim.words_delivered",
    "netsim.empty_steps",
    "netsim.ledger_charges",
)


class _Span:
    """Context manager timing one call; a plain class, cheaper than a generator."""

    __slots__ = ("tracer", "name", "start", "child")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.child = 0.0  # seconds of the spans opened inside this one

    def __enter__(self) -> None:
        self.tracer._stack.append(self)
        self.start = _clock()

    def __exit__(self, *exc) -> None:
        dur = _clock() - self.start
        tracer = self.tracer
        stack = tracer._stack
        stack.pop()
        tracer.self_s[self.name] += dur - self.child
        tracer.calls[self.name] += 1
        if stack:
            stack[-1].child += dur


class Tracer:
    """Span stack plus per-name self time, call counts and counters."""

    def __init__(self) -> None:
        self._stack: List[_Span] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def current(self, default: str) -> str:
        return self._stack[-1].name if self._stack else default

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def timed(self, name: str, fn: Callable) -> Callable:
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, qc) -> None:
        """Wrap the layer functions of the `qcongest` modules in namespace qc."""
        mods = [m for name, m in sys.modules.items()
                if name == "qcongest" or name.startswith("qcongest.")]
        for mod_name, attr, span_name in SPANS:
            orig = getattr(getattr(qc, mod_name), attr)
            self._rebind(mods, orig, self.timed(span_name, orig))
        self._rebind(mods, qc.graph.iter_cycles, self._iter_cycles(qc.graph.iter_cycles))
        self._rebind(mods, qc.cliquelist.list_kp, self._list_kp(qc.cliquelist.list_kp))
        for fn in (qc.qsearch.run_search, qc.qsearch.run_nested_search):
            self._rebind(mods, fn, self._search(fn))
        self._rebind(mods, qc.netsim.congest_step, self._congest_step(qc.netsim.congest_step))
        # the class stays bound in netsim, whose isinstance checks need it
        net_cls = qc.netsim.CongestNet
        self._rebind([m for m in mods if m is not qc.netsim], net_cls,
                     self.timed("netsim.congestnet", net_cls))
        charge = qc.netsim.CostLedger.charge
        counts = self.counts

        def counted_charge(ledger, *args, **kwargs):
            counts["netsim.ledger_charges"] += 1
            return charge(ledger, *args, **kwargs)

        qc.netsim.CostLedger.charge = counted_charge
        self._undo.append((qc.netsim.CostLedger, "charge", charge))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _rebind(self, mods, orig, wrapper) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    # -- wrappers that also count -----------------------------------------

    def _iter_cycles(self, fn):
        span, counts = self.span, self.counts

        def wrapper(*args, **kwargs):
            counts["graph.iter_cycles_calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                with span("graph.iter_cycles"):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                counts["graph.cycles_yielded"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _list_kp(self, fn):
        span, counts = self.span, self.counts

        def wrapper(graph, *args, **kwargs):
            with span("cliquelist.list_kp"):
                inv = fn(graph, *args, **kwargs)
            counts["cliquelist.cliques_listed"] += len(inv.mask_list(graph))
            return inv

        wrapper.__wrapped__ = fn
        return wrapper

    def _search(self, fn):
        """run_search(domain_size, checker, ...) or run_nested_search(plan, ...)."""
        span, counts, timed = self.span, self.counts, self.timed
        nested = fn.__name__ == "run_nested_search"

        def wrapper(first, *args, **kwargs):
            owner = self.current("op")
            if nested:
                domain = math.prod(lv.domain_size for lv in first.levels)
                levels = [dataclasses.replace(lv, setup=lv.setup and timed(owner, lv.setup))
                          for lv in first.levels]
                first = dataclasses.replace(first, levels=levels,
                                            checker=timed(owner, first.checker))
            else:
                domain = first
                args = (timed(owner, args[0]),) + args[1:]
            with span("qsearch.search"):
                out = fn(first, *args, **kwargs)
            counts["qsearch.queries_evaluated"] += out.queries_evaluated
            counts["qsearch.domain_size"] += domain
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _congest_step(self, fn):
        span, counts = self.span, self.counts

        def wrapper(*args, **kwargs):
            with span("netsim.congest_step"):
                inbox = fn(*args, **kwargs)
            counts["netsim.words_delivered"] += len(inbox)
            if not inbox:
                counts["netsim.empty_steps"] += 1
            return inbox

        wrapper.__wrapped__ = fn
        return wrapper
