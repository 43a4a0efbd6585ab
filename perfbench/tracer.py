"""Span recording around tradelab's public functions, installed from outside.

A traced run replaces each public function named in ``TRACED`` with a wrapper
that records one span per call: name, start, end and the index of the span
that was open when it started (its parent). Spans stay in memory, in compact
arrays, and are written out once at the end of the run. A span's self time
is its duration minus the time covered by its child spans.

Every name is patched where its caller looks it up: ``harness`` imports
``run_algorithm``, ``expanded_tc``, ``frontier`` and ``sample_cost_surface``
by name, ``cli`` imports ``load_scenario`` by name, while methods are looked
up on their class and ``tactics`` functions through the module.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT_SPAN = "request"   # one per request, opened by the benchmark

# (span name, module path, attribute path) for every traced public function.
TRACED = (
    ("cli.main", "tradelab.cli", "main"),
    ("scenario.load_scenario", "tradelab.cli", "load_scenario"),
    ("harness.run", "tradelab.harness", "run"),
    ("venue_sim.init", "tradelab.venue_sim", "MarketSim.__init__"),
    ("venue_sim.advance", "tradelab.venue_sim", "MarketSim.advance"),
    ("venue_sim.dispatch", "tradelab.venue_sim", "MarketSim.dispatch"),
    ("exec_algos.run_algorithm", "tradelab.harness", "run_algorithm"),
    ("tactics.aggregate", "tradelab.tactics", "aggregate"),
    ("tactics.route", "tradelab.tactics", "route"),
    ("cost_model.sample_cost_surface", "tradelab.harness", "sample_cost_surface"),
    ("optimizer.frontier", "tradelab.harness", "frontier"),
    ("tca.expanded_tc", "tradelab.harness", "expanded_tc"),
    ("orderbook.submit", "tradelab.orderbook", "OrderBook.submit"),
    ("orderbook.cancel", "tradelab.orderbook", "OrderBook.cancel"),
    ("orderbook.remaining", "tradelab.orderbook", "OrderBook.remaining"),
    ("orderbook.expire", "tradelab.orderbook", "OrderBook.expire"),
    ("orderbook.snapshot", "tradelab.orderbook", "OrderBook.snapshot"),
    ("orderbook.log.record", "tradelab.orderbook", "EventLog.record"),
    ("orderbook.log.to_text", "tradelab.orderbook", "EventLog.to_text"),
)


class Tracer:
    """Records nested spans and per-name self time; single-threaded."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]          # indices of open spans; -1 is "no span"
        self._name_stack = [-1]     # name ids of open spans
        self._child = [0.0]         # time covered by children of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.on = True
        self._undo: list = []
        # counts taken at layer boundaries by the hooks below
        self.counts: dict[str, float] = defaultdict(float)
        self.sims: list = []
        self.dispatched: set = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def parent_name(self) -> str:
        nid = self._name_stack[-1]
        return self.names[nid] if nid >= 0 else ""

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._name_stack.append(nid)
        self._child.append(0.0)
        self.span_start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        self._stack.pop()
        nid = self._name_stack.pop()
        child = self._child.pop()
        duration = end - self.span_start[idx]
        self.span_end[idx] = end
        self._child[-1] += duration
        name = self.names[nid]
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Benchmark-side checks run here, so they add no spans or counts."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        import importlib

        hooks = {
            "venue_sim.init": lambda args, _: self.sims.append(args[0]),
            "venue_sim.dispatch": lambda args, _: self.dispatched.add(args[2].order_id),
            "orderbook.submit": self._on_submit,
            "orderbook.remaining": self._on_remaining,
            "orderbook.snapshot": self._on_snapshot,
            "tactics.aggregate": self._on_aggregate,
            "exec_algos.run_algorithm": self._on_run_algorithm,
        }
        for name, module_name, attr in TRACED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(name, original, hooks.get(name)))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def _on_submit(self, args, _result) -> None:
        # Background flow: submits made by the simulator itself, not orders
        # the runner dispatched through it.
        if (self.parent_name() in ("venue_sim.advance", "venue_sim.init")
                and args[1].order_id not in self.dispatched):
            self.counts["bg_orders"] += 1

    def _on_remaining(self, _args, result) -> None:
        if self.parent_name() == "venue_sim.advance":
            self.counts["sim_remaining_probes"] += 1
            self.counts["sim_remaining_hits"] += result > 0

    def _on_snapshot(self, _args, result) -> None:
        self.counts["snapshot_entries"] += sum(
            len(level.entries) for level in result.bids + result.asks)

    def _on_aggregate(self, _args, result) -> None:
        self.counts["aggregate_levels"] += len(result.bids) + len(result.asks)

    def _on_run_algorithm(self, args, result) -> None:
        self.counts["children"] += len(result.children)
        self.counts["filled"] += result.filled
        self.counts["parent_qty"] += args[1].quantity

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span out: name id, parent index, start and end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))

    def self_coverage(self) -> float:
        """Share of the root spans' time that falls inside traced layers.

        The rest is the root span's own self time: the benchmark's checks and
        restores, and any program code that no wrapper covers.
        """
        total = self.total_s.get(ROOT_SPAN, 0.0)
        return 1.0 - self.self_s.get(ROOT_SPAN, 0.0) / total if total else 0.0
