"""Spans and counts at relaysim's layer boundaries, recorded from outside.

`Tracer` replaces each traced function under every name a relaysim module
binds it to: `harness` imports `sample_channels`, `run_contention`,
`mws_step`, `apply_slot`, ... by name and `cli` imports `run_seeds` the same
way, so patching only the defining module would intercept nothing. Each call
records a span (name, start, end, parent span) in compact in-memory arrays;
hooks at the same boundaries count what the layer did. Spans are written out
once the traced pass is over, and the per-layer metrics are derived from them.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

from relaysim import IDLE

# Traced callables, as relaysim.<module>.<name>[.<method>]. The order is the
# span-name id stored per span.
TRACED = (
    "rng.RunStreams",
    "rng.sample_channels",
    "rng.sample_arrivals",
    "contention.run_contention",
    "contention.blind_decision",
    "contention.sampled_decision",
    "scheduling.mws_step",
    "scheduling.rqcsma_step",
    "scheduling.qcsma_step",
    "scheduling.ub_step",
    "core.apply_slot",
    "core.SlotRecord.to_json",
    "harness.run_once",
    "harness.run_seeds",
    "harness.classify_stability",
    "harness.sweep_grid",
    "harness.boundary_oracle",
    "cli.main",
)
# Count metrics that must repeat exactly between two traced passes.
COUNTS = ("contention.collisions", "scheduling.blind_off_holds",
          "core.useful_slots", "harness.run_once.slots", "rng.scheduler_coins",
          "scheduling.rqcsma_memory_cells")


class Tracer:
    """Context manager: patch on entry, restore every binding on exit."""

    def __init__(self):
        self.span_name = array("B")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._streams = None
        self._undo = []

    # -- hooks: (args, result) of one call --------------------------------
    def _on_streams(self, args, streams):
        self._streams = streams

    def _on_contention(self, args, outcome):
        self.counts["contention.collisions"] += outcome.collision

    def _on_blind_step(self, args, x):
        """qcsma_step and ub_step take the channel second; a relay they hold
        with its channel OFF wastes the slot."""
        self.counts["scheduling.blind_off_holds"] += (
            x is not IDLE and x != 0 and not args[1][x])

    def _on_apply(self, args, result):
        self.counts["core.useful_slots"] += result[1] != "none"

    def _on_run_once(self, args, result):
        config = args[0]
        self.counts["harness.run_once.slots"] += config.horizon
        self.counts["rng.scheduler_coins"] += self._streams.scheduler.position
        self._streams = None
        if config.scheduler == "rqcsma":
            self.counts["scheduling.rqcsma_memory_cells"] += \
                result.memory_entries

    def _hooks(self):
        return {"rng.RunStreams": self._on_streams,
                "contention.run_contention": self._on_contention,
                "scheduling.qcsma_step": self._on_blind_step,
                "scheduling.ub_step": self._on_blind_step,
                "core.apply_slot": self._on_apply,
                "harness.run_once": self._on_run_once}

    # -- patching ---------------------------------------------------------
    def _wrap(self, nid, fn, hook):
        name_append = self.span_name.append
        start_append = self.span_start.append
        parent_append = self.span_parent.append
        ends = self.span_end
        end_append = ends.append
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(ends)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def __enter__(self):
        hooks = self._hooks()
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "relaysim"
                                         or n.startswith("relaysim."))]
        for nid, dotted in enumerate(TRACED):
            module, *path = dotted.split(".")
            owner = importlib.import_module(f"relaysim.{module}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(nid, original, hooks.get(dotted))
            # A method is looked up on its class; a function under every
            # module-level name bound to it.
            sites = [owner] if isinstance(owner, type) else modules
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, attr, wrapper)
                        self._undo.append((site, attr, original))
        return self

    def __exit__(self, *exc):
        for site, attr, original in reversed(self._undo):
            setattr(site, attr, original)
        self._undo.clear()
        return False

    # -- results ----------------------------------------------------------
    def arrays(self):
        return {"name": np.frombuffer(self.span_name, dtype=np.uint8),
                "start_ns": np.frombuffer(self.span_start, dtype=np.int64),
                "end_ns": np.frombuffer(self.span_end, dtype=np.int64),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32)}

    def save(self, path):
        np.savez(path, labels=np.array(TRACED), **self.arrays())

    def layer_totals(self):
        """Per traced name: calls, inclusive ns and self ns (span minus the
        spans it directly caused), plus the oracle's probe count."""
        a = self.arrays()
        names, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child = parent >= 0
        child_ns = np.bincount(parent[child], weights=dur[child],
                               minlength=len(dur))
        k = len(TRACED)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child_ns, minlength=k)
        out = {name: {"calls": int(calls[i]), "total_ns": float(total[i]),
                      "self_ns": float(own[i])}
               for i, name in enumerate(TRACED)}
        run_seeds = TRACED.index("harness.run_seeds")
        oracle = TRACED.index("harness.boundary_oracle")
        in_oracle = child & (names == run_seeds)
        probes = int((names[parent[in_oracle]] == oracle).sum())
        return out, probes
