"""Span recorder for the traced run.

The tracer wraps public (and a few internal) functions of the
``charcensus`` modules at every name their callers look them up by:
modules import functions by name, so ``characters._chi`` reaches
``charcensus.characters.raw_strips``, the bound evaluators reach
``charcensus.asymptotics.eta_log_deriv`` and the density estimator
reaches ``charcensus.sampling.random_partition``.  Each call records a
span (name, start, end, parent, operation id, raised flag) into flat
arrays that stay in memory until the child process summarises them.

A target whose defining module or attribute no longer exists is
reported in ``missing`` and left alone, so a later refactor that
deletes a function makes its metrics absent instead of crashing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

from stats import self_times

# (span name, defining module, attribute, lookup sites or None for every
# charcensus module that binds the same function object).  Spans without
# a metric of their own (load_or_build, estimate_zero_density) still mark
# a command's traced compute for cli.self_ms.
TARGETS = (
    ("partitions.raw_strips", "charcensus.partitions", "raw_strips", None),
    ("partitions.enumerate_partitions", "charcensus.partitions",
     "enumerate_partitions", None),
    ("partitions.hook_multiset", "charcensus.partitions", "hook_multiset", None),
    ("characters.character_table", "charcensus.characters", "character_table", None),
    ("characters.zero_count", "charcensus.characters", "zero_count", None),
    ("characters.character_value", "charcensus.characters", "character_value", None),
    ("characters.lower_bound_partial", "charcensus.characters",
     "lower_bound_partial", None),
    # the estimator's per-pair call; the recursion inside characters keeps
    # its own unwrapped binding
    ("characters.pair", "charcensus.sampling", "_chi", ("charcensus.sampling",)),
    ("counting.partition_count", "charcensus.counting", "partition_count", None),
    ("counting.tcore_count", "charcensus.counting", "tcore_count", None),
    ("counting.build_bounded_table", "charcensus.counting",
     "build_bounded_table", None),
    ("counting.load_or_build", "charcensus.counting", "load_or_build", None),
    ("sampling.random_partition", "charcensus.sampling", "random_partition", None),
    ("sampling.estimate_zero_density", "charcensus.sampling",
     "estimate_zero_density", None),
    ("asymptotics.solve_saddle", "charcensus.asymptotics", "solve_saddle", None),
    ("asymptotics.eta_log_deriv", "charcensus.asymptotics", "eta_log_deriv", None),
    ("asymptotics.core_count_bound", "charcensus.asymptotics", "core_count_bound", None),
    ("asymptotics.strip_zero_bound", "charcensus.asymptotics", "strip_zero_bound", None),
    ("asymptotics.full_table_bound", "charcensus.asymptotics", "full_table_bound", None),
)

# functions that return a generator: the wrapper drains it inside the
# span so the span covers the enumeration work
GENERATORS = {"partitions.enumerate_partitions"}

BOUND_EVALUATORS = ("asymptotics.core_count_bound", "asymptotics.strip_zero_bound",
                    "asymptotics.full_table_bound")
PAIR_SPANS = ("characters.pair", "characters.character_value")


class Tracer:
    """In-memory span store for one process.

    ``current_op`` tags new spans with the operation the child is
    running; a negative id marks the benchmark's own checking work,
    which the summary leaves out.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.stack: list[int] = []
        self.current_op = 0
        self.cells = 0  # table cells built by character_table
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self.stack
        add_name, add_start = self.span_name.append, self.start.append
        add_end, add_parent = self.end.append, self.parent.append
        add_op, add_raised = self.op.append, self.raised.append
        ends, raised = self.end, self.raised
        tracer = self
        drain = name in GENERATORS
        is_table = name == "characters.character_table"

        def wrapper(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_op(tracer.current_op)
            add_raised(0)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if is_table:
                tracer.cells += len(result.rows) ** 2
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Replace every lookup site of each target with one wrapper."""
        for name, module_name, attr, sites in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if sites is None:
                sites = [m for m in list(sys.modules)
                         if m == "charcensus" or m.startswith("charcensus.")]
            for site in sites:
                mod = sys.modules.get(site)
                if mod is not None and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Aggregate the spans: per name calls, total and self seconds,
        raised count; solver work; per-pair latencies; root time."""
        n = len(self.end)
        selfs = self_times(self.start, self.end, self.parent)
        per: dict[str, dict] = {}
        for name in self.names:
            per[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0}
        solve_id = self.name_ids.get("asymptotics.solve_saddle")
        eta_id = self.name_ids.get("asymptotics.eta_log_deriv")
        pair_ids = {self.name_ids[p] for p in PAIR_SPANS if p in self.name_ids}
        in_solve = [False] * n
        eta_in_solve = 0
        pair_ms = []
        roots_s = 0.0
        for i in range(n):
            if self.op[i] < 0:
                continue  # the benchmark's own checking work
            nid = self.span_name[i]
            rec = per[self.names[nid]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += selfs[i]
            rec["raised"] += self.raised[i]
            p = self.parent[i]
            if p < 0:
                roots_s += dur
            in_solve[i] = nid == solve_id or (p >= 0 and in_solve[p])
            if nid == eta_id and p >= 0 and in_solve[p]:
                eta_in_solve += 1
            if nid in pair_ids and (p < 0 or self.span_name[p] not in pair_ids):
                pair_ms.append(dur * 1e3)
        return {"missing": self.missing, "spans": per, "eta_in_solve": eta_in_solve,
                "pair_ms": pair_ms, "roots_s": roots_s, "cells": self.cells,
                "span_count": n}
