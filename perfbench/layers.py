"""Per-layer metrics of one traced pass.

Each metric is computed from the span summaries of the pass's child
processes (see ``tracer.py``) and from facts the parent measured itself
(command latencies, stdout and cache bytes).  A metric whose spans could
not be installed, because the wrapped name no longer exists, is
reported as absent: value 0 and its name on the report's ``absent`` line.
"""

from __future__ import annotations

from stats import has_tail, median, percentile, ratio
from tracer import BOUND_EVALUATORS, PAIR_SPANS


class PassSpans:
    """Span totals summed over the children of one pass."""

    def __init__(self, children):
        self.spans: dict[str, dict] = {}
        self.missing: set[str] = set()
        self.pair_ms: list[float] = []
        self.eta_in_solve = 0
        self.cells = 0
        for run in children:
            trace = (run.result or {}).get("trace")
            if not trace:
                continue
            self.missing.update(trace["missing"])
            self.pair_ms += trace["pair_ms"]
            self.eta_in_solve += trace["eta_in_solve"]
            self.cells += trace["cells"]
            for name, rec in trace["spans"].items():
                acc = self.spans.setdefault(name, dict.fromkeys(rec, 0))
                for key, value in rec.items():
                    acc[key] += value

    def get(self, name: str, key: str):
        return self.spans.get(name, {}).get(key, 0)


def _cli_self_ms(children) -> float:
    """Median over CLI commands of wall minus start-up minus traced
    compute, in raw seconds like the spans."""
    values = [(run.raw_wall_s - run.raw_startup_s - run.result["trace"]["roots_s"]) * 1e3
              for run in children
              if getattr(run, "label", None) and run.result and "trace" in run.result]
    return median(values) if values else 0.0


def _evaluated_frac(reports) -> float:
    samples = sum(r["samples"] for r in reports)
    return ratio(sum(r["samples"] - r["failures"] for r in reports), samples)


# name -> (unit, spans it depends on, function of (PassSpans, Pass))
PER_LAYER = {
    "partitions.raw_strips.calls": (
        "count", ["partitions.raw_strips"],
        lambda s, p: s.get("partitions.raw_strips", "calls")),
    "partitions.raw_strips.self_s": (
        "s", ["partitions.raw_strips"],
        lambda s, p: s.get("partitions.raw_strips", "self_s")),
    "partitions.enumerate_partitions.s": (
        "s", ["partitions.enumerate_partitions"],
        lambda s, p: s.get("partitions.enumerate_partitions", "total_s")),
    "partitions.hook_multiset.calls": (
        "count", ["partitions.hook_multiset"],
        lambda s, p: s.get("partitions.hook_multiset", "calls")),
    "characters.character_table.self_s": (
        "s", ["characters.character_table"],
        lambda s, p: s.get("characters.character_table", "self_s")),
    "characters.zero_count.self_s": (
        "s", ["characters.zero_count"],
        lambda s, p: s.get("characters.zero_count", "self_s")),
    "characters.strips_per_cell": (
        "calls/cell", ["partitions.raw_strips", "characters.character_table"],
        lambda s, p: ratio(s.get("partitions.raw_strips", "calls"),
                           s.cells + len(s.pair_ms))),
    "characters.pair_p50_ms": (
        "ms", list(PAIR_SPANS),
        lambda s, p: percentile(s.pair_ms, 50) if s.pair_ms else 0.0),
    "characters.pair_p99_ms": (
        "ms", list(PAIR_SPANS),
        lambda s, p: percentile(s.pair_ms, 99) if has_tail(s.pair_ms, 99) else 0.0),
    "characters.pair_max_ms": (
        "ms", list(PAIR_SPANS),
        lambda s, p: max(s.pair_ms) if s.pair_ms else 0.0),
    "characters.lower_bound_partial.self_s": (
        "s", ["characters.lower_bound_partial"],
        lambda s, p: s.get("characters.lower_bound_partial", "self_s")),
    "counting.tcore_count.calls": (
        "count", ["counting.tcore_count"],
        lambda s, p: s.get("counting.tcore_count", "calls")),
    "counting.tcore_count.s": (
        "s", ["counting.tcore_count"],
        lambda s, p: s.get("counting.tcore_count", "total_s")),
    "counting.partition_count.s": (
        "s", ["counting.partition_count"],
        lambda s, p: s.get("counting.partition_count", "total_s")),
    "counting.build_bounded_table.s": (
        "s", ["counting.build_bounded_table"],
        lambda s, p: s.get("counting.build_bounded_table", "total_s")),
    "counting.table_write_cmd_ms": (
        "ms", [], lambda s, p: p.facts.get("cmd_ms", {}).get("cold:count-pt-2000", 0.0)),
    "counting.table_read_cmd_ms": (
        "ms", [], lambda s, p: p.facts.get("cmd_ms", {}).get("warm:count-pt-2000", 0.0)),
    "counting.cache_bytes_written": (
        "bytes", [], lambda s, p: p.facts.get("cache_bytes", 0)),
    "sampling.random_partition.calls": (
        "count", ["sampling.random_partition"],
        lambda s, p: s.get("sampling.random_partition", "calls")),
    "sampling.draws_per_s": (
        "1/s", ["sampling.random_partition"],
        lambda s, p: ratio(s.get("sampling.random_partition", "calls"),
                           s.get("sampling.random_partition", "total_s"))),
    "sampling.evaluated_frac": (
        "fraction", [], lambda s, p: _evaluated_frac(p.facts.get("reports", []))),
    "asymptotics.solve_saddle.calls": (
        "count", ["asymptotics.solve_saddle"],
        lambda s, p: s.get("asymptotics.solve_saddle", "calls")),
    "asymptotics.solve_saddle.s": (
        "s", ["asymptotics.solve_saddle"],
        lambda s, p: s.get("asymptotics.solve_saddle", "total_s")),
    "asymptotics.eta_log_deriv.per_solve": (
        "calls/solve", ["asymptotics.eta_log_deriv", "asymptotics.solve_saddle"],
        lambda s, p: ratio(s.eta_in_solve, s.get("asymptotics.solve_saddle", "calls"))),
    "asymptotics.bound_evals": (
        "count", list(BOUND_EVALUATORS),
        lambda s, p: sum(s.get(b, "calls") for b in BOUND_EVALUATORS)),
    "asymptotics.bound_s": (
        "s", list(BOUND_EVALUATORS),
        lambda s, p: sum(s.get(b, "self_s") for b in BOUND_EVALUATORS)),
    "asymptotics.regime_coverage": (
        "fraction", list(BOUND_EVALUATORS),
        lambda s, p: ratio(sum(s.get(b, "calls") - s.get(b, "raised")
                               for b in BOUND_EVALUATORS),
                           sum(s.get(b, "calls") for b in BOUND_EVALUATORS))),
    "cli.startup_ms": (
        "ms", [], lambda s, p: median([c.startup_s for c in p.children]) * 1e3),
    "cli.self_ms": ("ms", [], lambda s, p: _cli_self_ms(p.children)),
    "cli.stdout_bytes": ("bytes", [], lambda s, p: p.facts.get("stdout_bytes", 0)),
}

OVERHEAD = ("trace.overhead_frac", "fraction")


def layer_metrics(traced_pass) -> tuple[dict[str, float], set[str]]:
    """Per-layer values of one traced pass, and the names that are absent."""
    spans = PassSpans(traced_pass.children)
    values, absent = {}, set()
    for name, (_, sources, fn) in PER_LAYER.items():
        if any(src in spans.missing for src in sources):
            values[name] = 0.0
            absent.add(name)
        else:
            values[name] = fn(spans, traced_pass)
    return values, absent
