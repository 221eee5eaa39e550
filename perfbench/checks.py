"""Output checks against the reference values recorded by
``make_reference.py``.

Exact values (big integers as decimal strings, regime names, digests)
must match exactly.  Analytic values (log-scale doubles) must match
within ANALYTIC_RTOL, relative to the reference.  Density estimates
are checked exactly at the reference seed and statistically elsewhere.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
ANALYTIC_RTOL = 1e-6
# a density estimate may differ from the reference density by at most this
# many standard deviations of the difference
DENSITY_SIGMAS = 6.0
# density-report fields that do not depend on the interval method
DENSITY_EXACT_KEYS = ("N", "samples", "zeros_observed", "failures",
                      "point_estimate", "seed")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def mismatches(actual, expected, path: str = "") -> list[str]:
    """Every place where actual differs from expected; floats compare
    within ANALYTIC_RTOL, everything else exactly."""
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if math.isclose(actual, expected, rel_tol=ANALYTIC_RTOL, abs_tol=1e-12):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in expected.keys() | actual.keys():
            if key not in actual or key not in expected:
                out.append(f"{path}.{key}: present on one side only")
            else:
                out.extend(mismatches(actual[key], expected[key], f"{path}.{key}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(mismatches(a, e, f"{path}[{i}]"))
        return out
    if actual != expected or type(actual) is not type(expected):
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def csv_cells(text: str) -> list[list]:
    """CSV rows with numeric-looking cells parsed: integers exactly,
    other numbers as floats (compared within tolerance)."""
    rows = []
    for row in csv.reader(io.StringIO(text)):
        cells = []
        for cell in row:
            try:
                cells.append(int(cell))
                continue
            except ValueError:
                pass
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def density_problems(report: dict, expected_density: float, ref_samples: int,
                     reference: dict | None) -> list[str]:
    """Checks on one density report.  With ``reference`` (same seed and
    size) the seed-determined fields must match exactly; otherwise the
    point estimate must lie within DENSITY_SIGMAS standard deviations of
    ``expected_density`` (estimated from ``ref_samples`` samples, or
    exact when ref_samples is 0)."""
    problems = []
    evaluated = report["samples"] - report["failures"]
    if report["failures"]:
        problems.append(f"{report['failures']} samples lost to the step budget")
    if evaluated < 1:
        return problems + ["no sample evaluated"]
    if report["point_estimate"] != report["zeros_observed"] / evaluated:
        problems.append("point estimate is not zeros / evaluated")
    if not 0.0 <= report["ci_low"] <= report["point_estimate"] <= report["ci_high"] <= 1.0:
        problems.append(f"interval [{report['ci_low']}, {report['ci_high']}] "
                        f"does not hold the estimate")
    if not math.isclose(report["conjecture_value"], 2 / math.log(report["N"]),
                        rel_tol=1e-12):
        problems.append("conjecture value is not 2 / log N")
    if reference is not None:
        for key in DENSITY_EXACT_KEYS:
            if report[key] != reference[key]:
                problems.append(f"{key}: {report[key]!r} != reference {reference[key]!r}")
        return problems
    p = expected_density
    var = p * (1 - p) / evaluated + (p * (1 - p) / ref_samples if ref_samples else 0.0)
    if abs(report["point_estimate"] - p) > DENSITY_SIGMAS * math.sqrt(var):
        problems.append(f"estimate {report['point_estimate']:.4f} is more than "
                        f"{DENSITY_SIGMAS} sigma from {p:.4f}")
    return problems
