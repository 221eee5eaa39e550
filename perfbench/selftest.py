"""Self-test of the harness arithmetic; needs no charcensus sources.

    python3 perfbench/selftest.py

Covers self time from nested and overlapping spans, the choice of the
highest percentile with at least ten samples beyond it, the error-rate
base, the pace normalization, the tolerance comparison of outputs, the
density check, and that BENCHMARK.json names exactly the metrics the
runs print.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import ANALYTIC_RTOL, density_problems, mismatches  # noqa: E402
from layers import OVERHEAD, PER_LAYER  # noqa: E402
from pace import REF_UNIT_S, Pace  # noqa: E402
from stats import error_rate, median, percentile, self_times, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_self_times_nested():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    got = self_times(starts, ends, parents)
    assert all(close(g, e) for g, e in zip(got, [3.0, 2.0, 1.0, 4.0])), got


def test_self_times_overlap_and_clip():
    # two children overlap on [3, 4]; a third sticks out past its parent
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    got = self_times(starts, ends, parents)
    # covered: [1, 6] and [8, 10] -> 7 of 10
    assert close(got[0], 3.0), got


def test_tracer_spans():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def outer():
        leaf()
        leaf()
        time.sleep(0.002)

    leaf, outer = tracer.wrap("leaf", leaf), tracer.wrap("outer", outer)
    outer()
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["leaf"]["calls"] == 2 and spans["outer"]["calls"] == 1
    total = spans["outer"]["total_s"]
    assert close(spans["outer"]["self_s"] + spans["leaf"]["total_s"], total)
    assert close(summary["roots_s"], total)


def test_tail_percentile():
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(10_000)))[0] == 99.9
    assert tail_percentile(list(range(999)))[0] == 95.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(20)))[0] == 50.0
    assert tail_percentile(list(range(19))) == (None, None)
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert median([3, 1, 2]) == 2 and median([4, 1, 2, 3]) == 2.5


def test_error_rate_base():
    assert error_rate(0, 7) == (0.0, 7)
    assert error_rate(3, 12) == (0.25, 12)
    for failed, attempted in ((0, 0), (5, 4), (-1, 3)):
        try:
            error_rate(failed, attempted)
        except ValueError:
            continue
        raise AssertionError(f"error_rate({failed}, {attempted}) accepted")


def test_pace_normalized():
    pace = Pace()
    # one sample a second, each taking 0.1 s of sampler time; the machine
    # ran at half the reference pace around samples 1..3
    for k, unit in enumerate((1, 2, 2, 2, 1)):
        pace.begin.append(1.0 + k)
        pace.end.append(1.1 + k)
        pace.unit.append(unit * REF_UNIT_S)
    assert [pace.rate(i) for i in range(5)] == [1.0, 0.5, 0.5, 0.5, 1.0]
    # [1.1, 4.0] holds three 0.9 s stretches of work at half pace
    assert close(pace.normalized(1.1, 4.0), 3 * 0.9 * 0.5)
    # an outlier is voted down by its neighbours
    pace.unit[2] = 50 * REF_UNIT_S
    assert pace.rate(2) == 0.5
    single = Pace()
    single.begin.append(1.0)
    single.end.append(1.1)
    single.unit.append(2 * REF_UNIT_S)
    assert close(single.normalized(0.0, 3.0), 0.5 * (3.0 - 0.1))
    assert close(Pace().normalized(0.0, 2.0), 2.0)  # no samples: raw seconds


def test_benchmark_json_matches_the_runs():
    from run import END_TO_END

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == END_TO_END, e2e
    want = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    want[OVERHEAD[0]] = OVERHEAD[1]
    assert layer == want, set(layer) ^ set(want)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_mismatches():
    ref = {"a": "12", "b": [1.0, "x", None]}
    assert mismatches({"a": "12", "b": [1.0 + ANALYTIC_RTOL / 2, "x", None]}, ref) == []
    assert mismatches({"a": "13", "b": [1.0, "x", None]}, ref)
    assert mismatches({"a": "12", "b": [1.0 + 10 * ANALYTIC_RTOL, "x", None]}, ref)
    assert mismatches({"a": "12"}, ref)
    assert mismatches({"a": 12, "b": [1.0, "x", None]}, ref)  # int is not str


def test_density_problems():
    good = {"N": 12, "samples": 1000, "zeros_observed": 380, "failures": 0,
            "point_estimate": 0.38, "ci_low": 0.35, "ci_high": 0.41,
            "conjecture_value": 2 / math.log(12), "seed": 1}
    assert density_problems(good, 0.377, 0, None) == []
    assert density_problems(good, 0.377, 0, dict(good)) == []
    assert density_problems(good, 0.2, 0, None)  # 12 sigma away
    assert density_problems(dict(good, failures=1), 0.377, 0, None)
    assert density_problems(good, 0.377, 0, dict(good, zeros_observed=381))


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok   {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
