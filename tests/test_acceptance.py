"""Acceptance gate: every criterion below prints one pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s``) and asserts at its
stated tolerance.  Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import pytest

from charcensus.asymptotics import (
    GROWTH_CONSTANT,
    _mu,
    _q_sums,
    rademacher_main_term,
    solve_saddle,
    tcore_count_estimate,
)
from charcensus.characters import character_table, lower_bound_sum, zero_count
from charcensus.cli import main as cli_main
from charcensus.counting import (
    bounded_partition_count,
    partition_count,
    tcore_count,
    tcore_count_bruteforce,
)
from charcensus.partitions import enumerate_partitions, is_t_core
from charcensus.sampling import estimate_zero_density
from diagram_oracle import hook_multiset

C = GROWTH_CONSTANT
MAX_CENSUS_N = 14


@pytest.fixture(scope="module")
def desk():
    """Tables and censuses for every N up to 14, built once."""
    t0 = time.time()
    tables = {n: character_table(n) for n in range(1, MAX_CENSUS_N + 1)}
    censuses = {n: zero_count(n) for n in tables}
    return tables, censuses, time.time() - t0


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_lower_bound_inequality(desk):
    # Z(N) >= sum_t c_t(N) p_t(N-t), exact big-integer comparison, N <= 14
    _, censuses, build_time = desk
    t0 = time.time()
    worst = None
    ok = True
    for n in range(1, MAX_CENSUS_N + 1):
        z = censuses[n].total_zeros
        lb = lower_bound_sum(n)
        ok = ok and z >= lb
        if z:
            worst = (n, lb / z)
    elapsed = build_time + time.time() - t0
    ok = ok and elapsed < 120
    _report(1, ok, f"Z >= lower bound for N <= 14; tightest ratio "
                   f"{worst[1]:.3f} at N={worst[0]}; {elapsed:.1f}s of 120s")


def test_criterion_02_core_vanishing_exhaustive(desk):
    # chi_lambda(mu) = 0 whenever lambda is a t-core and mu has a part t,
    # every pair with N <= 12, zero tolerance
    tables, _, _ = desk
    checked = 0
    ok = True
    for n in range(1, 13):
        table = tables[n]
        for t in range(1, n + 1):
            core_rows = [i for i, lam in enumerate(table.partitions)
                         if is_t_core(lam, t)]
            part_cols = [j for j, mu in enumerate(table.partitions)
                         if t in mu.parts]
            for i in core_rows:
                row = table.rows[i]
                for j in part_cols:
                    checked += 1
                    if row[j] != 0:
                        ok = False
    _report(2, ok, f"{checked} (t-core, part-t) pairs all vanish for N <= 12")


def test_criterion_03_strip_bound(desk):
    # Z_t(N) >= c_t(N) * p(N-t) exactly, all N <= 14, all t
    _, censuses, _ = desk
    ok = True
    for n in range(1, MAX_CENSUS_N + 1):
        for t in range(1, n + 1):
            if censuses[n].per_core_zeros[t] < tcore_count(t, n) * partition_count(n - t):
                ok = False
    _report(3, ok, "Z_t(N) >= c_t(N) p(N-t) for all N <= 14, all t")


def test_criterion_04_counting_oracles():
    # series c_t vs definitional enumeration, N <= 20, t <= N+2;
    # bounded counts vs enumeration filters, N <= 20
    ok = True
    for n in range(0, 21):
        partitions = list(enumerate_partitions(n))
        hooks = [hook_multiset(lam) for lam in partitions]
        for t in range(1, n + 3):
            brute = sum(1 for h in hooks if all(x % t for x in h))
            assert brute == tcore_count_bruteforce(t, n)
            if tcore_count(t, n) != brute:
                ok = False
        for t in range(1, n + 2):
            filtered = sum(1 for lam in partitions
                           if not lam.parts or lam.parts[0] <= t)
            if bounded_partition_count(t, n) != filtered:
                ok = False
    _report(4, ok, "t-core series == enumeration (N <= 20, t <= N+2); "
                   "bounded DP == enumeration filter (N <= 20)")


def test_criterion_05_orthogonality(desk):
    # sum of squared dimensions = N!, first column = hook-length dimensions
    tables, _, _ = desk
    ok = True
    for n in range(1, 13):
        table = tables[n]
        dims = [row[-1] for row in table.rows]  # mu = (1^N) is the last column
        if sum(d * d for d in dims) != math.factorial(n):
            ok = False
        for lam, d in zip(table.partitions, dims):
            if d != math.factorial(n) // math.prod(hook_multiset(lam)):
                ok = False
    _report(5, ok, "sum chi(1^N)^2 == N! and hook-length dimensions, N <= 12")


def test_criterion_06_rademacher_main_term():
    gaps = []
    for n in (100, 400, 1600, 6400):
        ratio = math.exp(rademacher_main_term(n).log - math.log(partition_count(n)))
        gaps.append(abs(ratio - 1))
    ok = gaps[0] > gaps[1] > gaps[2] > gaps[3] and gaps[3] < 0.1
    _report(6, ok, "main-term gap strictly shrinks "
                   f"{['%.4f' % g for g in gaps]} and < 0.1 at N=6400")


def test_criterion_07_bounded_count_asymptotic():
    # at N = 2500 and t centered (x ~ 0), exact p_t/p within 15% of exp(-2/C)
    n = 2500
    t = round(math.sqrt(n) * math.log(n) / C)
    exact_ratio = bounded_partition_count(t, n) / partition_count(n)
    predicted = math.exp(-2 / C)
    rel = abs(exact_ratio / predicted - 1)
    _report(7, rel < 0.15,
            f"p_{t}(2500)/p(2500) = {exact_ratio:.4f} vs exp(-2/C) = "
            f"{predicted:.4f} (rel diff {rel:.3f} < 0.15)")


def test_criterion_08_saddle_and_core_estimate():
    ok = True
    for n in (100, 1000, 10000):
        for t in (6, 12, 25, 50):
            sol = solve_saddle(n, t)
            m = n + (t * t - 1) / 24
            if not (sol.bracket_lo < sol.y < sol.bracket_hi):
                ok = False
            if abs(sol.residual) >= 1e-9 * m:
                ok = False
    est = tcore_count_estimate(500, 12)
    exact = tcore_count(12, 500)
    ratio = math.exp(est.log - math.log(exact))
    ok = ok and abs(ratio - 1) < 0.2
    _report(8, ok, f"saddle grid inside brackets at rel residual < 1e-9; "
                   f"estimate/exact ratio at (500,12) = {ratio:.4f} "
                   f"(tolerance 0.2)")


def test_criterion_09_eta_witness_and_curvature_sandwich():
    import random

    ok = True
    y = math.sqrt(3) / 2
    while y <= 20:
        if not 0 < _q_sums(max(y, 1 / y))[0] < 0.00873:
            ok = False
        y *= 1.07
    rng = random.Random(20260810)
    for _ in range(100):
        yy = rng.uniform(0.005, 0.1)
        t = rng.randint(max(2, math.ceil(0.3 / yy)), math.floor(0.999 / yy))
        inv = 1 / math.sqrt(_mu(yy)[1] - _mu(t * yy)[1])
        if not (2 * math.sqrt(math.pi) / math.sqrt(yy * (t - 1)) < inv
                < 2 * math.sqrt(2 * math.pi) / math.sqrt(yy * (t - 1))):
            ok = False
    for _ in range(100):
        yy = rng.uniform(0.005, 0.1)
        t = rng.randint(math.ceil(1 / yy), math.ceil(5 / yy))
        inv = 1 / math.sqrt(_mu(yy)[1] - _mu(t * yy)[1])
        if not math.sqrt(12) < inv < math.sqrt(16):
            ok = False
    _report(9, ok, "tail witness in (1, 1.00873) up to y=20; curvature "
                   "sandwich holds on 100 random pairs per regime")


def test_criterion_10_sweep_ratios(desk, tmp_path, capsys):
    # the asymptotic full-table bound is not testable as an inequality at
    # desk scale; the sweep emits the exact ratios instead and the
    # guaranteed-zero fraction must land in (0, 1] wherever Z > 0
    out = tmp_path / "sweep.json"
    code = cli_main(["sweep", "--n-list", "1-14", "--format", "json",
                     "--out", str(out)])
    capsys.readouterr()
    rows = json.loads(out.read_text())["result"]["rows"]
    _, censuses, _ = desk
    ok = code == 0 and len(rows) == 14
    for row in rows:
        n = row["N"]
        z = censuses[n].total_zeros
        if int(row["Z"]) != z:
            ok = False
        if z == 0:
            if row["lower_bound_over_Z"] is not None:
                ok = False
            continue
        if not 0 < row["lower_bound_over_Z"] <= 1:
            ok = False
        expected = z * math.log(n) / (2 * partition_count(n) ** 2)
        if abs(row["z_ratio_to_t12"] - expected) > 1e-12 * expected:
            ok = False
    _report(10, ok, "sweep emits Z log(N)/(2 p(N)^2) and lower_bound/Z; "
                    "the latter lies in (0, 1] for 3 <= N <= 14")


def test_criterion_11_monte_carlo_calibration(desk):
    _, censuses, _ = desk
    exact = censuses[12].total_zeros / censuses[12].table_dim ** 2
    runs = [estimate_zero_density(12, 100000, seed=42) for _ in range(2)]
    se = math.sqrt(exact * (1 - exact) / 100000)
    dev = abs(runs[0].point_estimate - exact) / se
    identical = runs[0] == runs[1] \
        and json.dumps(runs[0].to_json_dict()) == json.dumps(runs[1].to_json_dict())
    ok = dev <= 3 and identical
    _report(11, ok, f"estimate within {dev:.2f} binomial SE of exact "
                    f"Z(12)/p(12)^2 (limit 3); a rerun with the same seed is "
                    f"bit-identical")
