import decimal
import functools
import math
import random

import pytest

from charcensus import asymptotics, counting, rademacher
from charcensus.characters import lower_bound_sum
from charcensus.counting import (
    bounded_partition_count,
    build_bounded_table,
    divisor_sums,
    partition_count,
    tcore_count,
    tcore_count_bruteforce,
)
from charcensus.errors import GuardError, NumericError
from charcensus.partitions import enumerate_partitions, is_t_core


# ---------------------------------------------------------------------------
# Oracles: the earlier production counters, kept here verbatim in logic.

def _pentagonal_pairs(limit):
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > limit:
            return
        sign = 1 if k % 2 else -1
        yield g1, sign
        g2 = k * (3 * k + 1) // 2
        if g2 <= limit:
            yield g2, sign
        k += 1


@functools.lru_cache(maxsize=None)
def _partition_counts_oracle(n):
    """p(0..n) by the per-term pentagonal loop (shared; do not modify)."""
    cache = [1]
    pents = list(_pentagonal_pairs(n))
    for m in range(1, n + 1):
        total = 0
        for g, sign in pents:
            if g > m:
                break
            total += sign * cache[m - g]
        cache.append(total)
    return cache


def _core_series(t, limit):
    """Coefficients of prod (1-q^{tn})^t / prod (1-q^n) up to q^limit."""
    num = [0] * (limit + 1)
    num[0] = 1
    for n in range(1, limit // t + 1):
        step = t * n
        jmax = min(t, limit // step)
        coeffs = [0] * (jmax + 1)
        c = 1
        for j in range(1, jmax + 1):
            c = c * (t - j + 1) // j
            coeffs[j] = -c if j % 2 else c
        for m in range(limit, step - 1, -1):
            acc = num[m]
            for j in range(1, min(jmax, m // step) + 1):
                acc += coeffs[j] * num[m - j * step]
            num[m] = acc
    pents = list(_pentagonal_pairs(limit))
    out = [0] * (limit + 1)
    for m in range(limit + 1):
        acc = num[m]
        for g, sign in pents:
            if g > m:
                break
            acc += sign * out[m - g]
        out[m] = acc
    return out


# p(10^5), computed once with the pentagonal recurrence
P_100000 = int(
    "2749351056977569651267751632098635268817342931598005475820312598430214"
    "7328114964173055050741660736621590157844774296248940493063070200461792"
    "7644930335101160793424571901557189435097253124661084520063695589344642"
    "4871682878983218234500926285383140459702130713067451062441922731123899"
    "9702284408609370935531629697851569569892196108480158600569421098519"
)


def test_partition_count_small():
    assert partition_count(0) == 1
    assert partition_count(4) == 5
    assert partition_count(100) == 190569292


def test_partition_count_matches_enumeration():
    for n in range(0, 31):
        assert partition_count(n) == sum(1 for _ in enumerate_partitions(n))


def test_partition_count_pinned():
    assert partition_count(1000) == 24061467864032622473692149727991


def test_partition_count_matches_oracle_cold(monkeypatch):
    oracle = _partition_counts_oracle(5000)
    monkeypatch.setattr(counting, "_p_cache", [1])
    assert counting._p_table(5000)[5000] == oracle[5000]
    assert counting._p_cache == oracle


def test_partition_count_matches_oracle_warm(monkeypatch):
    oracle = _partition_counts_oracle(5000)
    monkeypatch.setattr(counting, "_p_cache", [1])
    for n in range(0, 40):  # one step at a time through the short gathers
        assert counting._p_table(n)[n] == oracle[n]
    for n in (41, 1234, 1235, 5000):  # jumps that bring many pentagonals in
        assert counting._p_table(n)[n] == oracle[n]
    assert counting._p_cache == oracle


def test_partition_count_paths(monkeypatch):
    oracle = _partition_counts_oracle(5000)
    cross = counting._TABLE_CROSSOVER
    monkeypatch.setattr(counting, "_p_cache", [1])
    rademacher.p_exact.cache_clear()
    # at the crossover the table grows; above it the series answers
    assert partition_count(cross) == oracle[cross]
    assert len(counting._p_cache) == cross + 1
    assert partition_count(cross + 1) == oracle[cross + 1]
    assert len(counting._p_cache) == cross + 1
    # a value the table already holds never reaches the series
    counting._p_table(5000)
    monkeypatch.setattr(rademacher, "p_exact", None)
    assert partition_count(4321) == oracle[4321]


def test_rademacher_matches_recurrence_exhaustive():
    oracle = _partition_counts_oracle(5000)
    for n in range(2, 5001):
        assert rademacher.p_exact(n) == oracle[n], n


def test_rademacher_matches_recurrence_sampled(monkeypatch):
    monkeypatch.setattr(counting, "_p_cache", [1])
    table = counting._p_table(30_000)
    rng = random.Random(20260)
    for n in sorted(rng.sample(range(5001, 30_001), 60)) + [30_000]:
        assert rademacher.p_exact(n) == table[n], n


def test_rademacher_pinned_p_100000():
    assert partition_count(100_000) == P_100000
    rademacher.p_exact.cache_clear()
    # the caller's decimal context does not reach the sum
    with decimal.localcontext(decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR)):
        assert rademacher.p_exact(100_000) == P_100000
        assert decimal.getcontext().prec == 5


def test_rademacher_ramanujan_congruences():
    # 24n = 1 (mod 385) makes p(n) divisible by 5, 7 and 11 at once
    for n in (200_184, 500_099, 999_829):
        assert n % 5 == 4 and n % 7 == 5 and n % 11 == 6
        p = rademacher.p_exact(n)
        assert p % 385 == 0, n
        # and p(n) is the right size: the main term is within 1/sqrt(n)
        main = asymptotics.rademacher_main_term(n).log
        assert abs(math.log(p) - main) < 1 / math.sqrt(n), n


def test_rademacher_rounding_margin_raises(monkeypatch):
    # with one term the sum at n = 2001 lies 0.49 from every integer
    rademacher.p_exact.cache_clear()
    monkeypatch.setattr(counting, "_p_cache", [1])
    monkeypatch.setattr(rademacher, "_tail_terms", lambda n: 1)
    with pytest.raises(NumericError):
        partition_count(2001)
    rademacher.p_exact.cache_clear()


def test_divisor_sums_sieve():
    sigma = divisor_sums(300)
    assert len(sigma) >= 301
    for j in range(1, 301):
        assert sigma[j] == sum(d for d in range(1, j + 1) if j % d == 0)
    assert asymptotics._SIGMA == sigma[: asymptotics._SERIES_CAP + 1]


def test_bounded_count_trivial_cases():
    for n in (0, 1, 5, 17):
        assert bounded_partition_count(1, n) == 1
        assert bounded_partition_count(max(n, 1), n) == partition_count(n)
    assert bounded_partition_count(2, 4) == 3


def test_bounded_count_matches_enumeration_filter():
    for n in range(0, 21):
        for t in range(1, n + 2):
            by_filter = sum(
                1 for lam in enumerate_partitions(n)
                if not lam.parts or lam.parts[0] <= t
            )
            assert bounded_partition_count(t, n) == by_filter


def test_bounded_count_monotone_and_exhausts():
    for n in range(0, 61):
        prev = 0
        for t in range(1, n + 1):
            cur = bounded_partition_count(t, n)
            assert cur >= prev
            prev = cur
        if n >= 1:
            assert bounded_partition_count(n, n) == partition_count(n)


def test_column_sums_bijection():
    # grouping nonempty partitions of n by largest part t gives p_t(n-t)
    for n in range(1, 201):
        assert sum(bounded_partition_count(t, n - t) for t in range(1, n + 1)) \
            == partition_count(n)


def test_part_presence_count():
    # partitions of n containing at least one part t, by enumeration
    for n in range(1, 21):
        for t in range(1, n + 1):
            count = sum(1 for lam in enumerate_partitions(n) if t in lam.parts)
            assert count == partition_count(n - t)


def test_tcore_trivial_cases():
    for n in range(1, 10):
        assert tcore_count(1, n) == 0
    assert tcore_count(1, 0) == 1
    for n in range(0, 12):
        assert tcore_count(n + 1, n) == partition_count(n)
        assert tcore_count(n + 5, n) == partition_count(n)


def test_tcore_staircases():
    assert tcore_count(2, 3) == 1
    assert tcore_count(2, 4) == 0
    assert tcore_count(2, 6) == 1


def test_tcore_matches_bruteforce():
    for n in range(0, 21):
        for t in range(1, n + 3):
            assert tcore_count(t, n) == tcore_count_bruteforce(t, n)


def test_tcore_matches_series_oracle_small():
    for t in range(1, 61):
        series = _core_series(t, 60)
        for n in range(t, 61):
            assert tcore_count(t, n) == series[n], (t, n)


def test_tcore_matches_series_oracle_300():
    for t in range(1, 301):
        assert tcore_count(t, 300) == _core_series(t, 300)[300], t


def test_tcore_table_matches_series_oracle():
    for t in range(1, 31):
        assert [tcore_count(t, m) for m in range(121)] == _core_series(t, 120), t


def test_lower_bound_sum_pinned():
    assert lower_bound_sum(200) == 2658835718979398392032913


def test_tcore_below_partition_count():
    for n in range(0, 41):
        for t in (1, 2, 3, 5, 7, n + 1):
            assert tcore_count(t, n) <= partition_count(n)


def test_bruteforce_guard():
    with pytest.raises(GuardError):
        tcore_count_bruteforce(5, 41)


def test_count_table_lookup():
    # n-major: table[n][t] = p_t(n)
    table = build_bounded_table(10, 30)
    assert len(table) == 31 and all(len(row) == 11 for row in table)
    assert table[0][0] == 1 and table[17][0] == 0
    for t in range(1, 11):
        for n in range(31):
            assert table[n][t] == bounded_partition_count(t, n), (t, n)
