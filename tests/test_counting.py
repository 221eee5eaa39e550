import pytest

from charcensus import asymptotics, counting
from charcensus.characters import lower_bound_sum
from charcensus.counting import (
    bounded_partition_count,
    build_bounded_table,
    divisor_sums,
    partition_count,
    tcore_count,
    tcore_count_bruteforce,
)
from charcensus.errors import GuardError
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


def _partition_counts_oracle(n):
    """p(0..n) by the per-term pentagonal loop."""
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
    assert partition_count(5000) == oracle[5000]
    assert counting._p_cache == oracle


def test_partition_count_matches_oracle_warm(monkeypatch):
    oracle = _partition_counts_oracle(5000)
    monkeypatch.setattr(counting, "_p_cache", [1])
    for n in range(0, 40):  # one step at a time through the short gathers
        assert partition_count(n) == oracle[n]
    for n in (41, 1234, 1235, 5000):  # jumps that bring many pentagonals in
        assert partition_count(n) == oracle[n]
    assert counting._p_cache == oracle


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
