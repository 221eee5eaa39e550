import decimal
import functools
import math
import random

import pytest

from charcensus import asymptotics, characters, counting, rademacher, values
from charcensus.characters import zero_count
from charcensus.counting import (
    bounded_partition_count,
    build_bounded_table,
    lower_bound_partial,
    lower_bound_sum,
    partition_count,
    tcore_count,
    tcore_count_bruteforce,
)
from charcensus.errors import GuardError, NumericError
from charcensus.partitions import Partition, enumerate_partitions, is_t_core
from charcensus.values import character_value


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


def test_eta_recurrence_at_minus_one_is_euler():
    # Miller's recurrence for (q;q)_inf^t at t = -1, from a(0) = 1 and
    # from a list that already holds a prefix
    oracle = _partition_counts_oracle(3000)
    assert counting._eta_extend([1], -1, 3000) == oracle
    assert counting._eta_extend(oracle[:1235], -1, 3000) == oracle
    assert counting._eta_extend([1], -1, 0) == [1]


def test_eta_power_matches_core_series_oracle():
    # A_t(q^t) = C_t(q) (q;q)_inf for the t-core series C_t: a_t(w) is the
    # coefficient of q^(tw) of the product, and every other one vanishes
    for t, limit in ((2, 150), (3, 100), (5, 60), (7, 40), (24, 12), (100, 4)):
        c = _core_series(t, t * limit)
        pents = list(_pentagonal_pairs(t * limit))
        product = [c[m] - sum(sign * c[m - g] for g, sign in pents if g <= m)
                   for m in range(t * limit + 1)]
        assert counting._eta_extend([1], t, limit) == product[::t], t
        assert not any(v for m, v in enumerate(product) if m % t), t


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
    # the eta series of ``asymptotics`` reads sigma(1..64); a sieve over
    # the multiples of each d gives the same sums
    cap = asymptotics._SERIES_CAP
    sigma = [0] * (cap + 1)
    for d in range(1, cap + 1):
        for m in range(d, cap + 1, d):
            sigma[m] += d
    assert asymptotics._SIGMA == sigma


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


def test_one_cores_need_no_series(monkeypatch):
    # the only 1-core is the empty partition: c_1(n) is read off, with no
    # eta power
    brute = [tcore_count_bruteforce(1, n) for n in range(0, 31)]

    def fail(*args, **kwargs):
        raise AssertionError("eta power computed for t = 1")

    monkeypatch.setattr(counting, "_eta_extend", fail)
    assert [tcore_count(1, n) for n in range(0, 31)] == brute


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


def test_lower_bound_small_values():
    assert lower_bound_sum(1) == 0
    assert lower_bound_sum(3) == 1


def test_lower_bound_additivity():
    n = 12
    assert lower_bound_partial(n, 1, n) == lower_bound_sum(n)
    assert lower_bound_partial(n, 1, 5) + lower_bound_partial(n, 6, n) \
        == lower_bound_sum(n)
    with pytest.raises(ValueError):
        lower_bound_partial(n, 5, 3)
    with pytest.raises(ValueError):
        lower_bound_partial(n, 0, 3)


def _lower_bound_partial_oracle(n, t_lo, t_hi):
    """The earlier loop: brings p_t(m) up to date for every m <= n."""
    dp = [1] + [0] * n
    total = 0
    for t in range(1, t_hi + 1):
        for m in range(t, n + 1):
            dp[m] += dp[m - t]
        if t >= t_lo:
            total += tcore_count(t, n) * dp[n - t]
    return total


def test_lower_bound_partial_matches_full_loop_oracle(monkeypatch):
    # every 1 <= t_lo <= t_hi <= n <= 60; the oracle is additive in t,
    # so its one-term values give every range; the c_t series is memoized
    # to keep the 37k calls cheap (it is tested against its own oracles)
    monkeypatch.setattr(counting, "_tcore_series", functools.cache(counting._tcore_series))
    for n in range(1, 61):
        prefix = [0]
        for t in range(1, n + 1):
            prefix.append(prefix[-1] + _lower_bound_partial_oracle(n, t, t))
        for t_lo in range(1, n + 1):
            for t_hi in range(t_lo, n + 1):
                assert lower_bound_partial(n, t_lo, t_hi) \
                    == prefix[t_hi] - prefix[t_lo - 1], (n, t_lo, t_hi)
    assert lower_bound_sum(1000) == _lower_bound_partial_oracle(1000, 1, 1000)


@pytest.mark.parametrize("n", [200, 2000, 5000])
def test_lower_bound_sum_matches_per_t_loop(n):
    assert lower_bound_sum(n) == _lower_bound_partial_oracle(n, 1, n)


def _largest_part_oracle(n):
    """[None, p_1(n - 1), ..., p_n(0)]: one part-by-part DP over p_t(m),
    m <= n, read at n - t after part t."""
    dp = [1] + [0] * n
    largest = [None]
    for t in range(1, n + 1):
        for m in range(t, n + 1):
            dp[m] += dp[m - t]
        largest.append(dp[n - t])
    return largest


@pytest.mark.parametrize("n", [300, 1000])
def test_lower_bound_halves_match_their_counters(n):
    # each half of the one-pass kernel on its own, for every t <= n: the
    # running eta product against c_t(n), and p_t(n - t) from Euler's
    # identity (t_lo = 1) and the part DP (a range ending below sqrt n)
    assert counting._core_counts(n, 1, n) == [tcore_count(t, n) for t in range(1, n + 1)]
    largest = _largest_part_oracle(n)
    assert counting._largest_part_counts(n, 1, n) == largest[1:]
    assert counting._largest_part_counts(n, 40, n // 2) == largest[40:n // 2 + 1]
    assert counting._largest_part_counts(n, 3, 9) == largest[3:10]


def test_largest_part_counts_match_the_oracle_on_every_range():
    for n in range(1, 41):
        largest = _largest_part_oracle(n)
        for t_lo in range(1, n + 1):
            for t_hi in range(t_lo, n + 1):
                assert counting._largest_part_counts(n, t_lo, t_hi) \
                    == largest[t_lo:t_hi + 1], (n, t_lo, t_hi)


@pytest.mark.parametrize("n", [300, 1000, 5000])
def test_largest_part_counts_match_the_oracle_across_sqrt_n(n):
    # ranges that start at or below isqrt(n) and end above it, each
    # computed by Euler's identity from its first t
    largest = _largest_part_oracle(n)
    s = math.isqrt(n)
    for t_lo, t_hi in ((1, s + 1), (s, s + 1), (s // 2, 3 * s), (s, n), (2, n - 1)):
        assert counting._largest_part_counts(n, t_lo, t_hi) == largest[t_lo:t_hi + 1], \
            (t_lo, t_hi)


def _record_divisions(monkeypatch, divide=counting._divide_one_minus):
    """Wrap ``counting._divide_one_minus``: each call appends (len(seq),
    step) to the returned list, then runs ``divide``."""
    calls = []

    def record(seq, step):
        calls.append((len(seq), step))
        divide(seq, step)

    monkeypatch.setattr(counting, "_divide_one_minus", record)
    return calls


def test_range_ending_at_or_below_sqrt_runs_no_euler_step(monkeypatch):
    cases = [(n, t_lo, t_hi) for n in (1, 2, 4, 99, 100, 1000)
             for t_lo, t_hi in ((1, math.isqrt(n)), (math.isqrt(n), math.isqrt(n)), (1, 1))]
    expected = [_largest_part_oracle(n)[t_lo:t_hi + 1] for n, t_lo, t_hi in cases]

    def fail(n):
        raise AssertionError("Euler's identity read p(0..n)")

    monkeypatch.setattr(counting, "_p_table", fail)
    for (n, t_lo, t_hi), counts in zip(cases, expected):
        assert counting._largest_part_counts(n, t_lo, t_hi) == counts, (n, t_lo, t_hi)


def test_lower_bound_above_sqrt_runs_no_part_dp(monkeypatch):
    # a range that ends above isqrt(n) takes every p_t(n - t) from
    # Euler's identity: each of its divisions is shorter than the n - t +
    # 1 terms of a part-DP step, and the cost is the eta product's and
    # Euler's alone
    n = 1000
    calls = _record_divisions(monkeypatch)
    largest = _largest_part_oracle(n)
    for t_lo, t_hi in ((1, 32), (31, 700), (32, 700), (100, n)):
        calls.clear()
        assert counting._largest_part_counts(n, t_lo, t_hi) == largest[t_lo:t_hi + 1]
        assert calls and all(size < n - step + 1 for size, step in calls), (t_lo, t_hi)
    eta = sum(m * math.isqrt(m) for m in (n // t for t in range(2, n + 1)))
    assert counting._zero_sum_steps(n, 32, n) == eta + n * n // (2 * 32)
    assert counting._zero_sum_steps(n, 100, n) == eta + n * n // (2 * 100)


def test_euler_divisions_within_the_cost_model(monkeypatch):
    # Euler's identity from t_lo <= isqrt(n) is charged as the part DP to
    # isqrt(n) plus Euler above it; its divisions must stay within that.
    # They read only n, t_lo and j, and so does the charge less the eta
    # term once t_hi > isqrt(n), so t_hi = isqrt(n) + 1 stands for every
    # such t_hi; the lengths do not depend on the values, so the
    # divisions themselves are skipped
    calls = _record_divisions(monkeypatch, divide=lambda seq, step: None)
    for n in range(2, 2001):
        s = math.isqrt(n)
        eta = sum(m * math.isqrt(m) for m in (n // t for t in range(2, s + 2)))
        for t_lo in range(1, s + 1):
            calls.clear()
            counting._largest_part_counts(n, t_lo, s + 1)
            assert sum(size for size, _ in calls) \
                <= counting._zero_sum_steps(n, t_lo, s + 1) - eta, (n, t_lo)


def test_tcore_at_large_n_over_t_matches_the_running_product():
    # n/t above 10^4, where an (n/t)^2 limit of 10^8 once refused c_t(n);
    # the 2-cores are the staircases, one of each triangular size
    assert tcore_count(2, 20002) == counting._core_counts(20002, 2, 2)[0] == 0
    assert tcore_count(2, 20100) == counting._core_counts(20100, 2, 2)[0] == 1
    assert tcore_count(3, 30001) == counting._core_counts(30001, 3, 3)[0] > 0


def test_lower_bound_below_exact_census():
    assert lower_bound_sum(12) <= zero_count(12).total_zeros


def test_tcore_below_partition_count():
    for n in range(0, 41):
        for t in (1, 2, 3, 5, 7, n + 1):
            assert tcore_count(t, n) <= partition_count(n)


def test_bruteforce_guard():
    with pytest.raises(GuardError):
        tcore_count_bruteforce(5, 41)


@pytest.fixture()
def kernels_fail(monkeypatch):
    """The kernels behind the guarded counters and the character value
    fail loudly, so a refusal also shows that no work started."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the cost guard")

    for module, name in ((counting, "_p_table"), (rademacher, "p_exact"),
                         (counting, "_eta_extend"),
                         (counting, "_core_counts"),
                         (counting, "_largest_part_counts"),
                         (characters, "_packed_rows"), (characters, "_kept_levels"),
                         (values, "_values")):
        monkeypatch.setattr(module, name, fail)


P_EXACT, P_TABLE = counting.P_EXACT_LIMIT, counting.P_GUARD_N
LB_MAX = 64100  # the largest accepted lower_bound_sum


@pytest.mark.parametrize("call, args, message", [
    (partition_count, (P_EXACT + 1,), f"n (exact p(n)) = {P_EXACT + 1}"),
    # t >= n is p(n), with its limit; t < n has the same n limit
    (bounded_partition_count, (10 * P_EXACT, P_EXACT + 1), "n (exact p(n))"),
    (bounded_partition_count, (2, P_EXACT + 1), f"n (exact p_t(n)) = {P_EXACT + 1}"),
    (bounded_partition_count, (1000, 10**5), f"limit {counting.PT_GUARD_STEPS}"),
    (tcore_count, (P_EXACT + 2, P_EXACT + 1), "n (exact p(n))"),
    (tcore_count, (P_TABLE + 1, P_TABLE + 1), f"n (exact p(0..n)) = {P_TABLE + 1}"),
    # at every t, even t = 2 with the most eta-power terms, n alone is bounded
    (tcore_count, (2, P_TABLE + 1), f"n (exact p(0..n)) = {P_TABLE + 1}"),
    (lower_bound_partial, (P_TABLE + 1, 1, 1), f"n (exact p(0..n)) = {P_TABLE + 1}"),
    (lower_bound_partial, (LB_MAX + 1, 1, LB_MAX + 1),
     f"limit {counting.LOWER_BOUND_GUARD_STEPS}"),
    (character_value, (Partition([61]), Partition([60, 1])),
     f"n <= {values.VALUE_GUARD}, got 61"),
    # both sizes are checked before they are compared
    (character_value, (Partition([2]), Partition([10**6])), "got 1000000"),
    # at n = 10^5 the sum is refused above t_hi = 68
    (lower_bound_partial, (P_TABLE, 1, 69), f"limit {counting.LOWER_BOUND_GUARD_STEPS}"),
])
def test_library_guards_refuse_before_work(kernels_fail, call, args, message):
    with pytest.raises(GuardError) as exc:
        call(*args)
    assert message in str(exc.value)


def _fake_kernels(monkeypatch):
    """Every c_t(n) reads 7 and every p_t(n - t) reads 1."""
    monkeypatch.setattr(counting, "_core_counts", lambda n, lo, hi: [7] * (hi - lo + 1))
    monkeypatch.setattr(counting, "_largest_part_counts",
                        lambda n, lo, hi: [1] * (hi - lo + 1))


def test_lower_bound_cost_of_a_single_t(kernels_fail, monkeypatch):
    # t = 2 alone costs 10001^1.5 eta-product steps + 2 * 20002 DP steps,
    # well within the limit, and is computed
    assert counting._zero_sum_steps(20002, 2, 2) == 10001 * 100 + 2 * 20002
    _fake_kernels(monkeypatch)
    assert lower_bound_partial(20002, 2, 2) == 7


def test_lower_bound_charges_nothing_for_one_cores(kernels_fail, monkeypatch):
    # a_1 = (q;q)_inf and c_1(n) = 0 are read off, so t = 1 costs only the
    # DP step that every range runs: 1 <= t <= 68 at n = 10^5 is within
    # the limit, and would not be with (10^5)^1.5 eta-product steps
    # charged for t = 1
    limit = counting.LOWER_BOUND_GUARD_STEPS
    steps = counting._zero_sum_steps(P_TABLE, 1, 68)
    assert steps == counting._zero_sum_steps(P_TABLE, 2, 68)
    assert steps <= limit < steps + P_TABLE * math.isqrt(P_TABLE)
    _fake_kernels(monkeypatch)
    assert lower_bound_partial(P_TABLE, 1, 68) == 7 * 68


def test_lower_bound_largest_accepted_n():
    # the n timed and measured beside the limit is the last one accepted;
    # the next one is refused before any work (the guard cases above)
    steps = counting._zero_sum_steps
    assert steps(LB_MAX, 1, LB_MAX) <= counting.LOWER_BOUND_GUARD_STEPS \
        < steps(LB_MAX + 1, 1, LB_MAX + 1)


def test_one_cores_are_read_off_before_the_cost_guard(kernels_fail):
    # c_1(n) = [n = 0] costs nothing, so no cost limit refuses it
    assert tcore_count(1, 10**6) == 0
    assert tcore_count(1, 0) == 1


def test_tcore_above_n_builds_no_table(monkeypatch):
    expected = partition_count(200000)

    def fail(n):
        raise AssertionError("built the table p(0..n)")

    monkeypatch.setattr(counting, "_p_table", fail)
    assert tcore_count(200001, 200000) == expected



@pytest.mark.parametrize("t, n", [(1000, 2001), (223, 2001), (2500, 5000), (5000, 5000),
                                  (201, 20000), (4999, 20000), (20000, 20000)])
def test_tcore_single_values_match_the_table(monkeypatch, t, n):
    # above the crossover, with n//t + 1 <= n / _VALUES_PER_TABLE values
    # of p to read, c_t(n) takes each on its own and leaves the table
    # short; once the table reaches n it gives the same count
    assert (n // t + 1) * counting._VALUES_PER_TABLE <= n
    monkeypatch.setattr(counting, "_p_cache", [1])
    value = tcore_count(t, n)
    assert len(counting._p_cache) <= counting._TABLE_CROSSOVER + 1
    assert len(counting._p_table(n)) == n + 1
    assert tcore_count(t, n) == value  # now read from the table


def test_tcore_single_values_at_the_p_guard(monkeypatch):
    # c_t(n) = p(n) - t p(n - t) + t(t - 3)/2 p(n - 2t) for n/3 < t <= n/2,
    # the eta power (1 - q)^t (1 - q^2)^t ... to q^2
    monkeypatch.setattr(counting, "_p_cache", [1])
    t, n = 50000, 100000
    assert tcore_count(t, n) == (partition_count(n) - t * partition_count(n - t)
                                 + t * (t - 3) // 2)
    assert len(counting._p_cache) == 1


def test_tcore_many_values_take_the_table(monkeypatch):
    monkeypatch.setattr(counting, "_p_cache", [1])
    t, n = 200, 20000  # 101 values, one more than 20000 / 200
    tcore_count(t, n)
    assert len(counting._p_cache) == n + 1


def test_tcore_at_or_below_the_crossover_takes_the_table(monkeypatch):
    # the zero-bounds sweep (n = 1000) and small counts read the table only
    table = _core_series(7, 1000)
    monkeypatch.setattr(counting, "partition_count", None)
    assert [tcore_count(7, m) for m in range(7, 1001)] == table[7:]
    assert tcore_count(5, 7) == tcore_count_bruteforce(5, 7)
    for t in (2, 333, 999, 1000):
        tcore_count(t, 1000)

def test_count_table_lookup():
    # n-major: table[n][t] = p_t(n)
    table = build_bounded_table(10, 30)
    assert len(table) == 31 and all(len(row) == 11 for row in table)
    assert table[0][0] == 1 and table[17][0] == 0
    for t in range(1, 11):
        for n in range(31):
            assert table[n][t] == bounded_partition_count(t, n), (t, n)
