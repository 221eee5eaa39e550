"""Exact arbitrary-precision counting of partitions, bounded partitions
and t-cores.

Three count families, all plain Python ints (never floats):

* p(n)        -- partitions of n: the whole sequence p(0..n) from Euler's
                 pentagonal recurrence
                 p(m) = sum_k (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)],
                 and one large p(n) on its own from the Rademacher series;
* p_t(n)      -- partitions of n into parts of size at most t, via the
                 classic part-by-part DP;
* c_t(n)      -- t-core partitions of n, from the generating function
                 prod (1-q^{tk})^t / prod (1-q^k) = A_t(q^t) P(q), i.e.

                     c_t(n) = sum_{w <= n/t} a_t(w) p(n - t w),

                 where a_t(w) are the coefficients of the eta power
                 A_t(q) = prod_k (1-q^k)^t.  Taking the log-derivative of
                 A_t gives the exact recurrence

                     w a_t(w) = -t sum_{j=1..w} sigma(j) a_t(w - j),

                 with sigma the divisor sum, so one c_t(n) costs
                 O((n/t)^2) multiplications once p(0..n) is known.

The pentagonal recurrence is run as a C-level gather: while the cache
holds p(0..m-1), the term p(m - g) is p[-g], so the negative offsets of
the pentagonal numbers g <= m are kept in one list per sign and read
with an ``operator.itemgetter`` that is rebuilt only when a new
pentagonal number comes into range (about 500 times up to n = 10^5).
Each step is then two C-level sums, with no Python bytecode per term.

``partition_count(n)`` reads p(n) from that table when the table
already reaches n, and extends it when n is at most
``_TABLE_CROSSOVER``.  Above that it sums the Hardy-Ramanujan-Rademacher
series instead, with O(sqrt n) terms:

    p(n) = 4/(24n-1) sum_{k>=1} S_k(n) U(mu/k),
    mu = (pi/6) sqrt(24n-1),  U(x) = cosh x - sinh(x)/x,
    S_k(n) = sum (-1)^l cos(pi (6l+1) / 6k)
             over 0 <= l < 2k with (3l^2 + l)/2 = -n (mod k),

where S_k = sqrt(3/k) A_k(n) is Selberg's O(k) form of the Kloosterman
sum A_k.  The plan follows Johansson (2012):

* tail bound  -- the number of terms N is the least for which Lehmer's
                 bound on the remainder,
                 44 pi^2 / (225 sqrt 3) N^(-1/2)
                 + pi sqrt 2 / 75 (N/(n-1))^(1/2) sinh(pi sqrt(2n/3) / N),
                 is below 0.24;
* precision   -- |S_k| <= sqrt(3k), so term k is at most
                 10^b_k = 4 sqrt(3k) e^(mu/k) / (24n-1).  A term with
                 b_k < 10 is computed in doubles (error below 10^-4);
                 a larger one in ``decimal`` at ceil(b_k) + 12 digits,
                 each in its own local context, with pi from Machin's
                 formula in integers and cos from its Taylor series;
* rounding    -- tail (< 0.24) and term errors (< 0.01) keep the sum
                 within 0.25 of p(n), so it is rounded to the nearest
                 integer; a sum farther than 0.25 from every integer,
                 which a correct computation cannot give, raises
                 ``NumericError`` instead of returning a value;
* crossover   -- one sum at n = 2000 costs about 0.4 ms, and p(0..2000)
                 about 5 ms from an empty table, after which every
                 smaller n is a list lookup.  Callers that ask for many
                 small n (oracle tests, sweeps of the bound evaluators)
                 pay for the table once; larger n go to the series.
                 At n = 10^5 one sum takes about 10 ms against 2.5 s
                 for the table, and at n = 10^6 about 80 ms.

The series lives in ``rademacher``, which ``partition_count`` imports,
with ``decimal``, on the first sum, so importing the package loads
neither.  The last sums are kept in a small LRU cache.

The guaranteed-zero lower bound sum_t c_t(N) * p_t(N-t) on the zero
census of the p(N) x p(N) character table needs no character
computation at all: whenever mu has a part of size t and lambda is a
t-core, the character vanishes, and grouping mu by its largest part
makes those zero sets disjoint.  ``lower_bound_partial`` sums it from
the c_t series and a p_t DP truncated at n - t.

sigma comes from one sieve that grows on demand and is shared with the
eta series of ``asymptotics``.  A brute-force t-core counter over full
enumeration serves as the independent oracle for c_t at small n.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter, mul

from .errors import GuardError, check_cost
from .partitions import enumerate_partitions, is_t_core

BRUTEFORCE_GUARD = 40
# Cost guards, checked before any work starts; one p(n) and the table
# p(0..n) are timed above.  P_EXACT_LIMIT also bounds the n + 1 big ints
# of p_t(n), t < n, which takes t n additions: on a 2-core Xeon 5 * 10^7
# of them took 4.9-7.1 s (n = 20000 to 10^5), p_2(10^6) 0.24 s and 51 MB,
# p_50(10^6) 6.8 s and 118 MB.  One c_t(n) takes (n/t)^2 eta-power steps,
# 10^8 of them 2-3 s.
P_EXACT_LIMIT = 10**6
P_GUARD_N = 100_000
PT_GUARD_STEPS = 5 * 10**7
CORE_GUARD_STEPS = 10**8
# steps of the guaranteed-zero sum (``lower_bound_partial``): a cost of
# 1.7 * 10^8 (n = 8000) took 1.6 s on a 2-core Xeon at the faster of its
# two speeds, with c_1(n) read off
LOWER_BOUND_GUARD_STEPS = 2 * 10**8

_TABLE_CROSSOVER = 2000  # largest n whose p(n) extends the table

_p_cache: list[int] = [1]
_sigma: list[int] = [0]  # _sigma[j] = sigma(j); _sigma[0] is a placeholder


def divisor_sums(limit: int) -> list[int]:
    """The shared sieve of sigma(j), the sum of the divisors of j, grown
    to cover 0 <= j <= limit.  The returned list may be longer than
    limit + 1; callers must not modify it."""
    global _sigma
    if limit >= len(_sigma):
        size = max(limit + 1, 2 * len(_sigma))
        sig = [0] * size
        for d in range(1, size):
            for m in range(d, size, d):
                sig[m] += d
        _sigma = sig
    return _sigma


def _pentagonal_pairs(limit: int):
    """Generalized pentagonal numbers g <= limit with the recurrence sign."""
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


def _gather(offsets: list[int]):
    """itemgetter over offsets that always returns a tuple."""
    if len(offsets) > 1:
        return itemgetter(*offsets)
    if offsets:
        (i,) = offsets
        return lambda seq: (seq[i],)
    return lambda seq: ()


def partition_count(n: int) -> int:
    """Exact p(n), the number of partitions of n, for n <= ``P_EXACT_LIMIT``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < len(_p_cache):
        return _p_cache[n]
    check_cost(n, P_EXACT_LIMIT, "n (exact p(n))")
    if n <= _TABLE_CROSSOVER:
        return _p_table(n)[n]
    from .rademacher import p_exact  # on first use, so start-up never compiles it

    return p_exact(n)


def _p_table(n: int) -> list[int]:
    """The shared table p(0..m), extended so that m >= n."""
    p = _p_cache
    if n < len(p):
        return p
    pos, neg = [], []  # -g for each pentagonal g <= m, by recurrence sign
    pending = _pentagonal_pairs(n)
    g, sign = next(pending)
    for m in range(len(p), n + 1):
        if g <= m:
            while g <= m:
                (pos if sign > 0 else neg).append(-g)
                g, sign = next(pending, (n + 1, 0))
            get_pos, get_neg = _gather(pos), _gather(neg)
        p.append(sum(get_pos(p)) - sum(get_neg(p)))
    return p


def _check_args(t: int, n: int) -> None:
    if t < 1:
        raise ValueError("t must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")


def bounded_partition_count(t: int, n: int) -> int:
    """Exact p_t(n): partitions of n with every part at most t.  With
    t >= n this is p(n), guarded as ``partition_count``; otherwise refuses
    n > ``P_EXACT_LIMIT`` (10^6) or t n > ``PT_GUARD_STEPS`` (5 * 10^7)."""
    _check_args(t, n)
    if t >= n:
        return partition_count(n)
    check_cost(n, P_EXACT_LIMIT, "n (exact p_t(n))")
    check_cost(t * n, PT_GUARD_STEPS, "t n (steps of the p_t(n) recurrence)")
    dp = [1] + [0] * n
    for part in range(1, t + 1):
        for m in range(part, n + 1):
            dp[m] += dp[m - part]
    return dp[n]


def build_bounded_table(limit_t: int, limit_n: int) -> tuple[tuple[int, ...], ...]:
    """p_t(n) for all 0 <= t <= limit_t, 0 <= n <= limit_n, n-major:
    ``table[n][t] = p_t(n)``, so each row is cumulative in t."""
    dp = [1] + [0] * limit_n
    rows = [tuple(dp)]
    for part in range(1, limit_t + 1):
        for m in range(part, limit_n + 1):
            dp[m] += dp[m - part]
        rows.append(tuple(dp))
    return tuple(zip(*rows))


def _eta_power(t: int, limit: int) -> list[int]:
    """a_t(0..limit), the coefficients of prod_k (1-q^k)^t."""
    sigma = divisor_sums(limit)
    a = [1]
    for w in range(1, limit + 1):
        # sum_{j=1..w} sigma(j) a(w-j), pairing a(w-1), ..., a(0) with
        # sigma(1), sigma(2), ...; the division by w is exact
        a.append(-t * sum(map(mul, reversed(a), islice(sigma, 1, None))) // w)
    return a


def tcore_count(t: int, n: int) -> int:
    """Exact c_t(n), the number of t-core partitions of n.  With t > n no
    hook length reaches t, so this is p(n), guarded as ``partition_count``;
    with t = 1 it is [n = 0], since the only 1-core is the empty
    partition, at any n; otherwise refuses n > ``P_GUARD_N`` (10^5, the
    table p(0..n)) or (n/t)^2 > ``CORE_GUARD_STEPS`` (10^8 eta-power
    steps)."""
    _check_args(t, n)
    if t > n:
        return partition_count(n)
    if t == 1:
        return int(n == 0)
    check_cost(n, P_GUARD_N, "n (exact p(0..n))")
    check_cost((n // t) ** 2, CORE_GUARD_STEPS, "(n/t)^2 (eta-power steps of c_t(n))")
    return _tcore_series(t, n)


def _tcore_series(t: int, n: int) -> int:
    """c_t(n) from the series, unguarded; p[n::-t] is p(n), ..., p(n mod t).
    The only 1-core is the empty partition, so t = 1 needs no series."""
    if t == 1:
        return int(n == 0)
    return sum(map(mul, _eta_power(t, n // t), _p_table(n)[n::-t]))


def lower_bound_partial(n: int, t_lo: int, t_hi: int) -> int:
    """Exact partial sum over t in [t_lo, t_hi] of c_t(n) * p_t(n-t).

    Each term counts the guaranteed zeros contributed by pairs where mu
    has largest part exactly t and lambda is a t-core.  Refuses n above
    ``P_GUARD_N`` (10^5) or a cost above ``LOWER_BOUND_GUARD_STEPS``
    (2 * 10^8): sum_t (n/t)^2 steps of the c_t series, n t_hi of the p_t table.
    """
    if not (1 <= t_lo <= t_hi <= n):
        raise ValueError(f"need 1 <= t_lo <= t_hi <= n, got ({t_lo}, {t_hi}, {n})")
    check_cost(n, P_GUARD_N, "n (exact p(0..n))")
    check_cost(sum((n // t) ** 2 for t in range(t_lo, t_hi + 1)) + n * t_hi,
               LOWER_BOUND_GUARD_STEPS,
               "sum_t (n/t)^2 + n t_hi (steps of the guaranteed-zero sum)")
    # dp[m] = p_t(m) for m <= n - t, built incrementally over t; step t
    # reads only dp[n - t].  For t > n/2 the step is empty: dp[n - t]
    # already holds p(n - t), which is p_t(n - t).
    dp = [1] + [0] * n
    total = 0
    for t in range(1, t_hi + 1):
        for m in range(t, n - t + 1):
            dp[m] += dp[m - t]
        if t >= t_lo:
            total += _tcore_series(t, n) * dp[n - t]
    return total


def lower_bound_sum(n: int) -> int:
    """Exact guaranteed-zero lower bound for Z(n); no characters needed."""
    if n < 1:
        raise ValueError("n must be positive")
    return lower_bound_partial(n, 1, n)


def tcore_count_bruteforce(t: int, n: int) -> int:
    """c_t(n) straight from the definition: enumerate and test hooks.

    Refuses n above ``BRUTEFORCE_GUARD``; this is an oracle, not a
    production path.
    """
    _check_args(t, n)
    if n > BRUTEFORCE_GUARD:
        raise GuardError(f"brute-force t-core count limited to n <= {BRUTEFORCE_GUARD}, "
                         f"got {n}")
    return sum(1 for lam in enumerate_partitions(n) if is_t_core(lam, t))
