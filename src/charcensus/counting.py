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
                 A_t(q) = (q;q)_inf^t = prod_k (1-q^k)^t.

p and a_t are the coefficients of two powers of one product, p of
(q;q)_inf^(-1), and one loop, ``_eta_extend``, gives both by J. C. P.
Miller's power recurrence.  With (q;q)_inf = 1 - sum_g s(g) q^g over
the generalized pentagonal numbers g, s(g) the sign above,

    w a(w) = sum_{g <= w} s(g) (w - (t+1) g) a(w - g),

divided exactly by w; t = -1 is Euler's recurrence.  Each coefficient
takes O(sqrt w) terms, so one c_t(n) costs O((n/t)^1.5) once p(0..n)
is known.  The loop is a C-level gather: while the list holds
a(0..w-1), a(w - g) is a[-g], so the offsets -g of the g <= w are kept
in one list per sign and read with an ``operator.itemgetter``, rebuilt
only when a new g comes into range (about 500 times up to n = 10^5).
A step of p is then two C-level sums, with no Python bytecode per term;
a step of a_t adds two sums weighted by the offsets.

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
makes those zero sets disjoint.  ``lower_bound_partial`` computes every
term of a t range in one pass, in O(N^1.5) additions in all:

* c_t(N)      -- the eta powers a_t = a_{t-1} (q;q)_inf, one running
                 product truncated to q^(N//t); (q;q)_inf is sparse by
                 the pentagonal theorem, so step t costs (N/t)^1.5, and
                 c_t(N) = sum_w a_t(w) p(N - tw) reads the shared table;
* p_t(N - t)  -- one kernel per t range: the part DP truncated at N - t
                 when the range ends at or below sqrt(N); otherwise, from
                 its first t, Euler's prod_{k>t} (1 - q^k) =
                 sum_j (-1)^j q^(jt + j(j+1)/2) / (q;q)_j, so that
                 p_t(m) = sum_{j < sqrt(2N)} (-1)^j R_j(m - jt - j(j+1)/2)
                 with R_j = P(q)/(q;q)_j, each R_j a stride-j prefix sum
                 of R_{j-1} taken in place.

``tcore_count`` (n <= 10^5 at every t) and ``bounded_partition_count``
keep their own one-value paths, which the tests use as the sum's oracles.

A brute-force t-core counter over full enumeration serves as the
independent oracle for c_t at small n.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import add, itemgetter, mul, sub

from .errors import GuardError, check_cost
from .partitions import enumerate_partitions, is_t_core

BRUTEFORCE_GUARD = 40
# Cost guards, checked before any work starts; one p(n) and the table
# p(0..n) are timed above.  P_EXACT_LIMIT also bounds the n + 1 big ints
# of p_t(n), t < n, which takes t n additions: on a 2-core Xeon 5 * 10^7
# of them took 4.9-7.1 s (n = 20000 to 10^5), p_2(10^6) 0.24 s and 51 MB,
# p_50(10^6) 6.8 s and 118 MB.  P_GUARD_N alone bounds c_t(n): a_t
# takes O((n/t)^1.5) pentagonal terms, so the worst case, c_2(10^5), took
# 3.7-4.6 s for the table plus 1.0-1.4 s for a_2 and the sum, 28-32 MB.
P_EXACT_LIMIT = 10**6
P_GUARD_N = 100_000
PT_GUARD_STEPS = 5 * 10**7
# big-int additions of the guaranteed-zero sum (``_zero_sum_steps``),
# which charge nothing for a_1 and c_1(n).  The whole sum at n = 10^5
# (9.8 * 10^7 steps) took 10-11 s in a fresh process on a 2-core Xeon,
# 2.2 s of it the table p(0..n), so P_GUARD_N alone does not bound it.
# The limit keeps the time of the earlier O(n^2) sum at its own limit,
# n = 11029 (4.7-5.9 s in the same runs): the largest accepted
# lower_bound_sum, n = 64100 (5.0 * 10^7 steps), took 5.1-5.5 s and
# peaked at 54.6 MB RSS (``resource.getrusage``, fresh process);
# n = 10^4 took 0.22-0.38 s and 17 MB.  A step costs more as n and the
# big ints grow: 1 <= t <= 68 at n = 10^5, also at the limit, took
# 5.0-6.4 s and 39 MB.
LOWER_BOUND_GUARD_STEPS = 5 * 10**7

_TABLE_CROSSOVER = 2000  # largest n whose p(n) extends the table
# c_t(n) reads n//t + 1 values of p.  Above the crossover, where the
# table does not reach n yet, it takes each as one p(m) when they number
# at most n / _VALUES_PER_TABLE: from an empty table, p(0..n) took 5.4
# ms at n = 2001, 65 ms at 10^4 and 2.1 s at 10^5, about as long as n/133,
# n/100 and n/172 single values at m spread over [0, n] (one p(n) 0.5, 1.0
# and 5.1 ms, one p(n/2) half that), on a 2-core Xeon
_VALUES_PER_TABLE = 200

_p_cache: list[int] = [1]


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


def _eta_extend(a: list[int], t: int, n: int) -> list[int]:
    """Extend a, the coefficients a(0..m-1) of (q;q)_inf^t with a(0) = 1,
    in place to a(0..n) by Miller's recurrence; t = -1 gives p."""
    k = t + 1
    pos, neg = [], []  # -g for each pentagonal g <= w, by recurrence sign
    pending = _pentagonal_pairs(n)
    g, sign = next(pending, (n + 1, 0))
    for w in range(len(a), n + 1):
        if g <= w:
            while g <= w:
                (pos if sign > 0 else neg).append(-g)
                g, sign = next(pending, (n + 1, 0))
            get_pos, get_neg = _gather(pos), _gather(neg)
        ahead, behind = get_pos(a), get_neg(a)
        total = sum(ahead) - sum(behind)
        if k:  # (t+1) sum_g s(g) (-g) a(w - g), a multiple of w
            total += k * (sum(map(mul, pos, ahead)) - sum(map(mul, neg, behind))) // w
        a.append(total)
    return a


def _p_table(n: int) -> list[int]:
    """The shared table p(0..m), extended so that m >= n."""
    p = _p_cache
    return p if n < len(p) else _eta_extend(p, -1, n)


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


def tcore_count(t: int, n: int) -> int:
    """Exact c_t(n), the number of t-core partitions of n.  With t = 1 it
    is [n = 0], since the only 1-core is the empty partition, at any n;
    with t > n no hook length reaches t, so it is p(n), guarded as
    ``partition_count``; otherwise refuses n > ``P_GUARD_N`` (10^5, the
    table p(0..n))."""
    _check_args(t, n)
    if t == 1:
        return int(n == 0)
    if t > n:
        return partition_count(n)
    check_cost(n, P_GUARD_N, "n (exact p(0..n))")
    return _tcore_series(t, n)


def _tcore_series(t: int, n: int) -> int:
    """c_t(n), 2 <= t <= n, unguarded: a_t(0..n//t) times p(n), p(n - t), ...,
    p(n mod t), read from the table p(0..n), or each one ``partition_count``
    when few (see ``_VALUES_PER_TABLE``) and p(n) is past the crossover."""
    few = n >= len(_p_cache) and n > _TABLE_CROSSOVER and (n // t + 1) * _VALUES_PER_TABLE <= n
    p = map(partition_count, range(n, -1, -t)) if few else _p_table(n)[n::-t]
    return sum(map(mul, _eta_extend([1], t, n // t), p))


def _core_counts(n: int, t_lo: int, t_hi: int) -> list[int]:
    """c_t(n) for t_lo <= t <= t_hi <= n, unguarded, from one running
    product a_t = a_{t-1} (q;q)_inf truncated to q^(n//t) and the shared
    table p(0..n).  (q;q)_inf has one term per pentagonal number, so each
    step is one slice-wise add or subtract per pentagonal g <= n//t."""
    p = _p_table(n)
    pairs = list(_pentagonal_pairs(n // 2))
    a = [1] + [0] * (n // 2)  # a_1 = (q;q)_inf = 1 - sum_g sign(g) q^g
    for g, sign in pairs:
        a[g] = -sign
    eta = [(g, sub if sign > 0 else add) for g, sign in pairs]
    counts = [0] if t_lo == 1 else []  # c_1(n) = 0 for n >= 1
    for t in range(2, t_hi + 1):
        size = n // t + 1
        prev = a[:size]
        a = prev[:]
        for g, op in eta:
            if g >= size:
                break
            a[g:] = map(op, a[g:], prev)
        if t >= t_lo:
            counts.append(sum(map(mul, a, p[n::-t])))
    return counts


def _divide_one_minus(seq: list[int], step: int) -> None:
    """Divide the truncated series seq by 1 - q^step in place:
    seq[m] += seq[m - step] for m ascending, as prefix sums of each
    residue class while the classes are few and long, else block by
    block (step terms per slice)."""
    size = len(seq)
    if step * step < size:
        for r in range(step):
            seq[r::step] = accumulate(seq[r::step])
    else:
        for k in range(step, size, step):
            seq[k:k + step] = map(add, seq[k:k + step], seq[k - step:k])


def _largest_part_counts(n: int, t_lo: int, t_hi: int) -> list[int]:
    """p_t(n - t), the partitions of n with largest part t, for
    t_lo <= t <= t_hi <= n, unguarded.  A range that ends at or below
    isqrt(n) runs the part DP, dividing by 1 - q^t once per t, truncated
    at n - t.  Any other range runs Euler's identity from t_lo,

        prod_{k>t} (1 - q^k) = sum_j (-1)^j q^(jt + j(j+1)/2) / (q;q)_j,

    which holds at every t >= 0.  Times P(q) it gives p_t(m) =
    sum_j (-1)^j R_j(m - jt - j(j+1)/2) with R_j = P(q)/(q;q)_j, and
    j < sqrt(2n).  One R_j is held at a time, divided from R_{j-1} in
    place and cut to the last index any t reads."""
    if t_hi <= isqrt(n):
        counts = []
        dp = [1] + [0] * (n - 1)  # p_0(m) for m < n
        for t in range(1, t_hi + 1):
            del dp[n - t + 1:]
            _divide_one_minus(dp, t)  # dp[m] = p_t(m) for m <= n - t
            if t >= t_lo:
                counts.append(dp[-1])
        return counts
    counts = [0] * (t_hi - t_lo + 1)
    r = _p_table(n)[:n - t_lo + 1]  # R_0 = P(q)
    j = 0
    while True:
        # term j at t = t_lo, t_lo + 1, ...: r ends at the index for t_lo
        terms = r[::-(j + 1)]
        counts[:len(terms)] = map(sub if j % 2 else add, counts, terms)
        j += 1
        top = n - (j + 1) * t_lo - j * (j + 1) // 2
        if top < 0:
            return counts
        del r[top + 1:]
        _divide_one_minus(r, j)


def _zero_sum_steps(n: int, t_lo: int, t_hi: int) -> int:
    """The cost model of ``lower_bound_partial``, in big-int additions:
    m^1.5 per eta-product step, m = n//t for 2 <= t <= t_hi (a_1 and
    c_1 are free), plus the p_t kernel's.  The part DP, t_hi <=
    isqrt(n), costs n per t <= t_hi.  Euler's identity from t_lo is
    charged as the part DP to isqrt(n), when t_lo <= isqrt(n), plus
    n^2 / (2 t_min) for its R_j above it, t_min = max(t_lo, isqrt(n) + 1),
    which bounds its divisions from any t_lo."""
    split = isqrt(n)
    steps = sum(m * isqrt(m) for m in map(n.__floordiv__, range(2, t_hi + 1)))
    if t_hi <= split:
        return steps + n * t_hi
    if t_lo <= split:
        steps += n * split
    return steps + n * n // (2 * max(t_lo, split + 1))


def lower_bound_partial(n: int, t_lo: int, t_hi: int) -> int:
    """Exact partial sum over t in [t_lo, t_hi] of c_t(n) * p_t(n-t).

    Each term counts the guaranteed zeros contributed by pairs where mu
    has largest part exactly t and lambda is a t-core.  Every c_t(n)
    comes from ``_core_counts`` and every p_t(n - t) from
    ``_largest_part_counts``, O(n^1.5) additions for the whole sum.
    Refuses n above ``P_GUARD_N`` (10^5) or a cost above
    ``LOWER_BOUND_GUARD_STEPS`` (``_zero_sum_steps``).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not (1 <= t_lo <= t_hi <= n):
        raise ValueError(f"need 1 <= t_lo <= t_hi <= n, got ({t_lo}, {t_hi}, {n})")
    check_cost(n, P_GUARD_N, "n (exact p(0..n))")
    check_cost(_zero_sum_steps(n, t_lo, t_hi), LOWER_BOUND_GUARD_STEPS,
               "steps of the guaranteed-zero sum")
    return sum(map(mul, _core_counts(n, t_lo, t_hi), _largest_part_counts(n, t_lo, t_hi)))


def lower_bound_sum(n: int) -> int:
    """Exact guaranteed-zero lower bound for Z(n); no characters needed."""
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
