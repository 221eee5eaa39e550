"""Monte Carlo zero-density estimation for the character table, over
exactly-uniform random partitions.

The sampler, ``_draw_key``, draws the largest part k of a partition of
n with its true probability (p_k(n) - p_{k-1}(n)) / p(n) straight from
exact bounded count tables, then recurses on n - k with parts capped
at k, so the distribution over partitions of n is uniform with no
approximation.
One uniform integer below p_cap(m) per part, drawn by the rejection
loop on ``getrandbits`` that ``randrange`` runs, is inverted by
bisection in the row of p_k(m), which is cumulative in k; a table of
draw states, built once per run (``_states``), holds the row, p_cap(m)
and its bit length for every (m, cap).  The density probe draws
independent uniform pairs (lambda, mu), which matches counting cells
of the table: it deliberately does not weight mu by conjugacy-class
size.

Every pair is evaluated, since ``VALUE_GUARD`` bounds the work of one
evaluation, so no pair is dropped and ``samples`` is the denominator.
The pairs are drawn first and kept as a multiset, one flat {key: count}
dict: ``_draw_key`` builds each pair's int key as the parts come, the
beta mask of lambda with a code of mu above it (``characters._pair_key``),
so no part tuple is made.  One ``characters._values`` walk then
evaluates each distinct pair once, in key order, holding only the memo
of the current mu's suffixes, and the zeros are counted with their
multiplicities.

Randomness: every run is driven by one 64-bit seed.  Sample chunks of
fixed size draw from independent substreams whose seeds are derived
from (seed, chunk index) by SHA-256, so the estimate is bit-identical
for a given (n, samples, seed).

The chunks are split over k = min(chunks, usable CPUs) processes:
chunk c goes to process c mod k, process 0 being the caller and the
others ``os.fork`` children.  Each process draws its own chunks into its
own multiset, walks it and counts its zeros; a child sends its count to
the caller as one decimal int through a pipe, and the caller adds them.
The zero count is a sum over pairs, so the report does not depend on k.
The split is by chunk, not by a range of mu: random draws balance the
shares by construction and only one int crosses each pipe, where a mu
range would need the whole multiset merged first and would be
unbalanced (at n = 40 the top 1% of pairs hold 27% of the walk's
states, and mu order puts the heavy classes with many ones first).  The
shares recompute some suffix states in common: at (40, 24000, 42) the
two halves compute 288,215 and 281,324 states against 466,615 for one
walk.  k is 1, and the same loop runs in the caller with nothing forked,
when there is one chunk, when ``os`` has no ``fork``, when one CPU is
usable, or when another thread is alive, since a forked copy of a
multithreaded process can deadlock.  The guards and the draw table are
built before any fork, so every refusal comes from the caller, and each
child shares the table with it; a spawned worker would pay the
interpreter's start-up, the imports and the table again, and only one
int would come back.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from bisect import bisect_right
from typing import NamedTuple

from .characters import _check_value_size, _values
from .counting import build_bounded_table
from .errors import GuardError

RNG_ALGORITHM = "mt19937-sha256-streams-v1"
_CHUNK = 2048  # samples per substream; changing it changes every report
# limit on samples * (16 + 2^(n/5)): one sample takes 0.11-0.24 us *
# (16 + 2^(n/5)) of one process on a 2-core Xeon, the most at n = 20-30
# and the least at n = 2 and n = 60 (1.9-2.2 us at n = 2, 42 us at n =
# 40, 0.47-0.61 ms at n = 60).  The memo holds one mu's suffixes at a
# time; what grows with the samples is each process's multiset of drawn
# pairs, one dict entry and one int key per distinct pair.  At the
# limit, seed 42, a fresh process on both cores took (time, the caller's
# peak RSS, 18 MB of it from the imports, and the child's, counting the
# pages it shares with the caller): n = 2: 0.6-1.2 s, 18 MB, 12 MB;
# 12: 1.4-2.0 s, 18 MB, 13 MB; 20: 1.9-2.2 s, 41 MB, 35 MB; 30: 1.7-2.0
# s, 30 MB, 24 MB; 40: 1.5-1.6 s, 25 MB, 19 MB; 50: 1.1-1.5 s, 25 MB,
# 18 MB; 60: 1.1-1.4 s, 31 MB, 18 MB (one process: 1.1-3.5 s, at most
# 45 MB)
DENSITY_GUARD = 2**24


def _stream_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"charcensus:{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _states(n: int) -> tuple[tuple[tuple[tuple[int, ...], int, int], ...], ...]:
    """``states[m][k] = (row, top, top.bit_length())`` for every m, k <= n,
    where ``row = table[m]`` of ``build_bounded_table(n, n)`` and
    ``top = row[k] = p_k(m)``: the draw state with m left and parts <= k."""
    return tuple(tuple((row, top, top.bit_length()) for top in row)
                 for row in build_bounded_table(n, n))


def _draw_key(n: int, rng: random.Random, states, width: int) -> int:
    """The ``characters._pair_key`` of one uniform pair (lambda, mu) of
    partitions of n, lambda drawn first; ``states`` is ``_states(n)`` and
    ``width`` is ``n.bit_length()``, the digit width of mu's code.

    Each part k of a partition is drawn with its true probability: one
    uniform integer r below top = p_cap(remaining), by the rejection loop
    on ``getrandbits`` that ``randrange`` runs (the same stream as
    CPython 3.10-3.13), then k is the least with p_k(remaining) > r; the
    next part is capped at k.  Once top is 1 every part left is 1, and
    each still reads its one-bit rejection loop.  Lambda's beta mask
    gains one bit per part, shifted up by the gap prev - k + 1 to the
    next part; mu's parts are ORed in as digits, the first lowest, and
    the code is aligned as ``_mu_code`` aligns it at the end.
    """
    getrandbits = rng.getrandbits
    mask = 0
    remaining = cap = n
    while remaining:
        row, top, bits = states[remaining][cap]
        if top == 1:  # remaining ones, each a one-bit loop
            for _ in range(remaining):
                while getrandbits(1):
                    pass
            break
        r = getrandbits(bits)
        while r >= top:
            r = getrandbits(bits)
        k = bisect_right(row, r, 1, cap)
        mask = mask << cap - k + 1 | 1
        remaining -= k
        cap = k
    # the ones left, then the last part's height above bit 0
    lam = (mask << cap + remaining - 1 | (1 << remaining) - 1) << 1
    code = shift = 0
    remaining = cap = n
    while remaining:
        row, top, bits = states[remaining][cap]
        if top == 1:
            for _ in range(remaining):
                while getrandbits(1):
                    pass
                code |= 1 << shift
                shift += width
            break
        r = getrandbits(bits)
        while r >= top:
            r = getrandbits(bits)
        k = bisect_right(row, r, 1, cap)
        code |= k << shift
        shift += width
        remaining -= k
        cap = k
    return code << width * n - shift + n + 1 | lam


def _chunk_zeros(n: int, samples: int, seed: int, chunks: range, states) -> int:
    """The zeros among the pairs of sample chunks ``chunks``: each chunk's
    pairs are drawn from its own substream into one {pair key: count}
    dict, which one ``characters._values`` walk then evaluates."""
    width = n.bit_length()
    counts: dict[int, int] = {}
    for index in chunks:
        rng = _stream_rng(seed, index)
        for _ in range(min(_CHUNK, samples - index * _CHUNK)):
            key = _draw_key(n, rng, states, width)
            counts[key] = counts.get(key, 0) + 1
    return sum(count for value, count in _values(counts, n) if not value)


def _workers() -> int:
    """The processes an estimate may use: one per usable CPU, or 1 where
    ``os.fork`` is missing or another thread is alive, since a forked copy
    of a multithreaded process can deadlock on a lock another thread held."""
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drain(fd: int) -> bytes:
    """Everything read from ``fd`` up to end of file."""
    parts = []
    while part := os.read(fd, 4096):
        parts.append(part)
    return b"".join(parts)


def _fork_sum(k: int, work) -> int:
    """``sum(work(j) for j in range(k))``: ``work(0)`` runs in the caller,
    each other j in a forked child that sends its int back through a pipe
    as decimal digits.  With k = 1 nothing is forked.

    A child leaves only through ``os._exit``, also on an exception or a
    SIGINT, so it never flushes the stdio buffers it inherited and never
    returns into the caller's code; SIGINT is blocked across each fork, so
    one cannot strike between the fork and the bookkeeping of either
    side.  On any exception the caller kills its children; on every path
    it reads each pipe to end of file and reaps each child before it
    returns or raises.  A child that fails makes the caller raise
    ``RuntimeError``.
    """
    if k == 1:
        return work(0)
    import signal

    children: dict[int, int] = {}  # pid: the read end of its pipe
    replies: list[bytes] = []
    statuses: list[int] = []
    try:
        for j in range(1, k):
            read, write = os.pipe()
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        os.close(read)
                        # fewer than PIPE_BUF bytes: one write, all or nothing
                        os.write(write, str(work(j)).encode())
                        code = 0
                    finally:
                        os._exit(code)
                children[pid] = read
            except OSError:  # no fork
                os.close(read)
                raise
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        total = work(0)
        for read in children.values():
            replies.append(_drain(read))
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children.items():
            _drain(read)
            os.close(read)
            statuses.append(os.waitpid(pid, 0)[1])
    for pid, status, reply in zip(children, statuses, replies):
        if status or not reply:
            raise RuntimeError(f"density worker {pid} failed "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")
        total += int(reply)
    return total


class DensityEstimate(NamedTuple):
    """Monte Carlo estimate of the zero density Z(n)/p(n)^2.

    Every sample is evaluated, so the JSON form's ``failures`` is always
    0; output schema v1 requires the key.  ``conjecture_value`` is the
    conjectured limit 2/log n.  Deterministic given (n, samples, seed).
    """

    n: int
    samples: int
    zeros_observed: int
    point_estimate: float
    ci_low: float
    ci_high: float
    conjecture_value: float
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "samples": self.samples,
            "zeros_observed": self.zeros_observed,
            "failures": 0,
            "point_estimate": self.point_estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "conjecture_value": self.conjecture_value,
            "seed": self.seed,
            "rng_algorithm": self.rng_algorithm,
        }


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Unlike the Wald interval it does not collapse to a point when no
    success, or no failure, is observed.  The bounds are clamped so that
    0 <= low <= successes/trials <= high <= 1 holds exactly in floats;
    with no trials the interval is [0, 1].
    """
    if trials == 0:
        return 0.0, 1.0
    z = 1.96
    point = successes / trials
    denom = 1 + z * z / trials
    center = (point + z * z / (2 * trials)) / denom
    half = z / denom * math.sqrt(point * (1 - point) / trials + z * z / (4 * trials * trials))
    return max(0.0, min(point, center - half)), min(1.0, max(point, center + half))


def estimate_zero_density(n: int, samples: int, seed: int) -> DensityEstimate:
    """Estimate Z(n)/p(n)^2 from ``samples`` uniform (lambda, mu) pairs.

    Reports the zero fraction with its 95% Wilson score interval, which
    stays honest when no zero (or no nonzero) is observed, and the
    conjectured 2/log n alongside.  Guarded by the single-value limit
    ``characters.VALUE_GUARD`` (n <= 60): one character evaluation gets
    combinatorially expensive past desk scale, and by ``DENSITY_GUARD``,
    since the time and the multiset of drawn pairs grow with every
    sample.  0 <= seed < 2^64.
    """
    # the arguments first, so an invalid one is a usage error at any size
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if samples < 1:
        raise ValueError("samples must be positive")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if n < 2:
        raise GuardError("density estimation requires n >= 2")
    _check_value_size(n)
    cost = samples * (16 + 2 ** (n / 5))
    if cost > DENSITY_GUARD:
        raise GuardError(f"samples * (16 + 2^(n/5)) = {cost:.4g} exceeds the "
                         f"limit {DENSITY_GUARD} (2^24)")
    states = _states(n)
    chunks = -(-samples // _CHUNK)
    k = min(chunks, _workers())
    zeros = _fork_sum(k, lambda j: _chunk_zeros(n, samples, seed, range(j, chunks, k), states))
    ci_low, ci_high = wilson_interval(zeros, samples)
    return DensityEstimate(
        n=n, samples=samples, zeros_observed=zeros,
        point_estimate=zeros / samples, ci_low=ci_low, ci_high=ci_high,
        conjecture_value=2 / math.log(n),
        seed=seed,
    )
