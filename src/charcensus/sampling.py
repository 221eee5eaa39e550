"""Monte Carlo zero-density estimation for the character table, over
exactly-uniform random partitions.

The sampler, ``_draw_keys``, draws the largest part k of a partition of
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
size.  One part loop draws lambda, then mu, and one call draws all the
pairs of a sample chunk.

Every pair is evaluated, since ``VALUE_GUARD`` bounds the work of one
evaluation, so no pair is dropped and ``samples`` is the denominator.
The pairs are drawn first and kept as a multiset: ``_draw_keys`` builds
each pair's int key as the parts come, the beta mask of lambda with a
code of mu above it (``values._pair_key``), so no part tuple is
made.  Each drawer counts its pairs (``_drawn``) and packs each
distinct key once, in int order, as a fixed-width big-endian int, with
an array of the counts after the keys, so a kept pair costs its key's
bytes and 4 bytes, with no int object and no dict entry.
``values._values`` walks then evaluate each distinct pair once, in
key order, holding only the memo of the current mu's suffixes, and the
zeros are counted with their multiplicities.

Randomness: every run is driven by one 64-bit seed.  Sample chunks of
fixed size draw from independent substreams whose seeds are derived
from (seed, chunk index) by SHA-256, so the estimate is bit-identical
for a given (n, samples, seed).

The work is split over the usable CPUs in two phases, each through
``_fork_map``.  Draws: the chunks go to k = min(chunks, usable CPUs)
processes, chunk c to process c mod k, process 0 being the caller and
the others ``os.fork`` children; each sorts its pairs into one multiset
(``_drawn``) and a child sends its multiset back through a pipe.  The
caller merges them into one (``_merge``), keeping a pair drawn by two
processes once with both counts, and frees each as it is merged.  The
walk: the sorted keys are cut into blocks of ``_BLOCK`` keys.  The
caller walks the blocks up from the first and one forked walker, which
shares the multiset with it, walks them down from the last, each
through one ``_values`` walk that keeps its suffix path from block to
block, until it reaches a block the other has claimed (``_walk``).  Each
block has one slot in an anonymous shared map, which its walker sets
when it claims the block and again, to the block's zeros, when it has
walked it; nothing is locked, and two walkers that claim one block at
once both walk it and write the same count.  Each walker claims the
blocks from its end up to the first the other has claimed and walks
every block it claims, so once the walker is reaped every slot is set,
and the caller adds them.  The zero count is a sum over pairs, so the
report depends neither on k nor on where the walkers meet.
The walk is split by a range of mu, not by chunk, because the memo is
shared along mu suffixes and random halves share few: at (40, 24000,
42) the two halves of a chunk split computed 288,215 and 281,324
states against 466,615 for one walk, and the two ends compute about as
many as one walk between them (the caller 202,547-231,119 and the
walker 236,024-264,360 in three runs, 174-528 states more than one
walk, where a suffix spans the meeting point).  The walkers meet where
their times do, not at a count of pairs, so the heavy classes with many
small parts at the low end are shared out as they come (at n = 40 the
top 1% of pairs hold 27% of the walk's states).  With k > 2, k
processes draw and two walk; its reports are tested, but its speed was
not measured: every timing here is from 2 CPUs.  Nothing is forked, and
the same steps run in the caller, where ``os`` has no ``fork``, one CPU
is usable, or another thread is alive, since a forked copy of a
multithreaded process can deadlock; one chunk forks no drawer, and one
block no walker.  The
guards and the draw table are built before any fork, so every refusal
comes from the caller, and each child shares the table with it; a
spawned worker would pay the interpreter's start-up, the imports and
the table again.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import random
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import chain, groupby, repeat
from typing import NamedTuple

from .values import _check_value_size, _values
from .counting import build_bounded_table
from .errors import GuardError

RNG_ALGORITHM = "mt19937-sha256-streams-v1"
_CHUNK = 2048  # samples per substream; changing it changes every report
_BLOCK = 8  # distinct pairs per block of the split walk; a walker that
# finishes first idles for at most one block of the other's
# limit on samples * (16 + 2^(n/5)): one sample takes 0.11-0.30 us *
# (16 + 2^(n/5)) of one process on a 2-core Xeon, the most at n = 12-20
# and the least at n = 2 and n = 60 (1.9-2.5 us at n = 2, 42-53 us at n
# = 40, 0.47-0.61 ms at n = 60).  The memo holds one mu's suffixes at a
# time; what grows with the samples is the multiset of drawn pairs, each
# drawer's dict or list while it draws, then its packed keys and the
# caller's merged copy.  At the limit, seed 42, a fresh process on both
# cores took (time, the caller's peak RSS, 18 MB of it from the imports,
# and the largest child's, counting the pages it shares with the
# caller): n = 2: 1.2 s, 18 MB, 13 MB; 12: 1.9-2.6 s, 19 MB, 14 MB; 20:
# 2.9-3.7 s, 38 MB, 33 MB; 30: 2.1-2.5 s, 31 MB, 22 MB; 40: 1.5-1.7 s,
# 25 MB, 17 MB; 50: 1.4-1.5 s, 27 MB, 15 MB; 60: 1.0-1.3 s, 31 MB, 15
# MB (one process: 2.4-5.0 s, at most 45 MB); run alternately with
# these, the split by sample chunk that the split walk replaced took
# 1.2-3.3 s with at most 41 MB in the caller
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


def _draw_keys(n: int, rng: random.Random, states, width: int, count: int) -> list[int]:
    """The ``values._pair_key``s of ``count`` uniform pairs (lambda, mu)
    of partitions of n drawn in turn from ``rng``, lambda first in each;
    ``states`` is ``_states(n)`` and ``width`` is ``n.bit_length()``, the
    digit width of mu's code.

    One part loop draws lambda, then mu.  Each part k is drawn with its
    true probability: one uniform integer r below top = p_cap(remaining),
    by the rejection loop on ``getrandbits`` that ``randrange`` runs (the
    same stream as CPython 3.10-3.13), then k is the least with
    p_k(remaining) > r; the next part is capped at k.  Once top is 1 every
    part left is 1, and each still reads its one-bit rejection loop.
    Lambda's pass shifts its beta mask up by the gap prev - k + 1 to the
    next part and sets that part's bit; mu's pass ORs each part in as a
    digit, the first lowest, and its ones as one block of digits 1, and
    the code is aligned as ``_mu_code`` aligns it.
    """
    getrandbits = rng.getrandbits
    digit = (1 << width) - 1
    keys = []
    for _ in range(count):
        for mu in False, True:
            word = shift = 0
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
                if mu:
                    word |= k << shift
                    shift += width
                else:
                    word = word << cap - k + 1 | 1
                remaining -= k
                cap = k
            if not mu:  # the ones left, then the last part's height above bit 0
                lam = (word << cap + remaining - 1 | (1 << remaining) - 1) << 1
        word |= ((1 << width * remaining) - 1) // digit << shift  # mu's ones, digits 1
        keys.append(word << width * (n - remaining) - shift + n + 1 | lam)
    return keys


def _drawn(n: int, samples: int, seed: int, chunks: range, states, width: int) -> bytearray:
    """The multiset of the pairs of sample chunks ``chunks``, each chunk
    drawn from its own substream by one ``_draw_keys`` call, packed: the
    distinct keys in int order as ``width``-byte big-endian ints, then the
    ``array("I")`` of their counts.

    Where there are more draws than pairs, so that pairs repeat, they
    are counted in a {key: count} dict; otherwise they are kept in a
    list, sorted and counted in runs, since a dict entry costs more than
    a repeated int (at n = 30, nearly every pair is drawn once)."""
    bits = n.bit_length()
    sizes = [min(_CHUNK, samples - index * _CHUNK) for index in chunks]
    draws = chain.from_iterable(_draw_keys(n, _stream_rng(seed, index), states, bits, size)
                                for index, size in zip(chunks, sizes))
    if sum(sizes) > states[n][n][1] ** 2:
        tally = Counter(draws)
        ordered = sorted(tally)
        counts = array("I", map(tally.__getitem__, ordered))
        del tally  # before the keys are packed
    else:
        ordered, counts = [], array("I")
        for key, run in groupby(sorted(draws)):
            ordered.append(key)
            counts.append(len(list(run)))
    size = len(ordered) * width
    reply = bytearray(size + 4 * len(counts))
    for start in range(0, len(ordered), _CHUNK):  # one bytes per key, a batch at a time
        reply[start * width:(start + _CHUNK) * width] = b"".join(
            map(int.to_bytes, ordered[start:start + _CHUNK], repeat(width), repeat("big")))
    reply[size:] = counts
    return reply


def _multiset(reply: bytes, width: int) -> tuple[bytes, memoryview]:
    """The (keys, counts) of a ``_drawn`` reply, with no copy: the i-th
    key is bytes [i * width, (i + 1) * width) of the reply, and the counts
    are read as ints from its end."""
    return reply, memoryview(reply)[len(reply) // (width + 4) * width:].cast("I")


def _merge(a: tuple, b: tuple, width: int) -> tuple[mmap.mmap, array]:
    """The union of two multisets (keys, counts) in ``_multiset``'s form,
    the counts of a key in both added; the keys go to an anonymous map
    sized for both, whose pages past the union's end are never touched.
    Fixed-width big-endian keys compare as bytes as they do as ints."""
    (akeys, acounts), (bkeys, bcounts) = a, b
    asize, bsize = len(acounts), len(bcounts)
    keys, counts = mmap.mmap(-1, (asize + bsize) * width), array("I")
    i = j = 0
    x, y = akeys[:width], bkeys[:width]
    while i < asize and j < bsize:
        if x > y:
            keys.write(y)
            counts.append(bcounts[j])
            j += 1
            y = bkeys[j * width:j * width + width]
            continue
        keys.write(x)
        count = acounts[i]
        if x == y:
            count += bcounts[j]
            j += 1
            y = bkeys[j * width:j * width + width]
        counts.append(count)
        i += 1
        x = akeys[i * width:i * width + width]
    keys.write(akeys[i * width:asize * width])
    keys.write(bkeys[j * width:bsize * width])
    counts.extend(acounts[i:])
    counts.extend(bcounts[j:])
    return keys, counts


def _walk(n: int, keys, counts, width: int, slots, up: bool) -> bytes:
    """Count the zeros of the blocks of the sorted multiset (keys,
    counts), ``_BLOCK`` keys each, from one end: up from the first block
    or down from the last, until the next block is one the other walker
    has claimed.  A block's slot reads 1 once it is claimed and its zeros
    plus 2 once it is walked.  All the blocks go through one
    ``values._values`` walk, keys taken in the walking direction, so
    the suffix path carries over from one block to the next."""
    size = len(counts)

    def span(b: int) -> range:
        low, high = b * _BLOCK, min(size, b * _BLOCK + _BLOCK)
        return range(low, high) if up else range(high - 1, low - 1, -1)

    order = range(len(slots)) if up else range(len(slots) - 1, -1, -1)
    values = _values((int.from_bytes(keys[i * width:i * width + width], "big")
                      for b in order for i in span(b)), n)
    for b in order:
        if slots[b]:
            break
        slots[b] = 1
        zeros = 0
        for i in span(b):
            if not next(values):
                zeros += counts[i]
        slots[b] = zeros + 2
    return b""


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


def _fork_map(k: int, work) -> list[bytes]:
    """``[work(j) for j in range(k)]``, each a bytes: ``work(0)`` runs in
    the caller, each other j in a forked child that sends its bytes back
    through a pipe.  With k = 1 nothing is forked.

    A child leaves only through ``os._exit``, also on an exception or a
    SIGINT, so it never flushes the stdio buffers it inherited and never
    returns into the caller's code; SIGINT is blocked across each fork, so
    one cannot strike between the fork and the bookkeeping of either
    side.  On any exception the caller kills its children.  On every path
    it then reads each pipe once, to end of file, and reaps its child,
    with SIGINT blocked: an interrupt that lands while the children finish
    is raised once they are reaped.  A child that fails makes the caller
    raise ``RuntimeError``.
    """
    if k == 1:
        return [work(0)]
    import signal

    children: dict[int, int] = {}  # pid: the read end of its pipe
    replies, failed = [b""] * k, None
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
                        with open(write, "wb") as pipe:
                            pipe.write(work(j))
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
        replies[0] = work(0)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for j, (pid, read) in enumerate(children.items(), 1):
                with open(read, "rb") as pipe:
                    replies[j] = pipe.read()
                status = os.waitpid(pid, 0)[1]
                if status:
                    failed = failed or (f"density worker {pid} failed "
                                        f"(exit code {os.waitstatus_to_exitcode(status)})")
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    if failed:
        raise RuntimeError(failed)
    return replies


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
    ``values.VALUE_GUARD`` (n <= 60): one character evaluation gets
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
    workers = _workers()
    k = min(chunks, workers)
    width = (n.bit_length() * n + n + 8) // 8  # bytes of a _pair_key
    replies = _fork_map(k, lambda j: _drawn(n, samples, seed, range(j, chunks, k),
                                             states, width))
    keys, counts = _multiset(replies.pop(), width)
    while replies:
        keys, counts = _merge((keys, counts), _multiset(replies.pop(), width), width)
    blocks = -(-len(counts) // _BLOCK)
    slots = memoryview(mmap.mmap(-1, 8 * blocks)).cast("q")  # shared with the walker
    _fork_map(min(2, workers, blocks), lambda j: _walk(n, keys, counts, width, slots, up=not j))
    zeros = sum(slots) - 2 * blocks
    ci_low, ci_high = wilson_interval(zeros, samples)
    return DensityEstimate(
        n=n, samples=samples, zeros_observed=zeros,
        point_estimate=zeros / samples, ci_low=ci_low, ci_high=ci_high,
        conjecture_value=2 / math.log(n),
        seed=seed,
    )
