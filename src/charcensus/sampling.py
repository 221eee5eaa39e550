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
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from typing import NamedTuple

from .characters import _check_value_size, _values
from .counting import build_bounded_table
from .errors import GuardError

RNG_ALGORITHM = "mt19937-sha256-streams-v1"
_CHUNK = 2048  # samples per substream; changing it changes every report
# limit on samples * (16 + 2^(n/5)): one sample takes 0.11-0.24 us *
# (16 + 2^(n/5)) on a 2-core Xeon, the most at n = 20-30 and the least
# at n = 2 and n = 60 (1.9-2.2 us at n = 2, 42 us at n = 40, 0.47-0.61
# ms at n = 60).  The memo holds one mu's suffixes at a time; what grows
# with the samples is the multiset of drawn pairs, one dict entry and
# one int key per distinct pair, 22 MB at the limit at n = 20 and 21 MB
# at n = 30 (289,198 and 209,026 distinct pairs).  At the limit, seed
# 42, a fresh process took (time, peak RSS, 18 MB of it from the
# imports): n = 2: 1.8-2.1 s, 18 MB; 12: 2.8-3.1 s, 18 MB; 20: 3.8-4.0
# s, 44 MB; 30: 3.6-3.7 s, 41 MB; 40: 2.6 s, 29 MB; 50: 2.5-2.7 s,
# 28 MB; 60: 1.9-2.5 s, 31 MB
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
    width = n.bit_length()
    counts: dict[int, int] = {}  # {pair key: count}
    for start in range(0, samples, _CHUNK):
        rng = _stream_rng(seed, start // _CHUNK)
        for _ in range(min(_CHUNK, samples - start)):
            key = _draw_key(n, rng, states, width)
            counts[key] = counts.get(key, 0) + 1
    zeros = sum(count for value, count in _values(counts, n) if not value)
    ci_low, ci_high = wilson_interval(zeros, samples)
    return DensityEstimate(
        n=n, samples=samples, zeros_observed=zeros,
        point_estimate=zeros / samples, ci_low=ci_low, ci_high=ci_high,
        conjecture_value=2 / math.log(n),
        seed=seed,
    )
