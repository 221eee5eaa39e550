"""Exactly-uniform random partitions and Monte Carlo zero-density
estimation for the character table.

The sampler draws the largest part k of a partition of n with its true
probability (p_k(n) - p_{k-1}(n)) / p(n) straight from exact bounded
count tables, then recurses on n - k with parts capped at k, so the
distribution over partitions of n is uniform with no approximation.
One uniform integer below p_cap(m) per part, drawn by the rejection
loop on ``getrandbits`` that ``randrange`` runs, is inverted by
bisection in the row of p_k(m), which is cumulative in k.  The density
probe then draws independent uniform pairs (lambda, mu) as bare part
tuples, which matches counting cells of the table: it deliberately does
not weight mu by conjugacy-class size.

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

from .characters import VALUE_GUARD, BudgetExceeded, _chi
from .counting import build_bounded_table
from .errors import GuardError
from .partitions import Partition, beta_mask

RNG_ALGORITHM = "mt19937-sha256-streams-v1"
_CHUNK = 2048  # samples per substream; changing it changes every report
# memo misses allowed per character evaluation, one per new (lambda mask,
# mu suffix) state stored in the memo trie; sized above the worst-case
# cold-start state count at n = 60 (~2.5e6), so within the guard no sample
# can fail.
_STEP_BUDGET = 10_000_000


def _stream_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"charcensus:{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _draw(n: int, rng: random.Random,
          table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The parts of one uniform partition of n, largest first; ``table``
    must cover n (see ``random_partition``)."""
    getrandbits = rng.getrandbits
    parts = []
    remaining, cap = n, n
    while remaining:
        row = table[remaining]
        top = row[cap]
        # rng.randrange(top) as CPython 3.10-3.13 draw it: the same stream
        bits = top.bit_length()
        r = getrandbits(bits)
        while r >= top:
            r = getrandbits(bits)
        k = bisect_right(row, r, 1, cap)
        parts.append(k)
        remaining -= k
        cap = k
    return tuple(parts)


def random_partition(n: int, rng: random.Random,
                     table: tuple[tuple[int, ...], ...] | None = None) -> Partition:
    """Draw one partition of n, exactly uniformly.

    ``table`` holds ``table[m][t] = p_t(m)`` for all t, m <= n, as
    ``build_bounded_table(n, n)`` returns (built on the fly when
    omitted; pass one in when drawing repeatedly).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if table is None:
        table = build_bounded_table(n, n)
    if len(table) <= n or len(table[n]) <= n:
        raise GuardError(f"need a bounded count table covering n={n}")
    return Partition(_draw(n, rng, table))


class DensityEstimate(NamedTuple):
    """Monte Carlo estimate of the zero density Z(n)/p(n)^2.

    ``failures`` counts evaluations abandoned by the per-sample step
    budget; they are excluded from both numerator and denominator, never
    silently counted as zeros.  ``conjecture_value`` is the conjectured
    limit 2/log n.  Deterministic given (n, samples, seed).
    """

    n: int
    samples: int
    zeros_observed: int
    failures: int
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
            "failures": self.failures,
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
    conjectured 2/log n alongside.  Guarded at ``VALUE_GUARD`` (n <= 60):
    one character evaluation gets combinatorially expensive past desk
    scale.
    """
    if n < 2:
        raise GuardError("density estimation requires n >= 2")
    if n > VALUE_GUARD:
        raise GuardError(f"density estimation limited to n <= {VALUE_GUARD}, got {n}")
    if samples < 1:
        raise ValueError("samples must be positive")
    table = build_bounded_table(n, n)
    memo: dict = {}

    def run_chunk(index: int) -> tuple[int, int]:
        rng = _stream_rng(seed, index)
        count = min(_CHUNK, samples - index * _CHUNK)
        zeros = failures = 0
        for _ in range(count):
            lam = _draw(n, rng, table)
            mu = _draw(n, rng, table)
            try:
                value = _chi(beta_mask(lam), mu, memo, [_STEP_BUDGET])
            except BudgetExceeded:
                failures += 1
                continue
            if value == 0:
                zeros += 1
        return zeros, failures

    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    results = [run_chunk(i) for i in range(n_chunks)]
    zeros = sum(z for z, _ in results)
    failures = sum(f for _, f in results)
    evaluated = samples - failures
    point = zeros / evaluated if evaluated else 0.0
    ci_low, ci_high = wilson_interval(zeros, evaluated)
    return DensityEstimate(
        n=n, samples=samples, zeros_observed=zeros, failures=failures,
        point_estimate=point, ci_low=ci_low, ci_high=ci_high,
        conjecture_value=2 / math.log(n),
        seed=seed,
    )
