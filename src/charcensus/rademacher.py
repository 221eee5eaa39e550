"""Exact p(n) from the Hardy-Ramanujan-Rademacher series.

``counting.partition_count`` calls ``p_exact`` for n above its table
crossover; the counting module docstring gives the series, the tail
bound, the precision plan and the rounding check.  This module is
imported on that first call, not with the package, so start-up compiles
neither it nor ``decimal``.
"""

from __future__ import annotations

import decimal
import math
from functools import lru_cache

from .errors import NumericError

# The tail bound each sum stops below, the digits kept past a term's
# size, and the size below which doubles suffice: tail plus rounding
# error stay under the 0.25 rounding check.
_TAIL_BOUND = 0.24
_GUARD_DIGITS = 12
_DOUBLE_DIGITS = 10


def _tail_terms(n: int) -> int:
    """Least N with Lehmer's bound on the series remainder below
    ``_TAIL_BOUND``, for n >= 2."""
    x = math.pi * math.sqrt(2 * n / 3)
    first = 44 * math.pi ** 2 / (225 * math.sqrt(3))
    second = math.pi * math.sqrt(2) / 75
    # the first part alone needs N >= (first / bound)^2; x / N <= 700
    # keeps sinh finite
    terms = max(math.ceil((first / _TAIL_BOUND) ** 2), math.ceil(x / 700))
    while (first / math.sqrt(terms)
           + second * math.sqrt(terms / (n - 1)) * math.sinh(x / terms)) >= _TAIL_BOUND:
        terms += 1
    return terms


def _selberg_terms(n: int, k: int) -> list[tuple[int, int]]:
    """Pairs (w, l) with S_k(n) = sum w cos(pi (6l+1) / 6k).

    The l in [0, 2k) with 3l^2 + l + 2n = 0 (mod 2k) are found from the
    roots l < k mod k: l + k adds k(3k + 1), which is 0 (mod 2k) for odd
    k and k for even k.  For odd k, 3l^2 + l + 2n is even, so l and l + k
    are both roots, and their terms are equal because cos and (-1)^l
    change sign together: l stands for both (w = +-2)."""
    c = 2 * n
    if k & 1:
        return [(-2 if l & 1 else 2, l) for l in range(k) if (3 * l * l + l + c) % k == 0]
    two_k = 2 * k
    return [(-1 if l & 1 else 1, l if (3 * l * l + l + c) % two_k == 0 else l + k)
            for l in range(k) if (3 * l * l + l + c) % k == 0]


@lru_cache(maxsize=1)  # neighbouring n share the working precision
def _machin_pi(digits: int) -> int:
    """pi * 10^digits, within two units, from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) in integers with five guard digits."""
    scale = 10 ** (digits + 5)

    def atan_inv(q):
        total = term = scale // q
        q2, k, sign = q * q, 1, 1
        while term:
            term //= q2
            k += 2
            sign = -sign
            total += sign * (term // k)
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) // 10**5


def _cos_pi(j: int, q: int, pi):
    """cos(pi j / q) in the current decimal context."""
    j %= 2 * q
    if j > q:
        j = 2 * q - j
    sign = 1
    if 2 * j > q:  # cos(pi - x) = -cos x, leaving x <= pi/2
        j, sign = q - j, -1
    x2 = -(pi * j / q) ** 2
    total = term = 1  # promoted to Decimal by the first step
    i = 0
    while True:
        i += 2
        term = term * x2 / (i * (i - 1))
        new = total + term
        if new == total:
            return total if sign > 0 else -total
        total = new


@lru_cache(maxsize=128)
def p_exact(n: int) -> int:
    """Exact p(n), n >= 2, from the Rademacher series.

    Each term runs in a fresh decimal context of its own precision, so
    the caller's context neither leaks in nor changes."""
    if n < 2:
        raise ValueError("the Rademacher sum needs n >= 2")
    m = 24 * n - 1
    mu = math.pi / 6 * math.sqrt(m)
    log10_scale = math.log10(4 / m)

    def log10_bound(k):  # b_k, the size of term k at most
        return log10_scale + 0.5 * math.log10(3 * k) + mu / (k * math.log(10))

    top = math.ceil(log10_bound(1)) + _GUARD_DIGITS
    pi_digits = top + 5
    pi_int = decimal.Decimal(_machin_pi(pi_digits))
    total = decimal.Decimal(0)
    doubles = []
    for k in range(1, _tail_terms(n) + 1):
        pairs = _selberg_terms(n, k)
        if not pairs:
            continue
        b = log10_bound(k)
        if b < _DOUBLE_DIGITS:
            s = math.fsum(w * math.cos(math.pi * (6 * l + 1) / (6 * k)) for w, l in pairs)
            x = mu / k
            doubles.append(4 * s * (math.cosh(x) - math.sinh(x) / x) / m)
            continue
        with decimal.localcontext(decimal.Context(prec=math.ceil(b) + _GUARD_DIGITS)):
            pi = pi_int.scaleb(-pi_digits)
            s = sum(w * _cos_pi(6 * l + 1, 6 * k, pi) for w, l in pairs)
            x = pi * decimal.Decimal(m).sqrt() / (6 * k)
            e = x.exp()
            term = 4 * s * ((e + 1 / e) / 2 - (e - 1 / e) / (2 * x)) / m
        with decimal.localcontext(decimal.Context(prec=top + 2)):
            total += term
    with decimal.localcontext(decimal.Context(prec=top + 2)):
        total += decimal.Decimal(math.fsum(doubles))
        nearest = total.to_integral_value()
        if 4 * abs(total - nearest) > 1:
            raise NumericError(f"Rademacher sum for p({n}) lies "
                               f"{float(total - nearest):+.3f} from the nearest integer")
    return int(nearest)
