"""Column certificates for the top rows of the packed census engine.

Above the table guard the census has no oracle, so the size-n rows of
``characters._packed_rows`` are checked against classical identities of
the columns of the S_n character table, summed over every lambda:

- regular character: sum f_lambda chi_lambda(mu) = n! [mu = 1^n], with
  f_lambda the one lane of block 1 (the class 1^n);
- Frobenius-Schur: sum chi_lambda(mu) = r(mu), the number of square
  roots of a permutation of cycle type mu;
- column orthogonality: sum chi_lambda(mu)^2 = z_mu, the order of the
  centralizer.

The engine yields only the rows lambda <= lambda'; the row of lambda'
is the row of lambda times sgn(mu) = (-1)^(n - len mu), so a
conjugate pair adds twice the lanes of even mu and nothing at odd mu to
both linear sums.  Each linear identity is one big-int comparison per
block, lanes as base-2^width digits.  Neither sees an error in an odd
lane of a pair row, since lambda and lambda' cancel there; the
orthogonality sums decode the lanes and do.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Iterable

from charcensus import characters
from charcensus.partitions import beta_mask, conjugate_mask, part_tuples


def _double_factorial(m: int) -> int:
    """m!! for odd m >= -1."""
    return prod(range(m, 0, -2))


def square_roots(mu: tuple[int, ...]) -> int:
    """r(mu): the number of permutations whose square has cycle type mu,
    the product over k of r_k(m_k) for m_k parts equal to k."""
    total = 1
    for k in set(mu):
        m = mu.count(k)
        if k % 2:  # cycles of odd k: fixed as squares, or paired
            total *= sum(comb(m, 2 * j) * _double_factorial(2 * j - 1) * k ** j
                         for j in range(m // 2 + 1))
        elif m % 2:  # cycles of even k come only from squared 2k-cycles
            return 0
        else:
            total *= _double_factorial(m - 1) * k ** (m // 2)
    return total


def centralizer(mu: tuple[int, ...]) -> int:
    """z_mu = prod_k k^(m_k) m_k!."""
    return prod(k ** mu.count(k) * factorial(mu.count(k)) for k in set(mu))


def top_masks(n: int) -> list[int]:
    """The beta masks of the partitions lambda <= lambda' of n, in
    enumeration order: the rows ``zero_count`` asks the engine for."""
    masks = [beta_mask(p) for p in part_tuples(n)]
    half, _ = characters._half_rows(masks)
    return [masks[i] for i in half]


def failures(n: int, rows: Iterable[list[int]], squares: bool = False) -> set[str]:
    """The names of the identities that fail on ``rows``, the blocks of
    the rows ``top_masks(n)`` in order, as ``_packed_rows(n,
    top_masks(n))`` yields them: "regular", "frobenius-schur" and, with
    ``squares``, "orthogonality"."""
    width = characters._lane_width(n)
    bias = 1 << (width - 1)
    digit = (1 << width) - 1
    lanes = [[] for _ in range(n)]  # block t's classes, reverse enumeration order
    for mu in reversed(list(part_tuples(n))):
        lanes[mu[0] - 1].append(mu)
    shapes = []
    for mus in lanes:
        ones = characters._ones(width, len(mus))
        odd = [(n - len(mu)) % 2 for mu in mus]
        odd_ones = sum(1 << width * i for i, o in enumerate(odd) if o)
        shapes.append((bias * ones, odd_ones * digit, bias * odd_ones))
    regular = [0] * n
    roots = [0] * n
    squared = [[0] * len(mus) for mus in lanes]
    masks = top_masks(n)
    for mask, blocks in zip(masks, rows, strict=True):
        pair = mask != conjugate_mask(mask)
        f = blocks[0] - ((blocks[0] & bias) << 1)
        for t, (block, (high, odd_lanes, odd_bias)) in enumerate(zip(blocks, shapes)):
            biased = block ^ high
            exact = biased - high
            if pair:  # the row plus its conjugate, exact - 2 (odd lanes)
                exact = 2 * (exact - ((biased & odd_lanes) - odd_bias))
            regular[t] += f * exact
            roots[t] += exact
            if squares:
                sums = squared[t]
                for i in range(len(sums)):
                    value = (biased >> width * i & digit) - bias
                    sums[i] += value * value << pair
    failed = set()
    if regular != [factorial(n)] + [0] * (n - 1):
        failed.add("regular")
    if roots != [sum(square_roots(mu) << width * i for i, mu in enumerate(mus))
                 for mus in lanes]:
        failed.add("frobenius-schur")
    if squares and squared != [[centralizer(mu) for mu in mus] for mus in lanes]:
        failed.add("orthogonality")
    return failed


def certify(n: int, squares: bool = False) -> set[str]:
    """``failures`` on the engine's own top rows at n."""
    masks = top_masks(n)
    return failures(n, characters._packed_rows(n, masks), squares)
