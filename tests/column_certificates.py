"""Column certificates for the top rows of the packed census engine.

Above the table guard the census has no oracle, so the top blocks of
``characters._packed_rows``, stripped by the engine's one strip kernel
``characters._strip_block``, which also builds every level below them,
are checked against classical identities of the columns of the S_n
character table, summed over every lambda:

- regular character: sum f_lambda chi_lambda(mu) = n! [mu = 1^n], with
  f_lambda from the hook length formula, since block 1 (the class 1^n)
  comes last above n = 20;
- Frobenius-Schur: sum chi_lambda(mu) = r(mu), the number of square
  roots of a permutation of cycle type mu;
- column orthogonality: sum chi_lambda(mu)^2 = z_mu, the order of the
  centralizer.

The engine gives only the rows lambda <= lambda', each with the mask
of lambda'; the row of lambda' is the row of lambda times sgn(mu) =
(-1)^(n - len mu), so a conjugate pair adds twice the lanes of even mu
and nothing at odd mu to both linear sums.  Each linear identity is
one big-int comparison per block, lanes as base-2^width digits.
Neither sees an error in an odd lane of a pair row, since lambda and
lambda' cancel there; the orthogonality sums decode the lanes and do.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Iterable, Iterator

from charcensus import characters
from charcensus.partitions import beta_mask, part_tuples
from strip_oracle import conjugate_mask


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


def dimension(mask: int, n: int) -> int:
    """f_lambda of the partition lambda of n with beta mask ``mask``, by
    the hook length formula: the hook lengths are b - e for each bead b
    and each gap e < b."""
    hooks = 1
    for b in range(mask.bit_length()):
        if mask >> b & 1:
            for e in range(b):
                if not mask >> e & 1:
                    hooks *= b - e
    return factorial(n) // hooks


def top_masks(n: int) -> list[int]:
    """The beta masks of the partitions lambda <= lambda' of n, in
    enumeration order, from ``part_tuples``: the rows the engine should
    give."""
    masks = [beta_mask(p) for p in part_tuples(n)]
    return [mask for mask in masks if mask <= conjugate_mask(mask)]


def top_blocks(n: int) -> tuple[list[int], list[int], Iterator[tuple[int, list[int]]]]:
    """The engine's top rows at n: their masks, their conjugate masks and
    an iterator of (t, block t of each top row, in two's complement), in
    the engine's order.  The blocks copied from kept rows (n < 20) are
    cut out of size n's kept rows; every other block is stripped by
    ``characters._strip_block``, the kernel the census counts with and
    every level is built with, each into a zero row at offset 0, so no
    int spans the lanes below the block.  Each block's biased lanes are
    XORed back to two's complement."""
    lams, conjs, count, copied, kept, specs = characters._packed_rows(n)
    width = characters._lane_width(n)

    def blocks() -> Iterator[tuple[int, list[int]]]:
        for t in range(1, copied + 1):
            shift = width * count[t - 1]
            size = count[t] - count[t - 1]
            keep = (1 << width * size) - 1
            high = characters._ones(width, size) << (width - 1)
            yield t, [kept[lam] >> shift & keep ^ high for lam in lams]
        for t, spec in specs:
            rows = [0] * len(lams)
            characters._strip_block(lams, (*spec[:4], 0), width, rows)
            yield t, [row ^ spec[3] for row in rows]

    return lams, conjs, blocks()


def failures(n: int, lams: list[int], conjs: list[int],
             blocks: Iterable[tuple[int, list[int]]], squares: bool = False) -> set[str]:
    """The names of the identities that fail on ``blocks``, (t, block t
    of each top row) in any order, for the rows lambda <= lambda' of n
    with masks ``lams`` and conjugate masks ``conjs``, as ``top_blocks``
    gives them: "regular", "frobenius-schur" and, with ``squares``,
    "orthogonality"."""
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
    dims = [dimension(mask, n) for mask in lams]
    pairs = [mask != conj for mask, conj in zip(lams, conjs)]
    regular = [0] * n
    roots = [0] * n
    squared = [[0] * len(mus) for mus in lanes]
    for t, column in blocks:
        high, odd_lanes, odd_bias = shapes[t - 1]
        sums = squared[t - 1]
        for f, pair, block in zip(dims, pairs, column):
            biased = block ^ high
            exact = biased - high
            if pair:  # the row plus its conjugate, exact - 2 (odd lanes)
                exact = 2 * (exact - ((biased & odd_lanes) - odd_bias))
            regular[t - 1] += f * exact
            roots[t - 1] += exact
            if squares:
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
    """``failures`` on the engine's own top blocks at n."""
    return failures(n, *top_blocks(n), squares)
