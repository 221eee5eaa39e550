"""Border-strip oracles for the beta-mask paths.

``raw_strips`` and ``chi_tuple`` are the border-strip enumeration and
the (lambda, mu)-keyed Murnaghan-Nakayama recursion that the library
used before it held partitions as beta masks; the tests compare the
mask paths against them.  ``beta_strips`` is the strip loop that the
library runs inline, as a list, for the column oracle and the tests.
``conjugate_mask`` transposes a beta mask on its own, as the library
did before its census engine enumerated each conjugate with its mask.
"""

from __future__ import annotations


def raw_strips(parts: tuple[int, ...], t: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Border strips of length t as (row, height, remainder parts) triples.

    Scans the strictly decreasing beta numbers b_i = parts[i] + rows-1-i:
    a strip of length t exists at row i iff b_i - t is nonnegative and
    not itself a beta number; its height is the number of beta numbers
    the moved one passes.  Topmost row first.
    """
    r = len(parts)
    betas = [parts[i] + r - 1 - i for i in range(r)]
    beta_set = set(betas)
    out = []
    for i, b in enumerate(betas):
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        height = 0
        for j in range(i + 1, r):
            if betas[j] > nb:
                height += 1
            else:
                break
        new_betas = sorted(betas[:i] + betas[i + 1:] + [nb], reverse=True)
        rem = tuple(x - (r - 1 - k) for k, x in enumerate(new_betas))
        out.append((i, height, tuple(p for p in rem if p > 0)))
    return out


def parts_of_mask(mask: int) -> tuple[int, ...]:
    """Decode a beta mask: the j-th lowest set bit b is the part b - j."""
    parts = []
    j = 0
    while mask:
        low = mask & -mask
        parts.append(low.bit_length() - 1 - j)
        mask ^= low
        j += 1
    return tuple(p for p in reversed(parts) if p > 0)


def conjugate_mask(mask: int) -> int:
    """The beta mask of the conjugate partition.

    Read from the top, the bits of a canonical mask trace the boundary
    of the diagram; transposing the diagram reverses that path and swaps
    its two kinds of step, so the conjugate's mask is ``mask``'s binary
    digits read backwards, complemented.  The top bit of a canonical mask
    is set and its lowest bit is clear, so the result is canonical too.
    """
    return int(bin(mask)[:1:-1], 2) ^ ((1 << mask.bit_length()) - 1)


def chi_tuple(lam: tuple[int, ...], mu: tuple[int, ...], memo: dict) -> int:
    """The character at (lam, mu), largest part of mu first, memoized on
    the part tuples."""
    if not mu:
        return 1
    key = (lam, mu)
    val = memo.get(key)
    if val is not None:
        return val
    total = 0
    for _, height, rem in raw_strips(lam, mu[0]):
        sub = chi_tuple(rem, mu[1:], memo)
        total += -sub if height % 2 else sub
    memo[key] = total
    return total


def beta_strips(mask: int, t: int) -> list[tuple[int, int]]:
    """Border strips of length t >= 1 of the partition with beta mask
    ``mask``, as (odd height, remainder mask) pairs, bottom row first.

    A strip starts at each set bit b >= t whose bit b - t is clear; the
    remainder moves that bead to b - t, and the height parity is the
    parity of the beads strictly between.  ``values._strip`` and the
    packed engine's ``characters._stripped`` and ``characters._top_block``
    run the same loop inline; ``column_oracle`` and the partition tests
    call this one.
    """
    out = []
    starts = (mask & ~(mask << t)) >> t << t
    between = (1 << (t - 1)) - 1
    while starts:
        bit = starts & -starts
        starts ^= bit
        rem = mask ^ bit ^ (bit >> t)
        if rem & 1:  # the bead moved to bit 0: shift out the trailing ones
            rem >>= (rem ^ (rem + 1)).bit_length() - 1
        out.append((((mask >> (bit.bit_length() - t)) & between).bit_count() & 1,
                    rem))
    return out
