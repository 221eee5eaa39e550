"""The partition draw that the estimator's pair draw replaced.

``draw`` returns the parts of one uniform partition, reading the bounded
count table directly; ``sampling._draw_key`` makes the same
``getrandbits`` calls for two draws from a table of draw states and
builds the pair key as the parts come.  The tests compare the key
against ``_pair_key(beta_mask(draw(...)), draw(...), n)``, and the
uniformity and character tests draw their partitions with it.
``mu_parts`` decodes a code of mu whole, where the walk decodes only the
parts that a code does not share with the one before it.
"""

from __future__ import annotations

import random
from bisect import bisect_right


def draw(n: int, rng: random.Random,
         table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The parts of one uniform partition of n, largest first.

    ``table`` holds ``table[m][t] = p_t(m)`` for all t, m <= n, as
    ``build_bounded_table(n, n)`` returns; one table serves every draw.
    """
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


def mu_parts(code: int, n: int) -> tuple[int, ...]:
    """The parts that ``characters._mu_code(parts, n)`` encodes, in their
    order."""
    if not code:
        return ()
    width = n.bit_length()
    digit = (1 << width) - 1
    code >>= ((code & -code).bit_length() - 1) // width * width
    parts = []
    while code:
        parts.append(code & digit)
        code >>= width
    return tuple(parts)
