"""Young-diagram helpers that the mask-based paths replaced.

``conjugate`` transposes a diagram box by box, ``hook_multiset`` lists
its hook lengths, and ``random_partition`` wraps the oracle draw
``draw_oracle.draw`` as a ``Partition``.  The tests check ``is_t_core``,
``conjugate_mask``, the hook-length dimensions of the table and the
sampler's uniformity against them.
"""

from __future__ import annotations

import random

from charcensus.counting import build_bounded_table
from charcensus.errors import GuardError
from charcensus.partitions import Partition
from draw_oracle import draw


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam.parts:
        return Partition(())
    cols = [0] * lam.parts[0]
    for p in lam.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(cols)


def hook_multiset(lam: Partition) -> list[int]:
    """All hook lengths of the diagram, one per box, row-major.

    The returned list is a multiset; its length equals ``lam.size``.
    """
    if not lam.parts:
        return []
    conj = conjugate(lam).parts
    out = []
    for i, row_len in enumerate(lam.parts):
        for j in range(row_len):
            out.append(row_len - j + conj[j] - i - 1)
    return out


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
    return Partition(draw(n, rng, table))
