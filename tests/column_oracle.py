"""The memoized column engine that the depth-first census replaced.

``columns`` yields every column of the S_n character table in
enumeration order, with all rows, and memoizes every column of size
below n by its suffix of mu.  The tests compare the depth-first engine,
its conjugate-pair rows and the census built on them against it.
"""

from __future__ import annotations

from typing import Iterator

from charcensus.partitions import Partition, beta_mask, beta_strips, enumerate_partitions


def columns(parts: tuple[Partition, ...]) -> Iterator[list[int]]:
    """Yield the character column of each mu in ``parts``, in order.

    ``parts`` are all partitions of one n in enumeration order; entry i
    of a column is the character of ``parts[i]``.  A strip matrix is
    stored as flat (row, index, sign) entries: removing a border strip
    of length t from row partition ``row`` of m leaves partition
    ``index`` of m - t, with sign (-1)**height.
    """
    n = parts[0].size
    parts_of = [[beta_mask(p.parts) for p in enumerate_partitions(m)] for m in range(n)]
    parts_of.append([beta_mask(p.parts) for p in parts])
    matrices: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    memo: dict[tuple[int, ...], list[int]] = {(): [1]}

    def column(mu: tuple[int, ...], m: int) -> list[int]:
        col = memo.get(mu)
        if col is not None:
            return col
        t = mu[0]
        prev = column(mu[1:], m - t)
        matrix = matrices.get((m, t))
        if matrix is None:
            index = {lam: j for j, lam in enumerate(parts_of[m - t])}
            matrix = matrices[m, t] = [
                (i, index[rem], -1 if odd else 1)
                for i, lam in enumerate(parts_of[m])
                for odd, rem in beta_strips(lam, t)]
        col = [0] * len(parts_of[m])
        for i, j, sign in matrix:
            col[i] += sign * prev[j]
        if m < n:
            memo[mu] = col
        return col

    for mu in parts:
        yield column(mu.parts, n)


def table_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the S_n character table, in enumeration order."""
    return tuple(zip(*columns(tuple(enumerate_partitions(n)))))


def census(n: int) -> tuple[int, dict[int, int]]:
    """Z(n) and every Z_t(n), counted over every row of the table."""
    parts = tuple(enumerate_partitions(n))
    row_zeros = [0] * len(parts)
    for col in columns(parts):
        for i, v in enumerate(col):
            if not v:
                row_zeros[i] += 1
    per_core = {t: 0 for t in range(1, n + 1)}
    for lam, zeros in zip(parts, row_zeros):
        mask = beta_mask(lam.parts)
        for t in range(1, n + 1):
            if not (mask & ~(mask << t)) >> t:
                per_core[t] += zeros
    return sum(row_zeros), per_core
