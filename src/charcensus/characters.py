"""Exact symmetric-group character values and zero censuses.

Single character values come from the classical border-strip
(Murnaghan-Nakayama) recursion: pick a part t of the cycle type mu,
strip every border strip of length t from lambda, and sum the signed
sub-characters.  The memo is a trie over the suffixes of mu, read from
the last part, whose node for each suffix holds the characters already
known there, keyed by the beta mask of lambda: one walk per (lambda, mu)
pair finds every suffix's node, and each step of the recursion is then
one int-keyed lookup.  The density sampler and the single-value CLI call
use this path.

Full tables and censuses apply the same rule a whole column at a time.
For each needed pair (m, t) the sparse signed strip-removal matrix
S(m, t), from partitions of m to partitions of m - t, is built once from
``beta_strips``, with the partitions of each size indexed by their beta
masks; then column(mu) = S(|mu|, mu[0]) . column(mu[1:]) with
column(()) = [1].  Columns of sizes below n are memoized by suffix; the
size-n columns are produced one at a time, so the census counts zeros
per row without ever holding the table.

The census side counts zeros in the full p(N) x p(N) table, both in
total and restricted to t-core rows, and evaluates the guaranteed-zero
lower bound sum_t c_t(N) * p_t(N-t) that needs no character computation
at all: whenever mu has a part of size t and lambda is a t-core, the
character vanishes, and grouping mu by its largest part makes those
zero sets disjoint.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .counting import tcore_count
from .errors import GuardError
from .partitions import Partition, beta_mask, beta_strips, enumerate_partitions

TABLE_GUARD = 20
# largest n of one character value, for `char eval` and the density sampler:
# the beta mask of lambda holds about n bits, and the memo grows with n
# combinatorially
VALUE_GUARD = 60


class BudgetExceeded(Exception):
    """Internal signal: one character evaluation exceeded its step budget."""


_EMPTY_SUFFIX = {0: 1}  # the node of mu = (): only the empty partition, chi 1


def _chi(lam: int, mu: tuple[int, ...], memo: dict,
         budget: list[int] | None = None) -> int:
    """The character at (beta mask ``lam``, parts ``mu``), stripping the
    parts of mu in the order given.

    ``memo`` is the root of a trie over the suffixes of mu, read from the
    last part: key -t leads from the node of a suffix s to the node of
    (t,) + s, and key ``mask`` >= 0 of a node holds the character of that
    mask at that suffix.  One walk finds the node of every suffix of mu.
    ``budget[0]`` is decremented once per memo miss; below zero the
    evaluation raises ``BudgetExceeded``.
    """
    levels = [_EMPTY_SUFFIX]
    node = memo
    for t in reversed(mu):
        child = node.get(-t)
        if child is None:
            child = node[-t] = {}
        levels.append(child)
        node = child
    levels.reverse()  # levels[i] is the node of mu[i:]
    return _strip(lam, mu, 0, levels, budget)


def _strip(lam: int, mu: tuple[int, ...], i: int, levels: list[dict],
           budget: list[int] | None) -> int:
    """The character at (``lam``, mu[i:]), memoized in ``levels[i]``."""
    table = levels[i]
    val = table.get(lam)
    if val is not None:
        return val
    if budget is not None:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded
    t = mu[i]
    i += 1
    total = 0
    for odd, rem in beta_strips(lam, t):
        sub = _strip(rem, mu, i, levels, budget)
        total += -sub if odd else sub
    table[lam] = total
    return total


def character_value(lam: Partition, mu: Partition, *, memo: dict | None = None,
                    order: str = "largest") -> int:
    """Exact character value of the irreducible indexed by lam at the
    conjugacy class of cycle type mu.

    Both partitions must have the same size.  ``order`` selects which
    part of mu is stripped first ("largest" or "smallest"); the result
    is independent of it, which the test suite exploits as an oracle.
    An optional ``memo`` dict is shared across calls, of either order
    and any size.
    """
    if lam.size != mu.size:
        raise ValueError(f"size mismatch: |{lam}| = {lam.size}, |{mu}| = {mu.size}")
    if order not in ("largest", "smallest"):
        raise ValueError(f"unknown order {order!r}")
    if memo is None:
        memo = {}
    parts = mu.parts if order == "largest" else mu.parts[::-1]
    return _chi(beta_mask(lam.parts), parts, memo)


class CharacterTable(NamedTuple):
    """Complete character table of S_n.

    Rows index lam and columns index mu, both in enumeration order
    (largest-first), so ``rows[i][j]`` is the character of partition i
    at class j.
    """

    n: int
    partitions: tuple[Partition, ...]
    rows: tuple[tuple[int, ...], ...]


def _check_table_size(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > TABLE_GUARD:
        raise GuardError(f"full table limited to n <= {TABLE_GUARD}, got {n}; "
                         "use density sampling beyond this scale")


def _check_value_size(n: int) -> None:
    if n > VALUE_GUARD:
        raise GuardError(f"single character values limited to n <= {VALUE_GUARD}, "
                         f"got {n}")


def _columns(parts: tuple[Partition, ...]) -> Iterator[list[int]]:
    """Yield the character column of each mu in ``parts``, in order.

    ``parts`` are all partitions of one n in enumeration order; entry i
    of a column is the character of ``parts[i]``.  A strip matrix is
    stored as flat (row, index, sign) entries: removing a border strip
    of length t from row partition ``row`` of m leaves partition
    ``index`` of m - t, with sign (-1)**height.  Row partitions are
    held as beta masks, column partitions as part tuples.
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


def character_table(n: int) -> CharacterTable:
    """Build the full p(n) x p(n) character table of S_n.

    Guarded at ``TABLE_GUARD`` (n <= 20): beyond that the exact table is
    infeasible at desk scale and the sampling module applies.  Built a
    column at a time by the strip-matrix engine; ``rows`` is the
    transpose of the columns.
    """
    _check_table_size(n)
    parts = tuple(enumerate_partitions(n))
    rows = tuple(zip(*_columns(parts)))
    return CharacterTable(n=n, partitions=parts, rows=rows)


class ZeroCensus(NamedTuple):
    """Zero counts of one character table.

    ``per_core_zeros[t]`` restricts to rows whose partition is a t-core,
    for every 1 <= t <= n; ``table_dim`` is p(n).
    """

    n: int
    table_dim: int
    total_zeros: int
    per_core_zeros: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "p_N": str(self.table_dim),
            "Z": str(self.total_zeros),
            "Z_t": {str(t): str(z) for t, z in sorted(self.per_core_zeros.items())},
        }


def zero_count(n: int) -> ZeroCensus:
    """Exact zero census of the S_n character table, guarded like
    ``character_table``.

    The zeros are counted column by column as the engine produces them,
    and the table is never held in memory.
    """
    _check_table_size(n)
    parts = tuple(enumerate_partitions(n))
    row_zeros = [0] * len(parts)
    for col in _columns(parts):
        for i, v in enumerate(col):
            if not v:
                row_zeros[i] += 1
    per_core = {t: 0 for t in range(1, n + 1)}
    for lam, zeros in zip(parts, row_zeros):
        if zeros:
            mask = beta_mask(lam.parts)  # is_t_core's test, one mask for every t
            for t in range(1, n + 1):
                if not (mask & ~(mask << t)) >> t:
                    per_core[t] += zeros
    return ZeroCensus(n=n, table_dim=len(parts), total_zeros=sum(row_zeros),
                      per_core_zeros=per_core)


def lower_bound_partial(n: int, t_lo: int, t_hi: int) -> int:
    """Exact partial sum over t in [t_lo, t_hi] of c_t(n) * p_t(n-t).

    Each term counts the guaranteed zeros contributed by pairs where mu
    has largest part exactly t and lambda is a t-core.
    """
    if not (1 <= t_lo <= t_hi <= n):
        raise ValueError(f"need 1 <= t_lo <= t_hi <= n, got ({t_lo}, {t_hi}, {n})")
    # dp[m] = p_t(m) for m <= n - t, built incrementally over t; step t
    # reads only dp[n - t].  For t > n/2 the step is empty: dp[n - t]
    # already holds p(n - t), which is p_t(n - t).
    dp = [1] + [0] * n
    total = 0
    for t in range(1, t_hi + 1):
        for m in range(t, n - t + 1):
            dp[m] += dp[m - t]
        if t >= t_lo:
            total += tcore_count(t, n) * dp[n - t]
    return total


def lower_bound_sum(n: int) -> int:
    """Exact guaranteed-zero lower bound for Z(n); no characters needed."""
    if n < 1:
        raise ValueError("n must be positive")
    return lower_bound_partial(n, 1, n)


def class_size(mu: Partition) -> int:
    """Number of elements of S_n with cycle type mu, exactly."""
    n = mu.size
    centralizer = 1
    mult = 1
    prev = None
    for part in mu.parts:
        centralizer *= part
        if part == prev:
            mult += 1
        else:
            mult = 1
        centralizer *= mult
        prev = part
    num = math.factorial(n)
    assert num % centralizer == 0
    return num // centralizer
