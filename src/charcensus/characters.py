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
column(()) = [1].  One depth-first walk of the suffix tree of mu
computes each suffix once and holds only the columns on its current
path.  Since chi at lambda' is sgn(mu) = (-1)^(n - len mu) times chi at
lambda, the size-n columns cover only the rows lambda <= lambda': the
census weights each such row by the size of its conjugate pair, and the
table fills the other rows by sign.  The size-n columns are produced
one at a time, so the census counts zeros per row without ever holding
the table.

The census side counts zeros in the full p(N) x p(N) table, both in
total and restricted to t-core rows, and evaluates the guaranteed-zero
lower bound sum_t c_t(N) * p_t(N-t) that needs no character computation
at all: whenever mu has a part of size t and lambda is a t-core, the
character vanishes, and grouping mu by its largest part makes those
zero sets disjoint.
"""

from __future__ import annotations

from operator import add, mul, not_
from typing import Iterator, NamedTuple

from .counting import tcore_count
from .errors import GuardError
from .partitions import (Partition, beta_mask, beta_strips, conjugate_mask,
                         enumerate_partitions, part_tuples)

TABLE_GUARD = 20
# largest n of one character value, for `char eval` and the density sampler,
# and the only bound on one evaluation's work: each (mask, suffix) state
# misses the memo at most once, the states at mu[i:] are partitions of
# |mu[i:]|, and these sizes are distinct, so misses per evaluation
# <= sum_{m<=n} p(m) = 6,639,348 at 60.  Raising the guard re-checks this.
VALUE_GUARD = 60


_EMPTY_SUFFIX = {0: 1}  # the node of mu = (): only the empty partition, chi 1


def _chi(lam: int, mu: tuple[int, ...], memo: dict) -> int:
    """The character at (beta mask ``lam``, parts ``mu``), stripping the
    parts of mu in the order given.

    ``memo`` is the root of a trie over the suffixes of mu, read from the
    last part: key -t leads from the node of a suffix s to the node of
    (t,) + s, and key ``mask`` >= 0 of a node holds the character of that
    mask at that suffix.  One walk finds the node of every suffix of mu.
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
    return _strip(lam, mu, 0, levels)


def _strip(lam: int, mu: tuple[int, ...], i: int, levels: list[dict]) -> int:
    """The character at (``lam``, mu[i:]), memoized in ``levels[i]``."""
    table = levels[i]
    val = table.get(lam)
    if val is not None:
        return val
    t = mu[i]
    i += 1
    total = 0
    for odd, rem in beta_strips(lam, t):
        sub = _strip(rem, mu, i, levels)
        total += -sub if odd else sub
    table[lam] = total
    return total


def character_value(lam: Partition, mu: Partition) -> int:
    """Exact character value of the irreducible indexed by lam at the
    conjugacy class of cycle type mu.

    Both partitions must have the same size.  The parts of mu are
    stripped largest first.
    """
    if lam.size != mu.size:
        raise ValueError(f"size mismatch: |{lam}| = {lam.size}, |{mu}| = {mu.size}")
    return _chi(beta_mask(lam.parts), mu.parts, {})


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


def _columns(n: int, rows: list[int]) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Yield (mu, column) for every partition mu of n, once each, in
    depth-first order over the suffixes of mu; entry k of a column is
    the character of the partition with beta mask ``rows[k]`` at mu.

    The walk starts at the empty suffix, whose column is [1].  The
    children of a suffix s of size m are (t,) + s for t >= s[0]; each
    node first yields the size-n column of (n - m,) + s, then descends
    into the children with m + 2t <= n, the ones that still have a
    completion of size n.  Only the columns on the current path are
    held.  The strip matrix S(m, t) is built on first use and kept as
    parallel lists of rows and indices, even heights first: removing a
    border strip of length t from row ``row`` of size m leaves the
    partition ``index`` of m - t.  The matrices are the engine's largest
    data, and parallel int lists take a third of the memory of
    (row, index) tuples.  Rows below size n are all partitions of their
    size in enumeration order.
    """
    masks = [[beta_mask(p) for p in part_tuples(m)] for m in range(n)]
    masks.append(rows)
    matrices: dict[tuple[int, int], tuple[list[int], ...]] = {}

    def apply(m: int, t: int, prev: list[int]) -> list[int]:
        matrix = matrices.get((m, t))
        if matrix is None:
            index = {lam: j for j, lam in enumerate(masks[m - t])}
            matrix = matrices[m, t] = ([], [], [], [])
            for i, lam in enumerate(masks[m]):
                for odd, rem in beta_strips(lam, t):
                    matrix[2 * odd].append(i)
                    matrix[2 * odd + 1].append(index[rem])
        col = [0] * len(masks[m])
        for i, j in zip(matrix[0], matrix[1]):
            col[i] += prev[j]
        for i, j in zip(matrix[2], matrix[3]):
            col[i] -= prev[j]
        return col

    def walk(mu: tuple[int, ...], m: int, col: list[int]):
        yield (n - m,) + mu, apply(n, n - m, col)
        for t in range(mu[0] if mu else 1, (n - m) // 2 + 1):
            yield from walk((t,) + mu, m + t, apply(m + t, t, col))

    return walk((), 0, [1])


def _half_rows(masks: list[int]) -> tuple[list[int], list[int]]:
    """The rows lambda <= lambda' of a table whose rows have the beta
    masks ``masks`` (all partitions of n in enumeration order), and the
    index of each row's conjugate.  Conjugation fixes the hook lengths,
    and chi at lambda' is sgn(mu) times chi at lambda, so these rows
    determine the table."""
    index = {mask: i for i, mask in enumerate(masks)}
    conj = [index[conjugate_mask(mask)] for mask in masks]
    return [i for i, c in enumerate(conj) if i <= c], conj


def character_table(n: int) -> CharacterTable:
    """Build the full p(n) x p(n) character table of S_n.

    Guarded at ``TABLE_GUARD`` (n <= 20): beyond that the exact table is
    infeasible at desk scale and the sampling module applies.  The
    column engine computes the rows lambda <= lambda'; each conjugate
    row is sgn(mu) = (-1)^(n - len mu) times its partner.
    """
    _check_table_size(n)
    parts = tuple(enumerate_partitions(n))
    masks = [beta_mask(p.parts) for p in parts]
    half, conj = _half_rows(masks)
    order = {p.parts: j for j, p in enumerate(parts)}
    cols: list = [None] * len(parts)
    for mu, col in _columns(n, [masks[i] for i in half]):
        cols[order[mu]] = col
    signs = [-1 if (n - len(p)) % 2 else 1 for p in parts]
    rows: list = [None] * len(parts)
    for i, row in zip(half, zip(*cols)):
        rows[i] = row
        rows[conj[i]] = tuple(map(mul, signs, row))
    return CharacterTable(n=n, partitions=parts, rows=tuple(rows))


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
    and the table is never held in memory.  Only the rows
    lambda <= lambda' are computed: a row and its conjugate have the
    same zeros and the same hook lengths, so each such row counts twice,
    or once when lambda is self-conjugate, in the total and in every
    t-core count.
    """
    _check_table_size(n)
    masks = [beta_mask(p) for p in part_tuples(n)]
    half, conj = _half_rows(masks)
    rows = [masks[i] for i in half]
    row_zeros = [0] * len(half)
    for _, col in _columns(n, rows):
        row_zeros = list(map(add, row_zeros, map(not_, col)))
    total = 0
    per_core = {t: 0 for t in range(1, n + 1)}
    for i, mask, zeros in zip(half, rows, row_zeros):
        if zeros:
            zeros *= 1 if conj[i] == i else 2
            total += zeros
            for t in range(1, n + 1):  # is_t_core's test
                if not (mask & ~(mask << t)) >> t:
                    per_core[t] += zeros
    return ZeroCensus(n=n, table_dim=len(conj), total_zeros=total,
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

