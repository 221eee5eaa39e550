"""Exact symmetric-group character values and zero censuses.

Single character values come from the classical border-strip
(Murnaghan-Nakayama) recursion: pick a part t of the cycle type mu,
strip every border strip of length t from lambda, and sum the signed
sub-characters.  The memo has one node per suffix of mu, read from the
last part, holding the characters already known there, keyed by the
beta mask of lambda.  One walk (``_values``) evaluates a whole multiset
of pairs, each pair one int key (``_pair_key``): the beta mask of
lambda, with a code of mu above it whose int order is the order of mu's
parts read from the last part.  So the walk takes the keys in int
order, the mu that end in one suffix come one after another, and it
holds only the nodes of the current mu's suffixes, dropping each as
soon as the walk leaves it.
Every state is still computed once.  The recursion is entered only on a
memo miss: it runs the strip loop inline, looks each remainder up in the
next suffix's node and recurses only on the remainders missing there.
The density sampler evaluates all its pairs in one walk, and the
single-value CLI call is a walk over one pair.

Full tables and censuses apply the same rule to every column at once,
in one breadth-first engine over the suffixes s of mu (``_packed_rows``).
At each size k the characters of lambda |- k at every suffix of size k
are packed into one int per lambda, one fixed-width lane per suffix, so
removing the border strips of length t from lambda is a signed sum of
whole packed rows of size k - t, one big-int add per strip, with the
strip loop of ``_strip`` inline.  The lanes of a row whose suffix has
first part t form its block t, which reads only size k - t.  Since chi
at lambda' is sgn(mu) = (-1)^(n - len mu) times chi at lambda, the
size-n rows are built only for lambda <= lambda', and each comes out as
its n blocks, never joined into one int of p(n) lanes: the census counts
each block's zero lanes with a few big-int operations and weights the
row by the size of its conjugate pair, and the table joins the blocks'
bytes, decodes the lanes and fills the other rows by sign.  The size-n
rows are produced one at a time, so the census never holds the table.
For n <= 20, where every lane is 32 bits wide, the rows below size n
are kept between calls, in one store: a size's blocks do not depend on
n, so each size is built once, with every block that n = 20 reads, and
never changed, and a later call builds only the sizes it lacks (the
2,087 rows of sizes below 20, about 0.5 MB, after a census at 20).
Above 20 every n has its own lane width, so a call there builds its own
levels and drops them on return.  The store has no lock: the package
never runs two calls at once.
"""

from __future__ import annotations

import sys
from array import array
from math import factorial, isqrt
from operator import mul
from typing import Iterator, NamedTuple

from .errors import GuardError
from .partitions import (Partition, beta_mask, conjugate_mask, enumerate_partitions,
                         part_tuples)

TABLE_GUARD = 20
# largest n of one character value, for `char eval` and the density sampler,
# and the only bound on one evaluation's work: each (mask, suffix) state
# misses the memo at most once, the states at mu[i:] are partitions of
# |mu[i:]|, and these sizes are distinct, so misses per evaluation
# <= sum_{m<=n} p(m) = 6,639,348 at 60.  Raising the guard re-checks this.
VALUE_GUARD = 60


_EMPTY_SUFFIX = {0: 1}  # the node of mu = (): only the empty partition, chi 1


def _mu_code(mu: tuple[int, ...], n: int) -> int:
    """The code of the parts ``mu`` of a partition of at most n: one
    digit of ``n.bit_length()`` bits per part, the last part most
    significant, left-aligned to n digits.  The empty digits below are
    zero, smaller than any part, so codes compare as the parts read from
    the last part, ``mu[::-1]``, with a prefix first."""
    width = n.bit_length()
    code = 0
    for part in reversed(mu):
        code = code << width | part
    return code << width * (n - len(mu))


def _mu_parts(code: int, n: int) -> tuple[int, ...]:
    """The parts that ``_mu_code(parts, n)`` encodes, in their order."""
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


def _pair_key(lam: int, mu: tuple[int, ...], n: int) -> int:
    """The key of the pair (beta mask ``lam``, parts ``mu``) of size at
    most n, as ``_values`` reads it: ``lam`` in the low n + 1 bits, which
    hold any beta mask of a partition of at most n, and ``_mu_code(mu, n)``
    above them."""
    return _mu_code(mu, n) << n + 1 | lam


def _values(counts: dict[int, int], n: int) -> Iterator[tuple[int, int]]:
    """Yield (character, count) for each pair of ``counts``, a mapping
    {``_pair_key``: count} of pairs of size at most n; the parts of mu are
    stripped in the order encoded.

    The memo node of a suffix s holds the characters at s, keyed by beta
    mask, and only the mu that end in s read it.  The keys are taken in
    int order, which is the order of the parts of mu read from the last
    part, so the mu that end in s are consecutive and each distinct mu is
    decoded once.  Only the nodes on the current mu's suffix path are
    held: a node is dropped as soon as the next mu leaves its suffix, and
    every state is still computed once.
    """
    shift = n + 1  # _pair_key's mask width
    path = [_EMPTY_SUFFIX]  # path[d]: the node of the last d parts of mu
    prev: tuple[int, ...] = ()
    last = -1
    for key in sorted(counts):
        code = key >> shift
        if code != last:
            last = code
            mu = _mu_parts(code, n)
            rev = mu[::-1]
            keep = 0
            for a, b in zip(rev, prev):
                if a != b:
                    break
                keep += 1
            del path[keep + 1:]
            path.extend({} for _ in range(len(rev) - keep))
            prev = rev
            levels = path[::-1]  # levels[i] is the node of mu[i:]
        # the node of mu itself is new at its first key (any mu ending in
        # mu sorts after it) and its keys hold distinct lambda, so every
        # pair misses; mu = () is the empty class
        lam = key ^ code << shift
        yield (_strip(lam, mu, 0, levels) if mu else 1), counts[key]


def _strip(lam: int, mu: tuple[int, ...], i: int, levels: list[dict]) -> int:
    """The character at (``lam``, mu[i:]), entered only when ``levels[i]``
    misses it; stores it there.

    The border strips of length t are enumerated inline: each remainder
    is looked up in ``levels[i + 1]`` and recursed on only when missing,
    so every call adds one memo state.
    """
    t = mu[i]
    known = levels[i + 1]
    starts = (lam & ~(lam << t)) >> t << t
    between = (1 << (t - 1)) - 1
    total = 0
    while starts:
        bit = starts & -starts
        starts ^= bit
        rem = lam ^ bit ^ (bit >> t)
        if rem & 1:  # the bead moved to bit 0: shift out the trailing ones
            rem >>= (rem ^ (rem + 1)).bit_length() - 1
        sub = known.get(rem)
        if sub is None:
            sub = _strip(rem, mu, i + 1, levels)
        if ((lam >> (bit.bit_length() - t)) & between).bit_count() & 1:
            total -= sub
        else:
            total += sub
    levels[i][lam] = total
    return total


def character_value(lam: Partition, mu: Partition) -> int:
    """Exact character value of the irreducible indexed by lam at the
    conjugacy class of cycle type mu.

    Both partitions must have the same size.  The parts of mu are
    stripped largest first.  Refuses either size above ``VALUE_GUARD``
    (60) before comparing them.
    """
    _check_value_size(lam.size)
    _check_value_size(mu.size)
    if lam.size != mu.size:
        raise ValueError(f"size mismatch: |{lam}| = {lam.size}, |{mu}| = {mu.size}")
    n = mu.size
    key = _pair_key(beta_mask(lam.parts), mu.parts, n)
    ((value, _),) = _values({key: 1}, n)
    return value


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


def _ones(width: int, lanes: int) -> int:
    """The int with a 1 in each of ``lanes`` digits of ``width`` bits."""
    return ((1 << width * lanes) - 1) // ((1 << width) - 1)


def _lane_width(n: int) -> int:
    """Bits per lane of the packed rows at size n: a character of S_k,
    k <= n, has |chi| <= f_lambda <= sqrt(k!) <= sqrt(n!) < 2^(width - 1).
    It is 32 for every n <= 20, the width ``character_table`` decodes."""
    return max(32, isqrt(factorial(n)).bit_length() + 1)


# the largest n of 32-bit lanes: _packed_rows keeps the levels below it
_KEPT_N = 20
# the kept levels, (rows, counts) at each size k: rows maps the beta mask of
# each partition of k to its row, counts[t] counts its lanes with first
# part <= t; size 0 holds the empty partition at the empty suffix
_levels: list = [({0: 1 + (1 << 31)}, [1])]


def _packed_rows(n: int, top: list[int]) -> Iterator[list[int]]:
    """Yield the row of each beta mask in ``top`` (partitions of n), in
    order, as the list of its n blocks: block t, at index t - 1, holds
    in lanes of ``_lane_width(n)`` bits, in two's complement, the
    characters at the partitions of n with first part t, in reverse
    enumeration order.  So the blocks' lanes, block 1's lowest first,
    run over all p(n) partitions of n in reverse enumeration order; a
    block is 0 when lambda has no border strip of its length.

    Let ``last`` be the largest n of this lane width: 20 at 32 bits,
    and n itself above 20, where every n has its own width.  The lanes
    at size k < n are the suffixes s of size k of a cycle type of
    ``last``, the partitions of k with s[0] <= last - k, ordered by
    first part ascending and so lexicographically.  The rows at size
    k < n are all partitions of k, one int each, and each digit holds
    chi + 2^(width - 1), so no digit is negative.  Size m is built
    breadth first from the smaller ones: its lanes with first part t,
    for t <= min(m, last - m) or any t at m = n, are (t,) + s for the
    suffixes s of size m - t with s[0] <= t, a prefix of that size's
    lanes read through an explicit lane mask.  So block t of row
    lambda, biased, is the sum of +-(row(rem) & prefix) over the border
    strips of length t of lambda, one big-int add per strip for every
    column at once, less (a - s - 1) biases per lane for a strips added
    and s subtracted.  A kept row ORs its biased blocks into place; a
    size-n block drops its bias by one XOR and is never joined to the
    others.  Only the size-n rows in ``top`` are built, one at a time.

    A call at n reads the blocks t <= n - m of size m, which do not
    depend on n, so for n <= 20 the sizes below n are kept in the
    module's ``_levels`` between calls.  Each size is built once, with
    every block n = 20 reads, and never changed: a call builds only the
    sizes it lacks, ascending, and appends each once it is complete, so
    an interrupted call leaves the store consistent.  A call above 20
    builds its own levels and drops them on return.  Nothing in the
    package runs concurrently, so the store has no lock and is not for
    use from several threads at once.
    """
    width = _lane_width(n)
    bias = 1 << (width - 1)
    levels = _levels if n <= _KEPT_N else [({0: 1 + bias}, [1])]
    last = max(n, _KEPT_N)
    for m in (*range(len(levels), n), n):
        is_top = m == n
        count = [0]
        blocks = []
        for t in range(1, (n if is_top else min(m, last - m)) + 1):
            prev, prev_count = levels[m - t]
            # the lanes of size m - t with first part <= t, all of them
            # once t >= m - t
            size = prev_count[min(t, m - t)]
            blocks.append((t, (1 << (t - 1)) - 1, prev, (1 << width * size) - 1,
                           bias * _ones(width, size), width * count[-1]))
            count.append(count[-1] + size)
        level = {}
        for lam in top if is_top else map(beta_mask, part_tuples(m)):
            row = 0  # a kept row: its biased blocks ORed into place
            out = []  # a size-n row: its blocks in two's complement
            for t, between, prev, keep, high, shift in blocks:
                # the border strips of length t, as in _strip; net counts
                # the strips added less those subtracted, from -1, so the
                # biased block is total less net biases per lane
                starts = (lam & ~(lam << t)) >> t << t
                if is_top and not starts:
                    out.append(0)
                    continue
                total = 0
                net = -1
                while starts:
                    bit = starts & -starts
                    starts ^= bit
                    rem = lam ^ bit ^ (bit >> t)
                    if rem & 1:  # the bead moved to bit 0
                        rem >>= (rem ^ (rem + 1)).bit_length() - 1
                    if ((lam >> (bit.bit_length() - t)) & between).bit_count() & 1:
                        total -= prev[rem] & keep
                        net -= 1
                    else:
                        total += prev[rem] & keep
                        net += 1
                if net:
                    total -= net * high
                if is_top:
                    out.append(total ^ high)
                else:
                    row |= total << shift
            if is_top:
                yield out
            else:
                level[lam] = row
        if not is_top:
            levels.append((level, count))


def _block_sizes(n: int, parts) -> list[int]:
    """The number of lanes of each block t = 1..n of a size-n row of
    ``_packed_rows``: the partitions of n in ``parts`` with first part t."""
    sizes = [0] * n
    for p in parts:
        sizes[p[0] - 1] += 1
    return sizes


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
    packed engine computes the rows lambda <= lambda' block by block; the
    bytes of a row's blocks are joined and its 32-bit lanes read in C.
    Each conjugate row is sgn(mu) = (-1)^(n - len mu) times its partner.
    """
    _check_table_size(n)
    parts = tuple(enumerate_partitions(n))
    masks = [beta_mask(p.parts) for p in parts]
    half, conj = _half_rows(masks)
    signs = [-1 if (n - len(p)) % 2 else 1 for p in parts]
    rows: list = [None] * len(parts)
    sizes = _block_sizes(n, parts)
    for i, blocks in zip(half, _packed_rows(n, [masks[i] for i in half])):
        row = array("i", b"".join(block.to_bytes(4 * size, "little")
                                  for block, size in zip(blocks, sizes)))
        if sys.byteorder == "big":
            row.byteswap()
        row.reverse()  # lanes run in reverse enumeration order
        rows[i] = row = tuple(row)
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

    The zeros are counted row by row as the packed engine produces
    them, a few big-int operations per block on the block's own lanes,
    with none for a block that is 0, and the table is never held in
    memory.  Only the rows lambda <= lambda' are computed: a row and its
    conjugate have the same zeros and the same hook lengths, so each
    such row counts twice, or once when lambda is self-conjugate, in the
    total and in every t-core count.
    """
    _check_table_size(n)
    parts = list(part_tuples(n))
    masks = [beta_mask(p) for p in parts]
    half, conj = _half_rows(masks)
    rows = [masks[i] for i in half]
    width = _lane_width(n)
    lane_masks = []
    for size in _block_sizes(n, parts):
        ones = _ones(width, size)
        high = ones << (width - 1)
        lane_masks.append((high - ones, high))
    total = 0
    per_core = {t: 0 for t in range(1, n + 1)}
    for i, mask, blocks in zip(half, rows, _packed_rows(n, rows)):
        # a lane is nonzero iff its top bit is set or its low bits plus
        # 2^(width-1) - 1 carry into it; no sum leaves its lane
        zeros = len(masks)
        for block, (low, high) in zip(blocks, lane_masks):
            if block:
                zeros -= ((((block & low) + low) | block) & high).bit_count()
        if zeros:
            zeros *= 1 if conj[i] == i else 2
            total += zeros
            for t in range(1, n + 1):  # is_t_core's test
                if not (mask & ~(mask << t)) >> t:
                    per_core[t] += zeros
    return ZeroCensus(n=n, table_dim=len(conj), total_zeros=total,
                      per_core_zeros=per_core)

