"""Exact symmetric-group character tables and zero censuses.

Tables and censuses apply the border-strip (Murnaghan-Nakayama) rule to
every column at once, in one breadth-first engine over the suffixes s
of mu (``_packed_rows``).  At each size k the characters of lambda |- k
at every suffix of size k are packed into one int per lambda, one
fixed-width lane per suffix, so removing the border strips of length t
from lambda is a signed sum of whole packed rows of size k - t, one
big-int add per strip, with the strip loop inline.  The lanes of a row
whose suffix has first part t form its block t, which reads only size
k - t.  The partitions of each size, and their conjugates, are
enumerated from the smaller sizes the engine holds (``_masks``): those
with first part t are (t,) + s for the last rows s of size k - t, s's
beta mask with one more bead.  Since chi at lambda' is sgn(s) =
(-1)^(k - len s) times chi at lambda, only the rows with mask <= the
conjugate's mask are stripped, at every size, block by block: one
loop (``_strip_block``) strips block t of every such row of a size.  A
size below n ORs the blocks into its rows and reads each other row off
its conjugate's with the odd lanes negated (``_level_rows``); at size
n the rows stripped (the top rows) are never joined, and the others
never built.  The census counts each block's zero lanes in that loop,
a few big-int operations into one tally per row, keeps no block, and
weights each row by the size of its conjugate pair at the end.  It
strips no block t > n/2: a partition of n has at most one hook of such
a length t, in its first row or column, and block t is zero without
one and holds the zeros of the row of size n - t the hook leaves with
one, so the census counts each row of size n - t once, as the top
reaches that size, and reads each top row's long hooks off its beta
mask (``_long_blocks``).  Nor does it strip block 1, the class 1^n,
which holds f_lambda > 0 in every row and comes last, so above 20 it
never builds size n - 1.  The table appends each block's bytes to its
rows, decodes the lanes and fills the other rows by sign.
For n <= 20, where every lane is 32 bits wide, the rows of the sizes
up to n are kept between calls, in one store: a size's blocks do not
depend on n, so each size is built once, with every block that n = 20
reads, and never changed, and a later call builds only the sizes it
lacks (the 2,087 rows of sizes below 20, about 0.5 MB, after a census
at 19 or 20).  A call below 20 builds size n too, which the next
larger call reads anyway, and copies the size-n blocks t <= 20 - n out
of those rows instead of stripping them again.  Above 20 every n has
its own lane width, so a call there builds its own levels, each as
the top reads it: block n - m right after size m, the masks,
conjugates and odd lanes of size m dropped once its rows are built,
and the rows of size k once size (n + k) // 2, their last reader, is.
The store has no lock: the package never runs two calls at once.

Single character values are the ``values`` module's; this module
imports ``partitions`` only to list a table's partitions, so a census
loads no other layer.
"""

from __future__ import annotations

import sys
from array import array
from math import factorial, isqrt
from operator import mul
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import GuardError

if TYPE_CHECKING:
    from .partitions import Partition

TABLE_GUARD = 20


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


def _ones(width: int, lanes: int) -> int:
    """The int with a 1 in each of ``lanes`` digits of ``width`` bits."""
    return ((1 << width * lanes) - 1) // ((1 << width) - 1)


def _lane_width(n: int) -> int:
    """Bits per lane of the packed rows at size n: a character of S_k,
    k <= n, has |chi| <= f_lambda <= sqrt(k!) <= sqrt(n!) < 2^(width - 1).
    It is 32 for every n <= 20, the width ``character_table`` decodes."""
    return max(32, isqrt(factorial(n)).bit_length() + 1)


# the largest n of 32-bit lanes: _packed_rows keeps the levels up to it
_KEPT_N = 20
# the kept levels, one (rows, count, masks, conjs, odd) per size k, as
# ``_level`` gives them with rows: rows maps the beta mask of each partition
# of k to its row; size 0 holds the empty partition at the empty suffix
_levels: list = [({0: 1 + (1 << 31)}, [1], [0], [0], 0)]


def _masks(levels: list, m: int) -> tuple[list[int], list[int]]:
    """The beta masks of the partitions of m, in enumeration order, and
    the beta masks of their conjugates, read from the levels below m.
    The partitions with first part t are (t,) + s for the partitions s
    of m - t with s[0] <= t, which are the last ``count[min(t, m - t)]``
    masks of level m - t, and the mask of (t,) + s is the mask of s with
    one more bead, at t + len(s).  Taking t from m down to 1 gives
    ``part_tuples(m)``'s order.  The conjugate of (t,) + s is s' with
    each of its s[0] parts one longer, then d = t - s[0] parts 1, so
    with c the mask of s' (s[0] beads, none at bit 0) its mask is
    (c << d | (1 << d) - 1) << 1 = (c + 1 << d + 1) - 2.  A level's rows
    are not read, so a level that holds none serves as well."""
    masks, conjs = [], []
    for t in range(m, 0, -1):
        _, count, prev, prev_conjs, _ = levels[m - t]
        start = len(prev) - count[min(t, m - t)]
        masks += [s | 1 << (t + s.bit_count()) for s in prev[start:]]
        conjs += [(c + 1 << t + 1 - c.bit_count()) - 2 for c in prev_conjs[start:]]
    return masks, conjs


def _counts(levels: list, m: int, blocks: int) -> list[int]:
    """The running lane counts of blocks 1..``blocks`` of a row of size
    m: block t has a lane for each partition of m - t with first part
    <= t, as many as level m - t counts, all of them once t >= m - t."""
    count = [0]
    for t in range(1, blocks + 1):
        count.append(count[-1] + levels[m - t][1][min(t, m - t)])
    return count


def _level(levels: list, m: int, blocks: int, width: int) -> tuple:
    """Level m, blocks 1..``blocks`` in lanes of ``width`` bits, without
    its rows: (None, count, masks, conjs, odd), with
    - count: count[t] counts the lanes of blocks 1..t (``_counts``);
    - masks, conjs: the beta masks of the partitions of m, in
      enumeration order, and of their conjugates (``_masks``);
    - odd: all ones in each lane whose suffix s has m - len(s) odd,
      where chi at lambda' is -chi at lambda.  Block t's lanes are
      (t,) + s for the first lanes s of level m - t, so they copy those
      lanes' parities, flipped when t is even."""
    count = _counts(levels, m, blocks)
    odd = 0
    for t in range(1, blocks + 1):
        lanes = (1 << width * (count[t] - count[t - 1])) - 1
        flip = 0 if t & 1 else lanes
        odd |= ((levels[m - t][4] & lanes) ^ flip) << width * count[t - 1]
    return (None, count, *_masks(levels, m), odd)


def _block_spec(levels: list, m: int, t: int, count: list[int], width: int) -> tuple:
    """The strip spec of block t of a row of size m whose running lane
    counts are ``count``: t, the mask of the t - 1 positions a strip of
    length t passes, the rows of size m - t, the mask of the block's
    lanes there, their biases, and the block's offset in a kept row."""
    size = count[t] - count[t - 1]
    return (t, (1 << (t - 1)) - 1, levels[m - t][0], (1 << width * size) - 1,
            _ones(width, size) << (width - 1), width * count[t - 1])


def _level_rows(levels: list, m: int, level: tuple, width: int) -> dict[int, int]:
    """The rows of ``level``, size m, by beta mask.  Only the rows with
    mask <= conjugate mask are stripped, each block by ``_strip_block``
    and ORed into place; each other row is its conjugate's with the odd
    lanes negated, a biased digit x becoming 2 bias - x."""
    _, count, masks, conjs, odd = level
    lams = [lam for lam, conj in zip(masks, conjs) if lam <= conj]
    stripped = [0] * len(lams)
    for t in range(1, len(count)):
        spec = _block_spec(levels, m, t, count, width)
        shift = spec[5]
        for i, block in enumerate(_strip_block(lams, spec, width)):
            stripped[i] |= block << shift
    rows = dict(zip(lams, stripped))
    high = odd & _ones(width, count[-1]) << (width - 1)
    for lam, conj in zip(masks, conjs):
        if lam > conj:
            row = rows[conj]
            rows[lam] = row + ((high - (row & odd)) << 1)
    return rows


def _strip_block(lams: list[int], spec: tuple, width: int,
               tally: tuple[list[int], list[int]] | None = None) -> list[int] | None:
    """Block t of ``spec`` for each row in ``lams``, in lanes of
    ``width`` bits, from the strips of length t as in ``values._strip``:
    the sum of +-(row(rem) & keep) over the strips, one add per strip.

    Without ``tally`` it returns the blocks biased, each lane chi +
    2^(width - 1), so ``high`` for a row with no strip of length t: a
    level ORs them into its rows, and XOR with ``high`` gives two's
    complement.  With ``tally``, two lists indexed like ``lams``, it
    holds no block: it adds each block's nonzero lanes to the row's
    entry of the first, sets bit t of the row's entry of the second (its
    core set) when the row has no strip of length t, and returns None.
    """
    t, between, prev, keep, high, _ = spec
    # a lane is nonzero iff its top bit is set or its low bits plus
    # 2^(width-1) - 1 carry into it; no sum leaves its lane
    low = high - (high >> (width - 1))
    core = 1 << t
    out = None if tally else []
    nonzero, cores = tally or (None, None)
    for i, lam in enumerate(lams):
        starts = (lam & ~(lam << t)) >> t << t
        if not starts:
            if tally:
                cores[i] |= core
            else:
                out.append(high)
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
        if net:  # net counts from -1: the block is total less net biases
            total -= net * high
        if tally:  # two's complement
            total ^= high
            nonzero[i] += ((((total & low) + low) | total) & high).bit_count()
        else:
            out.append(total)
    return out


def _packed_rows(n: int) -> tuple:
    """The rows of size n with lambda <= lambda' (the top rows), block by
    block, as (masks, lams, conjs, count, copied, prefixes, blocks):
    - masks: the beta masks of the partitions of n, enumeration order;
    - lams, conjs: the top rows' masks, each at most its conjugate's
      mask, in that order, and their conjugate masks;
    - count: count[t] is the number of lanes of blocks 1..t;
    - copied, prefixes: the blocks 1..copied are copied out of size n's
      kept rows, and prefixes holds them, joined, for each top row;
    - blocks: an iterator of (t, spec) for each other block t, to strip
      for every top row at once with ``_strip_block``, the kernel that
      also builds each level's blocks (the census strips those up to
      n/2 and reads the rows of size n - t of the others).
    Block t holds in lanes of ``_lane_width(n)`` bits, biased as
    ``_strip_block`` gives it (the prefixes in two's complement), the
    characters at the partitions of n with first part t, in reverse
    enumeration order, so the blocks' lanes, block 1's lowest first, run
    over all p(n) classes; they are 0 when lambda has no border strip of
    length t.  Conjugation fixes the hook lengths, and chi at lambda' is
    sgn(mu) times chi at lambda, so these rows determine the table.

    Let ``last`` be the largest n of this lane width: 20 at 32 bits,
    and n itself above 20, where every n has its own width.  The lanes
    at size k < n are the suffixes s of size k of a cycle type of
    ``last``, the partitions of k with s[0] <= last - k, ordered by
    first part ascending and so lexicographically.  The rows at size
    k < n are all partitions of k (``_masks``), one int each, each digit
    holding chi + 2^(width - 1), so no digit is negative; only the rows
    with mask <= conjugate mask are stripped, and each other row is read
    off its conjugate's by the sign of each lane (``_level_rows``).
    Size m is built breadth first from the smaller ones: its lanes with first part
    t, for t <= min(m, last - m) or any t at the top, are (t,) + s for
    the suffixes s of size m - t with s[0] <= t, a prefix of that size's
    lanes read through an explicit lane mask.  So block t of row lambda,
    biased, is the sum of +-(row(rem) & prefix) over the border strips
    of length t of lambda, one big-int add per strip for every column at
    once, less (a - s - 1) biases per lane for a strips added and s
    subtracted, in one loop (``_strip_block``) for every row at once: a
    level ORs each block into its rows, and a top block is never joined
    to the others.

    A call at n reads the blocks t <= n - m of size m, which do not
    depend on n, so for n <= 20 the sizes are kept in the module's
    ``_levels`` between calls.  Each size is built once, with every
    block n = 20 reads, and never changed: a call builds only the sizes
    it lacks, ascending, and appends each once it is complete, so an
    interrupted call leaves the store consistent.  Below 20 that
    includes size n itself, which the next larger call reads, and the
    top copies its blocks t <= 20 - n out of those rows.  A call above
    20 builds its own levels, and only as the top reads them: it
    enumerates the masks, conjugates, lane counts and odd lanes of
    every size first (``_level``), then builds the rows of size m = 1,
    2, ... and gives block n - m right after size m, block n first,
    from size 0.  Once size m's rows are built nothing reads its masks,
    conjugates or odd lanes, so they are dropped, and size k is read
    last by size (n + k) // 2, after the top's block n - k, so its rows
    are then dropped too.  Nothing in the
    package runs concurrently, so the store has no lock and is not for
    use from several threads at once.
    """
    width = _lane_width(n)
    if n <= _KEPT_N:
        levels = _levels
        for m in range(len(levels), n + (n < _KEPT_N)):  # below 20, size n too
            level = _level(levels, m, min(m, _KEPT_N - m), width)
            levels.append((_level_rows(levels, m, level, width), *level[1:]))
    else:
        levels = [({0: 1 + (1 << (width - 1))}, [1], [0], [0], 0)]
        for m in range(1, n):  # no rows yet: _top_specs builds them
            levels.append(_level(levels, m, min(m, n - m), width))
    count = _counts(levels, n, n)
    if n < len(levels):  # size n is kept: its blocks are the top's first
        kept, kept_count, masks, all_conjs, _ = levels[n]
        copied = len(kept_count) - 1
    else:
        (masks, all_conjs), copied = _masks(levels, n), 0
    lams, conjs = [], []
    for lam, conj in zip(masks, all_conjs):
        if lam <= conj:
            lams.append(lam)
            conjs.append(conj)
    prefixes = []
    if copied:  # the kept rows' blocks in two's complement
        high = _ones(width, count[copied]) << (width - 1)
        prefixes = [kept[lam] ^ high for lam in lams]
    return (masks, lams, conjs, count, copied, prefixes,
            _top_specs(levels, n, count, copied, width))


def _top_specs(levels: list, n: int, count: list[int], copied: int,
               width: int) -> Iterator[tuple[int, tuple]]:
    """(t, spec) for each top block t > ``copied``, from t = n down,
    each once size n - t holds rows: above 20 block n - m comes right
    after size m's rows are built, when its masks, conjugates and odd
    lanes are dropped, and each size's rows are dropped after their last
    reader, its lane counts kept."""
    wide = n > _KEPT_N
    for m in range(n - copied):  # block n - m reads size m
        if wide and m:  # its masks, conjugates and odd lanes have no later reader
            rows = _level_rows(levels, m, levels[m], width)
            levels[m] = (rows, levels[m][1], None, None, None)
        yield n - m, _block_spec(levels, n, n - m, count, width)
        if wide:  # size k is read last by size (n + k) // 2 and block n - k
            for k in range(max(2 * m - n, 0), 2 * m - n + 2):
                levels[k] = (None, *levels[k][1:])


def character_table(n: int) -> CharacterTable:
    """Build the full p(n) x p(n) character table of S_n.

    Guarded at ``TABLE_GUARD`` (n <= 20): beyond that the exact table is
    infeasible at desk scale and the sampling module applies.  The
    packed engine computes the rows lambda <= lambda' block by block,
    and each row's 32-bit lanes are read in C from its blocks' bytes.
    Each conjugate row is sgn(mu) = (-1)^(n - len mu) times its partner.
    """
    from .partitions import enumerate_partitions  # a census never loads it

    _check_table_size(n)
    parts = tuple(enumerate_partitions(n))
    masks, lams, conjs, count, copied, prefixes, blocks = _packed_rows(n)
    # each top row's lanes from the last, the last class first: the
    # blocks' bytes big-endian, from block n down
    lanes = [array("i") for _ in lams]
    for t, spec in blocks:
        size = 4 * (count[t] - count[t - 1])
        high = spec[4]
        for row, block in zip(lanes, _strip_block(lams, spec, 32)):
            row.frombytes((block ^ high).to_bytes(size, "big"))
    if copied:  # the blocks t <= copied together
        for row, prefix in zip(lanes, prefixes):
            row.frombytes(prefix.to_bytes(4 * count[copied], "big"))
    index = {mask: i for i, mask in enumerate(masks)}
    signs = [-1 if (n - len(p)) % 2 else 1 for p in parts]
    rows: list = [None] * len(parts)
    for mask, conj, row in zip(lams, conjs, lanes):
        if sys.byteorder == "little":
            row.byteswap()
        rows[index[mask]] = row = tuple(row)
        rows[index[conj]] = tuple(map(mul, signs, row))
    return CharacterTable(n=n, partitions=parts, rows=tuple(rows))


def _row_nonzeros(spec: tuple, width: int) -> dict[int, int]:
    """The nonzero lanes of each row that the top block ``spec`` reads,
    by beta mask, for a block t > n/2: every partition of n - t < t is a
    suffix there, so the block's lanes are all of those rows' lanes."""
    high = spec[4]
    low = high - (high >> (width - 1))
    nonzero = {}
    for kappa, row in spec[2].items():
        row ^= high  # two's complement, zero-tested as in _strip_block
        nonzero[kappa] = ((((row & low) + low) | row) & high).bit_count()
    return nonzero


def _long_hooks(lam: int, lo: int) -> Iterator[tuple[int, int]]:
    """(h, rem) for each hook of the partition with beta mask ``lam``
    longer than ``lo``, in its first row or column: h its length and rem
    the beta mask of the partition less the hook, as ``_strip_block``
    forms it.  These are all its hooks longer than lo once lo >= n // 2,
    n its size: a hook of length h at (i, j) with i, j >= 2, the cells
    of the first row above its arm, those of the first column left of
    its leg and (1, 1) make 2h + 2 cells, so h < n/2.  The first
    column's hooks move a bead to bit 0, and the first row's others move
    the top bead to a gap."""
    beads = lam >> lo + 1 << lo + 1
    while beads:
        bit = beads & -beads
        beads ^= bit
        rem = lam ^ bit | 1
        yield bit.bit_length() - 1, rem >> (rem ^ (rem + 1)).bit_length() - 1
    top = lam.bit_length() - 1
    gaps = ~lam & (1 << max(top - lo, 1)) - 2  # the gaps 1..top - lo - 1
    while gaps:
        bit = gaps & -gaps
        gaps ^= bit
        yield top + 1 - bit.bit_length(), lam ^ bit ^ 1 << top


def _long_blocks(lams: list[int], counts: dict[int, dict[int, int]],
                 tally: tuple[list[int], list[int]]) -> None:
    """Add blocks lo < t <= n of the rows ``lams`` of size n to ``tally``
    as ``_strip_block`` does, with no strip: lo = min(counts) - 1 >=
    n // 2, and counts[t] holds the nonzero lanes of each row of size
    n - t (``_row_nonzeros``).  For t > n/2 a partition of n has t-weight
    at most 1, so at most one hook of length t.  With none, block t is
    zero and the row a t-core; with one, block t is +-kappa's row, kappa
    the partition of n - t left when it is removed, so it has kappa's
    nonzero lanes."""
    lo = min(counts) - 1
    lengths = sum(1 << t for t in counts)
    nonzero, cores = tally
    for i, lam in enumerate(lams):
        hooks = 0
        for h, rem in _long_hooks(lam, lo):
            nonzero[i] += counts[h][rem]
            hooks |= 1 << h
        cores[i] |= lengths & ~hooks


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

    The zeros are counted block by block as the packed engine strips
    them, in the strip loop itself (``_strip_block``): each block of every
    top row adds its nonzero lanes to one tally per row, a few big-int
    operations, and a row with no strip of the block's length t gets t
    in its core set instead, so no block is held and the table never
    is.  The blocks copied from kept rows below 20 get one zero test
    over each row's copied lanes and an explicit core test.  The blocks
    t > n/2 are not stripped: as the top reaches size n - t, each of its
    rows gets one zero test, and then each top row adds the count of the
    row its one t-hook leaves, or is a t-core without one
    (``_long_blocks``).  Block 1 is one nonzero lane, f_lambda, in every
    row, so the census ends at block 2.  Only the
    rows lambda <= lambda' are computed: a row and its conjugate have the
    same zeros and the same hook lengths, so each such row counts twice,
    or once when lambda is self-conjugate, in the total and in every
    t-core count.
    """
    _check_table_size(n)
    masks, lams, conjs, count, copied, prefixes, blocks = _packed_rows(n)
    width = _lane_width(n)
    cores = [0] * len(lams)
    if copied:  # one zero test over each row's copied lanes, as in _strip_block
        high = _ones(width, count[copied]) << (width - 1)
        low = high - (high >> (width - 1))
        nonzero = [((((x & low) + low) | x) & high).bit_count() for x in prefixes]
        for t in range(1, copied + 1):  # is_t_core's test
            core = 1 << t
            cores = [c | core if not (lam & ~(lam << t)) >> t else c
                     for lam, c in zip(lams, cores)]
    else:  # block 1, the class 1^n, holds f_lambda > 0 in every row
        nonzero = [1] * len(lams)
    tally = nonzero, cores
    long = max(copied, n // 2)  # the blocks above it are read off the hooks
    counts = {}
    for t, spec in blocks:
        if t > long:
            counts[t] = _row_nonzeros(spec, width)
        else:
            _strip_block(lams, spec, width, tally)
        if t == 2:  # block 1 is counted: size n - 1 is never built
            break
    if counts:
        _long_blocks(lams, counts, tally)
    classes = len(masks)
    total = 0
    by_cores: dict[int, int] = {}  # zeros by core set
    for lam, conj, lanes, core in zip(lams, conjs, nonzero, cores):
        zeros = classes - lanes
        if zeros:
            if lam != conj:
                zeros *= 2
            total += zeros
            by_cores[core] = by_cores.get(core, 0) + zeros
    per_core = {t: sum(zeros for core, zeros in by_cores.items() if core >> t & 1)
                for t in range(1, n + 1)}
    return ZeroCensus(n=n, table_dim=classes, total_zeros=total,
                      per_core_zeros=per_core)
