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
size below n has it write each block into its row and reads each other
row off its conjugate's with the odd lanes negated (``_level_rows``).  The
table is size n built so, with every block, its rows' lanes, all p(n)
classes, decoded in C.  The census builds no row of size n: it strips
the rows lambda <= lambda' there (the top rows, ``_packed_rows``)
block by block and never joins them.  It counts each block's zero
lanes in that loop, a few big-int operations into one tally per row,
lists the rows with no strip of the block's length t, its t-cores, and
keeps no block; each row's zeros, weighted by the size of its conjugate
pair, are formed once at the end, and every Z_t is one sum over a list.
A row with one strip of length t has block t +-(kappa's row), kappa the
partition the strip leaves, so it takes kappa's nonzero lanes from a
memo of the block, one zero test per distinct kappa; above n/2 every
row has at most one such strip.  It strips no
block 1, the class 1^n, which holds f_lambda > 0 in every row and
comes last, so above 20 it never builds size n - 1.
For n <= 20, where every lane is 32 bits wide, the rows of the sizes
up to n are kept between calls, in one store (``_kept_levels``): a
size's blocks do not depend on n, so each size is built once, with
every block that n = 20 reads, and never changed, and a later call
builds only the sizes it lacks (the 2,087 rows of sizes below 20,
about 0.5 MB, after a census at 19 or 20).  A census below 20 builds
size n too, which the next larger call reads anyway; ``zero_count``
alone copies its blocks t <= 20 - n from there instead of stripping
them again, though the top's stream gives every block.  The table
reads only the sizes below n: it builds size n whole, once, and keeps
none of it.  Above 20 every n has its own lane width, so a census
there builds its own levels, each as the top reads it: block n - m
right after size m, the masks, conjugates and odd lanes of size m
dropped once its rows are built, its blocks above (n - m) // 2 once
block n - m is read, since a later size reads no more of it, and the
rows of size k once size (n + k) // 2, their last reader, is.
The store has no lock: the package never runs two calls at once.

Single character values are the ``values`` module's; this module
imports ``partitions`` only to list a table's partitions, so a census
loads no other layer.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice
from math import factorial, isqrt
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

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
    counts are ``count``: t, the rows of size m - t, the mask of the
    block's lanes there, their biases, and the block's offset in its
    row, where ``_strip_block`` ORs it into a level's row."""
    size = count[t] - count[t - 1]
    return (t, levels[m - t][0], (1 << width * size) - 1,
            _ones(width, size) << (width - 1), width * count[t - 1])


def _level_rows(levels: list, m: int, level: tuple, width: int) -> dict[int, int]:
    """The rows of ``level``, size m, by beta mask.  Only the rows with
    mask <= conjugate mask are stripped, ``_strip_block`` writing each
    block into its row; each other row is its conjugate's with the odd
    lanes negated, a biased digit x becoming 2 bias - x."""
    _, count, masks, conjs, odd = level
    lams = [lam for lam, conj in zip(masks, conjs) if lam <= conj]
    stripped = [0] * len(lams)
    for t in range(1, len(count)):
        _strip_block(lams, _block_spec(levels, m, t, count, width), width, stripped)
    rows = dict(zip(lams, stripped))
    high = odd & _ones(width, count[-1]) << (width - 1)
    for lam, conj in zip(masks, conjs):
        if lam > conj:
            row = rows[conj]
            rows[lam] = row + ((high - (row & odd)) << 1)
    return rows


def _strip_block(lams: list[int], spec: tuple, width: int, rows: list[int],
                 cores: list[int] | None = None) -> None:
    """Block t of ``spec`` for each row in ``lams``, in lanes of
    ``width`` bits, from the strips of length t as in ``values._strip``:
    the sum of +-(row(rem) & keep) over the strips, one add per strip,
    written into ``rows``, indexed like ``lams``.

    Without ``cores`` (a level) it ORs each block, biased, each lane chi
    + 2^(width - 1), so ``high`` for a row with no strip of length t,
    into its row at the spec's offset.  With ``cores`` (the census) it
    holds no block: it adds each block's nonzero lanes to the row's
    entry of ``rows``, and appends to ``cores``, block t's list, the
    index of each row with no strip of length t, a t-core.  A row with
    one strip has the nonzero lanes of the row it reads, whatever the
    sign, so they are counted once per remainder, in a memo that lives
    for the call alone, since the count depends on the block's lanes.
    """
    t, prev, keep, high, shift = spec
    # a lane is nonzero iff its top bit is set or its low bits plus
    # 2^(width-1) - 1 carry into it; no sum leaves its lane
    low = high - (high >> (width - 1))
    memo = {}  # the census's nonzero lanes of block t by one strip's remainder
    for i, lam in enumerate(lams):
        starts = (lam & ~(lam << t)) >> t << t
        if not starts:
            if cores is None:
                rows[i] |= high << shift
            else:
                cores.append(i)
            continue
        if cores is not None and not starts & (starts - 1):  # one strip
            rem = lam ^ starts ^ (starts >> t)
            if rem & 1:
                rem >>= (rem ^ (rem + 1)).bit_length() - 1
            got = memo.get(rem)
            if got is None:
                x = (prev[rem] & keep) ^ high
                got = memo[rem] = ((((x & low) + low) | x) & high).bit_count()
            rows[i] += got
            continue
        total = 0
        net = -1
        while starts:
            bit = starts & -starts
            starts ^= bit
            end = bit >> t
            rem = lam ^ bit ^ end
            if rem & 1:  # the bead moved to bit 0
                rem >>= (rem ^ (rem + 1)).bit_length() - 1
            if (lam & (bit - end)).bit_count() & 1:  # the beads it passes
                total -= prev[rem] & keep
                net -= 1
            else:
                total += prev[rem] & keep
                net += 1
        if net:  # net counts from -1: the block is total less net biases
            total -= net * high
        if cores is None:
            rows[i] |= total << shift
        else:  # two's complement
            total ^= high
            rows[i] += ((((total & low) + low) | total) & high).bit_count()


def _kept_levels(n: int) -> list:
    """The store, holding every size below n <= 20, and n itself below
    20: a census at n reads size n's kept blocks, a table at n + 1 the
    sizes up to n.  It builds the sizes it lacks, ascending, each with
    every block n = 20 reads, and appends each once it is complete, so
    an interrupted call leaves it consistent; no kept size is changed."""
    levels = _levels
    for m in range(len(levels), n + (n < _KEPT_N)):  # below 20, size n too
        level = _level(levels, m, min(m, _KEPT_N - m), 32)
        levels.append((_level_rows(levels, m, level, 32), *level[1:]))
    return levels


def _packed_rows(n: int) -> tuple:
    """The rows of size n with lambda <= lambda' (the top rows), block by
    block, as (lams, conjs, count, kept, blocks):
    - lams, conjs: the top rows' beta masks, in enumeration order, and
      their conjugates' masks;
    - count: count[t] is the number of lanes of blocks 1..t, p(n) in all;
    - kept: size n's kept level, or None; only ``zero_count`` copies
      its blocks instead of stripping them again;
    - blocks: an iterator of (t, spec) for every block t, from t = n
      down to 1, to strip for every top row at once with ``_strip_block``.
    Block t holds, in lanes of ``_lane_width(n)`` bits biased as
    ``_strip_block`` gives them, the characters at the classes with
    first part t, in reverse enumeration order.  Conjugation fixes the
    hook lengths, and chi at lambda' is sgn(mu) times chi at lambda, so
    these rows determine the table.  Above 20 the levels are the call's
    own, built as ``_top_specs`` gives the blocks and dropped after their
    last reader.  Nothing in the package runs concurrently, so the store
    has no lock and is not for use from several threads at once.
    """
    width = _lane_width(n)
    if n <= _KEPT_N:
        levels = _kept_levels(n)
    else:
        levels = [({0: 1 + (1 << (width - 1))}, [1], [0], [0], 0)]
        for m in range(1, n):  # no rows yet: _top_specs builds them
            levels.append(_level(levels, m, min(m, n - m), width))
    count = _counts(levels, n, n)
    kept = levels[n] if n < len(levels) else None
    masks, all_conjs = kept[2:4] if kept else _masks(levels, n)
    lams, conjs = [], []
    for lam, conj in zip(masks, all_conjs):
        if lam <= conj:
            lams.append(lam)
            conjs.append(conj)
    return lams, conjs, count, kept, _top_specs(levels, n, count, width)


def _top_specs(levels: list, n: int, count: list[int],
               width: int) -> Iterator[tuple[int, tuple]]:
    """(t, spec) for every top block t, from t = n down to 1, each once
    size n - t holds rows: above 20 block n - m comes right after size
    m's rows are built, when its masks, conjugates and odd lanes are
    dropped, then its rows are cut to the blocks later sizes read, and
    each size's rows are dropped after their last reader, its lane
    counts kept; size n - 1 is built only if block 1 is taken."""
    wide = n > _KEPT_N
    for m in range(n):  # block n - m reads size m
        if wide and m:  # its masks, conjugates and odd lanes have no later reader
            rows = _level_rows(levels, m, levels[m], width)
            levels[m] = (rows, levels[m][1], None, None, None)
        yield n - m, _block_spec(levels, n, n - m, count, width)
        if wide and m:  # later levels read blocks <= (n - m) // 2 of size m
            rows, lanes = levels[m][0], levels[m][1]
            if (n - m) // 2 < len(lanes) - 1:
                cut = (1 << width * lanes[(n - m) // 2]) - 1
                for lam in rows:
                    rows[lam] &= cut
        if wide:  # size k is read last by size (n + k) // 2 and block n - k
            for k in range(max(2 * m - n, 0), 2 * m - n + 2):
                levels[k] = (None, *levels[k][1:])


def character_table(n: int) -> CharacterTable:
    """Build the full p(n) x p(n) character table of S_n.

    Guarded at ``TABLE_GUARD`` (n <= 20): beyond that the exact table is
    infeasible at desk scale and the sampling module applies.  The table
    is level n with every block, its lanes all p(n) classes in reverse
    enumeration order, built once by ``_level_rows`` from the kept sizes
    below n and not kept.  Each row's 32-bit lanes are read in C from
    its bytes, and a row is dropped once it is read.
    """
    from .partitions import enumerate_partitions  # a census never loads it

    _check_table_size(n)
    parts = tuple(enumerate_partitions(n))
    levels = _kept_levels(n - 1)
    _, _, masks, *_ = level = _level(levels, n, n, 32)
    rows = _level_rows(levels, n, level, 32)
    high = _ones(32, len(masks)) << 31
    size = 4 * len(masks)
    table = []
    for mask in masks:  # big-endian bytes: lane 0, the class 1^n, comes last
        row = array("i", (rows.pop(mask) ^ high).to_bytes(size, "big"))
        if sys.byteorder == "little":
            row.byteswap()
        table.append(tuple(row))
    return CharacterTable(n=n, partitions=parts, rows=tuple(table))


def _nonzeros(rows: Iterable[int], high: int, width: int) -> list[int]:
    """The nonzero lanes of each biased row in ``rows``, whose lanes are
    those of ``high``, the top bit of each, zero-tested in two's
    complement as in ``_strip_block``."""
    low = high - (high >> (width - 1))
    return [((((y := x ^ high) & low) + low | y) & high).bit_count() for x in rows]


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
    operations, and a row with no strip of the block's length t goes on
    block t's list of t-cores instead, so no block is held and the table
    never is.  A row with one strip of length t, every row with any above
    n/2, adds the nonzero lanes of the row the strip leaves, zero-tested
    once per block for all the rows that leave it.  Below 20 it alone
    copies blocks 1..min(n, 20 - n) from size n's kept rows: one zero
    test over each row's copied lanes, and their lists from the same
    core test.  Block 1 is one nonzero lane, f_lambda, in every row, and
    no partition of n >= 1 is a 1-core, so the census takes blocks n
    down to 2 at most, the core test starts at t = 2 and Z_1 is 0.  Only
    the rows lambda <= lambda' are computed: a row and its conjugate
    have the same zeros and the same hook lengths, so each such row
    weighs twice, or once when lambda is self-conjugate, in the total
    and in every Z_t, the sum of the weights of block t's list.
    """
    _check_table_size(n)
    lams, conjs, count, kept, blocks = _packed_rows(n)
    width = _lane_width(n)
    cores = {}  # cores[t]: the indices of the top rows that are t-cores
    copied = len(kept[1]) - 1 if kept else 0  # size n's kept blocks
    if copied:  # one zero test over each row's kept lanes
        rows = kept[0]
        high = _ones(width, count[copied]) << (width - 1)
        nonzero = _nonzeros([rows[lam] for lam in lams], high, width)
        for t in range(2, copied + 1):  # is_t_core's test; no 1-cores
            cores[t] = [i for i, lam in enumerate(lams) if not (lam & ~(lam << t)) >> t]
    else:  # block 1, the class 1^n, holds f_lambda > 0 in every row
        nonzero = [1] * len(lams)
    for t, spec in islice(blocks, n - max(copied, 1)):  # block 1 is counted
        _strip_block(lams, spec, width, nonzero, listed := [])
        cores[t] = array("i", listed)  # 4 bytes an index, not an int object
    classes = count[-1]
    weights = [(classes - lanes) << (lam != conj)
               for lam, conj, lanes in zip(lams, conjs, nonzero)]
    per_core = {t: sum(map(weights.__getitem__, cores.get(t, ()))) for t in range(1, n + 1)}
    return ZeroCensus(n=n, table_dim=classes, total_zeros=sum(weights),
                      per_core_zeros=per_core)
