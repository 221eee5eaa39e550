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
order, up or down, the mu that end in one suffix come one after
another, and it holds only the nodes of the current mu's suffixes,
dropping each as soon as the walk leaves it.
Every state is still computed once.  The recursion is entered only on a
memo miss: it runs the strip loop inline, looks each remainder up in the
next suffix's node and recurses only on the remainders missing there.
The density sampler's two walkers each walk one end of its sorted
pairs, and the single-value CLI call is a walk over one pair.

Full tables and censuses apply the same rule to every column at once,
in one breadth-first engine over the suffixes s of mu (``_packed_rows``).
At each size k the characters of lambda |- k at every suffix of size k
are packed into one int per lambda, one fixed-width lane per suffix, so
removing the border strips of length t from lambda is a signed sum of
whole packed rows of size k - t, one big-int add per strip, with the
strip loop of ``_strip`` inline.  The lanes of a row whose suffix has
first part t form its block t, which reads only size k - t.  The
partitions of each size are enumerated from the smaller sizes the engine
holds (``_masks``): those with first part t are (t,) + s for the last
rows s of size k - t, s's beta mask with one more bead.  Since chi at
lambda' is sgn(mu) = (-1)^(n - len mu) times chi at lambda, the size-n
rows are built only for the masks with mask <= conjugate_mask(mask),
one of each conjugate pair (the top rows), and block by block: one
loop (``_top_block``) strips block t of every top row.  The census
counts each block's zero lanes in that loop, a few big-int operations
into one tally per row, keeps no block, and weights each row by the
size of its conjugate pair at the end; the table appends each block's
bytes to its rows, decodes the lanes and fills the other rows by sign.
For n <= 20, where every lane is 32 bits wide, the rows of the sizes
up to n are kept between calls, in one store: a size's blocks do not
depend on n, so each size is built once, with every block that n = 20
reads, and never changed, and a later call builds only the sizes it
lacks (the 2,087 rows of sizes below 20, about 0.5 MB, after a census
at 19 or 20).  A call below 20 builds size n too, which the next
larger call reads anyway, and copies the size-n blocks t <= 20 - n out
of those rows instead of stripping them again.  Above 20 every n has
its own lane width, so a call there builds its own levels, each as
the top reads it: block n - m right after size m, and the rows of
size k dropped once size (n + k) // 2, their last reader, is built.
The store has no lock: the package never runs two calls at once.
"""

from __future__ import annotations

import sys
from array import array
from math import factorial, isqrt
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from .errors import GuardError
from .partitions import Partition, beta_mask, conjugate_mask, enumerate_partitions

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


def _pair_key(lam: int, mu: tuple[int, ...], n: int) -> int:
    """The key of the pair (beta mask ``lam``, parts ``mu``) of size at
    most n, as ``_values`` reads it: ``lam`` in the low n + 1 bits, which
    hold any beta mask of a partition of at most n, and ``_mu_code(mu, n)``
    above them."""
    return _mu_code(mu, n) << n + 1 | lam


def _values(keys: Iterable[int], n: int) -> Iterator[int]:
    """Yield the character of each pair of ``keys``, ``_pair_key``s of
    pairs of size at most n sorted either up or down; the parts of mu are
    stripped in the order encoded.

    The memo node of a suffix s holds the characters at s, keyed by beta
    mask, and only the mu that end in s read it.  The keys' int order is
    the order of the parts of mu read from the last part, so the mu that
    end in s are consecutive in either direction, and of each new mu only
    the parts before the suffix it shares with the last are decoded.
    Only the nodes on the current mu's suffix path are held: a node is
    dropped as soon as the next mu leaves its suffix, and every state is
    still computed once.  The keys are pulled one at a time, so a caller
    may feed the walk as it goes.
    """
    shift = n + 1  # _pair_key's mask width
    width = n.bit_length()  # _mu_code's digit width
    top = width * n  # the bits of a mu code
    digit = (1 << width) - 1
    path = [_EMPTY_SUFFIX]  # path[d]: the node of the last d parts of mu
    levels = [_EMPTY_SUFFIX]  # levels[i] is the node of mu[i:]
    mu: tuple[int, ...] = ()
    last = 0  # the code of mu
    for key in keys:
        code = key >> shift
        if code != last:
            # the leading digits the codes share are the last parts the mu
            # share; only the parts before them are decoded
            keep = (top - (code ^ last).bit_length()) // width
            last = code
            new = []
            tail = code & ((1 << top - keep * width) - 1)
            if tail:
                tail >>= ((tail & -tail).bit_length() - 1) // width * width
                while tail:
                    new.append(tail & digit)
                    tail >>= width
            mu = (*new, *mu[len(mu) - keep:])
            del path[keep + 1:]
            path.extend({} for _ in new)
            levels = path[::-1]
        # walking up, the node of mu is new at its first key (any mu
        # ending in mu sorts after it); walking down, the mu ending in mu
        # came first and may have stored the pair already; mu = () is the
        # empty class, whose node holds the empty partition
        lam = key ^ code << shift
        value = levels[0].get(lam)
        yield _strip(lam, mu, 0, levels) if value is None else value


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
    (value,) = _values([key], n)
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


# the largest n of 32-bit lanes: _packed_rows keeps the levels up to it
_KEPT_N = 20
# the kept levels, (rows, counts) at each size k: rows maps the beta mask of
# each partition of k, in enumeration order, to its row; counts[t] counts its
# lanes with first part <= t; size 0 holds the empty partition at the empty
# suffix
_levels: list = [({0: 1 + (1 << 31)}, [1])]


def _masks(levels: list, m: int) -> list[int]:
    """The beta masks of the partitions of m, in enumeration order, read
    from the levels below m.  The partitions with first part t are
    (t,) + s for the partitions s of m - t with s[0] <= t, which are the
    last ``counts[min(t, m - t)]`` rows of level m - t, and the mask of
    (t,) + s is the mask of s with one more bead, at t + len(s).  Taking
    t from m down to 1 gives ``part_tuples(m)``'s order.  A level's rows
    are read only for their masks, so a level that dropped its rows for
    their mask list serves as well."""
    masks = []
    for t in range(m, 0, -1):
        rows, count = levels[m - t]
        masks += [s | 1 << (t + s.bit_count())
                  for s in list(rows)[len(rows) - count[min(t, m - t)]:]]
    return masks


def _counts(levels: list, m: int, blocks: int) -> list[int]:
    """The running lane counts of blocks 1..``blocks`` of a row of size
    m: block t has a lane for each partition of m - t with first part
    <= t, as many as level m - t counts, all of them once t >= m - t."""
    count = [0]
    for t in range(1, blocks + 1):
        count.append(count[-1] + levels[m - t][1][min(t, m - t)])
    return count


def _block_spec(levels: list, m: int, t: int, count: list[int], width: int) -> tuple:
    """The strip spec of block t of a row of size m whose running lane
    counts are ``count``: t, the mask of the t - 1 positions a strip of
    length t passes, the rows of size m - t, the mask of the block's
    lanes there, their biases, and the block's offset in a kept row."""
    size = count[t] - count[t - 1]
    return (t, (1 << (t - 1)) - 1, levels[m - t][0], (1 << width * size) - 1,
            _ones(width, size) << (width - 1), width * count[t - 1])


def _stripped(lams: list[int], blocks: list) -> Iterator[int]:
    """For each beta mask in ``lams``, its kept row: the biased blocks
    ``blocks`` ORed into place, each from the strips of its length t."""
    for lam in lams:
        row = 0
        for t, between, prev, keep, high, shift in blocks:
            # the border strips of length t, as in _strip; net counts the
            # strips added less those subtracted, from -1, so the biased
            # block is total less net biases per lane
            starts = (lam & ~(lam << t)) >> t << t
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
            row |= total << shift
        yield row


def _level_rows(levels: list, m: int, masks: list[int], count: list[int],
                width: int) -> dict[int, int]:
    """The kept rows of size m, by beta mask, with the blocks that
    ``count`` counts."""
    blocks = [_block_spec(levels, m, t, count, width) for t in range(1, len(count))]
    return dict(zip(masks, _stripped(masks, blocks)))


def _top_block(lams: list[int], spec: tuple, width: int,
               tally: tuple[list[int], list[int]] | None = None) -> list[int] | None:
    """Block t of ``spec`` for each top row in ``lams``, in lanes of
    ``width`` bits, from the strips of length t as in ``_stripped``.

    Without ``tally`` it returns the blocks, in two's complement, 0 for
    a row with no strip of length t.  With ``tally``, two lists indexed
    like ``lams``, it holds no block: it adds each block's nonzero lanes
    to the row's entry of the first, sets bit t of the row's entry of the
    second (its core set) when the row has no strip of length t, and
    returns None.
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
        total ^= high
        if tally:
            nonzero[i] += ((((total & low) + low) | total) & high).bit_count()
        else:
            out.append(total)
    return out


def _packed_rows(n: int) -> tuple:
    """The rows of size n with lambda <= lambda' (the top rows), block by
    block, as (masks, lams, conjs, count, copied, prefixes, blocks):
    - masks: the beta masks of the partitions of n, enumeration order;
    - lams, conjs: the top rows' masks, mask <= conjugate_mask(mask), in
      that order, and their conjugate masks;
    - count: count[t] is the number of lanes of blocks 1..t;
    - copied, prefixes: the blocks 1..copied are copied out of size n's
      kept rows, and prefixes holds them, joined, for each top row;
    - blocks: an iterator of (t, spec) for each other block t, which
      ``_top_block`` strips for every top row at once.
    Block t holds in lanes of ``_lane_width(n)`` bits, in two's
    complement, the characters at the partitions of n with first part
    t, in reverse enumeration order, so the blocks' lanes, block 1's
    lowest first, run over all p(n) classes; a block is 0 when lambda
    has no border strip of its length.  Conjugation fixes the hook
    lengths, and chi at lambda' is sgn(mu) times chi at lambda, so these
    rows determine the table.

    Let ``last`` be the largest n of this lane width: 20 at 32 bits,
    and n itself above 20, where every n has its own width.  The lanes
    at size k < n are the suffixes s of size k of a cycle type of
    ``last``, the partitions of k with s[0] <= last - k, ordered by
    first part ascending and so lexicographically.  The rows at size
    k < n are all partitions of k (``_masks``), one int each, each digit
    holding chi + 2^(width - 1), so no digit is negative.  Size m is
    built breadth first from the smaller ones: its lanes with first part
    t, for t <= min(m, last - m) or any t at the top, are (t,) + s for
    the suffixes s of size m - t with s[0] <= t, a prefix of that size's
    lanes read through an explicit lane mask.  So block t of row lambda,
    biased, is the sum of +-(row(rem) & prefix) over the border strips
    of length t of lambda, one big-int add per strip for every column at
    once, less (a - s - 1) biases per lane for a strips added and s
    subtracted.  A kept row ORs its biased blocks into place; a top
    block drops its bias by one XOR and is never joined to the others.

    A call at n reads the blocks t <= n - m of size m, which do not
    depend on n, so for n <= 20 the sizes are kept in the module's
    ``_levels`` between calls.  Each size is built once, with every
    block n = 20 reads, and never changed: a call builds only the sizes
    it lacks, ascending, and appends each once it is complete, so an
    interrupted call leaves the store consistent.  Below 20 that
    includes size n itself, which the next larger call reads, and the
    top copies its blocks t <= 20 - n out of those rows.  A call above
    20 builds its own levels, and only as the top reads them: it
    enumerates the masks and lane counts of every size first, then
    builds the rows of size m = 1, 2, ... and gives block n - m right
    after size m, block n first, from size 0.  Size k is read last by
    size (n + k) // 2, after the top's block n - k, so its rows are then
    dropped and its mask list kept for ``_masks``.  Nothing in the
    package runs concurrently, so the store has no lock and is not for
    use from several threads at once.
    """
    width = _lane_width(n)
    if n <= _KEPT_N:
        levels = _levels
        for m in range(len(levels), n + (n < _KEPT_N)):  # below 20, size n too
            count = _counts(levels, m, min(m, _KEPT_N - m))
            levels.append((_level_rows(levels, m, _masks(levels, m), count, width), count))
    else:
        levels = [({0: 1 + (1 << (width - 1))}, [1])]
        for m in range(1, n):  # mask lists: _top_specs builds the rows
            levels.append((_masks(levels, m), _counts(levels, m, min(m, n - m))))
    count = _counts(levels, n, n)
    if n < len(levels):  # size n is kept: its blocks are the top's first
        kept, kept_count = levels[n]
        masks = list(kept)
        copied = len(kept_count) - 1
    else:
        masks, copied = _masks(levels, n), 0
    lams, conjs = [], []
    for lam, conj in zip(masks, map(conjugate_mask, masks)):
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
    after size m's rows are built, and each size's rows are dropped for
    their mask list after their last reader."""
    wide = n > _KEPT_N
    for m in range(n - copied):  # block n - m reads size m
        if wide and m:
            masks, level_count = levels[m]
            levels[m] = (_level_rows(levels, m, masks, level_count, width), level_count)
        yield n - m, _block_spec(levels, n, n - m, count, width)
        if wide:  # size k is read last by size (n + k) // 2 and block n - k
            for k in range(max(2 * m - n, 0), 2 * m - n + 2):
                levels[k] = (list(levels[k][0]), levels[k][1])


def character_table(n: int) -> CharacterTable:
    """Build the full p(n) x p(n) character table of S_n.

    Guarded at ``TABLE_GUARD`` (n <= 20): beyond that the exact table is
    infeasible at desk scale and the sampling module applies.  The
    packed engine computes the rows lambda <= lambda' block by block,
    and each row's 32-bit lanes are read in C from its blocks' bytes.
    Each conjugate row is sgn(mu) = (-1)^(n - len mu) times its partner.
    """
    _check_table_size(n)
    parts = tuple(enumerate_partitions(n))
    masks, lams, conjs, count, copied, prefixes, blocks = _packed_rows(n)
    # each top row's lanes from the last, the last class first: the
    # blocks' bytes big-endian, from block n down
    lanes = [array("i") for _ in lams]
    for t, spec in blocks:
        size = 4 * (count[t] - count[t - 1])
        for row, block in zip(lanes, _top_block(lams, spec, 32)):
            row.frombytes(block.to_bytes(size, "big"))
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
    them, in the strip loop itself (``_top_block``): each block of every
    top row adds its nonzero lanes to one tally per row, a few big-int
    operations, and a row with no strip of the block's length t gets t
    in its core set instead, so no block is held and the table never
    is.  The blocks copied from kept rows below 20 get one zero test
    over each row's copied lanes and an explicit core test.  Only the
    rows lambda <= lambda' are computed: a row and its conjugate have the
    same zeros and the same hook lengths, so each such row counts twice,
    or once when lambda is self-conjugate, in the total and in every
    t-core count.
    """
    _check_table_size(n)
    masks, lams, conjs, count, copied, prefixes, blocks = _packed_rows(n)
    width = _lane_width(n)
    nonzero = [0] * len(lams)
    cores = [0] * len(lams)
    if copied:  # one zero test over each row's copied lanes, as in _top_block
        high = _ones(width, count[copied]) << (width - 1)
        low = high - (high >> (width - 1))
        nonzero = [((((x & low) + low) | x) & high).bit_count() for x in prefixes]
        for t in range(1, copied + 1):  # is_t_core's test
            core = 1 << t
            cores = [c | core if not (lam & ~(lam << t)) >> t else c
                     for lam, c in zip(lams, cores)]
    tally = nonzero, cores
    for _, spec in blocks:
        _top_block(lams, spec, width, tally)
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
