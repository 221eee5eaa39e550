"""Exact single character values of the symmetric group.

A value comes from the classical border-strip (Murnaghan-Nakayama)
recursion: pick a part t of the cycle type mu, strip every border strip
of length t from lambda, and sum the signed sub-characters.  The memo
has one node per suffix of mu, read from the last part, holding the
characters already known there, keyed by the beta mask of lambda.  One
walk (``_values``) evaluates a whole multiset of pairs, each pair one
int key (``_pair_key``): the beta mask of lambda, with a code of mu
above it whose int order is the order of mu's parts read from the last
part.  So the walk takes the keys in int order, up or down, the mu that
end in one suffix come one after another, and it holds only the nodes
of the current mu's suffixes, dropping each as soon as the walk leaves
it.  Every state is still computed once.  The recursion is entered only
on a memo miss: it runs the strip loop inline, looks each remainder up
in the next suffix's node and recurses only on the remainders missing
there.  The density sampler's two walkers each walk one end of its
sorted pairs, and the single-value CLI call is a walk over one pair.

Full tables and censuses live in ``characters``, which does not import
this module, so a census compiles none of the walk.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import GuardError
from .partitions import Partition, beta_mask

# largest n of one character value, for `char eval` and the density sampler,
# and the only bound on one evaluation's work: each (mask, suffix) state
# misses the memo at most once, the states at mu[i:] are partitions of
# |mu[i:]|, and these sizes are distinct, so misses per evaluation
# <= sum_{m<=n} p(m) = 6,639,348 at 60.  Raising the guard re-checks this.
VALUE_GUARD = 60


_EMPTY_SUFFIX = {0: 1}  # the node of mu = (): only the empty partition, chi 1


def _check_value_size(n: int) -> None:
    if n > VALUE_GUARD:
        raise GuardError(f"single character values limited to n <= {VALUE_GUARD}, "
                         f"got {n}")


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
