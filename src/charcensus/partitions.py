"""Integer partitions and Young-diagram combinatorics.

Everything downstream (counting, characters, sampling) indexes on the
``Partition`` type defined here.  The character paths hold a partition
as its beta set in one Python int, the abacus of James and Kerber: row
i of an r-row diagram sets bit lam_i + r - 1 - i, the first-column hook
length of that row.  Trailing ones stand for zero parts and are shifted
out, so each partition has exactly one mask.  A border strip of length
t is a set bit b whose bit b - t is clear; removing it moves the bead
from b to b - t, and its height is the number of beads it passes.  The
strip query and the t-core test are then a few shifts and masks, and
the census engine enumerates each conjugate's mask with the mask, so no
path needs the diagram's hook lengths or its transpose.
"""

from __future__ import annotations

from typing import Iterator


class Partition:
    """A weakly decreasing sequence of positive integer parts.

    Immutable and hashable; the empty sequence is the unique partition
    of 0.  The text form used by the CLI and JSON output is
    ``"[4,2,1]"`` (empty: ``"[]"``).
    """

    __slots__ = ("parts", "size")

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "size", sum(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def parse_partition(text: str) -> Partition:
    """Parse the bracketed text form, e.g. ``"[4,2,1]"`` or ``"[]"``."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"partition text must be bracketed, got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return Partition(())
    try:
        parts = [int(tok) for tok in inner.split(",")]
    except ValueError:
        raise ValueError(f"bad partition text {text!r}") from None
    return Partition(parts)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, largest-first.

    The order is reverse-lexicographic on part sequences, e.g. for n=4:
    (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  Fixed so that table row and
    column order is reproducible bit-for-bit.
    """
    return map(Partition, part_tuples(n))


def part_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """The parts of each partition of ``enumerate_partitions(n)``, in the
    same order, as plain tuples, without building and checking a
    ``Partition`` for each."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        rem = 0
        while parts and parts[-1] == 1:
            parts.pop()
            rem += 1
        if not parts:
            return
        parts[-1] -= 1
        rem += 1
        v = parts[-1]
        while rem > v:
            parts.append(v)
            rem -= v
        parts.append(rem)


def beta_mask(parts: tuple[int, ...]) -> int:
    """The canonical beta mask of a partition given by its parts.

    Bit ``parts[i] + r - 1 - i`` is set for each of the r rows; trailing
    ones, which zero parts would add, are shifted out.
    """
    r = len(parts)
    mask = 0
    for i, p in enumerate(parts):
        mask |= 1 << (p + r - 1 - i)
    return mask >> ((mask ^ (mask + 1)).bit_length() - 1)


def is_t_core(lam: Partition, t: int) -> bool:
    """True iff no hook length of lam is divisible by t.

    Divisible by, not merely equal to; the empty partition is a t-core
    for every t.  A hook of length kt implies one of length t, so this
    is the absence of a strip of length t.
    """
    if t < 1:
        raise ValueError("t must be positive")
    mask = beta_mask(lam.parts)
    return not (mask & ~(mask << t)) >> t
