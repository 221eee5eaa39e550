"""Exact arbitrary-precision counting of partitions, bounded partitions
and t-cores.

Three count families, all plain Python ints (never floats):

* p(n)        -- partitions of n, via Euler's pentagonal recurrence
                 p(m) = sum_k (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)];
* p_t(n)      -- partitions of n into parts of size at most t, via the
                 classic part-by-part DP;
* c_t(n)      -- t-core partitions of n, from the generating function
                 prod (1-q^{tk})^t / prod (1-q^k) = A_t(q^t) P(q), i.e.

                     c_t(n) = sum_{w <= n/t} a_t(w) p(n - t w),

                 where a_t(w) are the coefficients of the eta power
                 A_t(q) = prod_k (1-q^k)^t.  Taking the log-derivative of
                 A_t gives the exact recurrence

                     w a_t(w) = -t sum_{j=1..w} sigma(j) a_t(w - j),

                 with sigma the divisor sum, so one c_t(n) costs
                 O((n/t)^2) multiplications once p(0..n) is known.

The pentagonal recurrence is run as a C-level gather: while the cache
holds p(0..m-1), the term p(m - g) is p[-g], so the negative offsets of
the pentagonal numbers g <= m are kept in one list per sign and read
with an ``operator.itemgetter`` that is rebuilt only when a new
pentagonal number comes into range (about 500 times up to n = 10^5).
Each step is then two C-level sums, with no Python bytecode per term.

sigma comes from one sieve that grows on demand and is shared with the
eta series of ``asymptotics``.  A brute-force t-core counter over full
enumeration serves as the independent oracle for c_t at small n.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter, mul
from pathlib import Path

from .errors import GuardError
from .partitions import enumerate_partitions, is_t_core

BRUTEFORCE_GUARD = 40

_p_cache: list[int] = [1]
_sigma: list[int] = [0]  # _sigma[j] = sigma(j); _sigma[0] is a placeholder


def divisor_sums(limit: int) -> list[int]:
    """The shared sieve of sigma(j), the sum of the divisors of j, grown
    to cover 0 <= j <= limit.  The returned list may be longer than
    limit + 1; callers must not modify it."""
    global _sigma
    if limit >= len(_sigma):
        size = max(limit + 1, 2 * len(_sigma))
        sig = [0] * size
        for d in range(1, size):
            for m in range(d, size, d):
                sig[m] += d
        _sigma = sig
    return _sigma


def _pentagonal_pairs(limit: int):
    """Generalized pentagonal numbers g <= limit with the recurrence sign."""
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > limit:
            return
        sign = 1 if k % 2 else -1
        yield g1, sign
        g2 = k * (3 * k + 1) // 2
        if g2 <= limit:
            yield g2, sign
        k += 1


def _gather(offsets: list[int]):
    """itemgetter over offsets that always returns a tuple."""
    if len(offsets) > 1:
        return itemgetter(*offsets)
    if offsets:
        (i,) = offsets
        return lambda seq: (seq[i],)
    return lambda seq: ()


def partition_count(n: int) -> int:
    """Exact p(n), the number of partitions of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = _p_cache
    if n < len(p):
        return p[n]
    pos, neg = [], []  # -g for each pentagonal g <= m, by recurrence sign
    pending = _pentagonal_pairs(n)
    g, sign = next(pending)
    for m in range(len(p), n + 1):
        if g <= m:
            while g <= m:
                (pos if sign > 0 else neg).append(-g)
                g, sign = next(pending, (n + 1, 0))
            get_pos, get_neg = _gather(pos), _gather(neg)
        p.append(sum(get_pos(p)) - sum(get_neg(p)))
    return p[n]


def bounded_partition_count(t: int, n: int) -> int:
    """Exact p_t(n): partitions of n with every part at most t."""
    if t < 1:
        raise ValueError("t must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if t >= n:
        return partition_count(n)
    dp = [1] + [0] * n
    for part in range(1, t + 1):
        for m in range(part, n + 1):
            dp[m] += dp[m - part]
    return dp[n]


def _eta_power(t: int, limit: int) -> list[int]:
    """a_t(0..limit), the coefficients of prod_k (1-q^k)^t."""
    sigma = divisor_sums(limit)
    a = [1]
    for w in range(1, limit + 1):
        # sum_{j=1..w} sigma(j) a(w-j), pairing a(w-1), ..., a(0) with
        # sigma(1), sigma(2), ...; the division by w is exact
        a.append(-t * sum(map(mul, reversed(a), islice(sigma, 1, None))) // w)
    return a


def tcore_count(t: int, n: int) -> int:
    """Exact c_t(n), the number of t-core partitions of n."""
    if t < 1:
        raise ValueError("t must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    partition_count(n)
    # p[n::-t] is p(n), p(n-t), ..., p(n mod t)
    return sum(map(mul, _eta_power(t, n // t), _p_cache[n::-t]))


def tcore_count_bruteforce(t: int, n: int, guard: int = BRUTEFORCE_GUARD) -> int:
    """c_t(n) straight from the definition: enumerate and test hooks.

    Refuses n above the enumeration guard; this is an oracle, not a
    production path.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > guard:
        raise GuardError(f"brute-force t-core count limited to n <= {guard}, got {n}")
    return sum(1 for lam in enumerate_partitions(n) if is_t_core(lam, t))


# ---------------------------------------------------------------------------
# Persistent count tables

_MAGIC = b"CCTB"
_VERSION = 1
_KINDS = ("P", "P_BOUNDED", "TCORE")


@dataclass(frozen=True)
class CountTable:
    """Immutable dense table of exact counts.

    kind P holds p(0..limit_n); P_BOUNDED holds p_t(0..limit_n) for
    t = 0..limit_t; TCORE holds c_t(0..limit_n) for t = 1..limit_t.
    """

    kind: str
    limit_n: int
    limit_t: int | None
    rows: tuple[tuple[int, ...], ...]

    def value(self, n: int, t: int | None = None) -> int:
        if self.kind == "P":
            return self.rows[0][n]
        if t is None:
            raise ValueError(f"kind {self.kind} needs a t index")
        row = t if self.kind == "P_BOUNDED" else t - 1
        return self.rows[row][n]

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<HBII", _VERSION, _KINDS.index(self.kind),
                                 self.limit_n, 0 if self.limit_t is None else self.limit_t))
            fh.write(struct.pack("<I", len(self.rows)))
            for row in self.rows:
                fh.write(struct.pack("<I", len(row)))
                for v in row:
                    s = str(v).encode("ascii")
                    fh.write(struct.pack("<I", len(s)))
                    fh.write(s)

    @classmethod
    def load(cls, path: str | Path) -> "CountTable":
        """Read a table written by ``save``.  A file that is not a count
        table or ends early raises ValueError naming the file."""
        truncated = f"{path}: truncated count-table file"
        try:
            with open(path, "rb") as fh:
                if fh.read(4) != _MAGIC:
                    raise ValueError(f"{path}: not a count-table file")
                version, kind_idx, limit_n, limit_t = struct.unpack("<HBII", fh.read(11))
                if version != _VERSION:
                    raise ValueError(f"{path}: unsupported table version {version}")
                if kind_idx >= len(_KINDS):
                    raise ValueError(f"{path}: unknown table kind {kind_idx}")
                kind = _KINDS[kind_idx]
                (nrows,) = struct.unpack("<I", fh.read(4))
                rows = []
                for _ in range(nrows):
                    (rowlen,) = struct.unpack("<I", fh.read(4))
                    row = []
                    for _ in range(rowlen):
                        (slen,) = struct.unpack("<I", fh.read(4))
                        text = fh.read(slen)
                        if len(text) != slen:
                            raise ValueError(truncated)
                        row.append(int(text))
                    rows.append(tuple(row))
        except struct.error:  # a fixed-size field cut short
            raise ValueError(truncated) from None
        return cls(kind=kind, limit_n=limit_n,
                   limit_t=None if kind == "P" else limit_t, rows=tuple(rows))


def build_p_table(limit_n: int) -> CountTable:
    partition_count(limit_n)
    return CountTable("P", limit_n, None, (tuple(_p_cache[: limit_n + 1]),))


def build_bounded_table(limit_t: int, limit_n: int) -> CountTable:
    """p_t(n) for all 0 <= t <= limit_t, 0 <= n <= limit_n."""
    dp = [1] + [0] * limit_n
    rows = [tuple(dp)]
    for part in range(1, limit_t + 1):
        for m in range(part, limit_n + 1):
            dp[m] += dp[m - part]
        rows.append(tuple(dp))
    return CountTable("P_BOUNDED", limit_n, limit_t, tuple(rows))


def build_tcore_table(limit_t: int, limit_n: int) -> CountTable:
    """c_t(n) for all 1 <= t <= limit_t, 0 <= n <= limit_n."""
    partition_count(limit_n)
    p = _p_cache
    rows = []
    for t in range(1, limit_t + 1):
        a = _eta_power(t, limit_n // t)
        rows.append(tuple(sum(map(mul, a, p[m::-t])) for m in range(limit_n + 1)))
    return CountTable("TCORE", limit_n, limit_t, tuple(rows))


def table_path(cache_dir: str | Path, kind: str, limit_n: int,
               limit_t: int | None = None) -> Path:
    suffix = "" if limit_t is None else f"-t{limit_t}"
    return Path(cache_dir) / f"{kind.lower()}-n{limit_n}{suffix}.tbl"


def load_or_build(kind: str, limit_n: int, limit_t: int | None = None,
                  cache_dir: str | Path | None = None) -> CountTable:
    """Fetch a table from the cache directory, building and storing it
    on a miss.  With cache_dir=None the table is built in memory only."""
    if kind not in _KINDS:
        raise ValueError(f"unknown table kind {kind!r}")
    path = None
    if cache_dir is not None:
        path = table_path(cache_dir, kind, limit_n, limit_t)
        if path.exists():
            return CountTable.load(path)
    if kind == "P":
        table = build_p_table(limit_n)
    elif kind == "P_BOUNDED":
        table = build_bounded_table(limit_t, limit_n)
    else:
        table = build_tcore_table(limit_t, limit_n)
    if path is not None:
        table.save(path)
    return table
