import functools
import math
import random

import pytest

from charcensus import characters
from charcensus.characters import (
    character_table,
    character_value,
    lower_bound_partial,
    lower_bound_sum,
    zero_count,
)
from charcensus.counting import build_bounded_table, partition_count, tcore_count
from charcensus.errors import GuardError
from charcensus.partitions import (
    Partition,
    beta_mask,
    enumerate_partitions,
    is_t_core,
)
from charcensus.sampling import _draw
import column_oracle
from diagram_oracle import conjugate, hook_multiset
from strip_oracle import chi_tuple

P = Partition


def class_size(mu):
    """Number of elements of S_n with cycle type mu, exactly: n! over
    the centralizer order prod_k k^(m_k) m_k!."""
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
    num = math.factorial(mu.size)
    assert num % centralizer == 0
    return num // centralizer


def test_base_case():
    assert character_value(P([]), P([])) == 1


def test_single_strip_step():
    assert character_value(P([2, 1]), P([3])) == -1


def test_core_row_vanishes():
    # (4,2,1) is a 5-core and mu has a part 5
    assert character_value(P([4, 2, 1]), P([5, 2])) == 0


def test_identity_column_is_dimension():
    assert character_value(P([4, 2, 1]), P([1] * 7)) == 35


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        character_value(P([2, 1]), P([2]))


def test_table_n1():
    t = character_table(1)
    assert t.rows == ((1,),)


def test_table_n3_row():
    t = character_table(3)
    # columns in enumeration order: (3), (2,1), (1,1,1)
    assert [p.parts for p in t.partitions] == [(3,), (2, 1), (1, 1, 1)]
    i = t.partitions.index(P([2, 1]))
    assert t.rows[i] == (-1, 0, 2)


def test_table_guard():
    with pytest.raises(GuardError):
        character_table(21)
    with pytest.raises(GuardError):
        zero_count(25)


def test_column_orthogonality_n5():
    t = character_table(5)
    dims = [row[-1] for row in t.rows]  # mu = (1^5) is the last column
    assert sum(d * d for d in dims) == math.factorial(5)


def test_row_orthogonality():
    for n in range(2, 11):
        t = character_table(n)
        sizes = [class_size(mu) for mu in t.partitions]
        fact = math.factorial(n)
        for i, ri in enumerate(t.rows):
            for j in range(i, len(t.rows)):
                s = sum(c * a * b for c, a, b in zip(sizes, ri, t.rows[j]))
                assert s == (fact if i == j else 0)


def _value(lam, mu, memo, order):
    """The character at (lam, mu), stripping the parts of mu largest
    first, as ``character_value`` does, or smallest first; the value
    does not depend on the order."""
    parts = mu.parts if order == "largest" else mu.parts[::-1]
    return characters._chi(beta_mask(lam.parts), parts, memo)


def _per_cell_rows(n, order):
    """The per-cell table build the column engine replaced: one
    character value per cell with a shared memo."""
    parts = list(enumerate_partitions(n))
    memo = {}
    return tuple(tuple(_value(lam, mu, memo, order) for mu in parts) for lam in parts)


@pytest.mark.parametrize("order", ["largest", "smallest"])
def test_table_matches_per_cell_oracle(order):
    for n in range(1, 17):
        assert character_table(n).rows == _per_cell_rows(n, order), n


def _memo_states(node):
    """The (lambda mask, mu suffix) states held in a character memo trie:
    keys >= 0 of a node are masks, key -t leads to a child node."""
    return sum(_memo_states(v) if k < 0 else 1 for k, v in node.items())


@pytest.mark.parametrize("n, pairs", [(40, 2000), (60, 300)])
def test_chi_on_masks_matches_tuple_oracle(n, pairs):
    # uniform pairs as the density estimator draws them, one shared memo
    # per side: equal values and an equal number of memoized states
    table = build_bounded_table(n, n)
    rng = random.Random(n)
    memo, oracle_memo = {}, {}
    for _ in range(pairs):
        lam, mu = _draw(n, rng, table), _draw(n, rng, table)
        assert characters._chi(beta_mask(lam), mu, memo) \
            == chi_tuple(lam, mu, oracle_memo), (lam, mu)
    assert _memo_states(memo) == len(oracle_memo)


def test_shared_memo_across_orders_and_sizes():
    # one memo serves both strip orders and every n: each value equals
    # the one a fresh memo gives, and the tuple oracle's
    rng = random.Random(7)
    shared, oracle_memo = {}, {}
    for _ in range(400):
        n = rng.randint(1, 24)
        table = build_bounded_table(n, n)
        lam, mu = P(_draw(n, rng, table)), P(_draw(n, rng, table))
        order = rng.choice(["largest", "smallest"])
        value = _value(lam, mu, shared, order)
        assert value == _value(lam, mu, {}, order), (lam, mu, order)
        assert value == chi_tuple(lam.parts, mu.parts, oracle_memo), (lam, mu)
    assert _memo_states(shared) > 0


def test_cold_evaluation_states_bounded_by_suffix_sizes():
    # each (mask, suffix) state misses the memo at most once, and the
    # states at mu[i:] are partitions of |mu[i:]|: a cold evaluation adds
    # at most sum_i p(|mu[i:]|) states, and a repeat on its memo adds none
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 22)
        table = build_bounded_table(n, n)
        lam, mu = _draw(n, rng, table), _draw(n, rng, table)
        memo = {}
        value = characters._chi(beta_mask(lam), mu, memo)
        states = _memo_states(memo)
        assert 0 < states <= sum(partition_count(sum(mu[i:]))
                                 for i in range(len(mu))), (lam, mu)
        assert characters._chi(beta_mask(lam), mu, memo) == value
        assert _memo_states(memo) == states, (lam, mu)


def test_zero_census_small():
    assert zero_count(1).total_zeros == 0
    assert zero_count(3).total_zeros == 1


def test_streaming_census_matches_table_census():
    for n in range(1, 17):
        table = character_table(n)
        census = zero_count(n)
        assert census.table_dim == len(table.rows), n
        assert census.total_zeros == sum(row.count(0) for row in table.rows), n
        for t in range(1, n + 1):
            assert census.per_core_zeros[t] == sum(
                row.count(0) for lam, row in zip(table.partitions, table.rows)
                if is_t_core(lam, t)), (n, t)


def test_zero_census_n20_pinned():
    assert zero_count(20).total_zeros == 155176


def test_census_and_table_match_memo_oracle():
    # every row of the memoized engine against the conjugate-pair rows
    for n in range(1, 21):
        census = zero_count(n)
        assert (census.total_zeros, census.per_core_zeros) == column_oracle.census(n), n
        assert character_table(n).rows == column_oracle.table_rows(n), n


def test_conjugate_rows_differ_by_sign():
    # chi at lambda' is sgn(mu) chi at lambda, on the oracle's rows and
    # on the table built from half of them
    for n in range(1, 15):
        table = character_table(n)
        index = {lam: i for i, lam in enumerate(table.partitions)}
        signs = [(-1) ** (n - len(mu)) for mu in table.partitions]
        for rows in (column_oracle.table_rows(n), table.rows):
            for lam, row in zip(table.partitions, rows):
                assert rows[index[conjugate(lam)]] \
                    == tuple(s * v for s, v in zip(signs, row)), (n, lam)


def test_census_pinned_above_the_guard(monkeypatch):
    monkeypatch.setattr(characters, "TABLE_GUARD", 24)
    assert zero_count(22).total_zeros == 395473
    assert zero_count(24).total_zeros == 970294


def test_census_per_core_consistency():
    z = zero_count(10)
    table = character_table(10)
    for t in range(1, 11):
        direct = sum(
            sum(1 for v in row if v == 0)
            for lam, row in zip(table.partitions, table.rows)
            if is_t_core(lam, t)
        )
        assert z.per_core_zeros[t] == direct
        assert z.per_core_zeros[t] <= z.total_zeros
    assert z.total_zeros <= z.table_dim ** 2


def test_census_json_shape():
    d = zero_count(5).to_json_dict()
    assert d["N"] == 5
    assert d["p_N"] == "7"
    assert set(d["Z_t"]) == {str(t) for t in range(1, 6)}
    assert all(isinstance(v, str) for v in d["Z_t"].values())


def test_lower_bound_small_values():
    assert lower_bound_sum(1) == 0
    assert lower_bound_sum(3) == 1


def test_lower_bound_additivity():
    n = 12
    assert lower_bound_partial(n, 1, n) == lower_bound_sum(n)
    assert lower_bound_partial(n, 1, 5) + lower_bound_partial(n, 6, n) \
        == lower_bound_sum(n)
    with pytest.raises(ValueError):
        lower_bound_partial(n, 5, 3)
    with pytest.raises(ValueError):
        lower_bound_partial(n, 0, 3)


def _lower_bound_partial_oracle(n, t_lo, t_hi):
    """The earlier loop: brings p_t(m) up to date for every m <= n."""
    dp = [1] + [0] * n
    total = 0
    for t in range(1, t_hi + 1):
        for m in range(t, n + 1):
            dp[m] += dp[m - t]
        if t >= t_lo:
            total += tcore_count(t, n) * dp[n - t]
    return total


def test_lower_bound_partial_matches_full_loop_oracle(monkeypatch):
    # every 1 <= t_lo <= t_hi <= n <= 60; the oracle is additive in t,
    # so its one-term values give every range; c_t is memoized to keep
    # the 37k calls cheap (it is tested against its own oracles)
    monkeypatch.setattr(characters, "tcore_count", functools.cache(tcore_count))
    for n in range(1, 61):
        prefix = [0]
        for t in range(1, n + 1):
            prefix.append(prefix[-1] + _lower_bound_partial_oracle(n, t, t))
        for t_lo in range(1, n + 1):
            for t_hi in range(t_lo, n + 1):
                assert lower_bound_partial(n, t_lo, t_hi) \
                    == prefix[t_hi] - prefix[t_lo - 1], (n, t_lo, t_hi)
    assert lower_bound_sum(1000) == _lower_bound_partial_oracle(1000, 1, 1000)


def test_lower_bound_below_exact_census():
    assert lower_bound_sum(12) <= zero_count(12).total_zeros


def test_class_sizes_sum_to_group_order():
    for n in range(1, 11):
        assert sum(class_size(mu) for mu in enumerate_partitions(n)) \
            == math.factorial(n)


def test_identity_class_is_singleton():
    assert class_size(P([1] * 8)) == 1
    assert class_size(P([8])) == math.factorial(7)


def test_first_column_matches_hook_formula():
    for n in range(1, 13):
        t = character_table(n)
        for lam, row in zip(t.partitions, t.rows):
            dim = math.factorial(n) // math.prod(hook_multiset(lam))
            assert row[-1] == dim


def test_strip_bound_at_n12():
    z = zero_count(12)
    for t in range(1, 13):
        assert z.per_core_zeros[t] >= tcore_count(t, 12) * partition_count(12 - t)
