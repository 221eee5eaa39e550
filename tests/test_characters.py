import math
import random
import sys

import pytest

from charcensus import characters
from charcensus.characters import character_table, character_value, zero_count
from charcensus.counting import build_bounded_table, partition_count, tcore_count
from charcensus.errors import GuardError
from charcensus.partitions import (
    Partition,
    beta_mask,
    enumerate_partitions,
    is_t_core,
    part_tuples,
)
from charcensus.sampling import _draw, estimate_zero_density
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


def _walk(cells):
    """{(beta mask, mu parts): value} for the (beta mask, mu parts)
    ``cells`` from one ``_values`` walk; the parts of mu are stripped in
    the order given.  The walk passes each count through, so a cell's
    index serves as its count."""
    keys = list(dict.fromkeys(cells))
    n = max(sum(mu) for _, mu in keys)
    counts = {characters._pair_key(lam, mu, n): i
              for i, (lam, mu) in enumerate(keys)}
    return {keys[i]: value for value, i in characters._values(counts, n)}


def _ordered(mu, order):
    """The parts of mu largest first, as ``character_value`` strips them,
    or smallest first; the value does not depend on the order."""
    return mu.parts if order == "largest" else mu.parts[::-1]


def _per_cell_rows(n, order):
    """The per-cell table build the column engine replaced: one
    character value per cell, all from one walk."""
    parts = list(enumerate_partitions(n))
    cells = [[(beta_mask(lam.parts), _ordered(mu, order)) for mu in parts]
             for lam in parts]
    values = _walk([cell for row in cells for cell in row])
    return tuple(tuple(values[cell] for cell in row) for row in cells)


@pytest.mark.parametrize("order", ["largest", "smallest"])
def test_table_matches_per_cell_oracle(order):
    for n in range(1, 17):
        assert character_table(n).rows == _per_cell_rows(n, order), n


@pytest.fixture()
def strip_calls(monkeypatch):
    """A list whose one item counts the ``_strip`` calls.  ``_strip`` is
    entered only on a memo miss and stores one state per entry, and the
    recursion looks it up by name, so the count is the number of states
    computed."""
    calls = [0]
    strip = characters._strip

    def counted(*args):
        calls[0] += 1
        return strip(*args)

    monkeypatch.setattr(characters, "_strip", counted)
    return calls


@pytest.mark.parametrize("n, pairs", [(40, 2000), (60, 300)])
def test_chi_on_masks_matches_tuple_oracle(strip_calls, n, pairs):
    # uniform pairs as the density estimator draws them, in one walk:
    # equal values, and no state computed twice, so the walk computes
    # as many states as the tuple oracle's shared memo holds
    table = build_bounded_table(n, n)
    rng = random.Random(n)
    cells = [(_draw(n, rng, table), _draw(n, rng, table)) for _ in range(pairs)]
    values = _walk([(beta_mask(lam), mu) for lam, mu in cells])
    oracle_memo = {}
    for lam, mu in cells:
        assert values[beta_mask(lam), mu] == chi_tuple(lam, mu, oracle_memo), (lam, mu)
    assert strip_calls[0] == len(oracle_memo)


def test_shared_memo_across_orders_and_sizes():
    # one walk serves both strip orders and every n: each value equals
    # the one a walk over that pair alone gives, and the tuple oracle's
    rng = random.Random(7)
    cells, oracle_memo = [], {}
    for _ in range(400):
        n = rng.randint(1, 24)
        table = build_bounded_table(n, n)
        lam, mu = P(_draw(n, rng, table)), P(_draw(n, rng, table))
        cells.append((lam, mu, rng.choice(["largest", "smallest"])))
    values = _walk([(beta_mask(lam.parts), _ordered(mu, order))
                    for lam, mu, order in cells])
    assert len({mu.size for _, mu, _ in cells}) > 1
    assert {order for *_, order in cells} == {"largest", "smallest"}
    for lam, mu, order in cells:
        cell = (beta_mask(lam.parts), _ordered(mu, order))
        assert values[cell] == _walk([cell])[cell], (lam, mu, order)
        assert values[cell] == chi_tuple(lam.parts, mu.parts, oracle_memo), (lam, mu)


def test_cold_evaluation_states_bounded_by_suffix_sizes(strip_calls):
    # each (mask, suffix) state is computed at most once, and the states
    # at mu[i:] are partitions of |mu[i:]|: a cold evaluation computes at
    # most sum_i p(|mu[i:]|) states, and a pair drawn again computes none
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 22)
        table = build_bounded_table(n, n)
        lam, mu = beta_mask(_draw(n, rng, table)), _draw(n, rng, table)
        key = characters._pair_key(lam, mu, n)
        strip_calls[0] = 0
        ((value, _),) = characters._values({key: 1}, n)
        states = strip_calls[0]
        assert 0 < states <= sum(partition_count(sum(mu[i:]))
                                 for i in range(len(mu))), (lam, mu)
        strip_calls[0] = 0
        assert list(characters._values({key: 2}, n)) == [(value, 2)]
        assert strip_calls[0] == states, (lam, mu)


def test_one_strip_call_per_added_state(strip_calls):
    # a cold evaluation calls _strip once per state, as many as the tuple
    # oracle memoizes; a walk that also asks for every one of those
    # states, or for pairs computed before, makes no further call
    rng = random.Random(40)
    cells, shared = [], {}
    for _ in range(200):
        n = rng.randint(1, 40)
        table = build_bounded_table(n, n)
        lam, mu = _draw(n, rng, table), _draw(n, rng, table)
        oracle_memo = {}
        value = chi_tuple(lam, mu, oracle_memo)
        chi_tuple(lam, mu, shared)
        cells.append((beta_mask(lam), mu))
        strip_calls[0] = 0
        assert _walk([cells[-1]]) == {cells[-1]: value}
        assert strip_calls[0] == len(oracle_memo) > 0, (lam, mu)
        states = [(beta_mask(sub), suffix) for sub, suffix in oracle_memo]
        strip_calls[0] = 0
        warm = _walk(states + [cells[-1]])
        assert warm == {(beta_mask(sub), suffix): v
                        for (sub, suffix), v in oracle_memo.items()}
        assert strip_calls[0] == len(oracle_memo), (lam, mu)
        strip_calls[0] = 0
        _walk(cells)
        assert strip_calls[0] == len(shared), (lam, mu)


def test_density_walk_strip_calls_pinned(strip_calls):
    # the states the suffix-ordered walk computes, each once: a walk
    # that lost its suffix grouping would compute some of them again
    assert estimate_zero_density(40, 2000, seed=11).zeros_observed == 704
    assert strip_calls[0] == 74437


@pytest.mark.parametrize("n, pairs", [(40, 2000), (60, 300)])
def test_live_memo_is_the_suffix_path(monkeypatch, n, pairs):
    # the memo nodes a walk holds at the start of each pair are exactly
    # the nodes of that mu's suffixes, ``levels``: a node the walk no
    # longer references is one only this test holds.  So the live memo
    # peaks well below the number of states the walk computes.
    held = {0: {}}
    alone = sys.getrefcount(held[0])  # references to a node held only here
    live, calls, peak = {}, 0, 0
    strip = characters._strip

    def watched(lam, mu, i, levels):
        nonlocal calls, peak
        calls += 1
        if i == 0:
            for node in levels:
                live.setdefault(id(node), node)
            for key in list(live):
                if sys.getrefcount(live[key]) <= alone:
                    del live[key]
            assert set(live) == set(map(id, levels)), mu
            peak = max(peak, sum(map(len, levels)))
        return strip(lam, mu, i, levels)

    monkeypatch.setattr(characters, "_strip", watched)
    table = build_bounded_table(n, n)
    rng = random.Random(n)
    _walk([(beta_mask(_draw(n, rng, table)), _draw(n, rng, table))
           for _ in range(pairs)])
    assert 0 < 4 * peak < calls, (peak, calls)


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


def _clear_store():
    characters._store = characters._Store(0, [])


def test_kept_levels_give_the_same_results_in_any_call_order():
    # each call extends the levels the calls before it kept; every result
    # equals the one built from an empty store
    fns = (zero_count, character_table)
    fresh = {}
    for n in range(1, 21):
        for fn in fns:
            _clear_store()
            fresh[fn, n] = fn(n)
    ascending = list(range(1, 21))
    shuffled = [7, 15, 2, 20, 11, 4, 18, 9, 1, 13, 16, 6, 19, 3, 12, 8, 17, 5, 14, 10]
    for order in (ascending, ascending[::-1], shuffled):
        for first in range(2):  # each function meets every n once per order
            _clear_store()
            for i, n in enumerate(order):
                fn = fns[(i + first) % 2]
                assert fn(n) == fresh[fn, n], (order, fn.__name__, n)


def _check_regular_character():
    """Check sum_lambda f_lambda chi_lambda(mu) = k! [mu = 1^k] at every
    kept size k and every kept lane, as one big int per size, with no
    second engine: f_lambda is lane 0, the class 1^k, the only suffix
    with first part 1."""
    width, levels = characters._store
    bias = 1 << (width - 1)
    for k, (rows, count) in enumerate(levels):
        base = bias * characters._ones(width, count[-1])
        total = sum(((row & ((1 << width) - 1)) - bias) * (row - base)
                    for row in rows.values())
        assert total == math.factorial(k), (width, k)


def _check_kept_rows_below(n):
    """The store holds the p(m) rows of every size m < n <= 20, at the
    32-bit width, and no row wider than its lanes."""
    width, levels = characters._store
    assert width == 32 and len(levels) == n
    for m, (rows, count) in enumerate(levels):
        assert len(rows) == partition_count(m), m
        assert all(row >> width * count[-1] == 0 for row in rows.values()), m


def test_census_keeps_the_levels_below_n():
    zero_count(20)
    _check_kept_rows_below(20)
    assert sum(len(rows) for rows, _ in characters._store.levels) == 2087
    _check_regular_character()


def test_census_pinned_above_the_guard(monkeypatch):
    monkeypatch.setattr(characters, "TABLE_GUARD", 30)
    assert zero_count(22).total_zeros == 395473
    assert zero_count(24).total_zeros == 970294
    assert zero_count(26).total_zeros == 2323476
    assert zero_count(28).total_zeros == 5349414
    assert characters._store.width == 50
    _check_regular_character()
    assert zero_count(30).total_zeros == 11963861
    # a call at the 32-bit width replaces the wider levels
    zero_count(20)
    _check_kept_rows_below(20)


def test_lane_width_holds_every_character():
    # |chi_lambda(mu)| <= f_lambda, so a lane of w bits in two's complement
    # holds every character once 2^(w-1) > max f_lambda; the rule is
    # w = max(32, floor(log2 sqrt(N!)) + 2), and 32 up to the table guard,
    # the width character_table decodes
    for n in range(1, 37):
        width = characters._lane_width(n)
        hooks = math.inf
        for parts in part_tuples(n):
            cols = [0] * parts[0]
            for p in parts:
                for j in range(p):
                    cols[j] += 1
            hooks = min(hooks, math.prod(p - j + cols[j] - i - 1
                                         for i, p in enumerate(parts)
                                         for j in range(p)))
        assert math.factorial(n) // hooks < 1 << (width - 1), n
        assert width >= max(32, (math.factorial(n).bit_length() - 1) // 2 + 2), n
        if n <= characters.TABLE_GUARD:
            assert width == 32, n


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
