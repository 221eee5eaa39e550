import functools
import inspect
import math
import operator
import random
import sys
from collections import Counter

import pytest

from charcensus import characters, partitions, sampling, values
from charcensus.characters import character_table, zero_count
from charcensus.counting import build_bounded_table, partition_count, tcore_count
from charcensus.errors import GuardError
from charcensus.partitions import (
    Partition,
    beta_mask,
    enumerate_partitions,
    is_t_core,
    part_tuples,
)
from charcensus.sampling import estimate_zero_density
from charcensus.values import character_value
import column_certificates
import column_oracle
from diagram_oracle import conjugate, hook_multiset
from draw_oracle import draw
from strip_oracle import beta_strips, chi_tuple, conjugate_mask, parts_of_mask

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
    ``cells`` from one ``_values`` walk up their keys; the parts of mu
    are stripped in the order given."""
    cells = list(dict.fromkeys(cells))
    n = max(sum(mu) for _, mu in cells)
    index = {values._pair_key(lam, mu, n): i for i, (lam, mu) in enumerate(cells)}
    keys = sorted(index)
    return {cells[index[key]]: value
            for key, value in zip(keys, values._values(keys, n))}


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
    got = _walk([cell for row in cells for cell in row])
    return tuple(tuple(got[cell] for cell in row) for row in cells)


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
    strip = values._strip

    def counted(*args):
        calls[0] += 1
        return strip(*args)

    monkeypatch.setattr(values, "_strip", counted)
    return calls


@pytest.mark.parametrize("n, pairs", [(40, 2000), (60, 300)])
def test_chi_on_masks_matches_tuple_oracle(strip_calls, n, pairs):
    # uniform pairs as the density estimator draws them, in one walk:
    # equal values, and no state computed twice, so the walk computes
    # as many states as the tuple oracle's shared memo holds
    table = build_bounded_table(n, n)
    rng = random.Random(n)
    cells = [(draw(n, rng, table), draw(n, rng, table)) for _ in range(pairs)]
    got = _walk([(beta_mask(lam), mu) for lam, mu in cells])
    oracle_memo = {}
    for lam, mu in cells:
        assert got[beta_mask(lam), mu] == chi_tuple(lam, mu, oracle_memo), (lam, mu)
    assert strip_calls[0] == len(oracle_memo)


def test_shared_memo_across_orders_and_sizes():
    # one walk serves both strip orders and every n: each value equals
    # the one a walk over that pair alone gives, and the tuple oracle's
    rng = random.Random(7)
    cells, oracle_memo = [], {}
    for _ in range(400):
        n = rng.randint(1, 24)
        table = build_bounded_table(n, n)
        lam, mu = P(draw(n, rng, table)), P(draw(n, rng, table))
        cells.append((lam, mu, rng.choice(["largest", "smallest"])))
    got = _walk([(beta_mask(lam.parts), _ordered(mu, order))
                 for lam, mu, order in cells])
    assert len({mu.size for _, mu, _ in cells}) > 1
    assert {order for *_, order in cells} == {"largest", "smallest"}
    for lam, mu, order in cells:
        cell = (beta_mask(lam.parts), _ordered(mu, order))
        assert got[cell] == _walk([cell])[cell], (lam, mu, order)
        assert got[cell] == chi_tuple(lam.parts, mu.parts, oracle_memo), (lam, mu)


def test_cold_evaluation_states_bounded_by_suffix_sizes(strip_calls):
    # each (mask, suffix) state is computed at most once, and the states
    # at mu[i:] are partitions of |mu[i:]|: a cold evaluation computes at
    # most sum_i p(|mu[i:]|) states, and a pair drawn again computes none
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 22)
        table = build_bounded_table(n, n)
        lam, mu = beta_mask(draw(n, rng, table)), draw(n, rng, table)
        key = values._pair_key(lam, mu, n)
        strip_calls[0] = 0
        (value,) = values._values([key], n)
        states = strip_calls[0]
        assert 0 < states <= sum(partition_count(sum(mu[i:]))
                                 for i in range(len(mu))), (lam, mu)
        strip_calls[0] = 0
        assert list(values._values([key, key], n)) == [value, value]
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
        lam, mu = draw(n, rng, table), draw(n, rng, table)
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


def test_density_walk_strip_calls_pinned(monkeypatch, strip_calls):
    # the states the suffix-ordered walk computes, each once: a walk
    # that lost its suffix grouping would compute some of them again.
    # With one worker the whole walk runs in this process.
    monkeypatch.setattr(sampling, "_workers", lambda: 1)
    assert estimate_zero_density(40, 2000, seed=11).zeros_observed == 704
    assert strip_calls[0] == 74437


@pytest.mark.parametrize("n, pairs", [(12, 3000), (40, 2000)])
def test_walk_down_matches_walk_up(strip_calls, n, pairs):
    # the same values in the opposite order, each state still computed
    # once: among pairs of sizes n/2..n, walking down, the mu that end in
    # a smaller mu come before it, and the states they stored at mu are
    # read, not computed again
    rng = random.Random(n)
    keys = set()
    for _ in range(pairs):
        size = rng.randint(n // 2, n)
        table = build_bounded_table(size, size)
        keys.add(values._pair_key(beta_mask(draw(size, rng, table)),
                                  draw(size, rng, table), n))
    keys = sorted(keys)
    up = list(values._values(keys, n))
    states, strip_calls[0] = strip_calls[0], 0
    assert list(values._values(keys[::-1], n)) == up[::-1]
    assert strip_calls[0] == states


@pytest.mark.parametrize("n, pairs", [(40, 2000), (60, 300)])
def test_live_memo_is_the_suffix_path(monkeypatch, n, pairs):
    # the memo nodes a walk holds at the start of each pair are exactly
    # the nodes of that mu's suffixes, ``levels``: a node the walk no
    # longer references is one only this test holds.  So the live memo
    # peaks well below the number of states the walk computes.
    held = {0: {}}
    alone = sys.getrefcount(held[0])  # references to a node held only here
    live, calls, peak = {}, 0, 0
    strip = values._strip

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

    monkeypatch.setattr(values, "_strip", watched)
    table = build_bounded_table(n, n)
    rng = random.Random(n)
    _walk([(beta_mask(draw(n, rng, table)), draw(n, rng, table))
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
    del characters._levels[1:]


def test_kept_levels_give_the_same_results_in_any_call_order():
    # each call builds only the sizes the calls before it left unbuilt,
    # and reads every kept size as it was built; every result equals the
    # one built from an empty store
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
    width = 32
    bias = 1 << (width - 1)
    for k, (rows, count, *_) in enumerate(characters._levels):
        base = bias * characters._ones(width, count[-1])
        total = sum(((row & ((1 << width) - 1)) - bias) * (row - base)
                    for row in rows.values())
        assert total == math.factorial(k), k


def _check_kept_rows_below(n):
    """The store holds the p(m) rows of every size m < n <= 20, at the
    32-bit width, and no row wider than its lanes."""
    levels = characters._levels
    assert len(levels) == n
    for m, (rows, count, *_) in enumerate(levels):
        assert len(rows) == partition_count(m), m
        assert all(row >> 32 * count[-1] == 0 for row in rows.values()), m


def _stripped_rows(levels, m, width):
    """The rows of level m as the engine built them before it derived
    half of them from their conjugates: every row stripped, block t the
    signed sum of the rows of level m - t at the strips of length t
    (``beta_strips``), cut to the block's lanes, biased, in place."""
    count = levels[m][1]
    rows = {}
    for lam in (beta_mask(p) for p in part_tuples(m)):
        row = 0
        for t in range(1, len(count)):
            size = count[t] - count[t - 1]
            keep = (1 << width * size) - 1
            total, net = 0, -1  # net strips, from -1: the bias of the block
            for odd, rem in beta_strips(lam, t):
                sign = -1 if odd else 1
                total += sign * (levels[m - t][0][rem] & keep)
                net += sign
            high = characters._ones(width, size) << (width - 1)
            row |= (total - net * high) << width * count[t - 1]
        rows[lam] = row
    return rows


def _odd_lanes(m, blocks, width):
    """The odd-lane mask of a level of size m with ``blocks`` blocks: its
    lanes are the suffixes s with s[0] <= blocks, first part ascending,
    each first part in reverse enumeration order; the lane of s is all
    ones when m - len(s) is odd."""
    lanes = [s for s in reversed(list(part_tuples(m))) if max(s, default=0) <= blocks]
    return sum((1 << width) - 1 << width * i
               for i, s in enumerate(lanes) if (m - len(s)) % 2)


def _check_levels_against_oracles(levels, m, width):
    """Level m's masks and conjugates in enumeration order, its odd
    lanes, and every row, derived ones included, equal to the oracles."""
    rows, count, masks, conjs, odd = levels[m]
    assert masks == [beta_mask(p) for p in part_tuples(m)], m
    assert conjs == list(map(conjugate_mask, masks)), m
    assert odd == _odd_lanes(m, len(count) - 1, width), m
    assert rows == _stripped_rows(levels, m, width), m


def test_census_keeps_the_levels_below_n():
    zero_count(20)
    _check_kept_rows_below(20)
    assert sum(len(rows) for rows, *_ in characters._levels) == 2087
    _check_regular_character()


def test_derived_level_rows_match_every_row_stripped():
    # the rows read off their conjugates' by lane sign, at every kept
    # size, equal the rows stripped one by one
    _clear_store()
    zero_count(20)
    assert characters._levels[0] == ({0: 1 + (1 << 31)}, [1], [0], [0], 0)
    for m in range(1, 20):
        _check_levels_against_oracles(characters._levels, m, 32)


def test_enumerated_conjugates_match_the_transpose():
    # every partition of size <= 30 and its conjugate, enumerated from
    # the smaller sizes as a local level above 20 is, against the mask
    # transpose oracle
    levels = [(None, [1], [0], [0], 0)]
    for m in range(1, 31):
        levels.append(characters._level(levels, m, m, 32))
        _, _, masks, conjs, _ = levels[m]
        assert masks == [beta_mask(p) for p in part_tuples(m)], m
        assert conjs == list(map(conjugate_mask, masks)), m


@pytest.mark.parametrize("m, lane", [(9, 0), (12, 7)])
def test_flipped_lane_parity_is_caught(monkeypatch, m, lane):
    # one lane of level m's odd mask flipped: the rows read off their
    # conjugates there go wrong, and so do the rows stripped from them;
    # the regular character on the kept levels, the table at m, which
    # builds its own level m, and the column certificates at 24, above
    # the guard, all catch it
    level = characters._level

    def flipped(levels, k, blocks, width):
        rows, count, masks, conjs, odd = level(levels, k, blocks, width)
        if k == m:
            odd ^= (1 << width) - 1 << width * lane
        return rows, count, masks, conjs, odd

    monkeypatch.setattr(characters, "_level", flipped)
    _clear_store()
    try:
        zero_count(20)
        with pytest.raises(AssertionError):
            _check_regular_character()
        assert character_table(m).rows != column_oracle.table_rows(m)
        monkeypatch.setattr(characters, "TABLE_GUARD", 24)
        assert column_certificates.certify(24)
    finally:
        _clear_store()


def test_kept_levels_are_final():
    # each size is built once, with the blocks of n = 20: a census at
    # n < 20 leaves sizes 0..n, and a call at a larger n appends sizes
    # and rewrites no kept one
    _clear_store()
    zero_count(14)
    _check_kept_rows_below(15)
    _check_regular_character()
    levels = characters._levels
    kept = [(level, (dict(level[0]), *map(list, level[1:4]), level[4]))
            for level in levels]
    zero_count(20)
    assert characters._levels is levels and len(levels) == 20
    for m, (level, copy) in enumerate(kept):
        assert levels[m] is level and level == copy, m
    _check_kept_rows_below(20)


@pytest.fixture()
def enumerations(monkeypatch):
    """A Counter of the sizes the engine enumerates: each size it builds,
    kept or local, and a top whose size is not kept."""
    calls = Counter()
    masks = characters._masks

    def counted(levels, m):
        calls[m] += 1
        return masks(levels, m)

    monkeypatch.setattr(characters, "_masks", counted)
    return calls


def test_census_range_builds_each_level_once(enumerations):
    # zero_count for N = 14..20 in one process, as the README states:
    # each census below 20 builds its own size too, so the engine
    # enumerates each size once, and every kept size m holds the blocks
    # t <= min(m, 20 - m) that the calls up to 20 read
    _clear_store()
    for n in range(14, 21):
        zero_count(n)
        assert len(characters._levels) == min(n + 1, 20), n
    assert enumerations == {m: 1 for m in range(1, 21)}
    assert [len(count) - 1 for _, count, *_ in characters._levels] \
        == [min(m, 20 - m) for m in range(20)]


def test_tables_leave_the_kept_levels_as_they_were(enumerations):
    # a table at n builds size n once, with every block, from the kept
    # sizes below it, and keeps none of it: after a census at 20 no kept
    # level changes, and from an empty store exactly sizes 0..n - 1 are
    # kept, each with the blocks of n = 20
    _clear_store()
    zero_count(20)
    levels = characters._levels
    kept = [(level, (dict(level[0]), *map(list, level[1:4]), level[4]))
            for level in levels]
    tables = {}
    for n in (*range(1, 21), *range(20, 0, -1)):
        enumerations.clear()
        tables[n] = character_table(n)
        assert tables[n].rows == column_oracle.table_rows(n), n
        assert enumerations == {n: 1}, n
        assert characters._levels is levels and len(levels) == 20, n
        for m, (level, copy) in enumerate(kept):
            assert levels[m] is level and level == copy, (n, m)
    for n in range(1, 21):
        _clear_store()
        enumerations.clear()
        assert character_table(n) == tables[n], n
        assert enumerations == {m: 1 for m in range(1, n + 1)}, n
        _check_kept_rows_below(n)
        assert [len(count) - 1 for _, count, *_ in characters._levels] \
            == [min(m, 20 - m) for m in range(n)], n
    _clear_store()


def _census_freeing_levels(n):
    """zero_count(n) above 20, checking the engine's levels at each top
    block it takes: block n - m comes right after size m is built, from
    t = n down to 2, and then only the sizes k with 2m - n <= k <= m
    hold rows, since size k is read last by size (n + k) // 2 and by
    block n - k, and each size k < m holds no lane above its block
    (n - k) // 2, the last a later size reads.  Every size keeps its lane
    counts; an unbuilt size keeps its mask order, conjugates and odd
    lanes, so ``_masks`` still enumerates, and a built one holds them no
    longer.  The rows of size m, half of them read off their conjugates,
    equal every row stripped.
    The stream gives every block, but the census takes none below 2,
    since block 1 is f_lambda > 0, so size n - 1 never holds rows.  The
    checks run at each (t, spec) ``_top_specs`` yields, so the kernel's
    calls that build the levels pass unchecked."""
    top_specs = characters._top_specs
    orders = [[beta_mask(p) for p in part_tuples(k)] for k in range(n)]
    expected = [([1], orders[0], [0], 0)] + [
        ([sum(1 for p in part_tuples(k) if p[0] <= t)
          for t in range(min(k, n - k) + 1)], order, list(map(conjugate_mask, order)),
         _odd_lanes(k, min(k, n - k), characters._lane_width(n)))
        for k, order in enumerate(orders) if k]
    seen = []  # the top blocks, in the order they are given
    engine = []  # the levels the census built

    def checked(levels, n, count, width):
        engine.append(levels)
        for t, spec in top_specs(levels, n, count, width):
            m = n - t
            held = [k for k, (rows, *_) in enumerate(levels) if isinstance(rows, dict)]
            assert held == list(range(max(2 * m - n, 0), m + 1)), (n, m, held)
            for k in held[:-1]:
                lanes = levels[k][1]
                top = 1 << width * lanes[min((n - k) // 2, len(lanes) - 1)]
                assert all(row < top for row in levels[k][0].values()), (n, m, k)
            assert spec[1] is levels[m][0]
            for k, level in enumerate(levels):  # size 0 is never built
                built = 0 < k <= m
                assert level[1:] == (expected[k][:1] + (None,) * 3 if built
                                     else expected[k]), (n, m, k)
            if m:
                assert levels[m][0] == _stripped_rows(levels, m, width), (n, m)
            seen.append(t)
            yield t, spec

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(characters, "_top_specs", checked)
        census = zero_count(n)
    assert seen == list(range(n, 1, -1))
    (levels,) = engine
    assert levels[n - 1][0] is None and levels[n - 1][1:] == expected[n - 1]
    return census


def test_census_freeing_check_catches_a_level_kept(monkeypatch):
    # the real _top_specs with every freed size's rows put back before
    # each yield: every level keeps its rows past its last reader, and
    # the held sizes are wrong at the first top block after one should
    # have been freed, size 0 at block 21 - 11
    top_specs = characters._top_specs

    def unfreed(levels, *args):
        built = {}
        for t, spec in top_specs(levels, *args):
            for k, (rows, *rest) in enumerate(levels):
                if rows is not None:
                    built[k] = rows
                elif k in built:
                    levels[k] = (built[k], *rest)
            yield t, spec

    monkeypatch.setattr(characters, "TABLE_GUARD", 21)
    monkeypatch.setattr(characters, "_top_specs", unfreed)
    with pytest.raises(AssertionError, match=r"^\(21, 11\b"):
        _census_freeing_levels(21)


def test_census_freeing_check_catches_a_level_uncut(monkeypatch):
    # the real _top_specs with each held size's rows put back whole
    # before each yield: the first size cut, 8 at n = 21, still holds
    # its blocks above (21 - 8) // 2 at the next top block
    top_specs = characters._top_specs

    def uncut(levels, *args):
        built = {}
        for t, spec in top_specs(levels, *args):
            for k, (rows, *_) in enumerate(levels):
                if rows is not None:
                    rows.update(built.setdefault(k, dict(rows)))
            yield t, spec

    monkeypatch.setattr(characters, "TABLE_GUARD", 21)
    monkeypatch.setattr(characters, "_top_specs", uncut)
    with pytest.raises(AssertionError, match=r"^\(21, 9, 8\)"):
        _census_freeing_levels(21)


def test_census_pinned_above_the_guard(monkeypatch, enumerations):
    zero_count(20)
    levels = characters._levels
    kept = list(levels)
    monkeypatch.setattr(characters, "TABLE_GUARD", 30)
    # lanes of 36 and 41 bits: the per-block zero test above 32 bits;
    # N = 21..26 also check which levels hold rows at each top block,
    # and every row of each level
    assert _census_freeing_levels(21).total_zeros == 239327
    census = _census_freeing_levels(22)
    assert census.total_zeros == 395473
    assert census.per_core_zeros == {
        1: 0, 2: 0, 3: 1570, 4: 3546, 5: 12682, 6: 26092, 7: 38830, 8: 71880,
        9: 101221, 10: 137215, 11: 166151, 12: 220745, 13: 242256, 14: 285105,
        15: 310451, 16: 337729, 17: 352250, 18: 368345, 19: 377150, 20: 385185,
        21: 390172, 22: 391635}
    assert _census_freeing_levels(23).total_zeros == 604113
    census = _census_freeing_levels(24)
    assert census.total_zeros == 970294
    assert census.per_core_zeros == {
        1: 0, 2: 0, 3: 2564, 4: 6088, 5: 22837, 6: 35516, 7: 77542, 8: 133973,
        9: 197548, 10: 285251, 11: 350055, 12: 473045, 13: 528252, 14: 634042,
        15: 704783, 16: 780196, 17: 822513, 18: 870332, 19: 898860, 20: 924576,
        21: 940265, 22: 953278, 23: 961668, 24: 964002}
    assert _census_freeing_levels(25).total_zeros == 1453749
    census = _census_freeing_levels(26)
    assert census.total_zeros == 2323476
    assert census.per_core_zeros == {
        1: 0, 2: 0, 3: 4006, 4: 6800, 5: 29770, 6: 74362, 7: 154395, 8: 250337,
        9: 394381, 10: 562493, 11: 706778, 12: 1014380, 13: 1119818, 14: 1371752,
        15: 1557858, 16: 1749632, 17: 1853224, 18: 2009608, 19: 2074482,
        20: 2158516, 21: 2208483, 22: 2248014, 23: 2274862, 24: 2297322,
        25: 2309273, 26: 2313368}
    census = zero_count(28)
    assert census.total_zeros == 5349414
    assert census.per_core_zeros == {
        1: 0, 2: 3559, 3: 0, 4: 14885, 5: 70341, 6: 125693, 7: 224537, 8: 457564,
        9: 747366, 10: 1064969, 11: 1416921, 12: 2014634, 13: 2278364,
        14: 2857378, 15: 3271399, 16: 3747258, 17: 4017607, 18: 4401758,
        19: 4588463, 20: 4830362, 21: 4959125, 22: 5080968, 23: 5163538,
        24: 5233806, 25: 5273708, 26: 5307052, 27: 5328042, 28: 5334136}
    assert zero_count(30).total_zeros == 11963861
    # a call above 20 keeps none of its wider levels: the module holds
    # the same 32-bit levels as before, and a census at 20 builds no size
    # below 20 again
    assert characters._levels is levels
    assert len(levels) == len(kept) and all(map(operator.is_, levels, kept))
    _check_kept_rows_below(20)
    enumerations.clear()
    assert zero_count(20).total_zeros == 155176
    assert enumerations == {20: 1}


def test_engine_enumerates_partitions_in_order(monkeypatch):
    # the masks each size's rows are built for, read from the smaller
    # levels, are part_tuples' masks in order: on the kept levels and on
    # the level each table builds and decodes, its own at every n;
    # the top's blocks hold the classes of each first part, to 26 (the
    # top rows' masks above 20 are checked with their conjugates)
    zero_count(20)
    for m, (rows, _, masks, *_) in enumerate(characters._levels):
        assert masks == [beta_mask(p) for p in part_tuples(m)], m
        assert rows.keys() == set(masks), m
    level = characters._level
    built = {}

    def recorded(levels, m, blocks, width):
        built[m] = level(levels, m, blocks, width)
        return built[m]

    monkeypatch.setattr(characters, "_level", recorded)
    for n in range(1, 27):
        firsts = [sum(1 for p in part_tuples(n) if p[0] == t) for t in range(1, n + 1)]
        if n <= 20:
            character_table(n)
            _, count, masks, *_ = built.pop(n)
            assert masks == [beta_mask(p) for p in part_tuples(n)], n
            assert [b - a for a, b in zip(count, count[1:])] == firsts, n
        count = characters._packed_rows(n)[2]
        assert [b - a for a, b in zip(count, count[1:])] == firsts, n


def test_engine_top_rows_are_the_half_below_their_conjugates():
    # the rows lambda <= lambda', in enumeration order, each with the
    # mask of the transposed diagram
    for n in (*range(1, 21), 22):
        lams, conjs, _ = column_certificates.top_blocks(n)
        assert lams == column_certificates.top_masks(n), n
        for mask, conj in zip(lams, conjs):
            assert conj == beta_mask(conjugate(P(parts_of_mask(mask))).parts), (n, mask)


class _CountedReads(dict):
    """A level's rows that count their reads: each border strip the
    engine runs reads the row of its remainder once, and a top row with
    copied blocks reads its kept row once."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _strips(masks, t):
    """The border strips of length t of the partitions ``masks``."""
    return sum(len(beta_strips(mask, t)) for mask in masks)


def _tally_reads(masks, t):
    """The rows of size n - t the census's tally of block t reads for the
    rows ``masks`` of size n: one per strip of a row with several strips
    of length t, and one per distinct remainder of the rows with one,
    since a memo hit reads no row."""
    reads, rems = 0, set()
    for mask in masks:
        strips = beta_strips(mask, t)
        if len(strips) == 1:
            rems.add(strips[0][1])
        else:
            reads += len(strips)
    return reads + len(rems)


@pytest.mark.parametrize("fresh", [False, True])
def test_top_below_20_copies_the_kept_blocks(fresh):
    # at n < 20 the top runs no strip of length t <= 20 - n: it copies
    # those blocks out of size n's kept rows.  Each strip reads the row
    # of its remainder at size n - t once, so the reads there count the
    # strips the call ran: those of size n's top rows for its kept blocks
    # t <= min(n, 20 - n), when the call builds size n (its other rows
    # are read off their conjugates'), and the census's tally of the top
    # rows for t > 20 - n, whose one-strip rows read each remainder once
    # (``_tally_reads``).
    for n in range(1, 20):
        _clear_store()
        if n > 1 or not fresh:
            zero_count(n - 1 if fresh else n)
        levels = characters._levels
        levels[:] = [(_CountedReads(rows), *rest) for rows, *rest in levels]
        zero_count(n)
        assert len(levels) == n + 1
        top = column_certificates.top_masks(n)
        for t in range(1, n + 1):
            built = _strips(top, t) if fresh and t <= 20 - n else 0
            stripped = _tally_reads(top, t) if t > 20 - n else 0
            assert levels[n - t][0].reads == built + stripped, (n, t)
        if not fresh:  # one read of each top row's kept row
            assert levels[n][0].reads == len(top), n
    _clear_store()


def test_engine_rows_need_no_part_tuples(monkeypatch):
    # no census or table path enumerates partitions or builds a beta
    # mask for the engine's rows: the table reads part_tuples only
    # through enumerate_partitions, for the partitions it returns
    def fail(*args):
        raise AssertionError("beta_mask called")

    monkeypatch.setattr(characters, "TABLE_GUARD", 22)
    expected = {}
    for n in (12, 20, 22):
        _clear_store()
        expected[n] = zero_count(n), n <= 20 and character_table(n)
    assert not hasattr(characters, "part_tuples")
    assert not hasattr(characters, "beta_mask")
    monkeypatch.setattr(partitions, "beta_mask", fail)
    for n in (12, 20, 22):
        _clear_store()
        assert (zero_count(n), n <= 20 and character_table(n)) == expected[n], n


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
    # the levels kept between calls are those of the 32-bit widths
    last = characters._KEPT_N
    assert characters._lane_width(last) == 32 < characters._lane_width(last + 1)


@pytest.mark.parametrize("n", range(1, 27))
def test_column_certificates_hold(n):
    # every lane of every top block, above the table guard too, where no
    # oracle reaches; the decoded squares are kept to n <= 24 for time
    assert column_certificates.certify(n, squares=n <= 24) == set()


def _mutated(blocks, row, t, change):
    """``blocks``, a dict of each block t of the top rows, with block t
    of the given row replaced by ``change(block)``."""
    blocks = dict(blocks)
    blocks[t] = list(blocks[t])
    blocks[t][row] = change(blocks[t][row])
    return blocks.items()


def _plus_one(n, t, parity):
    """A change that adds 1 to the first lane of block t whose class mu
    has sgn(mu) = (-1)^parity, in the block's two's complement."""
    width = characters._lane_width(n)
    mus = [mu for mu in reversed(list(part_tuples(n))) if mu[0] == t]
    lane = next(i for i, mu in enumerate(mus) if (n - len(mu)) % 2 == parity)
    high = characters._ones(width, len(mus)) << (width - 1)
    return lambda block: ((block ^ high) + (1 << width * lane)) ^ high


def test_column_certificates_catch_mutations():
    # at n = 24, above the guard, where no oracle reaches
    failures = column_certificates.failures
    n = 24
    lams, conjs, blocks = column_certificates.top_blocks(n)
    blocks = {t: block for t, _, block in blocks}
    row = 100  # a conjugate pair, with a nonzero block 5
    assert lams[row] != conjs[row] and blocks[5][row] != 0
    assert failures(n, lams, conjs, _mutated(blocks, row, 5, lambda block: 0))
    assert failures(n, lams, conjs, _mutated(blocks, row, 5, _plus_one(n, 5, 0)))
    # an odd lane of a pair row cancels against the conjugate row in the
    # linear sums; only the squares see it
    assert failures(n, lams, conjs, _mutated(blocks, row, 5, _plus_one(n, 5, 1)),
                    squares=True) == {"orthogonality"}


def _strip_pass(n):
    """Every top block at n, t = n down to 1, in the one pass
    ``column_certificates.top_blocks`` strips them in, each with the
    census kernel's tally of it (``column_certificates.tally``): the top
    masks and a list of (t, zeros, nonzero, lanes, cores, reads), with
    ``lanes`` each top row's nonzero lanes decoded from the stripped
    block and ``reads`` the rows of size n - t the tally read."""
    width = characters._lane_width(n)
    digit = (1 << width) - 1
    lams, conjs, blocks = column_certificates.top_blocks(n)
    passed = []
    for t, spec, block in blocks:
        prev = _CountedReads(spec[1])
        zeros, nonzero, cores = column_certificates.tally(n, lams, conjs,
                                                          (t, prev, *spec[2:]))
        lanes = range(0, spec[2].bit_length(), width)
        decoded = [sum(1 for i in lanes if row >> i & digit) for row in block]
        passed.append((t, zeros, nonzero, decoded, cores, prev.reads))
    return lams, passed


# the three per-N tests below read one pass each N; the mutant tests
# call ``_strip_pass`` itself, so no mutant's pass is kept
_block_pass = functools.cache(_strip_pass)


def _check_tally(n, lams, passed, long):
    """The census kernel's tally of each top block of ``passed``, from
    t = n down, the blocks t > n/2 if ``long`` and the others if not,
    against the stripped block, lane by lane: each top row's nonzero
    lanes, and the block's list of the rows with no strip of length t, in
    row order.  The one-strip rows read their counts from the memo, so
    the tally reads as many rows of size n - t as ``_tally_reads``
    counts."""
    for t, _, nonzero, decoded, cores, reads in passed:
        if (t > n // 2) != long:
            continue
        assert nonzero == decoded, (n, t)
        assert cores == [i for i, lam in enumerate(lams) if not beta_strips(lam, t)], (n, t)
        assert reads == _tally_reads(lams, t), (n, t)


@pytest.mark.parametrize("n", range(1, 27))
def test_large_part_blocks_in_closed_form(n):
    # for t > n/2 a partition of n has at most one t-hook: the t-cores
    # give c_t(n) p(n - t) zeros in block t, and the t partitions that
    # remove to each kappa |- n - t have kappa's zeros there, so the
    # tallied zeros are Z^(t)(n) = c_t(n) p(n - t) + t Z(n - t), with
    # Z(0) = 0; above the table guard this checks single lanes where no
    # oracle reaches.  To 20 the tallied zeros of all blocks sum to Z.
    _, passed = _block_pass(n)
    zeros = {t: block_zeros for t, block_zeros, *_ in passed}
    if n <= 20:
        assert sum(zeros.values()) == zero_count(n).total_zeros
    for t in range(n // 2 + 1, n + 1):
        below = zero_count(n - t).total_zeros if t < n else 0
        assert zeros[t] == tcore_count(t, n) * partition_count(n - t) + t * below, t


@pytest.mark.parametrize("n", range(1, 27))
def test_long_blocks_match_the_strip_kernel(n):
    # above 20 too: the blocks t > n/2, where a row has at most one
    # t-strip, so every row with one reads its remainder's count from the
    # memo; to 16 those strips also against the diagram's hook lengths
    _check_tally(n, *_block_pass(n), long=True)
    if n <= 16:
        for parts in part_tuples(n):
            strips = [len(beta_strips(beta_mask(parts), t)) for t in range(n // 2 + 1, n + 1)]
            assert max(strips) <= 1, parts
            assert sorted(t for t, k in zip(range(n // 2 + 1, n + 1), strips) if k) \
                == sorted(h for h in hook_multiset(P(parts)) if h > n // 2), parts


@pytest.mark.parametrize("n", range(1, 27))
def test_census_tally_matches_the_stripped_blocks(n):
    # above 20 too: the blocks t <= n/2, the one-strip rows' memo among
    # the rows with several strips; below 20 the blocks the census copies
    # from the kept rows are stripped and tallied too.  The stream gives
    # every block, t = n down to 1.
    lams, passed = _block_pass(n)
    assert [t for t, *_ in passed] == list(range(n, 0, -1)), n
    _check_tally(n, lams, passed, long=False)


def _mutant_kernel(*changes, memo=None):
    """``characters._strip_block`` with each (old, new) of ``changes``
    made in its source, compiled in the module's namespace, with
    ``memo`` a global."""
    source = inspect.getsource(characters._strip_block)
    for old, new in changes:
        assert old in source
        source = source.replace(old, new)
    namespace = {**vars(characters), "memo": memo}
    exec(source, namespace)
    return namespace["_strip_block"]


def test_long_block_check_catches_mutants(monkeypatch):
    # a memo keyed by lambda, not by its remainder kappa, never hits, so
    # it reads a row for every one-strip row: at t = n the hooks (n - k,
    # 1^k) all leave the empty partition.  One kept across blocks, a
    # module global, holds the counts of every census before the check:
    # after a census at 20 it reads no row for the empty partition at
    # t = 12 when n = 12 is checked (and from t = 5 down it would give
    # the counts of the census's wider blocks)
    by_lam = _mutant_kernel(("memo.get(rem)", "memo.get(lam)"), ("memo[rem]", "memo[lam]"))
    kept = _mutant_kernel(("    memo = {}", "    pass"), memo={})
    for mutant in (by_lam, kept):
        with monkeypatch.context() as patch:
            patch.setattr(characters, "_strip_block", mutant)
            zero_count(20)
            with pytest.raises(AssertionError, match=r"^\(12, 12\)"):
                _check_tally(12, *_strip_pass(12), long=True)


def test_tally_check_catches_core_list_mutants(monkeypatch):
    # a kernel that lists no t-core, and one that also lists every row
    # with a strip of length t, each fail the first block checked, long
    # (t = 12 at n = 12, the hooks against the rest) and short (t = 6)
    none = _mutant_kernel(("cores.append(i)", "pass"))
    every = _mutant_kernel(("        if not starts:\n",
                            "        if starts and cores is not None:\n"
                            "            cores.append(i)\n"
                            "        if not starts:\n"))
    for mutant in (none, every):
        for long, t in ((True, 12), (False, 6)):
            with monkeypatch.context() as patch:
                patch.setattr(characters, "_strip_block", mutant)
                with pytest.raises(AssertionError, match=rf"^\(12, {t}\)"):
                    _check_tally(12, *_strip_pass(12), long=long)


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
