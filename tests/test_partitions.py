import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from charcensus.partitions import (
    Partition,
    beta_mask,
    conjugate_mask,
    enumerate_partitions,
    is_t_core,
    parse_partition,
    part_tuples,
)
from charcensus.counting import build_bounded_table
from diagram_oracle import conjugate, hook_multiset
from draw_oracle import draw
from strip_oracle import beta_strips, parts_of_mask, raw_strips


@st.composite
def partitions(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    remaining = n
    cap = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return Partition(parts)


def test_partition_validation():
    assert Partition([]).size == 0
    assert Partition([4, 2, 1]).size == 7
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_text_round_trip():
    assert str(Partition([4, 2, 1])) == "[4,2,1]"
    assert str(Partition([])) == "[]"
    assert parse_partition("[4,2,1]") == Partition([4, 2, 1])
    assert parse_partition("[]") == Partition([])
    assert parse_partition(" [ 3 , 1 ] ".replace(" ", "")) == Partition([3, 1])
    with pytest.raises(ValueError):
        parse_partition("4,2,1")
    with pytest.raises(ValueError):
        parse_partition("[a]")


def test_enumerate_zero_yields_only_empty():
    assert list(enumerate_partitions(0)) == [Partition([])]


def test_enumerate_four_reverse_lex():
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_seven_has_fifteen():
    assert len(list(enumerate_partitions(7))) == 15


def test_enumerate_counts_match_recurrence():
    from charcensus.counting import partition_count

    for n in range(0, 31):
        assert len(list(enumerate_partitions(n))) == partition_count(n)


def test_part_tuples_match_enumeration():
    for n in range(0, 21):
        assert list(part_tuples(n)) == [p.parts for p in enumerate_partitions(n)]
    with pytest.raises(ValueError):
        list(part_tuples(-1))


def test_conjugate_mask_matches_transpose():
    # (4,2,1)' = (3,2,1,1): its mask 0b1010110 is 0b1001010 reversed and
    # complemented
    assert conjugate_mask(0b1001010) == beta_mask((3, 2, 1, 1)) == 0b1010110
    assert conjugate_mask(0) == 0
    lams = [lam for n in range(0, 21) for lam in enumerate_partitions(n)]
    # up to n = 40 and masks of several bytes, wider than 64 bits
    rng = random.Random(40)
    for n in range(21, 41):
        table = build_bounded_table(n, n)
        lams += [Partition(draw(n, rng, table)) for _ in range(50)]
        lams += [Partition((n,)), Partition((1,) * n)]
    lams += [Partition(parts) for parts in [(70,), (1,) * 70, (65, 1), (33, 32, 1, 1),
                                            tuple(range(14, 0, -1)), (8,) * 8 + (1,) * 56]]
    widths = set()
    for lam in lams:
        mask = beta_mask(lam.parts)
        widths.add(mask.bit_length())
        assert conjugate_mask(mask) == beta_mask(conjugate(lam).parts), lam
        assert conjugate_mask(conjugate_mask(mask)) == mask
    assert widths >= set(range(2, 42)) and max(widths) > 64


def test_hook_multiset_421():
    assert Counter(hook_multiset(Partition([4, 2, 1]))) == Counter([6, 4, 3, 2, 1, 1, 1])


def test_hook_multiset_empty_and_column():
    assert hook_multiset(Partition([])) == []
    assert Counter(hook_multiset(Partition([1, 1, 1]))) == Counter([3, 2, 1])


def test_beta_mask_canonical():
    # rows of (4,2,1) set bits 4+2, 2+1 and 1+0; zero parts add trailing
    # ones, which are shifted out
    assert beta_mask((4, 2, 1)) == 0b1001010
    assert beta_mask((4, 2, 1, 0, 0)) == 0b1001010
    assert beta_mask(()) == beta_mask((0, 0)) == 0
    for n in range(0, 13):
        masks = set()
        for lam in enumerate_partitions(n):
            mask = beta_mask(lam.parts)
            assert parts_of_mask(mask) == lam.parts
            masks.add(mask)
        assert len(masks) == len(list(enumerate_partitions(n)))


def test_strips_421_length5_empty():
    assert beta_strips(beta_mask((4, 2, 1)), 5) == []
    assert raw_strips((4, 2, 1), 5) == []


def test_strips_single_box():
    assert beta_strips(beta_mask((1,)), 1) == [(0, 0)]
    assert raw_strips((1,), 1) == [(0, 0, ())]


def test_strips_21_length3():
    assert beta_strips(beta_mask((2, 1)), 3) == [(1, 0)]
    assert raw_strips((2, 1), 3) == [(0, 1, ())]


def test_beta_strips_match_raw_strips_oracle():
    # every partition of m <= 18 and every 1 <= t <= m, as multisets of
    # (sign, remainder) with the remainder decoded and re-encoded
    for m in range(1, 19):
        for lam in enumerate_partitions(m):
            mask = beta_mask(lam.parts)
            for t in range(1, m + 1):
                got = beta_strips(mask, t)
                assert all(beta_mask(parts_of_mask(rem)) == rem for _, rem in got)
                assert Counter((-1 if odd else 1, parts_of_mask(rem)) for odd, rem in got) \
                    == Counter((-1 if h % 2 else 1, rem)
                               for _, h, rem in raw_strips(lam.parts, t)), (lam, t)


def test_is_t_core_421():
    lam = Partition([4, 2, 1])
    assert is_t_core(lam, 5)
    assert not is_t_core(lam, 2)
    for t in range(1, 10):
        assert is_t_core(Partition([]), t)


@given(partitions(), st.integers(min_value=1, max_value=12))
def test_strip_removal_consistency(lam, t):
    for odd, rem in beta_strips(beta_mask(lam.parts), t):
        remainder = Partition(parts_of_mask(rem))
        assert odd in (0, 1)
        assert remainder.size == lam.size - t
        assert len(hook_multiset(remainder)) == lam.size - t


@given(partitions())
def test_hook_count_equals_size(lam):
    assert len(hook_multiset(lam)) == lam.size


def test_hook_arm_leg_definition():
    # the oracle's strip at row i with height h is the rim of the hook at
    # box (i, j), j = lam_i - t + h: length = arm + leg + 1 and height =
    # leg, checked per box directly
    for n in range(0, 11):
        for lam in enumerate_partitions(n):
            conj = conjugate(lam).parts
            for t in range(1, n + 1):
                for i, height, _ in raw_strips(lam.parts, t):
                    j = lam.parts[i] - t + height
                    arm = lam.parts[i] - j - 1
                    leg = conj[j] - i - 1 if j < len(conj) else 0
                    assert t == arm + leg + 1
                    assert height == leg


def test_divisibility_consistency():
    # a hook of length divisible by t exists iff one of length exactly t does
    for n in range(0, 13):
        for lam in enumerate_partitions(n):
            hooks = hook_multiset(lam)
            for t in range(1, 13):
                core = is_t_core(lam, t)
                assert core == (not any(h % t == 0 for h in hooks))
                no_multiple_strip = all(
                    beta_strips(beta_mask(lam.parts), k * t) == []
                    for k in range(1, n // t + 1)
                )
                assert core == no_multiple_strip


def test_is_t_core_matches_hook_oracle():
    for n in range(0, 21):
        for lam in enumerate_partitions(n):
            hooks = hook_multiset(lam)
            for t in range(1, n + 2):
                assert is_t_core(lam, t) == all(h % t for h in hooks), (lam, t)


def test_conjugation_symmetry():
    for n in range(0, 13):
        for lam in enumerate_partitions(n):
            assert Counter(hook_multiset(lam)) == Counter(hook_multiset(conjugate(lam)))


def test_hook_product_divides_factorial():
    lam = Partition([4, 2, 1])
    assert math.prod(hook_multiset(lam)) == 144
    assert math.factorial(7) // 144 == 35
    for n in range(1, 11):
        for p in enumerate_partitions(n):
            prod = math.prod(hook_multiset(p))
            assert math.factorial(n) % prod == 0
            assert math.factorial(n) // prod >= 1
