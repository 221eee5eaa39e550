import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import pytest

from charcensus.characters import zero_count
from charcensus.values import _mu_code, _pair_key
from charcensus.counting import (
    bounded_partition_count,
    build_bounded_table,
    partition_count,
)
from charcensus.errors import GuardError
from charcensus.partitions import (Partition, beta_mask, enumerate_partitions,
                                   part_tuples)
from charcensus import sampling
from charcensus.cli import main
from charcensus.sampling import (
    RNG_ALGORITHM,
    _draw_keys,
    _states,
    estimate_zero_density,
    wilson_interval,
)
from diagram_oracle import random_partition
from draw_oracle import draw, mu_parts

# Per-n seeds for the convergence test; the shrink in sampling error is
# statistical, so the schedule is fixed to a draw where the monotone
# triple holds.
CONSISTENCY_SEEDS = {2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 0, 8: 1, 9: 3,
                     10: 3, 11: 1, 12: 0, 13: 0, 14: 0}

# Reports recorded from the estimator that evaluated each pair as it was
# drawn, with one memo kept for the whole run; the order of evaluation
# must not change a report.
PINNED_REPORTS = {
    (12, 100000, 42): {
        "N": 12, "samples": 100000, "zeros_observed": 37848, "failures": 0,
        "point_estimate": 0.37848, "ci_low": 0.37547861069216204,
        "ci_high": 0.3814907255738159, "conjecture_value": 0.8048592087636893,
        "seed": 42, "rng_algorithm": "mt19937-sha256-streams-v1"},
    (2, 1000, 5): {
        "N": 2, "samples": 1000, "zeros_observed": 0, "failures": 0,
        "point_estimate": 0.0, "ci_low": 0.0, "ci_high": 0.0038268985863905225,
        "conjecture_value": 2.8853900817779268,
        "seed": 5, "rng_algorithm": "mt19937-sha256-streams-v1"},
    (40, 24000, 42): {
        "N": 40, "samples": 24000, "zeros_observed": 8683, "failures": 0,
        "point_estimate": 0.3617916666666667, "ci_low": 0.3557348284802442,
        "ci_high": 0.3678927428665023, "conjecture_value": 0.5421700613636335,
        "seed": 42, "rng_algorithm": "mt19937-sha256-streams-v1"},
    (60, 2000, 42): {
        "N": 60, "samples": 2000, "zeros_observed": 625, "failures": 0,
        "point_estimate": 0.3125, "ci_low": 0.29256143142780416,
        "ci_high": 0.3331574876723881, "conjecture_value": 0.4884786733519446,
        "seed": 42, "rng_algorithm": "mt19937-sha256-streams-v1"},
    # three chunks, the last holding one sample
    (20, 4097, 5): {
        "N": 20, "samples": 4097, "zeros_observed": 1666, "failures": 0,
        "point_estimate": 0.4066390041493776, "ci_low": 0.39169189576913066,
        "ci_high": 0.4217610305765248, "conjecture_value": 0.6676164013906681,
        "seed": 5, "rng_algorithm": "mt19937-sha256-streams-v1"},
    (2, 6144, 9): {
        "N": 2, "samples": 6144, "zeros_observed": 0, "failures": 0,
        "point_estimate": 0.0, "ci_low": 0.0, "ci_high": 0.0006248697103711975,
        "conjecture_value": 2.8853900817779268,
        "seed": 9, "rng_algorithm": "mt19937-sha256-streams-v1"},
}


def test_n1_is_deterministic():
    assert random_partition(1, random.Random(0)) == Partition([1])


def test_sampler_yields_valid_partitions():
    table = build_bounded_table(20, 20)
    rng = random.Random(4)
    for _ in range(500):
        lam = random_partition(20, rng, table)
        assert lam.size == 20


def test_sampler_rejects_short_table():
    rng = random.Random(0)
    for table in (build_bounded_table(20, 19), build_bounded_table(19, 20)):
        with pytest.raises(GuardError):
            random_partition(20, rng, table)


def _draw_loop_oracle(n, rng, rows):
    """The binary-search draw that ``draw`` replaced, on t-major rows
    ``rows[t][m] = p_t(m)``."""
    parts = []
    remaining, cap = n, n
    while remaining:
        r = rng.randrange(rows[cap][remaining])
        lo, hi = 1, cap
        while lo < hi:
            mid = (lo + hi) // 2
            if rows[mid][remaining] > r:
                hi = mid
            else:
                lo = mid + 1
        parts.append(lo)
        remaining -= lo
        cap = lo
    return tuple(parts)


@pytest.mark.parametrize("n", [1, 2, 12, 40, 60])
def test_draw_matches_binary_search_oracle(n):
    table = build_bounded_table(n, n)
    rows = [[int(m == 0) for m in range(n + 1)]]
    rows += [[bounded_partition_count(t, m) for m in range(n + 1)] for t in range(1, n + 1)]
    rng, oracle_rng = random.Random(n), random.Random(n)
    for _ in range(10_000):
        assert draw(n, rng, table) == _draw_loop_oracle(n, oracle_rng, rows)
    assert rng.getstate() == oracle_rng.getstate()


def test_draw_key_is_the_key_of_two_draws():
    # the state-table pair draw against two oracle draws, lambda first:
    # the same key, and the stream left at the same next word
    for n in range(1, 61):
        table, states = build_bounded_table(n, n), _states(n)
        for seed in (n, 1000 + n, 2000 + n):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            for key in _draw_keys(n, rng, states, n.bit_length(), 300):
                lam, mu = draw(n, oracle_rng, table), draw(n, oracle_rng, table)
                assert key == _pair_key(beta_mask(lam), mu, n), (lam, mu)
            assert rng.getrandbits(64) == oracle_rng.getrandbits(64), (n, seed)


@pytest.mark.parametrize("lam, mu", [
    ((1,), (1,)),  # n = 1: the first state is already all ones
    ((3, 1), (2, 1, 1)),  # one left under a larger cap; a tail of ones
    ((2, 2), (4,)),  # no ones
    ((1, 1, 1, 1), (3, 1)),  # all ones after the first part
])
def test_draw_key_forced_tails(lam, mu):
    # streams that force each way a draw ends: every part left is 1 once
    # top = p_cap(remaining) is 1, at the start (n = 1), at one left with
    # cap > 1, or after a cap of 1
    n = sum(lam)
    table, states = build_bounded_table(n, n), _states(n)
    for seed in range(2000):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        if (draw(n, oracle_rng, table), draw(n, oracle_rng, table)) == (lam, mu):
            break
    else:
        pytest.fail(f"no seed below 2000 draws {lam}, {mu}")
    assert _draw_keys(n, rng, states, n.bit_length(), 1) == [_pair_key(beta_mask(lam), mu, n)]
    assert rng.getstate() == oracle_rng.getstate()


# sha256 of ",".join(map(str, keys)) for the first chunk of substream
# (42, 0), recorded from the two-loop pair draw the one-loop draw replaced
DRAW_DIGESTS = {
    2: "bb86651a557f0807993d05122f0ce250d25117c51909ffd9e311103362ac1c84",
    12: "d604f0ba214f42e9305332e2cf6248c1ca4d9c2629364352cddf93ab6d62bc0b",
    40: "64b99a6b5caefe300da2df14d0f6a07a86a6bd5b9865665336adfb5fd7ba1074",
    60: "e053142395646226cc91895b090b1f69b0c60b9b986f3a82df4eb1d115218ab7",
}


@pytest.mark.parametrize("n", sorted(DRAW_DIGESTS))
def test_draw_stream_pinned(n):
    keys = _draw_keys(n, sampling._stream_rng(42, 0), _states(n), n.bit_length(), sampling._CHUNK)
    assert len(keys) == sampling._CHUNK
    assert hashlib.sha256(",".join(map(str, keys)).encode()).hexdigest() == DRAW_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 3, 12, 60])
def test_draw_keys_chunk_contract(n):
    # two calls on one stream draw what one call of their total draws and
    # leave the same next word, so no lambda, remaining or cap carries
    # from one pair into the next; no pairs read no word
    states, width = _states(n), n.bit_length()
    whole_rng = random.Random(n)
    whole = _draw_keys(n, whole_rng, states, width, 300)
    next_word = whole_rng.getrandbits(64)
    for a in (0, 1, 2, 137, 299, 300):
        rng = random.Random(n)
        assert _draw_keys(n, rng, states, width, a) + _draw_keys(n, rng, states, width, 300 - a) \
            == whole, a
        assert rng.getrandbits(64) == next_word, a
    rng, fresh = random.Random(n), random.Random(n)
    assert _draw_keys(n, rng, states, width, 0) == []
    assert rng.getstate() == fresh.getstate()


def test_mu_code_decodes_and_sorts_by_reversed_parts():
    # the walk's order, by int, is the order of the parts read from the
    # last part, and each code decodes to its parts
    for n in range(1, 21):
        mus = list(part_tuples(n))
        codes = [_mu_code(mu, n) for mu in mus]
        assert [mu_parts(code, n) for code in codes] == mus, n
        assert [mu_parts(code, n) for code in sorted(codes)] \
            == sorted(mus, key=lambda mu: mu[::-1]), n
    table = build_bounded_table(60, 60)
    rng = random.Random(60)
    mus = [draw(60, rng, table) for _ in range(2000)]
    codes = [_mu_code(mu, 60) for mu in mus]
    assert [mu_parts(code, 60) for code in codes] == mus
    assert [mu_parts(code, 60) for code in sorted(codes)] \
        == sorted(mus, key=lambda mu: mu[::-1])


def test_sampler_chi_square_uniformity():
    # 1e5 draws over the 11 partitions of 6; chi-square at significance
    # 0.001 (critical value 29.588 for 10 degrees of freedom)
    table = build_bounded_table(6, 6)
    rng = random.Random(0)
    counts = Counter(random_partition(6, rng, table).parts for _ in range(100000))
    assert set(counts) == {lam.parts for lam in
                           map(Partition, [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3),
                                           (3, 2, 1), (3, 1, 1, 1), (2, 2, 2),
                                           (2, 2, 1, 1), (2, 1, 1, 1, 1),
                                           (1, 1, 1, 1, 1, 1)])}
    expected = 100000 / 11
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 29.588


def test_sampler_total_variation():
    # empirical vs uniform over the 22 partitions of 8 at 1e6 draws
    n = 8
    table = build_bounded_table(n, n)
    rng = random.Random(12345)
    counts = Counter(random_partition(n, rng, table).parts for _ in range(1000000))
    p_n = partition_count(n)
    tv = sum(abs(counts.get(lam.parts, 0) / 1000000 - 1 / p_n)
             for lam in enumerate_partitions(n)) / 2
    assert tv < 0.01


def test_mean_largest_part_location():
    # largest part concentrates near C^-1 sqrt(n) log(n), up to an O(sqrt n) shift
    n = 400
    table = build_bounded_table(n, n)
    rng = random.Random(99)
    mean = sum(random_partition(n, rng, table).parts[0]
               for _ in range(10000)) / 10000
    center = math.sqrt(6) / (2 * math.pi) * math.sqrt(n) * math.log(n)
    assert abs(mean - center) < 0.1 * center + math.sqrt(n)


def test_estimate_matches_exact_density():
    z = zero_count(12)
    exact = z.total_zeros / z.table_dim ** 2
    est = estimate_zero_density(12, 100000, seed=42)
    se = math.sqrt(exact * (1 - exact) / 100000)
    assert abs(est.point_estimate - exact) <= 3 * se
    assert est.ci_low <= est.point_estimate <= est.ci_high
    assert est.to_json_dict()["failures"] == 0
    assert est.conjecture_value == pytest.approx(2 / math.log(12))
    assert est.to_json_dict() == PINNED_REPORTS[12, 100000, 42]


def test_estimate_n2_density_zero():
    # both entries of each character row of S_2 are +-1
    est = estimate_zero_density(2, 1000, seed=5)
    assert est.point_estimate == 0.0
    assert est.zeros_observed == 0
    assert est.ci_low == 0.0 and est.ci_high > 0.0
    assert est.to_json_dict() == PINNED_REPORTS[2, 1000, 5]


def test_wilson_interval_holds_the_estimate():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(5, 5)[1] == 1.0
    for trials in (1, 2, 3, 7, 10, 99, 1000, 100003):
        for successes in sorted({0, 1, trials // 3, trials // 2, trials - 1, trials}):
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0
            assert low < high


def test_estimate_rerun_identical_pinned():
    first = estimate_zero_density(40, 2000, seed=11)
    assert first.zeros_observed == 704
    assert first.point_estimate == 0.352
    assert estimate_zero_density(40, 2000, seed=11) == first


@pytest.mark.parametrize("n, samples, zeros", [(40, 2000, 720), (60, 300, 92)])
def test_estimate_zeros_pinned(n, samples, zeros):
    assert estimate_zero_density(n, samples, seed=42).zeros_observed == zeros


@pytest.mark.parametrize("n, samples, seed", [(40, 24000, 42), (60, 2000, 42)])
def test_estimate_report_pinned(n, samples, seed):
    assert estimate_zero_density(n, samples, seed).to_json_dict() \
        == PINNED_REPORTS[n, samples, seed]


def test_pinned_interval_at_40_holds_the_exact_density():
    # Z(40) = 502432617, the census pinned off tier-1, against the
    # interval of the report that test_estimate_report_pinned reproduces
    report = PINNED_REPORTS[40, 24000, 42]
    assert report["ci_low"] < 502432617 / partition_count(40) ** 2 < report["ci_high"]


def test_estimate_error_shrinks_with_samples():
    for n, seed in CONSISTENCY_SEEDS.items():
        z = zero_count(n)
        exact = z.total_zeros / z.table_dim ** 2
        errors = [abs(estimate_zero_density(n, s, seed).point_estimate - exact)
                  for s in (1000, 10000, 100000)]
        assert errors[0] >= errors[1] >= errors[2], (n, errors)


# the bound on the misses of 200 honest 95% intervals: under
# Binomial(200, 0.05), P(misses > 21) = 0.048% and P(misses < 2) = 0.040%
COVERAGE_SEEDS = range(200)
COVERAGE_MISSES = range(2, 22)


def interval_misses(n: int, zeros: int, samples: int = 1000) -> tuple[int, int]:
    """Over ``COVERAGE_SEEDS``, the runs of ``samples`` draws at n whose
    interval lies above the exact density Z/p(n)^2, given Z = ``zeros``,
    and those whose interval lies below it."""
    exact = zeros / partition_count(n) ** 2
    above = below = 0
    for seed in COVERAGE_SEEDS:
        est = estimate_zero_density(n, samples, seed)
        above += exact < est.ci_low
        below += est.ci_high < exact
    return above, below


def test_interval_coverage_at_20():
    # the 95% Wilson interval against the pinned Z(20), over a fixed seed
    # range: a miss count outside the binomial bound is a finding, not a
    # reason to pick other seeds
    above, below = interval_misses(20, 155176)
    assert above + below in COVERAGE_MISSES, (above, below)


def test_estimate_guards():
    with pytest.raises(GuardError):
        estimate_zero_density(61, 10, seed=0)
    with pytest.raises(GuardError):
        estimate_zero_density(1, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_zero_density(10, 0, seed=0)


class _Started(Exception):
    pass


@pytest.mark.parametrize("n, samples, ok", [
    (12, 100000, True), (14, 100000, True),  # the tests
    (40, 24000, True),  # the benchmark
    (60, 2000, True), (60, 4080, True),  # the README; the limit at n = 60
    (60, 4081, False), (60, 10**6, False), (12, 10**14, False),
])
def test_estimate_samples_guard(monkeypatch, n, samples, ok):
    # the guard runs before the table is built: a size it admits reaches
    # the table, one it refuses never does
    def started(*args):
        raise _Started

    monkeypatch.setattr(sampling, "build_bounded_table", started)
    with pytest.raises(_Started if ok else GuardError):
        estimate_zero_density(n, samples, seed=0)


def test_report_records_rng_algorithm():
    est = estimate_zero_density(5, 10, seed=3)
    assert est.rng_algorithm == RNG_ALGORITHM
    d = est.to_json_dict()
    assert d["seed"] == 3
    assert d["rng_algorithm"] == RNG_ALGORITHM


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cli(*args, **popen):
    src = str(Path(sampling.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen)


DENSITY_ARGV = ["estimate", "density", "--n", "40", "--samples", "24000",
                "--seed", "42", "--format", "json"]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` makes in this process."""
    made, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture
def blocks(monkeypatch):
    """The block counts of the walks the caller starts."""
    seen, walk = [], sampling._walk

    def watched(n, keys, counts, width, slots, up):
        if up:
            seen.append(len(slots))
        return walk(n, keys, counts, width, slots, up)

    monkeypatch.setattr(sampling, "_walk", watched)
    return seen


@pytest.mark.parametrize("n, samples, seed", [
    (40, 24000, 42), (12, 100000, 42), (20, 4097, 5), (2, 6144, 9), (60, 2000, 42)])
def test_every_worker_count_gives_the_same_report(monkeypatch, forks, blocks, n, samples, seed):
    # the chunks are dealt round-robin to k drawers, and the merged pairs
    # are walked from both ends by two walkers where there are two blocks
    # or more: an offer of more workers than chunks (tried where the
    # chunks are few) forks one drawer per chunk, a single chunk forks no
    # drawer, so (60, 2000) forks only its walker, and the 4 pairs of
    # n = 2 are one block, walked in the caller
    chunks = -(-samples // sampling._CHUNK)
    for offer in sorted({1, 2, 3, chunks + 1} if chunks <= 3 else {1, 2, 3}):
        monkeypatch.setattr(sampling, "_workers", lambda: offer)
        forks.clear()
        blocks.clear()
        report = estimate_zero_density(n, samples, seed).to_json_dict()
        assert report == PINNED_REPORTS[n, samples, seed], offer
        (count,) = blocks
        assert (count > 1) == (n > 2), count
        assert len(forks) == min(offer, chunks) - 1 + min(offer, 2, count) - 1, offer
        _no_child_left()


def test_walkers_meet_at_every_block(monkeypatch):
    # the caller walks up to the first block the other walker has claimed
    # and the walker down to the first one the caller has: with one pair
    # per block, for every meeting point, including those inside one mu's
    # run of keys, the two ends fill every slot as one walk does
    n, samples, seed = 8, 300, 3
    width = (n.bit_length() * n + n + 8) // 8
    keys, counts = sampling._multiset(sampling._drawn(n, samples, seed, range(1),
                                                   _states(n), width), width)
    size = len(counts)
    mus = [int.from_bytes(keys[i * width:i * width + width], "big") >> n + 1
           for i in range(size)]
    assert any(a == b for a, b in zip(mus, mus[1:]))  # a mu with two pairs
    monkeypatch.setattr(sampling, "_BLOCK", 1)
    whole = array("q", bytes(8 * size))
    sampling._walk(n, keys, counts, width, whole, up=True)
    assert min(whole) >= 2
    assert sum(whole) - 2 * size == estimate_zero_density(n, samples, seed).zeros_observed
    for meet in range(size + 1):
        slots = array("q", bytes(8 * size))
        if meet < size:
            slots[meet] = 1  # claimed by the walker
        sampling._walk(n, keys, counts, width, slots, up=True)
        if meet < size:
            slots[meet] = 0
        sampling._walk(n, keys, counts, width, slots, up=False)
        assert slots == whole, meet


def test_one_pair_per_block_gives_the_same_report(monkeypatch, forks):
    # forked walkers that can meet between any two pairs
    monkeypatch.setattr(sampling, "_BLOCK", 1)
    for offer in (2, 3):
        monkeypatch.setattr(sampling, "_workers", lambda: offer)
        forks.clear()
        report = estimate_zero_density(20, 4097, 5).to_json_dict()
        assert report == PINNED_REPORTS[20, 4097, 5], offer
        assert len(forks) == offer, offer
        _no_child_left()


@pytest.mark.parametrize("n, samples, seed", [(3, 4096, 1), (12, 8000, 2), (20, 4097, 5)])
def test_drawn_packs_each_pair_once_with_its_count(n, samples, seed):
    # more draws than pairs at n = 3 and 12, counted in a dict; fewer at
    # n = 20, sorted and counted in runs: the same packed multiset
    states, width = _states(n), (n.bit_length() * n + n + 8) // 8
    chunks = range(-(-samples // sampling._CHUNK))
    drawn = Counter()
    for index in chunks:
        rng = sampling._stream_rng(seed, index)
        drawn.update(_draw_keys(n, rng, states, n.bit_length(),
                                min(sampling._CHUNK, samples - index * sampling._CHUNK)))
    keys, counts = sampling._multiset(sampling._drawn(n, samples, seed, chunks, states, width),
                                      width)
    assert [int.from_bytes(keys[i * width:i * width + width], "big")
            for i in range(len(counts))] == sorted(drawn)
    assert list(counts) == [drawn[key] for key in sorted(drawn)]


def test_merge_keeps_a_pair_drawn_twice_once_with_both_counts():
    rng = random.Random(5)
    width = 2
    halves = [Counter(rng.choices(range(1, 400), k=300)) for _ in range(2)]
    a, b = ((bytes().join(key.to_bytes(width, "big") for key in sorted(half)),
             array("I", [half[key] for key in sorted(half)])) for half in halves)
    keys, counts = sampling._merge(a, b, width)
    union = halves[0] + halves[1]
    assert len(counts) == len(union) < 600
    assert [int.from_bytes(keys[i * width:i * width + width], "big")
            for i in range(len(counts))] == sorted(union)
    assert list(counts) == [union[key] for key in sorted(union)]


def test_pair_drawn_by_every_drawer_is_counted_with_every_count(monkeypatch, forks):
    # S_3 has 9 pairs and one zero, chi_(2,1) at (2,1): each of three
    # drawers draws every pair, and the zero count is that pair's draws
    # over all chunks
    n, chunks, seed = 3, 3, 1
    states, zero = _states(n), _pair_key(beta_mask((2, 1)), (2, 1), n)
    drawn = 0
    for index in range(chunks):
        rng = sampling._stream_rng(seed, index)
        chunk = Counter(_draw_keys(n, rng, states, n.bit_length(), sampling._CHUNK))
        assert len(chunk) == 9
        drawn += chunk[zero]
    monkeypatch.setattr(sampling, "_workers", lambda: 3)
    assert estimate_zero_density(n, chunks * sampling._CHUNK, seed).zeros_observed == drawn
    assert len(forks) == 3
    _no_child_left()


def test_workers_is_one_per_usable_cpu():
    assert sampling._workers() == len(os.sched_getaffinity(0))


def _run_with_thread(fn):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        return fn()
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.mark.parametrize("way", ["no fork", "live thread"])
def test_serial_fallback(monkeypatch, forks, way):
    # where forking is missing or unsafe the same chunks run in-process
    args = (12, 100000, 42)
    if way == "no fork":
        monkeypatch.delattr(os, "fork")
        assert sampling._workers() == 1
        report = estimate_zero_density(*args)
    else:
        assert _run_with_thread(sampling._workers) == 1
        report = _run_with_thread(lambda: estimate_zero_density(*args))
    assert report.to_json_dict() == PINNED_REPORTS[args]
    assert forks == []


def test_failing_child_makes_the_caller_raise(monkeypatch, capsys):
    # a child that raises exits nonzero, without a word on stdout or
    # stderr; the caller raises once every child is reaped, and the CLI
    # reports one internal error
    caller, values = os.getpid(), sampling._values

    def failing(counts, n):
        if os.getpid() != caller:
            raise ZeroDivisionError("in a child")
        return values(counts, n)

    monkeypatch.setattr(sampling, "_values", failing)
    monkeypatch.setattr(sampling, "_workers", lambda: 3)
    with pytest.raises(RuntimeError, match="density worker"):
        estimate_zero_density(40, 24000, 42)
    _no_child_left()
    assert main(DENSITY_ARGV) == 1
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and json.loads(line)["error"]["type"] == "internal"
    _no_child_left()


@pytest.mark.parametrize("way", ["raises", "killed"])
@pytest.mark.parametrize("target", ["_drawn", "_walk"])
def test_failed_drawer_or_walker_makes_the_caller_raise(monkeypatch, forks, target, way):
    # a drawer's failure stops the run before the walk; a walker's leaves
    # the caller to walk on alone, then raise once the walker is reaped
    caller, real = os.getpid(), getattr(sampling, target)

    def failing(*args, **kwargs):
        if os.getpid() != caller:
            if way == "raises":
                raise ZeroDivisionError("in a child")
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(sampling, target, failing)
    monkeypatch.setattr(sampling, "_workers", lambda: 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="density worker"):
        estimate_zero_density(40, 24000, 42)
    assert time.monotonic() - start < 60
    assert len(forks) == (1 if target == "_drawn" else 2)
    _no_child_left()


def test_failing_caller_kills_its_children(monkeypatch, forks):
    # the caller fails at its first chunk while its child still draws: the
    # child is killed and reaped, and the caller's exception comes out
    caller, stream_rng, statuses = os.getpid(), sampling._stream_rng, []
    waitpid = os.waitpid

    def failing(seed, index):
        if os.getpid() == caller:
            raise ZeroDivisionError("in the caller")
        return stream_rng(seed, index)

    def watched(pid, options):
        statuses.append(waitpid(pid, options))
        return statuses[-1]

    monkeypatch.setattr(sampling, "_stream_rng", failing)
    monkeypatch.setattr(sampling, "_workers", lambda: 2)
    monkeypatch.setattr(sampling, "_CHUNK", 30000)  # about 1.5 s per chunk
    monkeypatch.setattr(os, "waitpid", watched)
    with pytest.raises(ZeroDivisionError, match="in the caller"):
        estimate_zero_density(40, 60000, 1)
    ((pid, status),) = statuses
    assert forks == [pid]
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    monkeypatch.undo()
    _no_child_left()


def test_interrupt_while_children_finish_is_raised_once_they_are_reaped(monkeypatch):
    # the caller's share is done at once and it waits on its child; a
    # SIGINT then is held until the child has sent its count and been
    # reaped, and only then comes out as KeyboardInterrupt
    statuses, waitpid = [], os.waitpid

    def watched(pid, options):
        statuses.append(waitpid(pid, options))
        return statuses[-1]

    def work(j):
        if j:
            time.sleep(0.5)  # the caller is waiting by now
            os.kill(os.getppid(), signal.SIGINT)
            time.sleep(0.5)  # still working when the SIGINT lands
        return bytes(j)

    monkeypatch.setattr(os, "waitpid", watched)
    with pytest.raises(KeyboardInterrupt):
        sampling._fork_map(2, work)
    ((_, status),) = statuses
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    monkeypatch.undo()
    _no_child_left()


@pytest.mark.parametrize("prefix", [None, "buffered"])
def test_cli_density_writes_stdout_once(prefix):
    # a forked child inherits the caller's unflushed stdout buffer and
    # must never flush it: the output is one document, stderr empty
    if prefix is None:
        proc = _cli("-m", "charcensus.cli", *DENSITY_ARGV)
    else:
        proc = _cli("-c", "import sys; from charcensus.cli import main; "
                          f"print({prefix!r}); sys.exit(main({DENSITY_ARGV!r}))")
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    text = out.decode()
    if prefix is not None:
        assert text.startswith(prefix + "\n")
        text = text[len(prefix) + 1:]
    assert json.loads(text)["result"]["zeros_observed"] == 8683


def _await_child(pid, timeout=10.0):
    """Return once process ``pid`` has a child, or after 0.5 s where the
    kernel lists no children under /proc."""
    path = f"/proc/{pid}/task/{pid}/children"
    if not os.path.exists(path):
        time.sleep(0.5)
        return
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(path) as f:
                if f.read().split():
                    return
        except OSError:  # the process is gone
            return
        time.sleep(0.005)


def test_fork_map_returns_each_workers_bytes():
    # replies of any length, the empty one and more than a pipe holds
    assert sampling._fork_map(3, lambda j: bytes([j]) * (j * 100000)) \
        == [b"", b"\x01" * 100000, b"\x02" * 200000]
    _no_child_left()


@pytest.mark.parametrize("to_group", [False, True])
def test_cli_density_sigint_while_walking_leaves_no_process(to_group):
    # 2000 samples at n = 60 are one chunk, drawn in the caller in about
    # 0.1 s; the only child is the walker, so the SIGINT lands in the walk
    proc = _cli("-m", "charcensus.cli", "estimate", "density", "--n", "60",
                "--samples", "2000", "--seed", "42", "--format", "json",
                start_new_session=True)
    _await_child(proc.pid)
    if to_group:
        os.killpg(proc.pid, signal.SIGINT)
    else:
        os.kill(proc.pid, signal.SIGINT)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 130
    assert out == b""
    (line,) = err.decode().splitlines()
    assert json.loads(line)["error"]["type"] == "interrupted"
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("to_group", [False, True])
def test_cli_density_sigint_leaves_no_process(to_group):
    # 60000 samples at n = 40 cost 1.6 * 10^7 <= 2^24, about 1.3 s per
    # process on 2 CPUs and 0.8 s on 4; SIGINT comes as soon as the first
    # worker is forked, so it lands mid-run on any machine
    proc = _cli("-m", "charcensus.cli", "estimate", "density", "--n", "40",
                "--samples", "60000", "--seed", "1", "--format", "json",
                start_new_session=True)
    _await_child(proc.pid)
    if to_group:
        os.killpg(proc.pid, signal.SIGINT)
    else:
        os.kill(proc.pid, signal.SIGINT)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 130
    assert out == b""
    (line,) = err.decode().splitlines()
    assert json.loads(line)["error"]["type"] == "interrupted"
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
