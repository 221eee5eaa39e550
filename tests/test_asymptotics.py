import math
import random

import pytest

from charcensus.asymptotics import (
    ANALYTIC_GUARD,
    GROWTH_CONSTANT,
    P_EXACT_LIMIT,
    BoundReport,
    LogReal,
    core_count_bound,
    eta,
    full_table_bound,
    rademacher_main_term,
    saddle_bracket,
    solve_saddle,
    strip_zero_bound,
    tcore_count_estimate,
)
from charcensus.asymptotics import (
    _core_damping_iii,
    _core_log_i,
    _core_log_ii,
    _log_eta,
    _log_p,
    _mu,
    _q_sums,
)
from charcensus.characters import zero_count
from charcensus.counting import partition_count, tcore_count
from charcensus.errors import GuardError, NumericError
from test_counting import P_100000

C = GROWTH_CONSTANT


# ---------------------------------------------------------------------------
# eta and its scaled log-derivatives

def test_eta_product_limit():
    # all product factors tend to 1, so log eta + pi y / 12 -> 0
    assert abs(eta(10.0) + math.pi * 10 / 12) < 1e-12


def _log_eta_product(y: float) -> float:
    # log eta(iy) = -pi y / 12 + sum_n log(1 - exp(-2 pi n y)), the
    # product formula, summed until a factor no longer changes the sum
    total, n = -math.pi * y / 12, 1
    while True:
        term = math.log1p(-math.exp(-2 * math.pi * n * y))
        if total + term == total:
            return total
        total += term
        n += 1


def _log_eta_reference(mp, y):
    """log eta(iy) to the working precision of ``mp``: the product
    formula at y >= 1, the modular transformation below."""
    if y < 1:
        return -mp.log(y) / 2 + _log_eta_reference(mp, 1 / y)
    q = mp.exp(-2 * mp.pi * y)
    total, qn = -mp.pi * y / 12, q
    while qn > mp.mpf(10) ** -60:
        total += mp.log(1 - qn)
        qn *= q
    return total


def test_eta_two_path_consistency():
    # both paths, the direct series from y = 1 up and the modular transform
    # below it, against the product formula on a log grid over [1/4, 4]
    # that holds y = 1 and its neighbours
    grid = [0.25 * 16 ** (i / 200) for i in range(201)] + [1 - 1e-9, 1 + 1e-9]
    for y in grid:
        assert eta(y) == pytest.approx(_log_eta_product(y), rel=1e-14, abs=1e-15), y


def _mu_with_constants(y: float) -> tuple[float, float]:
    # _mu leaves out mu1's term -1/24 and mu2's term 1/12
    mu1, mu2 = _mu(y)
    return mu1 - 1 / 24, mu2 + 1 / 12


def test_mu1_is_scaled_log_derivative_of_eta():
    # mu1(y) = -y^2 / (2 pi) * d/dy log eta(iy), the derivative taken by
    # central differences of eta, on a log grid over [0.05, 20]
    for i in range(81):
        y = 0.05 * 400 ** (i / 80)
        h = 1e-5 * y
        slope = (eta(y + h) - eta(y - h)) / (2 * h)
        assert _mu_with_constants(y)[0] == pytest.approx(
            -y * y / (2 * math.pi) * slope, rel=1e-8, abs=1e-10), y


def test_mu2_matches_central_difference_of_mu1():
    # mu2 against y d mu1 / dy - 2 mu1 (from mu2 = -y^3 / (2 pi) d^2/dy^2
    # log eta), d mu1 / dy by central differences of mu1, on both sides
    # of y = 1; mu2 falls like exp(-2 pi y) while the difference cancels
    # terms of size y^2, hence its absolute floor
    for i in range(81):
        y = 0.2 * 25 ** (i / 80)
        h = 1e-5 * y
        mu1, mu2 = _mu_with_constants(y)
        fd = (_mu_with_constants(y + h)[0] - _mu_with_constants(y - h)[0]) / (2 * h)
        assert mu2 == pytest.approx(y * fd - 2 * mu1, rel=1e-6, abs=1e-10), y
    for y in (1 - 1e-9, 1 + 1e-9):
        assert _mu_with_constants(y) == pytest.approx(_mu_with_constants(1.0), rel=1e-8)


def test_eta_tail_witness_in_bounds():
    # 1 < v < 1.00873 for every y >= sqrt(3)/2, log-grid up to 20, where
    # the tail of log eta at u = max(y, 1/y) is v exp(-2 pi u) and the
    # kernel returns v - 1 free of cancellation
    y = math.sqrt(3) / 2
    while y <= 20:
        excess = _q_sums(max(y, 1 / y))[0]
        assert 0 < excess < 0.00873, y
        assert 1 + excess < 1.00873
        y *= 1.07
    assert 0 < _q_sums(2 / math.sqrt(3))[0] < 0.00873


def test_eta_rejects_bad_input():
    with pytest.raises(ValueError):
        eta(-1.0)
    with pytest.raises(ValueError):
        eta(0.0)


def test_mu1_large_y_limit():
    assert abs(_mu_with_constants(10.0)[0] - 100 / 24) < 1e-12


def test_mu_small_y_limits():
    # mu1 -> -1/24 and mu2 -> 1/12 as y -> 0
    mu1, mu2 = _mu_with_constants(0.001)
    assert mu1 == pytest.approx(-1 / 24 + 0.001 / (4 * math.pi))
    assert mu2 == pytest.approx(1 / 12 - 0.001 / (4 * math.pi))


_SIGMA_400 = [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(401)]


def _mu_q_series(y: float) -> tuple[float, float]:
    # mu1 = y^2/24 - y^2 sum_n sigma(n) q^n and mu2 = 2 pi y^3 sum_n n
    # sigma(n) q^n, q = exp(-2 pi y), with no modular transformation
    # (400 terms: q^400 < 10^-100 for y >= 0.1)
    q = math.exp(-2 * math.pi * y)
    s0 = sum(_SIGMA_400[n] * q ** n for n in range(1, 401))
    s1 = sum(n * _SIGMA_400[n] * q ** n for n in range(1, 401))
    return y * y / 24 - y * y * s0, 2 * math.pi * y ** 3 * s1


def test_left_out_constants_cancel_across_y_equal_1():
    # with t y >= 1 > y the kernel reads the series at t y for one
    # argument and at 1/y for the other, and both must leave out the same
    # constants: t g(t y) - g(y) = t log eta(i t y) - log eta(i y)
    # + pi (t^2 - 1) y / 12, against a 30-digit reference, and the mu
    # differences the saddle point reads match the q-series
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 30
    rng = random.Random(20261019)
    for _ in range(200):
        y = rng.uniform(0.1, 0.99)
        t = rng.randint(math.ceil(1 / y), math.ceil(5 / y))
        assert t * y >= 1 > y
        # pi (t x - y) / 12 is pi (t^2 - 1) y / 12 at the rounded x = t y
        # that the kernel reads
        x = mp.mpf(t * y)
        expected = (t * _log_eta_reference(mp, x)
                    - _log_eta_reference(mp, mp.mpf(y))
                    + mp.pi * (t * x - y) / 12)
        assert t * _log_eta(t * y) - _log_eta(y) == pytest.approx(
            float(expected), rel=1e-12), (y, t)
        for k in (0, 1):
            assert _mu(t * y)[k] - _mu(y)[k] == pytest.approx(
                _mu_q_series(t * y)[k] - _mu_q_series(y)[k], rel=1e-12), (y, t, k)


def test_log_eta_reflection_identity():
    # g(1/u) = g(u) + log(u)/2, the modular transformation with the
    # left-out terms pi/(12 u) + pi u/12 symmetric in u and 1/u
    rng = random.Random(20261020)
    for _ in range(2000):
        u = 50 ** rng.random()
        assert abs(_log_eta(1 / u) - (_log_eta(u) + 0.5 * math.log(u))) <= 1e-15, u


def test_curvature_sandwich_small_ty():
    # for 0 < y <= 1/10 and t y < 1:
    #   2 sqrt(pi)/sqrt(y(t-1)) < 1/sqrt(mu2(iy)-mu2(ity)) < 2 sqrt(2 pi)/sqrt(y(t-1))
    rng = random.Random(20260810)
    for _ in range(100):
        y = rng.uniform(0.005, 0.1)
        t = rng.randint(max(2, math.ceil(0.3 / y)), math.floor(0.999 / y))
        assert t * y < 1
        inv = 1 / math.sqrt(_mu(y)[1] - _mu(t * y)[1])
        assert 2 * math.sqrt(math.pi) / math.sqrt(y * (t - 1)) < inv
        assert inv < 2 * math.sqrt(2 * math.pi) / math.sqrt(y * (t - 1))


def test_curvature_sandwich_large_ty():
    # for 0 < y <= 1/10 and t y >= 1: sqrt(12) < 1/sqrt(...) < sqrt(16)
    rng = random.Random(20260810)
    for _ in range(100):
        y = rng.uniform(0.005, 0.1)
        t = rng.randint(math.ceil(1 / y), math.ceil(5 / y))
        assert t * y >= 1
        inv = 1 / math.sqrt(_mu(y)[1] - _mu(t * y)[1])
        assert math.sqrt(12) < inv < math.sqrt(16)


# ---------------------------------------------------------------------------
# saddle solve and the core-count estimate

def test_saddle_grid_inside_bracket():
    for n in (100, 1000, 10000):
        for t in sorted({6, 12, 25, 50, math.isqrt(n), n // 2}):
            sol = solve_saddle(n, t)
            m = n + (t * t - 1) / 24
            assert sol.bracket_lo < sol.y < sol.bracket_hi
            assert abs(sol.residual) < 1e-9 * m
            assert sol.ty_regime == ("SMALL" if t * sol.y < 1 else "LARGE")


def test_saddle_lands_on_every_t_at_1000():
    # every solve the zero-bounds benchmark makes, t = 6..1000 at n =
    # 1000: the midpoint of a bisection to relative width 1e-12 stays
    # inside the bracket, with |residual| at most 5e-13 m (4.99e-13 m at
    # worst), under a tol of 1e-12
    for t in range(6, 1001):
        sol = solve_saddle(1000, t, tol=1e-12)
        assert sol.bracket_lo < sol.y < sol.bracket_hi, t
        assert abs(sol.residual) <= 1e-12 * (1000 + (t * t - 1) / 24), t


def test_saddle_100_10():
    sol = solve_saddle(100, 10)
    lo, hi = saddle_bracket(100, 10)
    assert (sol.bracket_lo, sol.bracket_hi) == (lo, hi)
    assert lo < sol.y < hi
    assert abs(sol.residual) < 1e-9 * (100 + 99 / 24)
    assert sol.ty_regime == "SMALL"


def test_saddle_ordinate_decreases_in_n():
    ys = [solve_saddle(n, 10).y for n in (100, 400, 1600)]
    assert ys[0] > ys[1] > ys[2]


def test_saddle_leading_term_at_scale():
    # y ~ 1/sqrt(24 n) once t sits at the top-range threshold
    # t1 = (sqrt 6 / 2 pi) sqrt(n) log(n) (1 + 1/(2b)), where b solves
    # n^(1/(2b)) = (sqrt 6 / 2 pi) log n
    n = 10 ** 6
    scaled_log = math.sqrt(6) / (2 * math.pi) * math.log(n)
    b = math.log(n) / (2 * math.log(scaled_log))
    t = round(scaled_log * math.sqrt(n) * (1 + 1 / (2 * b)))
    sol = solve_saddle(n, t)
    assert abs(sol.y * math.sqrt(24 * n) - 1) < 0.01
    assert sol.ty_regime == "LARGE"


def test_saddle_guards():
    with pytest.raises(GuardError):
        solve_saddle(100, 5)
    with pytest.raises(GuardError):
        solve_saddle(0, 8)
    with pytest.raises(GuardError):
        solve_saddle(ANALYTIC_GUARD + 1, 8)
    with pytest.raises(GuardError):
        solve_saddle(100, ANALYTIC_GUARD + 1)


@pytest.mark.parametrize("t", [6, 10, 100, 10**4])
def test_saddle_solves_where_mu1_cancels(t):
    # for n >= 100 t^2, t y is below 0.01: both mu1 values sit near
    # -1/24 and the root is (t - 1) / (4 pi m) up to exp(-2 pi / (t y));
    # the solve must not lose it to the cancellation, up to n = 10^18
    # and at the guard
    for n in [10**e for e in range(6, 19) if 10**e >= 100 * t * t] + [ANALYTIC_GUARD]:
        sol = solve_saddle(n, t)
        m = n + (t * t - 1) / 24
        assert sol.y == pytest.approx((t - 1) / (4 * math.pi * m), rel=1e-9), n
        assert sol.ty_regime == "SMALL"


def test_analytic_size_guard():
    big = ANALYTIC_GUARD + 1
    for call in (lambda: full_table_bound(big),
                 lambda: core_count_bound(big, 10),
                 lambda: strip_zero_bound(big, 10),
                 lambda: tcore_count_estimate(big, 10)):
        with pytest.raises(GuardError):
            call()
    # at the guard every evaluator still answers
    assert full_table_bound(ANALYTIC_GUARD).p_source == "rademacher"
    assert core_count_bound(ANALYTIC_GUARD, ANALYTIC_GUARD // 2).regime == "P32_IV"
    assert strip_zero_bound(ANALYTIC_GUARD, 10).regime == "T13_I"


def test_core_estimate_against_exact():
    est = tcore_count_estimate(500, 12)
    exact = tcore_count(12, 500)
    ratio = math.exp(est.log - math.log(exact))
    assert abs(ratio - 1) < 0.2, f"estimate/exact ratio {ratio:.4f}"


def test_core_estimate_error_shrinks_in_t():
    errors = []
    for t in (8, 16, 32):
        est = tcore_count_estimate(2000, t)
        exact = tcore_count(t, 2000)
        errors.append(abs(math.exp(est.log - math.log(exact)) - 1))
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("t", [6, 10, 100])
def test_core_estimate_matches_regime_i_form_at_scale(t):
    # once t y << 1 the eta tails vanish and the estimate is the closed
    # P32_I form; t log eta(i t y) and log eta(i y) both hold -pi / (12 y),
    # about -3.7 * 10^11 at n = 10^12, which must cancel exactly
    for n in (10**8, 10**12, 10**20, 10**60, 10**100):
        assert tcore_count_estimate(n, t).log == pytest.approx(_core_log_i(n, t),
                                                               rel=1e-12), n


def _estimate_50_digits(n, t):
    """The estimate's formula at the solver's y in 50 digits, with mu2 =
    -y^3 (d/dy)^2 log eta(iy) / (2 pi); returns (reference, t y)."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    y = mp.mpf(solve_saddle(n, t).y)

    def log_eta(x):
        return _log_eta_reference(mp, x)

    def mu2(x):
        return -x ** 3 * mp.diff(log_eta, x, 2) / (2 * mp.pi)

    reference = (1.5 * mp.log(y) + 2 * mp.pi * y * (n + mp.mpf(t * t - 1) / 24)
                 + t * log_eta(t * y) - mp.log(mu2(y) - mu2(t * y)) / 2
                 - log_eta(y))
    return reference, float(t * y)


@pytest.mark.parametrize("n", [10**6, 10**8, 10**10])
def test_core_estimate_at_large_ty_against_50_digits(n):
    # at t = n, t y is 200-20000: 2 pi y m and t log eta(i t y) each hold
    # pi t^2 y / 12 (10^7 to 10^14) with opposite signs, around a result
    # of 2.5 * 10^3 to 2.6 * 10^5; the estimate must not lose those bits
    reference, ty = _estimate_50_digits(n, n)
    assert ty > 100
    estimate = tcore_count_estimate(n, n).log
    assert abs(estimate - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("n, t, ty", [
    (1000, 6, 0.0024), (1000, 150, 0.93), (10**6, 5000, 0.997),
    (10**6, 8000, 1.63), (10**8, 5 * 10**4, 0.997)])
def test_core_estimate_across_ty_equal_1_against_50_digits(n, t, ty):
    # one formula on both sides of t y = 1, near it and far below it
    reference, solved_ty = _estimate_50_digits(n, t)
    assert solved_ty == pytest.approx(ty, rel=0.01)
    estimate = tcore_count_estimate(n, t).log
    assert abs(estimate - reference) <= 1e-12 * abs(reference)


def test_core_estimate_scope_guard():
    with pytest.raises(GuardError):
        tcore_count_estimate(100, 101)
    with pytest.raises(GuardError):
        tcore_count_estimate(100, 5)
    # an invalid n or t is a usage error, before the scope guard
    with pytest.raises(ValueError):
        tcore_count_estimate(-5, 6)
    with pytest.raises(ValueError):
        tcore_count_estimate(100, 0)


# ---------------------------------------------------------------------------
# partition asymptotics

def test_rademacher_ratio_shrinks():
    gaps = []
    for n in (100, 400, 1600, 6400):
        ratio = math.exp(rademacher_main_term(n).log - math.log(partition_count(n)))
        gaps.append(abs(ratio - 1))
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert gaps[3] < 0.1


def test_rademacher_at_100():
    ratio = math.exp(rademacher_main_term(100).log - math.log(190569292))
    assert abs(ratio - 1) < 0.05


def test_rademacher_n1_finite():
    val = rademacher_main_term(1)
    assert math.isfinite(val.log)


# ---------------------------------------------------------------------------
# bound evaluators

def test_core_bound_regime_i_matches_exact():
    rep = core_count_bound(2000, 10, 0.5)
    assert rep.regime == "P32_I"
    ratio = math.exp(rep.bound.log - math.log(tcore_count(10, 2000)))
    assert abs(ratio - 1) < 0.3


def core_count_bound_gamma_form(n: int, t: int) -> float:
    """Log of the pre-Stirling variant of the regime-i core-count form:
    (2 pi)^((t-1)/2) / (t^(t/2) Gamma((t-1)/2)) * m^((t-3)/2)."""
    m = n + (t * t - 1) / 24.0
    return ((t - 1) / 2 * math.log(2 * math.pi) - t / 2 * math.log(t)
            - math.lgamma((t - 1) / 2) + (t - 3) / 2 * math.log(m))


def test_core_bound_matches_gamma_form():
    # regime-i vs its pre-Stirling parent within the Stirling correction
    for t in (10, 20, 50, 200):
        stirling = core_count_bound(2000, t, regime="P32_I").bound
        ratio = math.exp(stirling.log - core_count_bound_gamma_form(2000, t))
        assert 1 - 2 / t <= ratio <= 1 + 2 / t


def test_core_bound_regime_iii_is_lower_bound():
    rep = core_count_bound(1000, 900)
    assert rep.regime == "P32_III"
    assert rep.p_source == "exact"
    assert rep.bound.log <= math.log(tcore_count(900, 1000))


def test_core_bound_regime_iv():
    n = 300000
    t0 = int(math.sqrt(6) / (2 * math.pi) * math.sqrt(n) * math.log(n)) + 1
    rep = core_count_bound(n, t0)
    assert rep.regime == "P32_IV"
    assert rep.p_source == "exact"
    log_p = math.log(partition_count(n))
    assert rep.bound.log <= log_p
    # the damping factor tends to 1 as t -> n
    gap0 = log_p - rep.bound.log
    gap1 = log_p - core_count_bound(n, n).bound.log
    assert gap1 < gap0 and gap1 < 1e-200


def test_core_bound_gap_refused():
    # between the regime-i range at epsilon=1/2 and the regime-ii range
    n = 2000
    log_n = math.log(n)
    lo = 2 * math.pi * math.sqrt(2 * n) / math.sqrt(1.5 * log_n)
    hi = 2 * math.pi * math.sqrt(2 * n) / math.sqrt(log_n)
    t = int((lo + hi) / 2)
    assert lo < t < hi
    with pytest.raises(GuardError):
        core_count_bound(n, t, 0.5)
    # an explicit override still evaluates
    rep = core_count_bound(n, t, 0.5, regime="P32_II")
    assert rep.regime == "P32_II"


def test_core_bound_guards():
    with pytest.raises(GuardError):
        core_count_bound(50, 10)
    with pytest.raises(GuardError):
        core_count_bound(1000, 5)
    with pytest.raises(ValueError):
        core_count_bound(1000, 10, epsilon=2.0)


@pytest.mark.parametrize("n", [50, -5])
def test_core_bound_unknown_regime_before_the_guards(n):
    # the regime name is checked first: n = 50 alone is a guard refusal,
    # n = -5 alone an invalid argument
    with pytest.raises(ValueError) as exc:
        core_count_bound(n, 10, regime="P32_V")
    assert str(exc.value) == \
        "regime must be one of P32_I, P32_II, P32_III, P32_IV, got 'P32_V'"


def test_full_table_bound_small_n():
    rep = full_table_bound(100)
    expected = math.log(2) + 2 * math.log(190569292) - math.log(math.log(100))
    assert rep.bound.log == pytest.approx(expected, rel=1e-12)
    assert rep.p_source == "exact"
    assert rep.regime == "T12"
    assert rep.t is None


def test_full_table_bound_attaches_census_ratio():
    z = zero_count(12).total_zeros
    rep = full_table_bound(12, exact_zeros=z)
    assert rep.ratio == pytest.approx(z * math.log(12) / (2 * partition_count(12) ** 2))
    assert rep.comparison is not None


def test_full_table_bound_n2_finite():
    assert math.isfinite(full_table_bound(2).bound.log)


def test_strip_bound_regime_i_tracks_exact_product():
    # main term = core form * p(n); the exact product c_t(n) p_t(n-t) sits a
    # factor p(n)/p(n-t) = exp(C t / (sqrt(n-t)+sqrt(n))) (1+o(1)) below it,
    # inside the bound's stated O(t/sqrt n) slack
    n, t = 2000, 10
    rep = strip_zero_bound(n, t)
    assert rep.regime == "T13_I"
    exact_proxy = tcore_count(t, n) * partition_count(n - t)
    log_gap = rep.bound.log - math.log(exact_proxy)
    assert abs(log_gap) < C * t / math.sqrt(n)
    # after correcting by the exact p-ratio the main terms agree closely
    corrected = rep.bound.log + math.log(partition_count(n - t)) \
        - math.log(partition_count(n))
    assert abs(math.exp(corrected - math.log(exact_proxy)) - 1) < 0.3


def test_strip_bound_regime_tags():
    n = 2000
    assert strip_zero_bound(n, 10).regime == "T13_I"
    assert strip_zero_bound(n, 150).regime == "T13_II"
    assert strip_zero_bound(n, 300).regime == "T13_III"
    with pytest.raises(GuardError):
        strip_zero_bound(100, 5)
    with pytest.raises(GuardError):
        strip_zero_bound(2000, 130)  # gap at epsilon = 1/2


def test_strip_bound_regime_iii_at_t_equal_n():
    rep = strip_zero_bound(200, 200)
    assert rep.regime == "T13_III"
    assert math.isfinite(rep.bound.log)


def test_bound_report_json_shape():
    rep = core_count_bound(1000, 900)
    d = rep.to_json_dict()
    assert set(d) == {"N", "t", "regime", "log_bound", "log_exact", "ratio", "p_source"}
    assert d["log_exact"] is None and d["ratio"] is None
    d2 = rep.with_comparison(tcore_count(900, 1000)).to_json_dict()
    assert d2["ratio"] > 1


def test_with_comparison_zero_huge_and_negative():
    rep = BoundReport(n=100, t=None, regime="T12", bound=LogReal(5.0))
    zero = rep.with_comparison(0)
    assert zero.ratio == 0.0 and zero.comparison.log == -math.inf
    assert zero.to_json_dict()["log_exact"] == -math.inf
    assert rep.with_comparison(10**400).ratio == math.inf
    assert rep.with_comparison(3).comparison == LogReal(math.log(3))
    with pytest.raises(ValueError):
        rep.with_comparison(-1)


def test_log_real_is_a_plain_record():
    x = LogReal(2.0)
    assert x == LogReal(2.0) and hash(x) == hash(LogReal(2.0))
    assert x != LogReal(3.0) and x.log == 2.0
    assert repr(x) == "LogReal(log=2.0)"
    with pytest.raises(AttributeError):
        x.log = 3.0


# ---------------------------------------------------------------------------
# regime selection against the per-family range chains it replaced

def _f(n):
    # the regime-iii threshold of both bound families
    return math.sqrt(24 * n) / math.sqrt(6 / math.pi - 1)


def _core_regime_oracle(n, t, epsilon, f):
    log_n = math.log(n)
    part_i_hi = 2 * math.pi * math.sqrt(2 * n) / math.sqrt((1 + epsilon) * log_n)
    part_ii_lo = 2 * math.pi * math.sqrt(2 * n) / math.sqrt(log_n)
    part_iv_lo = math.sqrt(6) / (2 * math.pi) * math.sqrt(n) * log_n
    if t <= part_i_hi:
        return "P32_I"
    if n >= 300_000 and t > part_iv_lo:
        return "P32_IV"
    if t >= f:
        return "P32_III"
    if t > part_ii_lo:
        return "P32_II"
    return None


def _strip_oracle(n, t, epsilon):
    log_n = math.log(n)
    part_i_hi = 2 * math.pi * math.sqrt(2 * n) / math.sqrt((1 + epsilon) * log_n)
    part_ii_lo = 2 * math.pi * math.sqrt(2 * n) / math.sqrt(log_n)
    f = _f(n)
    log_p, _ = _log_p(n)
    if t <= part_i_hi:
        return "T13_I", _core_log_i(n, t) + log_p
    if t >= f:
        decay = C * t / (math.sqrt(n - t) + math.sqrt(n))
        return "T13_III", 2 * log_p - (_core_damping_iii(n, t) + decay)
    if t > part_ii_lo:
        return "T13_II", _core_log_ii(n, t) + log_p
    return None


def _check_against_oracles(n, ts, epsilon):
    f = _f(n)
    for t in ts:
        expected = _core_regime_oracle(n, t, epsilon, f)
        if expected is None:
            with pytest.raises(GuardError):
                core_count_bound(n, t, epsilon)
        else:
            rep = core_count_bound(n, t, epsilon)
            assert rep.regime == expected, (n, t, epsilon)
            forced = core_count_bound(n, t, epsilon, regime=expected)
            assert rep.bound.log == forced.bound.log, (n, t, epsilon)
        expected = _strip_oracle(n, t, epsilon)
        if expected is None:
            with pytest.raises(GuardError):
                strip_zero_bound(n, t, epsilon)
        else:
            rep = strip_zero_bound(n, t, epsilon)
            assert (rep.regime, rep.bound.log) == expected, (n, t, epsilon)


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.9])
def test_regime_selection_matches_oracles_every_t(epsilon):
    for n in (100, 137, 1000, 2000):
        _check_against_oracles(n, range(6, n + 1), epsilon)


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 0.9])
def test_regime_selection_matches_oracles_large_n(epsilon):
    # sampled t plus the integers around every range limit; P32_IV only
    # exists from n = 3 * 10^5 on
    rng = random.Random(5)
    seen = set()
    for n in (300_000, 1_000_000):
        log_n = math.log(n)
        limits = (2 * math.pi * math.sqrt(2 * n) / math.sqrt((1 + epsilon) * log_n),
                  2 * math.pi * math.sqrt(2 * n) / math.sqrt(log_n),
                  _f(n),
                  math.sqrt(6) / (2 * math.pi) * math.sqrt(n) * log_n)
        ts = {rng.randint(6, n) for _ in range(200)}
        ts |= {int(x) + d for x in limits for d in (-1, 0, 1, 2)}
        _check_against_oracles(n, sorted(ts), epsilon)
        seen |= {core_count_bound(n, t, epsilon).regime for t in ts
                 if _core_regime_oracle(n, t, epsilon, limits[2]) is not None}
    assert seen == {"P32_I", "P32_II", "P32_III", "P32_IV"}


def test_p_exact_limit_pinned():
    n = P_EXACT_LIMIT + 1
    assert full_table_bound(n).p_source == "rademacher"
    assert strip_zero_bound(n, 6).p_source == "rademacher"
    assert P_EXACT_LIMIT == 10**6
    report = full_table_bound(P_EXACT_LIMIT)
    assert report.p_source == "exact"
    assert strip_zero_bound(P_EXACT_LIMIT, 6).p_source == "exact"
    assert report.bound.log == math.log(2) + 2 * math.log(
        partition_count(P_EXACT_LIMIT)) - math.log(math.log(P_EXACT_LIMIT))
    # below the limit p(n) is the exact integer, pinned in test_counting
    report = full_table_bound(100_000)
    assert report.p_source == "exact"
    assert report.bound.log == \
        math.log(2) + 2 * math.log(P_100000) - math.log(math.log(100_000))
