"""Real-analytic machinery: eta evaluation, the saddle-point t-core
estimate, regime bounds for core counts and zero counts, and the
partition asymptotics they lean on.

Magnitudes such as p(N)^2 / log N overflow doubles long before the
ranges of interest (exp((2 pi / sqrt 6) sqrt N) alone does near
N ~ 3e5), so estimates and bounds are computed as natural logs and
returned as ``LogReal`` records; callers combine them as floats on the
log scale.  ``eta`` returns log eta(iy) as a plain float, and only
saddle ordinates, residuals and regime thresholds live on the linear
scale.  log eta and its scaled log-derivatives (``_mu``) read one
kernel, ``_q_sums``, which sums the three divisor series in
q = exp(-2*pi*u) behind log eta(iu) = -pi*u/12 - sum_n sigma(n)/n * q^n
and its derivatives, to double precision.  The modular transformation
eta(iy) = y^(-1/2) * eta(i/y) is applied first whenever the argument is
below 1, so u >= 1 and the series always converges geometrically with
ratio at most exp(-2*pi).

The transformation brings in the terms -pi/(12 y) of log eta(iy), -1/24
of mu1 and 1/12 of mu2, which for small y are far larger than what the
saddle point reads: every caller forms t log eta(ity) - log eta(iy) or
a difference of mu_k at ty and y, from which these terms cancel exactly.
So ``_mu`` returns mu1 + 1/24 and mu2 - 1/12, and ``_log_eta`` returns
g(y) = log eta(iy) + pi/(12 y) + pi y/12, which also leaves out the
-pi y/12 that the direct series carries at large y.  The transformation
leaves g symmetric, g(1/y) = g(y) + log(y)/2, so one body serves both
sides of y = 1 and neither holds a term linear in y or 1/y; only
``eta`` adds -pi/(12 y) - pi y/12 back.

The saddle solve bisects on the mu1 difference alone and the estimate
reads the mu2 difference at the solved ordinate, so no caller needs a
derivative of mu1 in y and ``_mu`` forms none.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .counting import P_EXACT_LIMIT, partition_count
from .errors import GuardError, NumericError

GROWTH_CONSTANT = 2 * math.pi / math.sqrt(6)  # C in p(N) ~ exp(C sqrt N) / (4 N sqrt 3)
ETA_TAIL_CAP = 1.00873  # upper bound for the eta tail witness v, any y >= sqrt(3)/2
# largest n and t of the saddle solve and the bound evaluators: they carry
# n, t^2 and powers of the saddle ordinate y ~ 1/sqrt(24 n) as doubles, and
# near 10^150 t^2 overflows and y^3 underflows to 0
ANALYTIC_GUARD = 10**100


class LogReal(NamedTuple):
    """A nonnegative real carried as its natural log: the bounds and
    estimates overflow doubles (p(N) alone does near N = 8e4), their
    logs do not."""

    log: float  # -inf for zero


_SERIES_CAP = 64
# sigma(n), the sum of the divisors of n; sigma(0) = 0 is a placeholder
_SIGMA = [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(_SERIES_CAP + 1)]


def _q_sums(u: float) -> tuple[float, float, float]:
    """The divisor series in q = exp(-2 pi u), for u >= 1, in one loop:

        e  = sum_{n>=2} sigma(n)/n q^(n-1),
        s0 = sum_n sigma(n) q^n,
        s1 = sum_n n sigma(n) q^n.

    The log-eta tail sum_n sigma(n)/n q^n is q (1 + e); e is kept apart
    so that v - 1 = e survives rounding.  The powers of q come by
    repeated multiplication, and the loop stops when a term no longer
    changes any sum: consecutive terms shrink by about q <= exp(-2 pi)
    ~ 1/535, so double precision takes a few terms.
    """
    q = math.exp(-2 * math.pi * u)
    e, s0, s1 = 0.0, q, q  # the n = 1 terms; sigma(1) = 1
    prev = q  # q^(n-1)
    for n in range(2, _SERIES_CAP + 1):
        qn = prev * q
        term = _SIGMA[n] * qn
        sums = (e + _SIGMA[n] / n * prev, s0 + term, s1 + n * term)
        if sums == (e, s0, s1):
            break
        e, s0, s1 = sums
        prev = qn
    return e, s0, s1


def _log_eta(y: float) -> float:
    """g(y) = log eta(iy) + pi/(12 y) + pi y/12, from the series at
    u = max(y, 1/y): g(u) = pi/(12 u) - sum_n sigma(n)/n q^n, and
    g(y) = g(1/y) - log(y)/2 below 1."""
    u = max(y, 1.0 / y)
    g = math.pi / (12 * u) - (1.0 + _q_sums(u)[0]) * math.exp(-2 * math.pi * u)
    return g if y >= 1 else g - 0.5 * math.log(y)


def eta(y: float) -> float:
    """log eta(iy) for y > 0, to double precision: ``_log_eta`` less the
    pi/(12 y) + pi y/12 that it leaves out."""
    if y <= 0:
        raise ValueError("y must be positive")
    return _log_eta(y) - math.pi / (12 * y) - math.pi * y / 12


def _mu(y: float) -> tuple[float, float]:
    """(mu1 + 1/24, mu2 - 1/12) at iy from one kernel call: the series at
    y for y >= 1, at 1/y through the modular transformation below 1.
    Here mu_k is the k-th scaled log-derivative of eta,
    -(z^(k+1) / (2 pi i)) (d/dz)^k log eta(z) at z = iy."""
    if y >= 1:
        _, s0, s1 = _q_sums(y)
        return y * y / 24 - y * y * s0 + 1.0 / 24, 2 * math.pi * y ** 3 * s1 - 1.0 / 12
    # transformed: mu1 + 1/24 = s0 + y/(4 pi),
    # mu2 - 1/12 = -y/(4 pi) + sum sigma(n) (2 pi n / y - 2) q^n, at u = 1/y
    _, s0, s1 = _q_sums(1.0 / y)
    return s0 + y / (4 * math.pi), -y / (4 * math.pi) + (2 * math.pi / y * s1 - 2 * s0)


def _check_args(n: int, t: int) -> None:
    # before every guard, so an invalid n or t is a usage error at any size
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if t < 1:
        raise ValueError(f"t must be positive, got {t}")


def _check_analytic_size(n: int, t: int = 0) -> None:
    if n > ANALYTIC_GUARD or t > ANALYTIC_GUARD:
        name, value = ("n", n) if n > ANALYTIC_GUARD else ("t", t)
        raise GuardError(f"analytic evaluators limited to {name} <= "
                         f"10^{len(str(ANALYTIC_GUARD)) - 1}, "
                         f"got {name} of {len(str(value))} digits")


class SaddleSolution(NamedTuple):
    """Solved saddle ordinate for the t-core count of n.

    The solution satisfies (mu1(i t y) - mu1(i y)) / y^2 = n + (t^2-1)/24
    within ``residual`` (same units as the right-hand side), and sits
    strictly inside (bracket_lo, bracket_hi).  ty_regime records whether
    t*y landed below 1 (SMALL) or not (LARGE).
    """

    n: int
    t: int
    y: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    ty_regime: str


def saddle_bracket(n: int, t: int) -> tuple[float, float]:
    """A-priori bracket for the saddle ordinate: the root lies in
    ((t-1) / (4 pi (n + (t^2-1)/24)),  1 / (3/pi + sqrt(24n - 1 + 9/pi^2)))."""
    m = n + (t * t - 1) / 24.0
    lo = (t - 1) / (4 * math.pi * m)
    hi = 1.0 / (3 / math.pi + math.sqrt(24 * n - 1 + 9 / math.pi ** 2))
    return lo, hi


def solve_saddle(n: int, t: int, tol: float = 1e-9) -> SaddleSolution:
    """Solve (mu1(i t y) - mu1(i y)) / y^2 = n + (t^2-1)/24 for y > 0.

    Bisection alone, from the a-priori bracket down to relative width
    1e-12; y is the midpoint of the last bracket, so it lies within
    5e-13 y of the root and |residual| stays below about 5e-13 * m, with
    m the right-hand side.  A tol under 1e-12 may therefore fail where
    the solve is sound.  Raises NumericError when the bracket fails to
    straddle the root or |residual| exceeds tol * m,
    ValueError for n < 0, t < 1 or tol outside (0, 1), and GuardError
    for n or t above ``ANALYTIC_GUARD``, t < 6 or n = 0.
    """
    _check_args(n, t)
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    _check_analytic_size(n, t)
    if t < 6:
        raise GuardError(f"saddle solve requires t >= 6, got {t}")
    if n < 1:
        raise GuardError("saddle solve requires n >= 1 (the a-priori upper "
                         "bracket is not real at n = 0)")
    m = n + (t * t - 1) / 24.0

    def f(y: float) -> float:
        return (_mu(t * y)[0] - _mu(y)[0]) / (y * y) - m

    lo, hi = saddle_bracket(n, t)
    f_lo, f_hi = f(lo), f(hi)
    # When t*y < 1 the root sits within ~exp(-2 pi / y) of the lower
    # endpoint, far below double resolution, so f(lo) may round to a
    # tiny negative; only a sign failure beyond the noise floor is a
    # genuine breakdown.
    noise = 1e-10 * m
    if not (f_lo > -noise and f_hi < noise and f_lo > f_hi):
        raise NumericError(
            f"saddle bracket does not straddle the root at n={n}, t={t}: "
            f"residual {f_lo:.6g} at {lo:.6g}, {f_hi:.6g} at {hi:.6g}")
    a, b = lo, hi
    while b - a > 1e-12 * a:
        mid = 0.5 * (a + b)
        if f(mid) > 0:
            a = mid
        else:
            b = mid
    y = 0.5 * (a + b)
    residual = f(y)
    if abs(residual) > tol * m:
        raise NumericError(
            f"saddle residual {residual:.3e} exceeds {tol:.1e} * {m:.6g} "
            f"at n={n}, t={t}")
    return SaddleSolution(n=n, t=t, y=y, bracket_lo=lo, bracket_hi=hi,
                          residual=residual,
                          ty_regime="SMALL" if t * y < 1 else "LARGE")


def tcore_count_estimate(n: int, t: int) -> LogReal:
    """Saddle-point main term for the t-core count of n (log scale):

        y^(3/2) * exp(2 pi y (n + (t^2-1)/24)) * eta(i t y)^t
          / (sqrt(mu2(i y) - mu2(i t y)) * eta(i y))

    with y the solved saddle ordinate.  Valid for 6 <= t <= n; the
    relative error decays like 1 / min(t, sqrt n).  In g = ``_log_eta``
    the log is 1.5 log y + 2 pi y n + t g(t y) - g(y) - log(mu2 diff)/2:
    2 pi y (t^2-1)/24 cancels the pi t^2 y/12 and pi y/12 that g leaves
    out, and -pi/(12 y) cancels between the two eta terms, so no large
    terms cancel on either side of t y = 1.
    """
    _check_args(n, t)
    if not 6 <= t <= n:
        raise GuardError(f"t-core estimate requires 6 <= t <= n, got t={t}, n={n}")
    y = solve_saddle(n, t).y
    mu2_diff = _mu(y)[1] - _mu(t * y)[1]
    if mu2_diff <= 0:
        raise NumericError(f"nonpositive curvature term {mu2_diff:.3e} at n={n}, t={t}")
    log_val = (1.5 * math.log(y) + 2 * math.pi * y * n + t * _log_eta(t * y)
               - _log_eta(y) - 0.5 * math.log(mu2_diff))
    return LogReal(log_val)


# ---------------------------------------------------------------------------
# Partition asymptotics

def rademacher_main_term(n: int) -> LogReal:
    """Main term of p(n): exp(C sqrt n) / (4 n sqrt 3), C = 2 pi / sqrt 6.

    Relative error decays like n^(-1/2)."""
    if n < 1:
        raise ValueError("n must be positive")
    return LogReal(GROWTH_CONSTANT * math.sqrt(n) - math.log(4 * math.sqrt(3) * n))


def _log_p(n: int) -> tuple[float, str]:
    if n <= P_EXACT_LIMIT:
        return math.log(partition_count(n)), "exact"
    return rademacher_main_term(n).log, "rademacher"


# ---------------------------------------------------------------------------
# Bound reports

class BoundReport(NamedTuple):
    """One evaluated bound, optionally paired with an exact comparison.

    ``ratio`` is exact / bound on the linear scale when a comparison is
    attached.  ``p_source`` records whether p(n) entered exactly or
    through its main term.
    """

    n: int
    t: int | None
    regime: str
    bound: LogReal
    p_source: str | None = None
    comparison: LogReal | None = None
    ratio: float | None = None

    def with_comparison(self, exact: int) -> "BoundReport":
        """Attach the exact count ``exact`` >= 0 and exact / bound."""
        if exact < 0:
            raise ValueError(f"exact count must be nonnegative, got {exact}")
        log_exact = math.log(exact) if exact else -math.inf
        try:
            ratio = math.exp(log_exact - self.bound.log)
        except OverflowError:
            ratio = math.inf
        return self._replace(comparison=LogReal(log_exact), ratio=ratio)

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "t": self.t,
            "regime": self.regime,
            "log_bound": self.bound.log,
            "log_exact": None if self.comparison is None else self.comparison.log,
            "ratio": self.ratio,
            "p_source": self.p_source,
        }


def _core_log_i(n: int, t: int) -> float:
    # (4 pi e)^((t-1)/2) (t-1) / (sqrt(4 pi) (t^2-t)^(t/2)) * m^((t-3)/2)
    m = n + (t * t - 1) / 24.0
    return ((t - 1) / 2 * (math.log(4 * math.pi) + 1) + math.log(t - 1)
            - 0.5 * math.log(4 * math.pi) - t / 2 * math.log(t * t - t)
            + (t - 3) / 2 * math.log(m))


def _core_log_ii(n: int, t: int) -> float:
    # 2 sqrt(pi) exp((t-1)/2 - 1.00873 t e^(-2 pi)) (pi/6 (24n+t^2-1))^((t-3)/2) / t^(t-1)
    return (math.log(2 * math.sqrt(math.pi)) + (t - 1) / 2
            - ETA_TAIL_CAP * t * math.exp(-2 * math.pi)
            + (t - 3) / 2 * math.log(math.pi / 6 * (24 * n + t * t - 1))
            - (t - 1) * math.log(t))


def _core_damping_iii(n: int, t: int) -> float:
    m = n + (t * t - 1) / 24.0
    return ETA_TAIL_CAP * t * math.exp(-t * (t - 1) / (2 * m))


def _core_damping_iv(n: int, t: int) -> float:
    return t * math.exp(-math.pi * t / math.sqrt(6 * n))


P32_REGIMES = ("P32_I", "P32_II", "P32_III", "P32_IV")


def _check_bound_args(n: int, t: int, epsilon: float) -> None:
    _check_args(n, t)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    _check_analytic_size(n, t)
    if n < 100:
        raise GuardError(f"regime bounds require n >= 100, got {n}")
    if not 6 <= t <= n:
        raise GuardError(f"regime bounds require 6 <= t <= n, got t={t}")


def _regime(n: int, t: int, epsilon: float) -> str:
    """The range of t that both bound families split on: "I" up to
    2 pi sqrt(2n) / sqrt((1 + epsilon) log n), "III" from
    f = sqrt(24 n) / sqrt(6/pi - 1) on, "II" above 2 pi sqrt(2n) /
    sqrt(log n).  Raises GuardError in the gap between the regime-i and
    regime-ii ranges."""
    log_n = math.log(n)
    if t <= 2 * math.pi * math.sqrt(2 * n) / math.sqrt((1 + epsilon) * log_n):
        return "I"
    if t >= math.sqrt(24 * n) / math.sqrt(6 / math.pi - 1):
        return "III"
    if t > 2 * math.pi * math.sqrt(2 * n) / math.sqrt(log_n):
        return "II"
    raise GuardError(
        f"no bound regime applies at n={n}, t={t}: t falls in the gap "
        f"between the regime-i range (epsilon={epsilon}) and the "
        f"regime-ii range")


def core_count_bound(n: int, t: int, epsilon: float = 0.5,
                     regime: str | None = None) -> BoundReport:
    """Evaluate the core-count bound main term in the regime that the
    (n, t) ranges select (or a caller-forced regime).

    Regime I is an asymptotic equality; II, III and IV are lower-bound
    main terms.  IV replaces II or III when n >= 3 * 10^5 and
    t > (sqrt 6 / 2 pi) sqrt(n) log n.  III and IV go through p(n),
    exact up to ``P_EXACT_LIMIT``.  Raises ValueError for a regime not
    in ``P32_REGIMES``, before any other check, and GuardError when t
    falls in the uncovered gap between the regime-i and regime-ii ranges.
    """
    if regime not in (None, *P32_REGIMES):
        raise ValueError(f"regime must be one of {', '.join(P32_REGIMES)}, got {regime!r}")
    _check_bound_args(n, t, epsilon)
    if regime is None:
        regime = "P32_" + _regime(n, t, epsilon)
        # The regime-iv range starts above the regime-ii one (their ratio
        # grows like log(n)^(3/2) and exceeds 1.9 at n = 3 * 10^5), so it
        # never meets the gap.
        if (regime != "P32_I" and n >= 300_000
                and t > math.sqrt(6) / (2 * math.pi) * math.sqrt(n) * math.log(n)):
            regime = "P32_IV"
    p_source = None
    if regime == "P32_I":
        log_bound = _core_log_i(n, t)
    elif regime == "P32_II":
        log_bound = _core_log_ii(n, t)
    else:
        log_p, p_source = _log_p(n)
        damping = _core_damping_iii(n, t) if regime == "P32_III" \
            else _core_damping_iv(n, t)
        log_bound = log_p - damping
    return BoundReport(n=n, t=t, regime=regime, bound=LogReal(log_bound),
                       p_source=p_source)


def full_table_bound(n: int, exact_zeros: int | None = None) -> BoundReport:
    """Asymptotic lower-bound main term for the total zero count:
    2 p(n)^2 / log n.  Purely asymptotic; at desk scale the report is
    meant to carry the exact-census ratio, not an inequality claim.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_analytic_size(n)
    log_p, p_source = _log_p(n)
    log_bound = math.log(2) + 2 * log_p - math.log(math.log(n))
    report = BoundReport(n=n, t=None, regime="T12",
                         bound=LogReal(log_bound), p_source=p_source)
    if exact_zeros is not None:
        report = report.with_comparison(exact_zeros)
    return report


def strip_zero_bound(n: int, t: int, epsilon: float = 0.5) -> BoundReport:
    """Lower-bound main term for the zero count restricted to t-core rows.

    Multiplies the regime-appropriate core-count form by p(n) (regimes
    T13_I, T13_II), or uses p(n)^2 damped by the top-regime exponential
    plus the p(n-t)/p(n) decay (T13_III, for t >= f, the regime-iii
    threshold of ``_regime``).
    """
    _check_bound_args(n, t, epsilon)
    regime = "T13_" + _regime(n, t, epsilon)
    log_p, p_source = _log_p(n)
    if regime == "T13_I":
        log_bound = _core_log_i(n, t) + log_p
    elif regime == "T13_II":
        log_bound = _core_log_ii(n, t) + log_p
    else:
        decay = GROWTH_CONSTANT * t / (math.sqrt(n - t) + math.sqrt(n))
        log_bound = 2 * log_p - (_core_damping_iii(n, t) + decay)
    return BoundReport(n=n, t=t, regime=regime, bound=LogReal(log_bound),
                       p_source=p_source)
