import math

import pytest
from hypothesis import given, strategies as st

from charcensus.logreal import LogReal

finite = st.floats(min_value=-600.0, max_value=600.0, allow_nan=False)


def test_constructors():
    assert LogReal.from_value(1.0).log == 0.0
    assert LogReal.from_value(0).is_zero
    assert LogReal.zero().value == 0.0
    assert LogReal.from_log(3.0).value == pytest.approx(math.exp(3.0))
    with pytest.raises(ValueError):
        LogReal.from_value(-1.0)


def test_overflow_safe_value():
    big = LogReal.from_log(1e6)
    assert big.value == math.inf
    assert (big / big).value == 1.0


@given(finite, finite)
def test_multiply_divide(a, b):
    x, y = LogReal.from_log(a), LogReal.from_log(b)
    assert (x * y).log == pytest.approx(a + b)
    assert (x / y).log == pytest.approx(a - b)


@given(st.floats(min_value=1e-8, max_value=1e8), st.floats(min_value=-20, max_value=20))
def test_power_round_trip(x, k):
    lr = LogReal.from_value(x) ** k
    assert math.exp(lr.log - k * math.log(x)) == pytest.approx(1.0, abs=1e-12)


@given(finite, finite)
def test_log_sum_exp_addition(a, b):
    s = LogReal.from_log(a) + LogReal.from_log(b)
    direct = max(a, b) + math.log1p(math.exp(-abs(a - b)))
    assert s.log == pytest.approx(direct)


def test_addition_with_zero():
    x = LogReal.from_log(2.0)
    assert (x + LogReal.zero()).log == 2.0
    assert (LogReal.zero() + x).log == 2.0


def test_zero_arithmetic():
    z = LogReal.zero()
    x = LogReal.from_log(1.0)
    assert (z * x).is_zero
    assert (z / x).is_zero
    with pytest.raises(ZeroDivisionError):
        x / z
    with pytest.raises(ZeroDivisionError):
        z ** -1


@given(finite, finite)
def test_comparisons_match_logs(a, b):
    x, y = LogReal.from_log(a), LogReal.from_log(b)
    assert (x < y) == (a < b)
    assert (x >= y) == (a >= b)
    assert LogReal.zero() <= x


def test_ratio_to():
    x = LogReal.from_log(5.0)
    y = LogReal.from_log(3.0)
    assert x.ratio_to(y) == pytest.approx(math.exp(2.0))
    assert LogReal.zero().ratio_to(x) == 0.0


def test_value_semantics():
    # equal, hashable and immutable like a record, but no tuple arithmetic
    x = LogReal.from_log(2.0)
    assert x == LogReal(2.0) and hash(x) == hash(LogReal(2.0, False))
    assert x != LogReal.from_log(3.0) and LogReal.zero() != LogReal(-math.inf)
    assert repr(x) == "LogReal(log_magnitude=2.0, is_zero=False)"
    with pytest.raises(AttributeError):
        x.is_zero = True
    with pytest.raises(TypeError):
        3 * x
