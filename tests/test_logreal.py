import math

import pytest
from hypothesis import given, strategies as st

from charcensus.logreal import LogReal

finite = st.floats(min_value=-600.0, max_value=600.0, allow_nan=False)


def test_constructors():
    assert LogReal.from_value(1.0).log == 0.0
    assert LogReal.from_value(0).is_zero
    assert LogReal.from_value(0).log == -math.inf
    assert LogReal.from_log(3.0).log == 3.0
    assert LogReal.from_value(10**400).log == pytest.approx(400 * math.log(10))
    with pytest.raises(ValueError):
        LogReal.from_value(-1.0)


def test_overflow_safe_value():
    # magnitudes far beyond a double, compared on the linear scale
    big = LogReal.from_log(1e6)
    assert big.ratio_to(LogReal.from_log(0.0)) == math.inf
    assert big.ratio_to(big) == 1.0
    assert LogReal.from_log(0.0).ratio_to(big) == 0.0


def test_zero_arithmetic():
    z = LogReal.from_value(0)
    x = LogReal.from_log(1.0)
    assert z.ratio_to(x) == 0.0
    with pytest.raises(ZeroDivisionError):
        x.ratio_to(z)
    with pytest.raises(ZeroDivisionError):
        z.ratio_to(z)


@given(finite, finite)
def test_comparisons_match_logs(a, b):
    # equality follows the logs; there is no ordering to compare by
    x, y = LogReal.from_log(a), LogReal.from_log(b)
    assert (x == y) == (a == b)
    assert (x != y) == (a != b)
    with pytest.raises(TypeError):
        x < y


def test_ratio_to():
    x = LogReal.from_log(5.0)
    y = LogReal.from_log(3.0)
    assert x.ratio_to(y) == pytest.approx(math.exp(2.0))
    assert LogReal.from_value(0).ratio_to(x) == 0.0


def test_value_semantics():
    # equal, hashable and immutable like a record, but no tuple arithmetic
    x = LogReal.from_log(2.0)
    assert x == LogReal(2.0) and hash(x) == hash(LogReal(2.0, False))
    assert x != LogReal.from_log(3.0) and LogReal.from_value(0) != LogReal(-math.inf)
    assert repr(x) == "LogReal(log_magnitude=2.0, is_zero=False)"
    with pytest.raises(AttributeError):
        x.is_zero = True
    with pytest.raises(TypeError):
        3 * x
