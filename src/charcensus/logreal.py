"""Nonnegative reals carried as natural logarithms.

Quantities like p(N)^2 / log N overflow doubles long before the ranges
of interest (exp((2pi/sqrt 6) sqrt N) alone does near N ~ 3e5), so every
magnitude in the asymptotic engine lives in log-space.  Callers combine
magnitudes as floats on the log scale; a ``LogReal`` carries the result,
or an exact zero, and ``ratio_to`` compares two of them on the linear
scale.  It has no arithmetic operators and no ordering.
"""

from __future__ import annotations

import math


class LogReal:
    """A nonnegative real stored as its natural log plus a zero flag.

    Immutable and hashable, equal when both fields are.  A plain class,
    not a tuple, so it has no tuple arithmetic or ordering.
    """

    __slots__ = ("log_magnitude", "is_zero")

    def __init__(self, log_magnitude: float, is_zero: bool = False):
        object.__setattr__(self, "log_magnitude", log_magnitude)
        object.__setattr__(self, "is_zero", is_zero)

    def __setattr__(self, name, value):
        raise AttributeError("LogReal is immutable")

    def __eq__(self, other):
        if not isinstance(other, LogReal):
            return NotImplemented
        return (self.log_magnitude, self.is_zero) == (other.log_magnitude, other.is_zero)

    def __hash__(self) -> int:
        return hash((self.log_magnitude, self.is_zero))

    def __repr__(self) -> str:
        return f"LogReal(log_magnitude={self.log_magnitude!r}, is_zero={self.is_zero!r})"

    @classmethod
    def from_value(cls, x) -> "LogReal":
        if x < 0:
            raise ValueError("LogReal holds nonnegative values only")
        if x == 0:
            return cls(-math.inf, True)
        return cls(math.log(x), False)

    @classmethod
    def from_log(cls, log_x: float) -> "LogReal":
        return cls(float(log_x), False)

    @property
    def log(self) -> float:
        return -math.inf if self.is_zero else self.log_magnitude

    def ratio_to(self, other: "LogReal") -> float:
        """self / other on the linear scale (inf on overflow)."""
        if other.is_zero:
            raise ZeroDivisionError("ratio to zero")
        if self.is_zero:
            return 0.0
        diff = self.log_magnitude - other.log_magnitude
        try:
            return math.exp(diff)
        except OverflowError:
            return math.inf
