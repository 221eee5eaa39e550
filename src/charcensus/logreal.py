"""Nonnegative reals carried as natural logarithms.

Quantities like p(N)^2 / log N overflow doubles long before the ranges
of interest (exp((2pi/sqrt 6) sqrt N) alone does near N ~ 3e5), so every
magnitude in the asymptotic engine lives in log-space.  Multiplication,
division, powers and comparison are exact up to floating error on the
logs; addition goes through a stable log-sum-exp.
"""

from __future__ import annotations

import math


class LogReal:
    """A nonnegative real stored as its natural log plus a zero flag.

    Immutable and hashable, equal when both fields are.  A plain class,
    not a tuple, so ``+``, ``*`` and ordering are its own arithmetic.
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

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(-math.inf, True)

    @property
    def log(self) -> float:
        return -math.inf if self.is_zero else self.log_magnitude

    @property
    def value(self) -> float:
        """Linear-scale value; inf when the magnitude overflows a double."""
        if self.is_zero:
            return 0.0
        try:
            return math.exp(self.log_magnitude)
        except OverflowError:
            return math.inf

    def __mul__(self, other: "LogReal") -> "LogReal":
        if self.is_zero or other.is_zero:
            return LogReal.zero()
        return LogReal(self.log_magnitude + other.log_magnitude)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        if other.is_zero:
            raise ZeroDivisionError("LogReal division by zero")
        if self.is_zero:
            return LogReal.zero()
        return LogReal(self.log_magnitude - other.log_magnitude)

    def __pow__(self, k: float) -> "LogReal":
        if self.is_zero:
            if k <= 0:
                raise ZeroDivisionError("zero to a nonpositive power")
            return LogReal.zero()
        return LogReal(self.log_magnitude * k)

    def __add__(self, other: "LogReal") -> "LogReal":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        hi, lo = self.log_magnitude, other.log_magnitude
        if hi < lo:
            hi, lo = lo, hi
        return LogReal(hi + math.log1p(math.exp(lo - hi)))

    def _cmp_key(self) -> float:
        return -math.inf if self.is_zero else self.log_magnitude

    def __lt__(self, other: "LogReal") -> bool:
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other: "LogReal") -> bool:
        return self._cmp_key() <= other._cmp_key()

    def __gt__(self, other: "LogReal") -> bool:
        return self._cmp_key() > other._cmp_key()

    def __ge__(self, other: "LogReal") -> bool:
        return self._cmp_key() >= other._cmp_key()

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
