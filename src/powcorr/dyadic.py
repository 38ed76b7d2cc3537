"""Exact dyadic rationals a / 2^b.

Every base point x, every seed offset, and every filtration point in this
package is a dyadic rational, which keeps the whole pipeline exactly
representable in integer arithmetic: fractional parts, the mu exponents,
and the partition recurrences are all computed without rounding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

#: "a" or "a/2^b", read exactly.  b has at most five digits: aligning two
#: values for a comparison allocates integers of 2^b bits
_PARSE_RE = re.compile(r"^\s*([-+]?\d+)\s*(?:/\s*2\^(\d{1,5}))?\s*$")


@dataclass(frozen=True, order=False)
class DyadicRational:
    """Value numerator / 2^exponent with exponent >= 0.

    Canonical form: numerator odd, or exponent zero.  Construction
    normalizes, so equality is plain field equality.
    """

    numerator: int
    exponent: int

    def __post_init__(self) -> None:
        num = self.numerator
        exp = self.exponent
        if exp < 0:
            raise DomainError(f"dyadic exponent must be non-negative, got {exp}")
        if num == 0:
            exp = 0
        else:
            # strip shared factors of two, but never push exponent below 0
            trailing = (num & -num).bit_length() - 1
            shift = min(trailing, exp)
            num >>= shift
            exp -= shift
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", exp)

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "DyadicRational":
        return cls(n, 0)

    @classmethod
    def from_float(cls, f: float) -> "DyadicRational":
        """Exact conversion; every finite binary64 is a dyadic rational."""
        num, den = float(f).as_integer_ratio()
        return cls(num, den.bit_length() - 1)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "DyadicRational":
        den = q.denominator
        if den & (den - 1):
            raise DomainError(f"{q} has a non-power-of-two denominator")
        return cls(q.numerator, den.bit_length() - 1)

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        """The one grammar for dyadic input: an integer, 'a/2^b' or 'p/q'
        with q a power of two (all exact), or a finite decimal literal,
        read as the nearest binary64 and hence dyadic."""
        m = _PARSE_RE.match(text)
        try:
            if m:
                return cls(int(m.group(1)), int(m.group(2) or 0))
            if "/" in text:
                return cls.from_fraction(Fraction(text))
            value = float(text)
        except (ValueError, ZeroDivisionError) as exc:
            # a DomainError is a ValueError: its message passes unchanged
            raise DomainError(str(exc)) from None
        if not math.isfinite(value):
            raise DomainError(f"{text!r} is not a finite number")
        return cls.from_float(value)

    # ---- conversions ---------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __float__(self) -> float:
        # int/int true division is correctly rounded for arbitrary size
        return self.numerator / (1 << self.exponent)

    def __str__(self) -> str:
        return f"{self.numerator}/2^{self.exponent}"

    # ---- arithmetic (exact) ---------------------------------------------

    def _align(self, other: "DyadicRational") -> tuple[int, int, int]:
        exp = max(self.exponent, other.exponent)
        a = self.numerator << (exp - self.exponent)
        b = other.numerator << (exp - other.exponent)
        return a, b, exp

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        a, b, exp = self._align(other)
        return DyadicRational(a + b, exp)

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        a, b, exp = self._align(other)
        return DyadicRational(a - b, exp)

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.numerator, self.exponent)

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(self.numerator * other.numerator,
                              self.exponent + other.exponent)

    def __pow__(self, n: int) -> "DyadicRational":
        if n < 0:
            raise DomainError("negative powers are not dyadic in general")
        return DyadicRational(self.numerator ** n, self.exponent * n)

    # ---- comparisons -----------------------------------------------------

    def _cmp(self, other: "DyadicRational") -> int:
        a, b, _ = self._align(other)
        return (a > b) - (a < b)

    def __lt__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) >= 0


def as_dyadic(value) -> DyadicRational:
    """Coerce an int, float, Fraction, string, or DyadicRational."""
    if isinstance(value, DyadicRational):
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not dyadic rationals")
    if isinstance(value, int):
        return DyadicRational.from_int(value)
    if isinstance(value, float):
        return DyadicRational.from_float(value)
    if isinstance(value, Fraction):
        return DyadicRational.from_fraction(value)
    if isinstance(value, str):
        return DyadicRational.parse(value)
    raise DomainError(f"cannot interpret {value!r} as a dyadic rational")
