"""Exception taxonomy shared by all modules.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and stable: DomainError for bad mathematical inputs, PrecisionError when
a certified error bound is too weak for the requested statistic,
ResourceError for configured work/memory caps, NumericalError when a
certificate fails.  Every certificate is one inequality value <= bound;
the error of a failed one carries its `Check` record as `.check`, and
`require` raises every NumericalError.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """What a certificate compared: it holds only when value <= bound."""

    what: str
    value: float
    bound: float

    @property
    def margin(self) -> float:
        """value / bound, above 1 when the check fails (inf for bound 0)."""
        return self.value / self.bound if self.bound else float("inf")

    def __str__(self) -> str:
        return (f"{self.what}: {self.value:.3g} > {self.bound:.3g} "
                f"(margin {self.margin:.3g})")


def require(what: str, value, bound) -> None:
    """NumericalError with its record unless value <= bound; a NaN fails."""
    if not value <= bound:
        raise NumericalError(Check(what, value, bound))


class PowcorrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PowcorrError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PrecisionError(DomainError):
    """Certified error bound insufficient for the requested resolution."""

    def __init__(self, check: Check, required_guard_bits: int | None = None):
        hint = ("" if required_guard_bits is None else
                f"; regenerate with guard bits >= {required_guard_bits}")
        super().__init__(f"{check}{hint}")
        self.check = check
        self.required_guard_bits = required_guard_bits


class ResourceError(PowcorrError, RuntimeError):
    """A configured memory or work budget would be exceeded."""


class NumericalError(PowcorrError, ArithmeticError):
    """A certificate failed; `check` is its record."""

    def __init__(self, check: Check):
        super().__init__(check)
        self.check = check
