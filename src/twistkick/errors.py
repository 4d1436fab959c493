"""Exception hierarchy shared by all physics modules.

Every error carries a short machine-readable ``code`` so the CLI can report
failures in a stable, grep-able form on stderr.
"""

import math


def shown(value) -> str:
    """``value`` as error text: a string quoted, a NaN named as a value that
    is not a number and an infinite float as a non-finite value from an
    input that overflows, rather than spelled nan or inf, an integer of more
    than 20 digits named by its length instead of echoed digit for digit."""
    if isinstance(value, float) and math.isnan(value):
        return "a value that is not a number"
    if isinstance(value, float) and math.isinf(value):
        return "a non-finite value (an input overflows)"
    if isinstance(value, int) and abs(value) >= 10**20:
        digits = int(math.log10(abs(value)))  # may round across a power of ten
        digits += (10 ** (digits + 1) <= abs(value)) - (10**digits > abs(value))
        return f"an integer of {digits + 1} digits"
    return repr(value) if isinstance(value, str) else str(value)


class TwistkickError(Exception):
    """Base class for all errors raised by this package."""

    default_code = "ERROR"

    def __init__(self, message, code=None):
        super().__init__(message)
        self.code = code or self.default_code


class DomainError(TwistkickError):
    """An input is outside the physical/mathematical domain of an operation."""

    default_code = "DOMAIN"


class ConfigurationError(TwistkickError):
    """A required optional field (e.g. a beam envelope scale) is missing."""

    default_code = "CONFIG"


class SolverError(TwistkickError):
    """A root finder or optimizer failed to produce a physical solution."""

    default_code = "NO_ROOT"


class QuadratureError(TwistkickError):
    """A numerical integral failed to converge or is non-normalizable."""

    default_code = "QUADRATURE"


class UndefinedDistributionError(TwistkickError):
    """All transition amplitudes vanish; sublevel probabilities are undefined."""

    default_code = "UNDEFINED_DISTRIBUTION"


class NoAbsorptionError(TwistkickError):
    """The absorption strength integral is zero; conditional quantities undefined."""

    default_code = "NO_ABSORPTION"


class TruncationWarning(UserWarning):
    """A basis truncation left more probability unaccounted for than requested."""
