"""Exception hierarchy shared by all modules.

Each class carries the exit code and stderr label the command line
reports it with: 2 parse error, 3 invalid type, 4 out of spectrum,
5 invalid matrix.  A class that names no input fault keeps the base
class's 7, internal error.
"""


class ReidemeisterError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 7
    label = "internal error"


class MatrixFormatError(ReidemeisterError, ValueError):
    """Matrix text could not be parsed."""

    exit_code, label = 2, "parse error"


class DimensionMismatch(ReidemeisterError, ValueError):
    """Operands have incompatible shapes."""

    exit_code, label = 5, "invalid matrix"


class RankDeficient(ReidemeisterError, ValueError):
    """Column lattice does not have full rank."""


class NotPrime(ReidemeisterError, ValueError):
    """A prime number was required."""

    exit_code, label = 3, "invalid type"


class NumberTooLarge(ReidemeisterError, ValueError):
    """An integer is too large to decide primality of or to print in decimal."""

    exit_code, label = 3, "invalid type"


class NonPositiveExponent(ReidemeisterError, ValueError):
    """Group type exponents must be >= 1."""

    exit_code, label = 3, "invalid type"


class InvalidEndoMatrix(ReidemeisterError, ValueError):
    """Matrix violates the divisibility constraints of the endomorphism ring."""

    exit_code, label = 5, "invalid matrix"


class OutOfRange(ReidemeisterError, ValueError):
    """A depth entry outside [0, e_i], or a cyclic order below 2."""

    exit_code, label = 3, "invalid type"


class NotCharacteristic(ReidemeisterError, ValueError):
    """Depth vector does not define a characteristic subgroup."""


class FullDepth(ReidemeisterError, ValueError):
    """Restriction requires every depth to be strictly below its exponent."""


class NotAutomorphism(ReidemeisterError, ValueError):
    """Operation requires an invertible endomorphism."""

    exit_code, label = 5, "invalid matrix"


class WrongPrime(ReidemeisterError, ValueError):
    """Closed form only applies to the stated prime parity."""

    exit_code, label = 3, "invalid type"


class OutOfSpectrum(ReidemeisterError, ValueError):
    """Requested value lies outside the spectrum of the group."""

    exit_code, label = 4, "out of spectrum"


class BudgetExceeded(ReidemeisterError, RuntimeError):
    """Enumeration would exceed the configured budget caps."""


class GroupSpecError(ReidemeisterError, ValueError):
    """Group description text could not be parsed."""

    exit_code, label = 2, "parse error"


class InvariantViolation(ReidemeisterError, RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""
