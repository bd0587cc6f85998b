"""Exception hierarchy shared by all modules."""


class ReidemeisterError(Exception):
    """Base class for all errors raised by this package."""


class MatrixFormatError(ReidemeisterError, ValueError):
    """Matrix text could not be parsed."""


class DimensionMismatch(ReidemeisterError, ValueError):
    """Operands have incompatible shapes."""


class RankDeficient(ReidemeisterError, ValueError):
    """Column lattice does not have full rank."""


class NotPrime(ReidemeisterError, ValueError):
    """A prime number was required."""


class NonPositiveExponent(ReidemeisterError, ValueError):
    """Group type exponents must be >= 1."""


class InvalidEndoMatrix(ReidemeisterError, ValueError):
    """Matrix violates the divisibility constraints of the endomorphism ring."""


class NotCoprime(ReidemeisterError, ValueError):
    """Scaling factor must be coprime to the group's prime."""


class OutOfRange(ReidemeisterError, ValueError):
    """Depth vector entry outside [0, e_i]."""


class NotCharacteristic(ReidemeisterError, ValueError):
    """Depth vector does not define a characteristic subgroup."""


class FullDepth(ReidemeisterError, ValueError):
    """Restriction requires every depth to be strictly below its exponent."""


class NotAutomorphism(ReidemeisterError, ValueError):
    """Operation requires an invertible endomorphism."""


class WrongPrime(ReidemeisterError, ValueError):
    """Closed form only applies to the stated prime parity."""


class OutOfSpectrum(ReidemeisterError, ValueError):
    """Requested value lies outside the spectrum of the group."""


class BudgetExceeded(ReidemeisterError, RuntimeError):
    """Enumeration would exceed the configured budget caps."""


class GroupSpecError(ReidemeisterError, ValueError):
    """Group description text could not be parsed."""


class InvariantViolation(ReidemeisterError, RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""
