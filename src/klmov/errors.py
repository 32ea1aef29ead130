"""Exception types shared across the package."""


class KlmovError(Exception):
    """Base class for all package-specific errors."""


class BoundExceeded(KlmovError):
    """A request exceeds its command's size limit, checked once at CLI entry."""


class NotDivisible(KlmovError):
    """An exact division failed; carries the offending divisor/remainder."""


class NotPolynomial(KlmovError):
    """A rational value does not reduce to a Laurent polynomial."""


class NotZRepresentable(KlmovError):
    """A Laurent polynomial is not expressible in powers of q - 1/q."""


class ZeroInput(KlmovError):
    """Zero was passed where the operation is undefined."""


class ParityMismatch(KlmovError):
    """Sizes differ by an odd amount where an even difference is required."""


class SizeMismatch(KlmovError):
    """Partition sizes are incompatible."""


class ComponentCountMismatch(KlmovError):
    """Number of colors does not match the number of link components."""


class NonIntegerExponent(KlmovError):
    """A term with nonzero coefficient produced a fractional exponent."""


class NonIntegerCoefficient(KlmovError):
    """An integrality check failed; carries the offending coefficient."""
