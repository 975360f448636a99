"""Exception types shared across the package."""


class MultirootsError(Exception):
    """Base class for all package-specific failures."""


class InvalidConfigurationError(MultirootsError, ValueError):
    """Root/multiplicity data violates a structural constraint."""


class FamilyOverflowError(MultirootsError, ArithmeticError):
    """A family's evaluation at x failed: x is nan or infinite, or, with a
    `detail` saying by how much, an expansion does not reproduce its
    factored form at x."""

    def __init__(self, family, x, detail=""):
        self.family = family
        self.x = x
        super().__init__(f"{family} {detail} at x={x}" if detail else
                         f"{family} evaluation at a non-finite point x={x}")


class CollisionError(MultirootsError, ArithmeticError):
    """Two approximations are closer than the collision threshold."""

    def __init__(self, j, distance, threshold, i=None):
        self.i = i
        self.j = j
        self.distance = distance
        self.threshold = threshold
        where = f"approximations {i} and {j}" if i is not None else f"approximation {j}"
        super().__init__(
            f"collision: {where} separated by |{distance}| < threshold {threshold}"
        )


class DegenerateDenominatorError(MultirootsError, ArithmeticError):
    """Correction denominator vanished relative to the derivative scale."""

    def __init__(self, index, denominator, derivative):
        self.index = index
        self.denominator = denominator
        self.derivative = derivative
        super().__init__(
            f"degenerate denominator for root {index}: |{denominator}| "
            f"vs derivative scale |{derivative}|"
        )


class DegenerateDerivativeError(MultirootsError, ArithmeticError):
    """Derivative underflowed to zero where a division needs it."""


class InsufficientDataError(MultirootsError, ValueError):
    """No usable window of errors for order estimation."""


class SchemaError(MultirootsError, ValueError):
    """Problem or report file violates the documented schema."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
