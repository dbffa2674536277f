"""Exception types shared across the package."""

from __future__ import annotations


class BinformError(Exception):
    """Base class for all package errors."""


class DegreeZeroError(BinformError):
    """A constant (degree zero) form was given where a positive degree is required."""


class NotHomogeneousError(BinformError):
    """A polynomial mixes monomials of different total degrees."""

    def __init__(self, degrees: tuple[int, ...]):
        self.degrees = degrees
        super().__init__(f"polynomial is not homogeneous: total degrees {sorted(degrees)}")


class ZeroPolynomialError(BinformError):
    """The input is the zero polynomial, which has no degree and no factors."""


class NotPositiveDefiniteError(BinformError):
    """A quadratic form or symmetric matrix is not positive definite."""


class NotRefinedError(BinformError):
    """Factor enclosures are too coarse for the requested operation."""


class NotFiniteOrderError(BinformError):
    """No power of the matrix returned to the identity within the search bound."""


class ToleranceTooLooseError(BinformError):
    """The verified symmetries are not one generator's powers; tol admits spurious ones."""


class UnclassifiableCountsError(BinformError):
    """Factor counts (l, k) fit none of the five classification cases."""


class BlowUpError(BinformError):
    """A trajectory left the configured bounding box before reaching the target time."""


class StepLimitError(BinformError):
    """The integrator hit its step budget before reaching the target time."""


class InvariantError(BinformError):
    """An internal consistency check failed: two exact computations that must
    agree did not.  This is a defect of the package, not of the input."""


class ExprSyntaxError(BinformError):
    """Malformed polynomial text.  ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class NegativeExponentError(ExprSyntaxError):
    """An exponent was negative; only non-negative integer powers are allowed."""

    def __init__(self, offset: int):
        super().__init__("negative exponent", offset)


class UnknownIdentifierError(ExprSyntaxError):
    """An identifier other than the two variables appeared in the input."""

    def __init__(self, name: str, offset: int):
        self.name = name
        super().__init__(f"unknown identifier {name!r}", offset)
