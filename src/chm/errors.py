"""Exception types shared across the package."""


class ChmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrixError(ChmError):
    """Input could not be interpreted as a finite complex matrix."""


class NonSquareError(InvalidMatrixError):
    """Matrix input has mismatched row/column counts."""


class NotUnimodularError(ChmError):
    """An entry expected to have modulus one does not."""


class NotCHMError(ChmError):
    """Operation requires a complex Hadamard matrix and the input is not one."""


class ZeroPivotError(ChmError):
    """Dephasing pivot (first-row or first-column entry) is too close to zero."""


class DimensionMismatchError(ChmError):
    """Operands have incompatible dimensions."""


class UnknownNameError(ChmError):
    """Requested name is not in the matrix registry."""


class DomainError(ChmError):
    """Parameter outside the admissible domain of a family constructor."""


class SearchTimeoutError(ChmError):
    """Equivalence search exceeded its time budget."""

    def __init__(self, examined, total):
        self.examined = examined
        self.total = total
        super().__init__(
            f"search timed out after {examined} of {total} row permutations"
        )
