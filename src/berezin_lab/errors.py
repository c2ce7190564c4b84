"""Exception types shared across the package."""


class BerezinLabError(Exception):
    """Base class for all package errors."""


class MatrixFileError(BerezinLabError):
    """A matrix file's content is not a valid matrix file."""


class NotSquareError(BerezinLabError):
    pass


class NotUnitaryError(BerezinLabError):
    def __init__(self, max_deviation: float):
        self.max_deviation = max_deviation
        super().__init__(f"matrix is not unitary (max deviation {max_deviation:.3e})")


class ZeroEntryError(BerezinLabError):
    """An entry is too close to zero for a phase or a weight to be defined."""


class DimensionMismatchError(BerezinLabError):
    pass


class NotSkewHermitianError(BerezinLabError):
    pass


class ThetaDegenerateError(BerezinLabError):
    """theta = +-1 collapses the symmetric family's spectrum."""


class NotApplicableError(BerezinLabError):
    pass


class InvariantViolation(BerezinLabError):
    """A construction broke one of its own invariants."""
