"""Exception hierarchy shared by all monarch modules."""


class MonarchError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(MonarchError):
    """Operand shapes are incompatible."""


class BadBlocking(MonarchError):
    """Block sizes do not divide the dimensions, or block/grid ratios disagree."""


class UnsupportedBlocking(MonarchError):
    """The requested rectangular blocking has no supported conversion path."""


class BadSize(MonarchError):
    """A size is invalid: zero, or not a power of two where one is needed."""


class IndexOutOfRange(MonarchError):
    """A flat index fell outside [0, n)."""


class SingularMatrix(MonarchError):
    """A pivot fell below the singularity threshold during elimination.

    index is the position of the failing matrix in its stack (0 for a
    single matrix).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class NoConvergence(MonarchError):
    """An iterative solver exhausted its sweep/iteration budget."""


class DefectiveMatrix(MonarchError):
    """Eigenvector matrix too ill-conditioned: input is (numerically) not diagonalizable."""


class SingularBlock(MonarchError):
    """A permuted block was singular: the factorization's assumption 1
    (no zero entries in the middle factor's blocks, invertible blocks) fails."""


class SimDiagFailed(MonarchError):
    """No common eigenbasis found to tolerance: the family is not
    simultaneously diagonalizable, or the input is not an MM* matrix."""


class ParseError(MonarchError):
    """A matrix file is malformed."""


class NonFiniteValue(MonarchError):
    """A value is NaN or infinite where only finite values are accepted: an
    input to a solver (svd, lu_invert, eig, simultaneous_diagonalize,
    factorize_mm_star and the calls built on them), or a value to be
    written, since the text formats store finite values only."""
