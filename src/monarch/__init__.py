"""Monarch structured matrices.

A Monarch matrix is a permuted product of two block-diagonal matrices,
M = P.T Ltilde P R. The package provides the structured classes, a fast
batched application path that applies P as a reshape-transpose, optimal
Frobenius projection of dense matrices onto the Monarch set, exact
factorization of MM* products via simultaneous diagonalization,
butterfly/DFT/Hadamard containment constructions, analytic gradients, and
a file-format CLI. The index-table form of P (BlockPermutation and the
permute_* functions) is read by no library code; it stays exported for the
benchmark's tracer and the tests' table oracles.
"""

from .butterfly import (
    ButterflyFactorMatrix,
    ButterflyMatrix,
    butterfly_matvec,
    butterfly_to_monarch,
    dft_butterfly,
    hadamard_butterfly,
    random_butterfly,
)
from .core import (
    MonarchMatrix,
    MonarchProduct,
    hierarchy,
    mm_star,
    monarch_flop_count,
    monarch_matvec,
    monarch_matvec_adjoint,
    monarch_param_count,
    monarch_to_dense,
    mstar_m,
    permuted_to_mstar_m,
    product_matvec,
    product_to_dense,
    random_mm_star,
    random_monarch,
)
from .counting import count_multiplies
from .errors import (
    BadBlocking,
    BadSize,
    DefectiveMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    MonarchError,
    NoConvergence,
    NonFiniteValue,
    ParseError,
    SimDiagFailed,
    SingularBlock,
    SingularMatrix,
    UnsupportedBlocking,
)
from .factorization import (
    MMStarFactorization,
    SimDiagResult,
    assumption1_check,
    factorize_mm_star,
    simultaneous_diagonalize,
)
from .gradients import MonarchTangent, gradcheck, matvec_vjp
from .indexing import BlockPermutation, permute_cols, permute_rows, permute_vector
from .numerics import EigResult, SvdResult, eig, lu_invert, rank1_approx, svd
from .projection import ProjectionReport, project, slice_singular_ratios, slice_view
from .structured import (
    BlockDiagMatrix,
    DiagBlockMatrix,
    bd_matvec,
    bd_membership,
    db_membership,
    db_to_bd,
)

__version__ = "0.1.0"
