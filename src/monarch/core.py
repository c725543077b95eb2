"""The Monarch matrix type, its fast application path, and product classes.

A Monarch matrix of size n and block size b (b | n, 1 < b < n) is

    M = P.T @ Ltilde @ P @ R,       P = P_(b,n),

with Ltilde in BD(n/b, n) (b blocks of size n/b) and R in BD(b, n) (n/b
blocks of size b). Entrywise,

    M[l*b + j, k*b + i] = Ltilde_j[l, k] * R_k[j, i],

so the 4-D reshape of M consists of b * (n/b) rank-1 slices. A matvec costs
exactly n*b + n**2/b scalar multiplies (two batched block stages; each
permutation is a free reshape-transpose), and the parameter count is
n**2/b + n*b; both reduce to 2*n*sqrt(n) at the canonical block size b = sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import add_multiplies
from .errors import BadBlocking, DimensionMismatch, NoConvergence
from .numerics import COMPLEX, REAL, cond_estimate, dtype_for
from .structured import BlockDiagMatrix, _columns, bd_matvec, bd_matvec_adjoint

def resolve_block_size(n: int, b: int | None = None) -> int:
    """The Monarch blocking rule: b defaults to sqrt(n), and b | n, 1 < b < n."""
    if b is None:
        root = math.isqrt(n)
        if root * root != n:
            raise BadBlocking(f"n={n} is not a perfect square; pass b explicitly")
        b = root
    if not 1 < b < n or n % b != 0:
        raise BadBlocking(f"need b | n and 1 < b < n, got b={b}, n={n}")
    return b


def _square_block_size(a: np.ndarray, b: int | None) -> int:
    """resolve_block_size for a square matrix a."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadBlocking(f"expected a square matrix, got {a.shape}")
    return resolve_block_size(a.shape[0], b)


@dataclass
class MonarchMatrix:
    ltilde: BlockDiagMatrix  # BD(n/b, n): b blocks of (n/b) x (n/b)
    r: BlockDiagMatrix  # BD(b, n): n/b blocks of b x b

    def __post_init__(self):
        if not (self.ltilde.is_square_blocked and self.r.is_square_blocked):
            raise BadBlocking("monarch factors must have square blocks")
        b = self.ltilde.num_blocks
        q = self.r.num_blocks
        if self.r.block_rows != b or self.ltilde.block_rows != q:
            raise BadBlocking(
                f"inconsistent factors: ltilde {self.ltilde.num_blocks} x "
                f"{self.ltilde.block_rows}, r {self.r.num_blocks} x {self.r.block_rows}"
            )
        resolve_block_size(b * q, b)

    @property
    def n(self) -> int:
        return self.ltilde.num_blocks * self.ltilde.block_rows

    @property
    def b(self) -> int:
        return self.ltilde.num_blocks

    @property
    def field(self) -> str:
        if np.iscomplexobj(self.ltilde.blocks) or np.iscomplexobj(self.r.blocks):
            return COMPLEX
        return REAL

    @classmethod
    def identity(cls, n: int, b: int, dtype=np.float64) -> "MonarchMatrix":
        return cls(
            ltilde=BlockDiagMatrix.identity(n // b, b, dtype=dtype),
            r=BlockDiagMatrix.identity(b, n // b, dtype=dtype),
        )


def _transpose_blocks(cols: np.ndarray, rows: int) -> np.ndarray:
    """Each column of an (n, k) stack read as a (rows, n/rows) matrix and
    transposed: P_(b,n) is rows = n/b, its transpose rows = b."""
    n, k = cols.shape
    return cols.reshape(rows, n // rows, k).swapaxes(0, 1).reshape(n, k)


def monarch_matvec(m: MonarchMatrix, x) -> np.ndarray:
    """P.T(Ltilde(P(R x))) for a vector or each column of an (n, k) stack:
    two batched block stages, each permutation a reshape-transpose."""
    x = np.asarray(x)
    n, b = m.n, m.b
    y = _transpose_blocks(bd_matvec(m.r, _columns(x, n)), n // b)
    return _transpose_blocks(bd_matvec(m.ltilde, y), b).reshape(x.shape)


def monarch_matvec_adjoint(m: MonarchMatrix, x) -> np.ndarray:
    """Apply M* = R* P.T Ltilde* P to a vector or an (n, k) stack, each stage
    still batched."""
    x = np.asarray(x)
    n, b = m.n, m.b
    y = bd_matvec_adjoint(m.ltilde, _transpose_blocks(_columns(x, n), n // b))
    return bd_matvec_adjoint(m.r, _transpose_blocks(y, b)).reshape(x.shape)


def monarch_to_dense(m: MonarchMatrix) -> np.ndarray:
    """Dense form via the rank-1 slice identity."""
    lb = m.ltilde.blocks  # (b, q, q) indexed [j, l, k]
    rb = m.r.blocks  # (q, b, b) indexed [k, j, i]
    four_d = np.einsum("jlk,kji->ljki", lb, rb)
    add_multiplies(four_d.size)
    return four_d.reshape(m.n, m.n)


def monarch_param_count(m: MonarchMatrix) -> int:
    """n^2/b + n*b stored scalars (2 n sqrt(n) at b = sqrt(n))."""
    n, b = m.n, m.b
    return n * n // b + n * b


def monarch_flop_count(m: MonarchMatrix) -> int:
    """Scalar multiplies per matvec: n*b + n^2/b."""
    n, b = m.n, m.b
    return n * b + n * n // b


# ---------------------------------------------------------------------------
# Products


@dataclass
class MonarchProduct:
    """Product of Monarch matrices applied right to left, factor i conjugate
    transposed where adjoint[i] is set.

    The flags alone name the class: MM* is [False, True], M*M is
    [True, False], and a width-w hierarchy is w MM* pairs. n is the logical
    size. It defaults to the factors' size; a smaller n must divide it and
    keeps the leading n x n corner of the product.
    """

    factors: list[MonarchMatrix]
    adjoint: list[bool]
    n: int | None = None

    def __post_init__(self):
        if len(self.factors) != len(self.adjoint) or not self.factors:
            raise DimensionMismatch("factors and adjoint flags must align")
        if len({(f.n, f.b) for f in self.factors}) != 1:
            raise BadBlocking("all product factors must share (b, n)")
        if self.n is None:
            self.n = self.inner_size
        if self.n < 1 or self.inner_size % self.n:
            raise BadBlocking(f"output size n={self.n} must divide the factor size {self.inner_size}")

    @property
    def inner_size(self) -> int:
        return self.factors[0].n


def mm_star(m1: MonarchMatrix, m2: MonarchMatrix) -> MonarchProduct:
    return MonarchProduct(factors=[m1, m2], adjoint=[False, True])


def mstar_m(m1: MonarchMatrix, m2: MonarchMatrix) -> MonarchProduct:
    return MonarchProduct(factors=[m1, m2], adjoint=[True, False])


def hierarchy(pairs: list[tuple[MonarchMatrix, MonarchMatrix]], n: int) -> MonarchProduct:
    """Width-w product of MM* pairs, cut to its leading n x n corner."""
    factors = [m for pair in pairs for m in pair]
    return MonarchProduct(factors=factors, adjoint=[False, True] * len(pairs), n=n)


def product_matvec(p: MonarchProduct, x) -> np.ndarray:
    """Apply the factors right to left to a vector or each column of an
    (n, k) stack, zero-padding to the inner size and cutting back."""
    x = np.asarray(x)
    cols = _columns(x, p.n)
    if p.inner_size != p.n:
        cols = np.concatenate([cols, np.zeros((p.inner_size - p.n, cols.shape[1]), dtype=x.dtype)])
    for m, adj in zip(reversed(p.factors), reversed(p.adjoint)):
        cols = monarch_matvec_adjoint(m, cols) if adj else monarch_matvec(m, cols)
    return cols[: p.n].reshape(x.shape)


def product_to_dense(p: MonarchProduct) -> np.ndarray:
    """The product applied to the identity's columns: no n x n product."""
    return product_matvec(p, np.eye(p.n))


def permuted_to_mstar_m(p: MonarchProduct) -> MonarchProduct:
    """The M*M(n/b, n) factorization of P_(b,n) @ dense(p) @ P_(b,n).T.

    For p = M1 M2* in MM*(b, n) with factors (La, Ra), (Lb, Rb), the
    conjugated matrix equals X* @ Y at block size n/b, where
    X = (Rb Ra*, La*) and Y = (I, Lb*) in (ltilde, r) storage.
    """
    if list(p.adjoint) != [False, True] or p.n != p.inner_size:
        raise ValueError("expected an MM* product M1 M2* at the factors' size")
    ma, mb = p.factors
    rb_ra_star = mb.r.matmul(ma.r.conj_transpose())  # Rb @ Ra*, an element of BD(b, n)
    x = MonarchMatrix(ltilde=rb_ra_star, r=ma.ltilde.conj_transpose())
    y = MonarchMatrix(
        ltilde=BlockDiagMatrix.identity(ma.b, ma.n // ma.b, dtype=mb.ltilde.blocks.dtype),
        r=mb.ltilde.conj_transpose(),
    )
    return mstar_m(x, y)


# ---------------------------------------------------------------------------
# Random instances

ASSUMPTION1 = "assumption1"

_MIN_MIDDLE_ENTRY = 0.1
_MAX_BLOCK_CONDITION = 1e4
#: redraw rounds before the sampler gives up
_DRAW_BUDGET = 1000


def _standard_blocks(rng, shape, field):
    if field == COMPLEX:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _ill_conditioned(blocks):
    """Blocks whose condition estimate is not <= 1e4 (NaN counts as above)."""
    return np.logical_not(cond_estimate(blocks) <= _MAX_BLOCK_CONDITION)


def _small_entries(blocks):
    """Entries with magnitude below 0.1."""
    return np.abs(blocks) < _MIN_MIDDLE_ENTRY


def _keep_all(blocks):
    return np.zeros(len(blocks), dtype=bool)


def _reject_rules(constraints):
    """(L-stack rule, middle-stack rule): each maps a block stack to a mask of
    the blocks, or of the entries, to redraw."""
    if constraints == ASSUMPTION1:
        return _ill_conditioned, _small_entries
    if constraints is None:
        return _keep_all, _keep_all
    raise ValueError(f"unknown constraints {constraints!r}")


def _sample_blocks(rng, count, size, field, reject) -> BlockDiagMatrix:
    """A (count, size, size) stack of standard normal blocks in which what
    `reject` flags is redrawn, one batch per round, until nothing is."""
    blocks = _standard_blocks(rng, (count, size, size), field)
    for _ in range(_DRAW_BUDGET):
        bad = reject(blocks)
        if not bad.any():
            return BlockDiagMatrix(blocks)
        blocks[bad] = _standard_blocks(rng, blocks[bad].shape, field)
    raise NoConvergence(f"{reject.__name__} still flags draws after {_DRAW_BUDGET} rounds of redraws")


def random_monarch(
    n: int,
    b: int | None = None,
    seed: int = 0,
    field: str = REAL,
    constraints: str | None = None,
) -> MonarchMatrix:
    """A random Monarch matrix with factors drawn i.i.d. standard normal.

    constraints=ASSUMPTION1 enforces the factorization preconditions:
    R-block entries bounded away from zero and well-conditioned Ltilde
    blocks. Deterministic under seed. Raises NoConvergence when the sampler
    exhausts its redraw budget.
    """
    b = resolve_block_size(n, b)
    q = n // b
    l_rule, r_rule = _reject_rules(constraints)
    rng = np.random.default_rng(seed)
    ltilde = _sample_blocks(rng, b, q, field, l_rule)
    r = _sample_blocks(rng, q, b, field, r_rule)
    return MonarchMatrix(ltilde=ltilde, r=r)


def random_mm_star(
    n: int,
    b: int | None = None,
    seed: int = 0,
    field: str = REAL,
    constraints: str | None = ASSUMPTION1,
) -> MonarchProduct:
    """A random MM*(b,n) product.

    With ASSUMPTION1 constraints the instance is generated directly in the
    (P.T L1 P) R (P.T L2 P) form with well-conditioned L1, L2 blocks and a
    middle factor whose entries stay away from zero, so every permuted block
    is invertible and the factorization algorithm's precondition holds. The
    two returned factors are (L1, R) and (L2*, I).
    """
    b = resolve_block_size(n, b)
    q = n // b
    l_rule, middle_rule = _reject_rules(constraints)
    rng = np.random.default_rng(seed)
    l1 = _sample_blocks(rng, b, q, field, l_rule)
    l2 = _sample_blocks(rng, b, q, field, l_rule)
    middle = _sample_blocks(rng, q, b, field, middle_rule)
    m1 = MonarchMatrix(ltilde=l1, r=middle)
    m2 = MonarchMatrix(
        ltilde=l2.conj_transpose(),
        r=BlockDiagMatrix.identity(b, q, dtype=dtype_for(field)),
    )
    return mm_star(m1, m2)
