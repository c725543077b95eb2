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
from .indexing import BlockPermutation, permutation_matrix
from .numerics import COMPLEX, REAL, cond_estimate, dtype_for
from .structured import BlockDiagMatrix, bd_matvec, bd_matvec_adjoint

MM_STAR = "mm_star"
MSTAR_M = "mstar_m"
HIERARCHY = "hierarchy"


def resolve_block_size(n: int, b: int | None = None) -> int:
    """The Monarch blocking rule: b defaults to sqrt(n), and b | n, 1 < b < n."""
    if b is None:
        root = math.isqrt(n)
        if root * root != n:
            raise BadBlocking(f"n={n} is not a perfect square; pass b explicitly")
        b = root
    if n % b != 0 or not 1 < b < n:
        raise BadBlocking(f"need b | n and 1 < b < n, got b={b}, n={n}")
    return b


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


def monarch_matvec(m: MonarchMatrix, x) -> np.ndarray:
    """P.T(Ltilde(P(R x))): two batched block stages.

    P is a reshape to (n/b, b) and a transpose; P.T reshapes to (b, n/b).
    """
    x = np.asarray(x)
    if x.shape != (m.n,):
        raise DimensionMismatch(f"vector length {x.shape} != {m.n}")
    n, b = m.n, m.b
    y = bd_matvec(m.r, x).reshape(n // b, b).T.reshape(n)
    return bd_matvec(m.ltilde, y).reshape(b, n // b).T.reshape(n)


def monarch_matvec_adjoint(m: MonarchMatrix, x) -> np.ndarray:
    """Apply M* = R* P.T Ltilde* P, each stage still batched."""
    x = np.asarray(x)
    if x.shape != (m.n,):
        raise DimensionMismatch(f"vector length {x.shape} != {m.n}")
    n, b = m.n, m.b
    y = bd_matvec_adjoint(m.ltilde, x.reshape(n // b, b).T.reshape(n))
    return bd_matvec_adjoint(m.r, y.reshape(b, n // b).T.reshape(n))


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


def monarch_dense_oracle(m: MonarchMatrix) -> np.ndarray:
    """Dense form computed the slow way, P.T L P R as explicit matrices."""
    p = permutation_matrix(BlockPermutation(m.b, m.n), dtype=m.ltilde.blocks.dtype)
    return p.T @ m.ltilde.to_dense() @ p @ m.r.to_dense()


# ---------------------------------------------------------------------------
# Products


@dataclass
class MonarchProduct:
    """Typed product of Monarch matrices applied right to left.

    kind MM_STAR is M1 @ M2*, MSTAR_M is M1* @ M2, HIERARCHY is the leading
    n x n corner of a product of width w MM* pairs at inflated size e*n.
    """

    kind: str
    factors: list[MonarchMatrix]
    adjoint: list[bool]
    width: int = 1
    expansion: int = 1
    out_size: int | None = None  # logical n; factors live at out_size * expansion

    def __post_init__(self):
        if self.kind not in (MM_STAR, MSTAR_M, HIERARCHY):
            raise ValueError(f"unknown product kind {self.kind!r}")
        if len(self.factors) != len(self.adjoint) or not self.factors:
            raise DimensionMismatch("factors and adjoint flags must align")
        sizes = {f.n for f in self.factors}
        blocks = {f.b for f in self.factors}
        if len(sizes) != 1 or len(blocks) != 1:
            raise BadBlocking("all product factors must share (b, n)")
        if self.out_size is None:
            self.out_size = self.factors[0].n // self.expansion
        if self.factors[0].n != self.out_size * self.expansion:
            raise BadBlocking("factor size must equal expansion * output size")

    @property
    def n(self) -> int:
        return self.out_size

    @property
    def inner_size(self) -> int:
        return self.factors[0].n


def mm_star(m1: MonarchMatrix, m2: MonarchMatrix) -> MonarchProduct:
    return MonarchProduct(kind=MM_STAR, factors=[m1, m2], adjoint=[False, True])


def mstar_m(m1: MonarchMatrix, m2: MonarchMatrix) -> MonarchProduct:
    return MonarchProduct(kind=MSTAR_M, factors=[m1, m2], adjoint=[True, False])


def hierarchy(pairs: list[tuple[MonarchMatrix, MonarchMatrix]], expansion: int, out_size: int) -> MonarchProduct:
    """Width-w product of MM* pairs at size expansion * out_size."""
    factors: list[MonarchMatrix] = []
    adjoint: list[bool] = []
    for m1, m2 in pairs:
        factors.extend([m1, m2])
        adjoint.extend([False, True])
    return MonarchProduct(
        kind=HIERARCHY,
        factors=factors,
        adjoint=adjoint,
        width=len(pairs),
        expansion=expansion,
        out_size=out_size,
    )


def product_matvec(p: MonarchProduct, x) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (p.n,):
        raise DimensionMismatch(f"vector length {x.shape} != {p.n}")
    if p.inner_size != p.n:
        padded = np.zeros(p.inner_size, dtype=x.dtype)
        padded[: p.n] = x
        x = padded
    for m, adj in zip(reversed(p.factors), reversed(p.adjoint)):
        x = monarch_matvec_adjoint(m, x) if adj else monarch_matvec(m, x)
    return x[: p.n]


def product_to_dense(p: MonarchProduct) -> np.ndarray:
    denses = [
        monarch_to_dense(m).conj().T if adj else monarch_to_dense(m)
        for m, adj in zip(p.factors, p.adjoint)
    ]
    out = denses[0]
    for d in denses[1:]:
        add_multiplies(out.shape[0] * out.shape[1] * d.shape[1])
        out = out @ d
    return out[: p.n, : p.n]


def permuted_to_mstar_m(p: MonarchProduct) -> MonarchProduct:
    """The M*M(n/b, n) factorization of P_(b,n) @ dense(p) @ P_(b,n).T.

    For p = M1 M2* in MM*(b, n) with factors (La, Ra), (Lb, Rb), the
    conjugated matrix equals X* @ Y at block size n/b, where
    X = (Rb Ra*, La*) and Y = (I, Lb*) in (ltilde, r) storage.
    """
    if p.kind != MM_STAR or len(p.factors) != 2:
        raise ValueError("expected an MM* product of two factors")
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
#: candidate draws per block, and entry redraw rounds, before a sampler gives up
_DRAW_BUDGET = 1000


def _standard_blocks(rng, shape, field):
    if field == COMPLEX:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _conditioned_blocks(rng, count, size, field):
    """Blocks resampled until each condition estimate is <= 1e4."""
    blocks = np.empty((count, size, size), dtype=dtype_for(field))
    for i in range(count):
        for _ in range(_DRAW_BUDGET):
            cand = _standard_blocks(rng, (size, size), field)
            if cond_estimate(cand) <= _MAX_BLOCK_CONDITION:
                blocks[i] = cand
                break
        else:
            raise NoConvergence(
                f"no block with condition <= {_MAX_BLOCK_CONDITION:g} in {_DRAW_BUDGET} draws"
            )
    return BlockDiagMatrix(blocks)


def _nonzero_entry_blocks(rng, count, size, field):
    """Blocks with every entry magnitude >= 0.1, resampled entrywise."""
    blocks = _standard_blocks(rng, (count, size, size), field)
    for _ in range(_DRAW_BUDGET):
        small = np.abs(blocks) < _MIN_MIDDLE_ENTRY
        if not small.any():
            return BlockDiagMatrix(blocks)
        blocks[small] = _standard_blocks(rng, (int(small.sum()),), field)
    raise NoConvergence(f"entries below {_MIN_MIDDLE_ENTRY} remain after {_DRAW_BUDGET} redraws")


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
    blocks. Deterministic under seed. Raises NoConvergence when a resampler
    exhausts its draw budget.
    """
    b = resolve_block_size(n, b)
    q = n // b
    rng = np.random.default_rng(seed)
    if constraints == ASSUMPTION1:
        ltilde = _conditioned_blocks(rng, b, q, field)
        r = _nonzero_entry_blocks(rng, q, b, field)
    elif constraints is None:
        ltilde = BlockDiagMatrix(_standard_blocks(rng, (b, q, q), field))
        r = BlockDiagMatrix(_standard_blocks(rng, (q, b, b), field))
    else:
        raise ValueError(f"unknown constraints {constraints!r}")
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
    rng = np.random.default_rng(seed)
    if constraints == ASSUMPTION1:
        l1 = _conditioned_blocks(rng, b, q, field)
        l2 = _conditioned_blocks(rng, b, q, field)
        middle = _nonzero_entry_blocks(rng, q, b, field)
    elif constraints is None:
        l1 = BlockDiagMatrix(_standard_blocks(rng, (b, q, q), field))
        l2 = BlockDiagMatrix(_standard_blocks(rng, (b, q, q), field))
        middle = BlockDiagMatrix(_standard_blocks(rng, (q, b, b), field))
    else:
        raise ValueError(f"unknown constraints {constraints!r}")
    m1 = MonarchMatrix(ltilde=l1, r=middle)
    m2 = MonarchMatrix(
        ltilde=l2.conj_transpose(),
        r=BlockDiagMatrix.identity(b, q, dtype=dtype_for(field)),
    )
    return mm_star(m1, m2)
