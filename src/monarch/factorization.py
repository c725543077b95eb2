"""Recover the factors (L1, R, L2) of a matrix in MM*(b, n).

Writing M = (P.T L1 P) R (P.T L2 P) and conjugating, Mt = P M P.T splits
into a b x b grid of (n/b)-sized blocks Mt_ij = A_i D_ij C_j with diagonal
D_ij. Under assumption 1 (all D_ij entries nonzero, all blocks invertible)
the matrices, for i, j >= 1,

    F(i, j) = Mt_i0^-1  Mt_ij  Mt_0j^-1  Mt_00

share the eigenbasis C_0^-1 (F(i, 0) and F(0, j) are the identity), so any
simultaneous diagonalizer Q of the family is a valid C_0. The inverses come
from one batched inversion of block column 0 and block row 0. In the gauge
A_i = Mt_i0 Q^-1, C_j = Q Mt_00^-1 Mt_0j the middle factor is read off the
diagonalization: D_ij = Q F(i, j) Q^-1 and D_i0 = D_0j = I.

Q comes from one path (simultaneous_diagonalize): the eigenvectors of one
seeded random combination of the whole family, with a second eigensolve
only inside an eigenvalue cluster that the members separate but the
combination does not. A cluster on which every member is scalar (a
degenerate joint eigenspace, e.g. two equal diagonal positions in every
D_ij) is kept as it is.

The factorization is not unique: any permutation plus diagonal rescaling of
the recovered blocks is an equally valid answer, so only the dense
reconstruction is comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _square_block_size
from .counting import add_multiplies
from .errors import DimensionMismatch, SimDiagFailed, SingularBlock
from .errors import DefectiveMatrix, NoConvergence, NonFiniteValue, SingularMatrix
from .numerics import cond_estimate, eig, frobenius, lu_invert
from .structured import BlockDiagMatrix, DiagBlockMatrix, db_to_bd

#: final acceptance threshold on off-diagonal mass relative to each input
SIMDIAG_RESIDUAL_RTOL = 1e-7

#: eigenvalues closer than this (relative to max |lambda|) form one cluster
CLUSTER_RTOL = 1e-6

#: per-block condition estimate above this fails the assumption-1 check
ASSUMPTION1_CONDITION_LIMIT = 1e10

_SIMDIAG_SEED = 0x5EED


@dataclass
class SimDiagResult:
    q: np.ndarray  # rows of the simultaneous diagonalizer
    q_inv: np.ndarray  # its inverse: the common eigenvectors as columns
    conjugated: np.ndarray  # (members, k, k) stack Q G Q^-1, one per input G
    diag_residual: float  # max over inputs of offdiag(Q G Q^-1)_F / |G|_F


@dataclass
class MMStarFactorization:
    l1: BlockDiagMatrix  # BD(n/b, n), blocks A_i
    l2: BlockDiagMatrix  # BD(n/b, n), blocks C_j
    middle: DiagBlockMatrix  # DB(n/b, n): the grid of diagonal D_ij
    diag_residual: float  # worst off-diagonal mass of a D_ij before truncation
    reconstruction_error: float  # relative Frobenius error vs the input

    def r_block_diagonal(self) -> BlockDiagMatrix:
        """The middle factor as R in BD(b, n) (conjugation by P.T)."""
        return db_to_bd(self.middle)

    def to_dense(self) -> np.ndarray:
        """(P.T L1 P) R (P.T L2 P) = P.T (L1 middle L2) P.

        Block (i, j) of the middle product is A_i D_ij C_j; conjugating the
        (b, b, n/b, n/b) grid by P is a transpose of its 4-D index.
        """
        d = self.middle.entries
        blocks = (self.l1.blocks[:, None] * d[:, :, None, :]) @ self.l2.blocks[None]
        add_multiplies(d.size * d.shape[2] * (d.shape[2] + 1))  # the scaling by D and the block products
        n = self.l1.shape[0]
        return blocks.transpose(2, 0, 3, 1).reshape(n, n)


def _offdiag_mass(t: np.ndarray):
    """Frobenius norm of the off-diagonal part of each matrix in a (..., k, k) stack."""
    return np.linalg.norm(np.where(np.eye(t.shape[-1], dtype=bool), 0, t), axis=(-2, -1))


def _offdiag_ratio(t: np.ndarray, g: np.ndarray) -> float:
    """Worst off-diagonal mass of t relative to the norm of g, over a stack."""
    norms = np.maximum(np.linalg.norm(g, axis=(-2, -1)), 1e-300)
    return float(np.max(_offdiag_mass(t) / norms))


def _cluster_order(lam: np.ndarray):
    """Sort eigenvalues lexicographically and split into closeness clusters.

    Returns (order, sizes): index permutation and contiguous cluster sizes.
    """
    order = np.lexsort((lam.imag, lam.real))
    scale = float(np.max(np.abs(lam))) if len(lam) else 0.0
    tol = CLUSTER_RTOL * max(scale, 1e-300)
    sizes = []
    start = 0
    for idx in range(1, len(order) + 1):
        if idx == len(order) or abs(lam[order[idx]] - lam[order[start]]) > tol:
            sizes.append(idx - start)
            start = idx
    return order, sizes


def simultaneous_diagonalize(family) -> SimDiagResult:
    """One invertible Q with Q @ G @ Q^-1 diagonal for every G in the family.

    A commuting, diagonalizable family shares its eigenvectors with every
    linear combination of its members, and a random combination separates
    the family's joint eigenspaces with probability one. So: diagonalize
    one seeded random combination and cluster its eigenvalues. A cluster on
    which every member is already diagonal needs nothing more (on a shared
    eigenspace any basis serves). A cluster on which some member is not is
    an accidental coincidence of the combination; it is split by the
    eigenvectors of a fresh random combination of the members' cluster
    blocks. One final residual check accepts Q; any failure raises
    SimDiagFailed (no common eigenbasis to tolerance). A member with a NaN
    or infinite entry raises NonFiniteValue.
    """
    try:
        stack = np.asarray(family, dtype=np.complex128)
    except ValueError as exc:  # members of different shapes
        raise DimensionMismatch("family members must be square and same size") from exc
    if stack.ndim != 3 or not len(stack) or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch("family must be a non-empty stack of same-size square matrices")
    members, k = stack.shape[:2]
    rng = np.random.default_rng(_SIMDIAG_SEED)
    with np.errstate(invalid="ignore"):  # an infinite entry's square inf * conj(inf) is NaN
        norms = np.linalg.norm(stack, axis=(1, 2))
    # a finite norm bounds every entry, so finite input pays for no extra pass
    if not np.isfinite(norms).all() and not np.isfinite(stack).all():
        raise NonFiniteValue("simultaneous diagonalization: non-finite family member")
    tol = SIMDIAG_RESIDUAL_RTOL * np.maximum(norms, 1e-300)
    try:
        res = eig(np.tensordot(rng.standard_normal(members), stack, axes=1))
        order, sizes = _cluster_order(res.lam)
        q_inv = res.q[:, order]
        q = res.q_inv[order]
        t = q @ stack @ q_inv
        add_multiplies(members * k * k + 2 * members * k**3)
        starts = np.cumsum([0] + sizes[:-1])
        for start, size in zip(starts, sizes):
            cluster = slice(start, start + size)
            block = t[:, cluster, cluster]
            if size == 1 or np.all(_offdiag_mass(block) <= tol):
                continue
            w = eig(np.tensordot(rng.standard_normal(members), block, axes=1))
            q[cluster] = w.q_inv @ q[cluster]
            q_inv[:, cluster] = q_inv[:, cluster] @ w.q
            # keep t = Q stack Q^-1 up to date without a full product
            t[:, cluster] = w.q_inv @ t[:, cluster]
            t[:, :, cluster] = t[:, :, cluster] @ w.q
            add_multiplies(members * size * size + 2 * (members + 1) * size * size * k)
    except (NoConvergence, DefectiveMatrix, NonFiniteValue) as exc:  # NonFiniteValue: finite members overflowed
        raise SimDiagFailed(f"no common eigenbasis: {exc}") from exc
    residual = _offdiag_ratio(t, stack)
    if residual > SIMDIAG_RESIDUAL_RTOL:
        raise SimDiagFailed(f"off-diagonal residual {residual:.3e} above {SIMDIAG_RESIDUAL_RTOL}")
    return SimDiagResult(q=q, q_inv=q_inv, conjugated=t, diag_residual=residual)


def _permuted_blocks(m: np.ndarray, b: int | None):
    """The b x b grid of (n/b)-sized blocks of P_(b,n) @ m @ P_(b,n).T.

    Block (i, j) entry (l, k) is m[l*b + i, k*b + j]: a transpose of the
    4-D reshape, so no permuted copy of m is made. b=None means sqrt(n).
    """
    b = _square_block_size(m, b)
    q = m.shape[0] // b
    return m.reshape(q, b, q, b).transpose(1, 3, 0, 2)


def factorize_mm_star(m, b: int | None) -> MMStarFactorization:
    """Recover Monarch factors of an MM*(b, n) matrix satisfying assumption 1.

    The 2b - 1 permuted blocks of block column 0 and block row 0 are
    inverted in one batched call. Raises NonFiniteValue on a non-finite
    entry, SingularBlock when a permuted block is not invertible (assumption
    1 fails, e.g. for the identity; a block of column 0 is named before one
    of row 0), SimDiagFailed when no common eigenbasis exists to tolerance
    (the input is not in MM*, or its finite entries overflow the family).
    """
    m = np.asarray(m)
    blocks = _permuted_blocks(m.astype(np.complex128), b)
    if not np.all(np.isfinite(blocks)):
        raise NonFiniteValue("factorize_mm_star: input has a non-finite entry")
    b, q = blocks.shape[1:3]
    try:  # block column 0, then block row 0 without Mt_00
        cross = lu_invert(np.concatenate([blocks[:, 0], blocks[0, 1:]]))
    except SingularMatrix as exc:
        i, j = (exc.index, 0) if exc.index < b else (0, exc.index - b + 1)
        raise SingularBlock(
            f"permuted block ({i},{j}) is singular; assumption 1 "
            f"(nonzero middle-factor entries, invertible blocks) fails: {exc}"
        ) from exc
    inv_col0 = cross[:b]

    # family F(i, j) = Mt_i0^-1 Mt_ij (Mt_0j^-1 Mt_00) for i, j >= 1, i-major
    right = cross[b:] @ blocks[0, 0]
    family = (inv_col0[1:, None] @ blocks[1:, 1:] @ right).reshape((b - 1) ** 2, q, q)
    add_multiplies((b - 1) * q**3 + 2 * (b - 1) ** 2 * q**3)

    try:
        sim = simultaneous_diagonalize(family)
    except NonFiniteValue as exc:  # the input is finite, so the family overflowed
        raise SimDiagFailed(f"no common eigenbasis: {exc}") from exc
    a_blocks = blocks[:, 0] @ sim.q_inv
    c_blocks = (sim.q @ inv_col0[0]) @ blocks[0]
    add_multiplies((2 * b + 1) * q**3)
    worst_offdiag = max(sim.diag_residual, _offdiag_ratio(sim.conjugated, sim.conjugated))
    if worst_offdiag > 1e-6:
        raise SimDiagFailed(
            f"middle blocks are not diagonal (off-diagonal ratio {worst_offdiag:.3e}); "
            "input is not an MM* matrix at this block size"
        )
    d = np.ones((b, b, q), dtype=np.complex128)
    d[1:, 1:] = np.diagonal(sim.conjugated, axis1=1, axis2=2).reshape(b - 1, b - 1, q)
    result = MMStarFactorization(
        l1=BlockDiagMatrix(a_blocks),
        l2=BlockDiagMatrix(c_blocks),
        middle=DiagBlockMatrix(b_row=q, b_col=q, entries=d),
        diag_residual=worst_offdiag,
        reconstruction_error=0.0,
    )
    scale = max(frobenius(m), 1e-300)
    result.reconstruction_error = frobenius(result.to_dense() - m) / scale
    return result


@dataclass
class Assumption1Report:
    block_conditions: np.ndarray  # (b, b) condition estimates of the permuted blocks
    best_condition: float
    worst_condition: float
    passed: bool
    threshold: float = ASSUMPTION1_CONDITION_LIMIT


def assumption1_check(m, b: int | None) -> Assumption1Report:
    """Condition estimates of all permuted blocks vs the invertibility threshold."""
    blocks = _permuted_blocks(np.asarray(m), b)
    b, q = blocks.shape[1:3]
    conds = cond_estimate(blocks.reshape(b * b, q, q)).reshape(b, b)
    worst = float(np.max(conds))
    return Assumption1Report(
        block_conditions=conds,
        best_condition=float(np.min(conds)),
        worst_condition=worst,
        passed=bool(worst <= ASSUMPTION1_CONDITION_LIMIT),
    )
