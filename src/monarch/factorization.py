"""Recover the factors (L1, R, L2) of a matrix in MM*(b, n).

Writing M = (P.T L1 P) R (P.T L2 P) and conjugating, Mt = P M P.T splits
into a b x b grid of (n/b)-sized blocks Mt_ij = A_i D_ij C_j with diagonal
D_ij. Under assumption 1 (all D_ij entries nonzero, all blocks invertible)
the matrices

    F(i, j) = Mt_i0^-1  Mt_ij  Mt_0j^-1  Mt_00

share the eigenbasis C_0^-1, so any simultaneous diagonalizer Q of the
family is a valid C_0; the remaining factors follow by block division:
A_i = Mt_i0 Q^-1, C_j = A_0^-1 Mt_0j, D_ij = A_i^-1 Mt_ij C_j^-1.

The factorization is not unique: any permutation plus diagonal rescaling of
the recovered blocks is an equally valid answer, so only the dense
reconstruction is comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import resolve_block_size
from .counting import add_multiplies
from .errors import BadBlocking, DimensionMismatch, SimDiagFailed, SingularBlock
from .errors import DefectiveMatrix, NoConvergence, SingularMatrix
from .numerics import eig, frobenius, lu_invert, svd
from .parallel import parallel_map
from .structured import BlockDiagMatrix, DiagBlockMatrix, db_to_bd

#: final acceptance threshold on off-diagonal mass relative to each input
SIMDIAG_RESIDUAL_RTOL = 1e-7

#: eigenvalues closer than this (relative to max |lambda|) form one cluster
CLUSTER_RTOL = 1e-6

#: per-block condition estimate above this fails the assumption-1 check
ASSUMPTION1_CONDITION_LIMIT = 1e10

_FAST_PATH_SEED = 0x5EED


@dataclass
class SimDiagResult:
    q: np.ndarray  # rows of the simultaneous diagonalizer
    diag_residual: float  # max over inputs of offdiag(Q G Q^-1)_F / |G|_F


@dataclass
class MMStarFactorization:
    l1: BlockDiagMatrix  # BD(n/b, n), blocks A_i
    l2: BlockDiagMatrix  # BD(n/b, n), blocks C_j
    middle: DiagBlockMatrix  # DB(n/b, n): the grid of diagonal D_ij
    b: int
    n: int
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
        return blocks.transpose(2, 0, 3, 1).reshape(self.n, self.n)


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


def _eig_rows(g: np.ndarray):
    """Rows that diagonalize g (inverse eigenvector matrix), cluster-sorted."""
    res = eig(g)
    order, sizes = _cluster_order(res.lam)
    return lu_invert(res.q[:, order]), sizes


def simultaneous_diagonalize(family: list[np.ndarray]) -> SimDiagResult:
    """One invertible Q with Q @ G @ Q^-1 diagonal for every G in the family.

    Staged refinement: diagonalize the first matrix, then for each later one
    conjugate by the current Q, check it is block diagonal on the current
    eigenvalue clusters, diagonalize the non-scalar blocks, and refine the
    clusters. Raises SimDiagFailed when the family has no common eigenbasis
    to tolerance.
    """
    mats = [np.asarray(g).astype(np.complex128) for g in family]
    if not mats:
        raise DimensionMismatch("empty family")
    size = mats[0].shape[0]
    for g in mats:
        if g.shape != (size, size):
            raise DimensionMismatch("family members must be square and same size")
    try:
        q, sizes = _eig_rows(mats[0])
    except (SingularMatrix, NoConvergence) as exc:
        raise SimDiagFailed(f"first family member not diagonalizable: {exc}") from exc
    for g in mats[1:]:
        if all(s == 1 for s in sizes):
            break
        t = q @ g @ lu_invert(q)
        # off-block mass vs the current partition means no common eigenbasis
        mask = np.ones((size, size), dtype=bool)
        start = 0
        for s in sizes:
            mask[start : start + s, start : start + s] = False
            start += s
        if frobenius(t[mask]) > SIMDIAG_RESIDUAL_RTOL * max(frobenius(g), 1e-300) * 10:
            raise SimDiagFailed("family member is not block diagonal on the current clusters")
        new_sizes = []
        start = 0
        for s in sizes:
            if s == 1:
                new_sizes.append(1)
                start += 1
                continue
            block = t[start : start + s, start : start + s]
            if _offdiag_mass(block) <= 1e-13 * max(frobenius(g), 1e-300):
                # already diagonal; refine clusters by its diagonal values
                order, sub_sizes = _cluster_order(np.diag(block))
                q[start : start + s] = q[start + order]
            else:
                try:
                    rows, sub_sizes = _eig_rows(block)
                except (SingularMatrix, NoConvergence, DefectiveMatrix) as exc:
                    raise SimDiagFailed(f"cluster block not diagonalizable: {exc}") from exc
                q[start : start + s] = rows @ q[start : start + s]
            new_sizes.extend(sub_sizes)
            start += s
        sizes = new_sizes
    stack = np.asarray(mats)
    residual = _offdiag_ratio(q @ stack @ lu_invert(q), stack)
    if residual > SIMDIAG_RESIDUAL_RTOL:
        raise SimDiagFailed(f"off-diagonal residual {residual:.3e} above {SIMDIAG_RESIDUAL_RTOL}")
    return SimDiagResult(q=q, diag_residual=residual)


def _fast_common_diagonalizer(family: np.ndarray) -> SimDiagResult | None:
    """Diagonalize one random linear combination; works when its spectrum is simple.

    Shortcut over the staged procedure: all family members share an
    eigenbasis, so a generic combination exposes it whenever its eigenvalues
    are distinct. Returns None (caller falls back) on clustered spectra or
    residual failure.
    """
    rng = np.random.default_rng(_FAST_PATH_SEED)
    combo = np.tensordot(rng.standard_normal(len(family)), family, axes=1)
    try:
        res = eig(combo.astype(np.complex128))
    except (NoConvergence, DefectiveMatrix):
        return None
    lam = res.lam
    scale = float(np.max(np.abs(lam))) if len(lam) else 0.0
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(len(lam)) * (scale + 1.0)
    if float(gaps.min()) <= CLUSTER_RTOL * max(scale, 1e-300):
        return None
    try:
        q = lu_invert(res.q)
    except SingularMatrix:
        return None
    residual = _offdiag_ratio(q @ family @ res.q, family)
    if residual > SIMDIAG_RESIDUAL_RTOL:
        return None
    return SimDiagResult(q=q, diag_residual=residual)


def _permuted_blocks(m: np.ndarray, b: int):
    """The b x b grid of (n/b)-sized blocks of P_(b,n) @ m @ P_(b,n).T.

    Block (i, j) entry (l, k) is m[l*b + i, k*b + j]: a transpose of the
    4-D reshape, so no permuted copy of m is made.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadBlocking(f"expected a square matrix, got {m.shape}")
    n = m.shape[0]
    b = resolve_block_size(n, b)
    q = n // b
    return m.reshape(q, b, q, b).transpose(1, 3, 0, 2)


def factorize_mm_star(m, b: int, threads: int = 1) -> MMStarFactorization:
    """Recover Monarch factors of an MM*(b, n) matrix satisfying assumption 1.

    Raises NoConvergence on a non-finite entry, SingularBlock when a permuted
    block is not invertible (assumption 1 fails, e.g. for the identity),
    SimDiagFailed when no common eigenbasis exists to tolerance (the input is
    not in MM*).
    """
    m = np.asarray(m)
    blocks = _permuted_blocks(m.astype(np.complex128), b)
    if not np.all(np.isfinite(blocks)):
        raise NoConvergence("factorize_mm_star: input has a non-finite entry")
    n = m.shape[0]
    q = n // b

    def invert_labeled(label_block):
        (i, j), block = label_block
        try:
            return lu_invert(block)
        except SingularMatrix as exc:
            raise SingularBlock(
                f"permuted block ({i},{j}) is singular; assumption 1 "
                f"(nonzero middle-factor entries, invertible blocks) fails: {exc}"
            ) from exc

    inv_col0 = np.stack(parallel_map(invert_labeled, [((i, 0), blocks[i, 0]) for i in range(b)], threads))
    inv_row0 = np.stack(parallel_map(invert_labeled, [((0, j), blocks[0, j]) for j in range(b)], threads))

    # family F(i, j) = Mt_i0^-1 Mt_ij (Mt_0j^-1 Mt_00), i-major
    left = inv_col0[:, None] @ blocks
    add_multiplies(b * b * q**3)
    right = inv_row0 @ blocks[0, 0]
    add_multiplies(b * q**3)
    family = (left @ right[None]).reshape(b * b, q, q)
    add_multiplies(b * b * q**3)

    sim = _fast_common_diagonalizer(family)
    if sim is None:
        sim = simultaneous_diagonalize(family)
    c0 = sim.q
    c0_inv = lu_invert(c0)

    a_blocks = blocks[:, 0] @ c0_inv
    c_blocks = np.concatenate([c0[None], lu_invert(a_blocks[0]) @ blocks[0, 1:]])
    a_invs = np.stack([lu_invert(a) for a in a_blocks])
    c_invs = np.stack([lu_invert(c) for c in c_blocks])
    d = a_invs[:, None] @ blocks @ c_invs[None]
    worst_offdiag = max(sim.diag_residual, _offdiag_ratio(d, d))
    if worst_offdiag > 1e-6:
        raise SimDiagFailed(
            f"middle blocks are not diagonal (off-diagonal ratio {worst_offdiag:.3e}); "
            "input is not an MM* matrix at this block size"
        )
    result = MMStarFactorization(
        l1=BlockDiagMatrix(a_blocks),
        l2=BlockDiagMatrix(c_blocks),
        middle=DiagBlockMatrix(b_row=q, b_col=q, entries=np.diagonal(d, axis1=2, axis2=3).copy()),
        b=b,
        n=n,
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


def assumption1_check(m, b: int) -> Assumption1Report:
    """Condition estimates of all permuted blocks vs the invertibility threshold."""
    m = np.asarray(m)
    blocks = _permuted_blocks(m, b)
    q = m.shape[0] // b
    s = svd(blocks.reshape(b * b, q, q)).s
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.where(s[:, -1] == 0.0, np.inf, s[:, 0] / s[:, -1]).reshape(b, b)
    worst = float(np.max(conds))
    return Assumption1Report(
        block_conditions=conds,
        best_condition=float(np.min(conds)),
        worst_condition=worst,
        passed=bool(worst <= ASSUMPTION1_CONDITION_LIMIT),
    )
