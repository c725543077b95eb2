"""Field-generic dense linear algebra built on numpy arrays.

Matrices are plain 2-D ndarrays over float64 (real field) or complex128
(complex field). The solvers here are written out explicitly rather than
delegated to LAPACK, so each has one inspectable floating-point path. Plain
products elsewhere (the apply stages, which also give product_to_dense, and
the factorization's commuting family and reconstruction) use np.matmul
directly.

  * matmul        - fixed k-ascending accumulation order (reproducible);
                    not exported and called by no library code, kept
                    because perfbench/spans.py wraps it by name
  * lu_invert     - Gauss-Jordan with partial pivoting and an explicit
                    singularity threshold, over a stack of matrices at once
                    (a single matrix is a batch of one)
  * svd           - one-sided Jacobi rotations over a stack of matrices:
                    each sweep is a Brent-Luk round-robin of disjoint column
                    pairs, and one round rotates those pairs in every matrix
                    of the stack at once (a single matrix is a batch of one)
  * cond_estimate - sigma_max / sigma_min from one svd call, for a matrix or
                    each matrix of a stack; inf where sigma_min is zero
  * eig           - Hessenberg reduction (exactly zero below the
                    subdiagonal) + shifted QR in complex arithmetic, each
                    Givens rotation applied to just its two rows and columns
                    (O(k^3) in all) and the deflation scan one vectorized
                    comparison per step; EigResult.q_inv is the inverse
                    eigenbasis that the defectiveness check computes anyway

All functions are pure; none mutate their inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .counting import add_multiplies
from .errors import (
    DefectiveMatrix,
    DimensionMismatch,
    NoConvergence,
    SingularMatrix,
)

REAL = "real"
COMPLEX = "complex"

#: machine epsilon for float64
EPS = float(np.finfo(np.float64).eps)

#: pivot magnitude below this multiple of max|entry| counts as singular
SINGULAR_PIVOT_RTOL = 1e-12

#: eigenvector matrices with condition estimates above this are defective
DEFECTIVE_CONDITION = 1e10

_SVD_MAX_SWEEPS = 60
_QR_STEPS_PER_EIGENVALUE = 60
_SVD_ORTH_TOL = 1e-14


def dtype_for(field: str):
    if field == REAL:
        return np.float64
    if field == COMPLEX:
        return np.complex128
    raise ValueError(f"unknown field {field!r}")


def field_of(a) -> str:
    return COMPLEX if np.iscomplexobj(a) else REAL


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def matmul(a, b) -> np.ndarray:
    """Dense product with k-ascending accumulation.

    Every output entry is accumulated in the same order as the textbook
    triple loop with innermost index k, so results are bit-reproducible.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatch("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"inner dimensions differ: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a.dtype, b.dtype))
    for k in range(a.shape[1]):
        out += np.multiply.outer(a[:, k], b[k, :])
    add_multiplies(a.shape[0] * a.shape[1] * b.shape[1])
    return out


# ---------------------------------------------------------------------------
# Inversion


def lu_invert(a) -> np.ndarray:
    """Inverse of a matrix or of each matrix of a (batch, k, k) stack.

    Gauss-Jordan elimination on [A | I] with partial pivoting, one column
    step for every matrix of the stack at once; a single matrix is a batch
    of one. Raises SingularMatrix, naming the first failing matrix of the
    stack, when a pivot is not above SINGULAR_PIVOT_RTOL * max|A_i| (so a
    NaN or infinite entry fails too).
    """
    a = np.asarray(a)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch("lu_invert needs a square matrix or a stack of square matrices")
    stack = a[None] if a.ndim == 2 else a
    batch, k = stack.shape[:2]
    w = np.empty((batch, k, 2 * k), dtype=np.result_type(stack.dtype, np.float64))
    w[:, :, :k] = stack
    w[:, :, k:] = np.eye(k)
    rows = w.reshape(batch * k, 2 * k)  # a view: w is C-contiguous
    first_row = np.arange(0, batch * k, k)
    # a zero pivot spreads inf/nan through its own matrix only; it is
    # reported after the loop from the pivots left on the diagonal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(k):
            p = first_row + j + np.argmax(np.abs(w[:, j:, j]), axis=1)
            pivot_row = rows[p]
            rows[p] = w[:, j]
            pivot_row[:, j + 1 :] /= pivot_row[:, j, None]
            w[:, :, j + 1 :] -= w[:, :, j, None] * pivot_row[:, None, j + 1 :]
            w[:, j] = pivot_row
    add_multiplies(batch * (k + 1) * (3 * k * k - k) // 2)
    pivots = np.abs(np.diagonal(w, axis1=1, axis2=2))
    threshold = SINGULAR_PIVOT_RTOL * np.abs(stack).max(axis=(1, 2), initial=0.0)
    bad = ~(pivots > threshold[:, None])
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        j = int(np.argmax(bad[i]))
        raise SingularMatrix(
            f"matrix {i}: pivot {pivots[i, j]:.3e} at column {j} not above {threshold[i]:.3e}", index=i
        )
    inv = w[:, :, k:]
    return inv if a.ndim == 3 else inv[0]


# ---------------------------------------------------------------------------
# SVD


@dataclass
class SvdResult:
    u: np.ndarray  # columns orthonormal
    s: np.ndarray  # nonnegative, descending
    v: np.ndarray  # columns orthonormal; a = u @ diag(s) @ v.conj().T


def svd(a) -> SvdResult:
    """Thin SVD of a matrix or of a stack (batch, rows, cols) of matrices.

    One-sided Jacobi rotations on the columns, every matrix of a stack in
    the same batched kernel; a single matrix is a batch of one. Raises
    NoConvergence if column pairs are still far from orthogonal after the
    sweep budget, or at once on a non-finite entry.
    """
    a = np.asarray(a)
    if a.ndim not in (2, 3):
        raise DimensionMismatch("svd operand must be a matrix or a stack of matrices")
    stack = a[None] if a.ndim == 2 else a
    if stack.shape[1] < stack.shape[2]:
        v, s, u = _jacobi_svd(stack.conj().transpose(0, 2, 1))
    else:
        u, s, v = _jacobi_svd(stack)
    if a.ndim == 2:
        return SvdResult(u=u[0], s=s[0], v=v[0])
    return SvdResult(u=u, s=s, v=v)


@functools.lru_cache(maxsize=None)
def _round_robin(m: int) -> np.ndarray:
    """Slot shift of the Brent-Luk ordering for an even number m of columns.

    Columns sit in adjacent slot pairs (2i, 2i+1). Reindexing the slots by
    the returned array after each round meets every column pair exactly
    once in m - 1 rounds, after which every column is back in its slot.
    """
    # round r pairs ring[i] with ring[m-1-i], where ring = [0] + the other
    # columns rotated r places; slot 2i holds ring[i], slot 2i+1 ring[m-1-i]
    ring_of_slot = np.array([i // 2 if i % 2 == 0 else m - 1 - i // 2 for i in range(m)])
    slot_of_ring = np.argsort(ring_of_slot)
    advance = np.concatenate(([0], np.arange(2, m), [1]))
    shift = slot_of_ring[advance[ring_of_slot]]
    shift.setflags(write=False)  # shared by every caller through the cache
    return shift


def _jacobi_svd(stack: np.ndarray):
    """Batched one-sided Jacobi on a (batch, rows, cols) stack, rows >= cols.

    Returns (u, s, v) stacks with descending s.
    """
    batch, rows, cols = stack.shape
    dtype = dtype_for(field_of(stack))
    m = cols + cols % 2  # an odd column count gets a zero dummy column
    # x[i, k] holds column k of matrix i followed by column k of its v
    x = np.zeros((batch, m, rows + cols), dtype=dtype)
    x[:, :cols, :rows] = stack.transpose(0, 2, 1)
    x[:, np.arange(cols), rows + np.arange(cols)] = 1.0
    frobenius_sq = _sum_sq(x[:, :, :rows]).sum(axis=1)
    # a NaN Gram entry compares false and would read as converged; rotations
    # preserve |a|_F, so a finite one here bounds every later Gram entry
    if not np.isfinite(frobenius_sq).all():
        raise NoConvergence("jacobi svd: non-finite entry or norm overflow")
    # columns whose norm falls below machine noise relative to |a|_F are
    # numerically zero: rotating them never converges, so freeze them
    zero_col_sq = (4.0 * EPS) ** 2 * frobenius_sq
    if cols > 1:
        x = _sweeps(x, rows, cols, zero_col_sq)
    w = x[:, :cols, :rows]
    norms = np.sqrt(_sum_sq(w))
    order = np.argsort(-norms, axis=1, kind="stable")
    norms = np.take_along_axis(norms, order, axis=1)
    w = np.take_along_axis(w, order[:, :, None], axis=1)
    v = np.take_along_axis(x[:, :cols, rows:], order[:, :, None], axis=1)
    # frozen numerically-zero columns hold rounding junk: their directions
    # are completed orthonormally instead of normalized
    significant = norms > np.sqrt(zero_col_sq)[:, None]
    u = (w / np.where(significant, norms, np.inf)[:, :, None]).transpose(0, 2, 1)
    _orthonormal_completion(u, significant)
    return u, norms, v.transpose(0, 2, 1)


def _sum_sq(w: np.ndarray) -> np.ndarray:
    """Squared 2-norms along the last axis."""
    if np.iscomplexobj(w):
        w = w.view(np.float64)
    return np.einsum("...i,...i->...", w, w)


def _sweeps(x, rows, cols, zero_col_sq):
    """Jacobi sweeps until every matrix of the stack has orthogonal columns.

    Each sweep is m - 1 rounds; a round rotates every disjoint column pair
    of every live matrix at once. A matrix whose sweep rotated nothing has
    converged and leaves the live set.
    """
    batch, m, width = x.shape
    shift = _round_robin(m)
    done = np.empty_like(x)
    live = np.arange(batch)
    examined = 3 * rows * (cols // 2)
    rotation = 4 * rows + 4 * cols
    complex_field = np.iscomplexobj(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(_SVD_MAX_SWEEPS):
            if not len(live):
                return done
            zero_sq = zero_col_sq[live, None]
            rotated = np.zeros(len(live), dtype=bool)
            rot = np.empty((len(live), m // 2, 2, 2), dtype=x.dtype)
            for _ in range(m - 1):
                w = x[:, :, :rows]
                gram = _sum_sq(w)
                app, aqq = gram[:, 0::2], gram[:, 1::2]
                wp = w[:, 0::2].conj() if complex_field else w[:, 0::2]
                apq = np.einsum("...i,...i->...", wp, w[:, 1::2])
                mag = np.abs(apq)
                norm = np.sqrt(gram)
                active = (np.minimum(app, aqq) > zero_sq) & (mag > _SVD_ORTH_TOL * norm[:, 0::2] * norm[:, 1::2])
                count = int(np.count_nonzero(active))
                add_multiplies(examined * len(live) + rotation * count)
                if count:
                    rotated |= active.any(axis=1)
                    # tan of the rotation angle is tau * |apq|, its phase apq/|apq|
                    d = aqq - app
                    tau = np.copysign(2.0, d) / (np.abs(d) + np.hypot(d, 2.0 * mag))
                    tau = np.where(active, tau, 0.0)
                    t = tau * mag
                    cs = 1.0 / np.sqrt(1.0 + t * t)
                    sn = cs * tau * apq
                    rot[..., 0, 0] = rot[..., 1, 1] = cs
                    rot[..., 1, 0] = sn
                    rot[..., 0, 1] = -sn.conj() if complex_field else -sn
                    x = np.matmul(rot, x.reshape(len(live), m // 2, 2, width)).reshape(len(live), m, width)
                x = x[:, shift]
            done[live[~rotated]] = x[~rotated]
            live, x = live[rotated], x[rotated]
    if len(live):
        raise NoConvergence(f"jacobi svd: not orthogonal after {_SVD_MAX_SWEEPS} sweeps")
    return done


def _orthonormal_completion(u: np.ndarray, significant: np.ndarray) -> None:
    """Fill the non-significant (trailing) columns of a u stack in place.

    Each gets the first standard basis vector whose residual against the
    columns already filled is long enough, orthogonalized twice.
    """
    rows, cols = u.shape[1:]
    for j in range(cols):
        need = np.nonzero(~significant[:, j])[0]
        if not len(need):
            continue
        filled = u[need]
        # column c of resid is e_c minus its projection onto filled columns
        resid = np.eye(rows, dtype=u.dtype) - filled @ filled.conj().transpose(0, 2, 1)
        cand = np.argmax(np.linalg.norm(resid, axis=1) > 0.5 / math.sqrt(rows), axis=1)
        vec = resid[np.arange(len(need)), :, cand]
        vec = vec - np.einsum("nrk,nk->nr", filled, np.einsum("nrk,nr->nk", filled.conj(), vec))
        u[need, :, j] = vec / np.linalg.norm(vec, axis=1, keepdims=True)


def rank1_approx(a):
    """Best rank-1 approximation a ~ outer(u, conj(v)) (Eckart-Young).

    Returns (u, v) with u = s_1 * U[:, 0] and v = V[:, 0]; both zero vectors
    for a zero matrix. A stack (batch, rows, cols) gives (batch, rows) and
    (batch, cols) stacks from one batched SVD.
    """
    res = svd(a)
    s1 = res.s[..., :1]
    u = np.where(s1 == 0.0, 0.0, s1 * res.u[..., 0])
    v = np.where(s1 == 0.0, 0.0, res.v[..., 0])
    return u, v


def cond_estimate(a):
    """sigma_max / sigma_min of a matrix, or of each matrix of a stack (a
    single matrix is a batch of one); inf where sigma_min is zero."""
    s = svd(a).s
    if not s.shape[-1]:  # an empty matrix has no nonzero singular value
        s = np.zeros(s.shape[:-1] + (1,))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[..., -1] == 0.0, np.inf, s[..., 0] / s[..., -1])
    return float(cond) if np.ndim(a) == 2 else cond


# ---------------------------------------------------------------------------
# Eigendecomposition


@dataclass
class EigResult:
    q: np.ndarray  # eigenvector columns, unit norm
    lam: np.ndarray  # eigenvalues, order matching q's columns (unsorted)
    q_inv: np.ndarray  # inverse of q, as computed for the defectiveness check


def _hessenberg(a: np.ndarray):
    """Householder reduction to upper Hessenberg form: a = q @ h @ q*."""
    n = a.shape[0]
    h = a.copy()
    q = np.eye(n, dtype=a.dtype)
    for k in range(n - 2):
        x = h[k + 1 :, k]
        norm_x = float(np.linalg.norm(x))
        if norm_x == 0.0:
            continue
        v = x.copy()
        pivot = v[0]
        sign = pivot / abs(pivot) if pivot != 0 else 1.0
        v[0] += sign * norm_x
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        h[k + 1 :, k:] -= 2.0 * np.multiply.outer(v, v.conj() @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.multiply.outer(h[:, k + 1 :] @ v, v.conj())
        h[k + 2 :, k] = 0.0  # the reflection zeroes these up to rounding
        q[:, k + 1 :] -= 2.0 * np.multiply.outer(q[:, k + 1 :] @ v, v.conj())
        add_multiplies(4 * n * (n - k))
    return h, q


def _wilkinson_shift(t, hi):
    a = t[hi - 1, hi - 1]
    b = t[hi - 1, hi]
    c = t[hi, hi - 1]
    d = t[hi, hi]
    tr = a + d
    disc = np.sqrt((a - d) * (a - d) + 4.0 * b * c + 0j)
    mu1 = (tr + disc) / 2.0
    mu2 = (tr - disc) / 2.0
    return mu1 if abs(mu1 - d) <= abs(mu2 - d) else mu2


def _schur(h: np.ndarray):
    """Shifted QR iteration on a Hessenberg matrix: h = z @ t @ z*.

    Each Givens rotation of a QR step touches two rows and two columns, so a
    step costs O(n^2) and the whole iteration O(n^3).
    """
    n = h.shape[0]
    t = h.astype(np.complex128).copy()
    z = np.eye(n, dtype=np.complex128)
    scale = max(float(np.linalg.norm(t)), 1.0)
    budget = _QR_STEPS_PER_EIGENVALUE * max(n, 1)
    steps = 0
    hi = n - 1
    stagnation = 0
    while hi > 0:
        # deflate converged subdiagonals: t[k + 1, k] for each k found
        diag = np.abs(np.diagonal(t)[: hi + 1])
        tol = np.maximum(EPS * (diag[:-1] + diag[1:]) + 1e-300, EPS * scale * 1e-4)
        k = np.flatnonzero(np.abs(np.diagonal(t, -1)[:hi]) <= tol)
        t[k + 1, k] = 0.0
        if len(k) and k[-1] == hi - 1:
            hi -= 1
            stagnation = 0
            continue
        lo = int(k[-1]) + 1 if len(k) else 0
        steps += 1
        stagnation += 1
        if steps > budget:
            raise NoConvergence(f"qr eigensolver: {budget} steps exhausted")
        if stagnation % 12 == 0:
            mu = t[hi, hi] + 0.75 * abs(t[hi, hi - 1])  # exceptional shift
        else:
            mu = _wilkinson_shift(t, hi)
        window = np.arange(lo, hi + 1)
        t[window, window] -= mu
        rotations = []
        touched = 0
        for k in range(lo, hi):
            f, g = t[k, k], t[k + 1, k]
            denom = math.hypot(abs(f), abs(g))
            if denom == 0.0:
                continue
            if f == 0.0:
                cs, sn = 0.0, 1.0 + 0j
            else:
                cs = abs(f) / denom
                sn = (f / abs(f)) * np.conj(g) / denom
            rot = np.array([[cs, sn], [-np.conj(sn), cs]])
            t[k : k + 2, k:] = rot @ t[k : k + 2, k:]
            rotations.append((k, rot.conj().T))
            touched += n - k
        # columns after all rows: each column rotation changes the next f, g
        for k, rot_h in rotations:
            end = min(k + 3, hi + 1)  # rows below are zero in columns k, k+1
            t[:end, k : k + 2] = t[:end, k : k + 2] @ rot_h
            z[:, k : k + 2] = z[:, k : k + 2] @ rot_h
            touched += end + n
        t[window, window] += mu
        add_multiplies(4 * touched)
    return t, z


def _triangular_eigenvectors(t: np.ndarray):
    """Eigenvectors of an upper-triangular matrix by back-substitution, bottom
    up: one step solves row i of (t - t_jj) y_j = 0 for every column j > i."""
    n = t.shape[0]
    y = np.eye(n, dtype=np.complex128)
    scale = max(float(np.max(np.abs(t))), 1.0)
    for i in range(n - 2, -1, -1):
        denom = t[i, i] - t.diagonal()[i + 1 :]
        denom[np.abs(denom) < EPS * scale] = EPS * scale
        # y is upper triangular: column j has no entries below row j
        y[i, i + 1 :] = -(t[i, i + 1 :] @ y[i + 1 :, i + 1 :]) / denom
    add_multiplies(n * n * n // 3)
    return y / np.linalg.norm(y, axis=0)


def eig(a) -> EigResult:
    """Eigendecomposition a @ q = q @ diag(lam), computed in complex arithmetic.

    Real inputs are promoted; raises DefectiveMatrix when the eigenvector
    matrix condition estimate exceeds DEFECTIVE_CONDITION, NoConvergence when
    the QR iteration stalls, or at once on a non-finite entry. Eigenvalues
    are returned unsorted.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("eig needs a square matrix")
    # a NaN subdiagonal never compares small enough to deflate
    if not np.isfinite(a).all():
        raise NoConvergence("qr eigensolver: non-finite entry")
    n = a.shape[0]
    ac = a.astype(np.complex128)
    if n <= 1:
        one = np.ones((n, n), dtype=np.complex128)
        return EigResult(q=one, lam=ac.diagonal().copy(), q_inv=one.copy())
    h, q0 = _hessenberg(ac)
    t, z = _schur(h)
    basis = (q0 @ z) @ _triangular_eigenvectors(t)
    norms = np.linalg.norm(basis, axis=0)
    norms[norms == 0.0] = 1.0
    basis = basis / norms
    lam = np.diag(t).copy()
    try:
        inv_basis = lu_invert(basis)
    except SingularMatrix as exc:
        raise DefectiveMatrix("eigenvector matrix is singular") from exc
    cond = frobenius(basis) * frobenius(inv_basis)
    if cond > DEFECTIVE_CONDITION:
        raise DefectiveMatrix(f"eigenvector condition estimate {cond:.3e}")
    return EigResult(q=basis, lam=lam, q_inv=inv_basis)
