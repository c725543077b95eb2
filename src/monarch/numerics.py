"""Field-generic dense linear algebra built on numpy arrays.

Matrices are plain 2-D ndarrays over float64 (real field) or complex128
(complex field). The solvers here are written out explicitly rather than
delegated to LAPACK, so each has one inspectable floating-point path. Plain
block products elsewhere (the apply stages, the factorization's commuting
family and reconstruction) use np.matmul directly; matmul below serves the
callers that want its fixed accumulation order (product_to_dense):

  * matmul        - fixed k-ascending accumulation order (reproducible)
  * lu_invert     - partial-pivot LU with an explicit singularity threshold
  * svd           - one-sided Jacobi rotations over a stack of matrices:
                    each sweep is a Brent-Luk round-robin of disjoint column
                    pairs, and one round rotates those pairs in every matrix
                    of the stack at once (a single matrix is a batch of one)
  * eig           - Hessenberg reduction + shifted QR in complex arithmetic

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
# LU


def _lu_factor(a: np.ndarray):
    """In-place Doolittle LU with partial pivoting. Returns (lu, perm)."""
    n = a.shape[0]
    lu = a.copy()
    perm = np.arange(n)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    threshold = SINGULAR_PIVOT_RTOL * scale
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= threshold:
            raise SingularMatrix(
                f"pivot {abs(lu[p, k]):.3e} at column {k} below {threshold:.3e}"
            )
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.multiply.outer(lu[k + 1 :, k], lu[k, k + 1 :])
        add_multiplies((n - k - 1) * (n - k))
    return lu, perm


def lu_invert(a) -> np.ndarray:
    """Inverse via partial-pivot LU; raises SingularMatrix on tiny pivots."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("lu_invert needs a square matrix")
    n = a.shape[0]
    if n == 0:
        return a.copy()
    lu, perm = _lu_factor(a)
    # Solve A X = I: forward substitution on the permuted identity, then back.
    y = np.eye(n, dtype=lu.dtype)[perm]
    for i in range(1, n):
        y[i] -= lu[i, :i] @ y[:i]
    add_multiplies(n * n * (n - 1) // 2)
    x = y
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            x[i] -= lu[i, i + 1 :] @ x[i + 1 :]
        x[i] /= lu[i, i]
    add_multiplies(n * n * (n + 1) // 2)
    return x


# ---------------------------------------------------------------------------
# SVD


@dataclass
class SvdResult:
    u: np.ndarray  # columns orthonormal
    s: np.ndarray  # nonnegative, descending
    v: np.ndarray  # columns orthonormal; a = u @ diag(s) @ v.conj().T


def svd(a, max_sweeps: int = _SVD_MAX_SWEEPS) -> SvdResult:
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
        v, s, u = _jacobi_svd(stack.conj().transpose(0, 2, 1), max_sweeps)
    else:
        u, s, v = _jacobi_svd(stack, max_sweeps)
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


def _jacobi_svd(stack: np.ndarray, max_sweeps: int):
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
        x = _sweeps(x, rows, cols, zero_col_sq, max_sweeps)
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


def _sweeps(x, rows, cols, zero_col_sq, max_sweeps):
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
        for _ in range(max_sweeps):
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
        raise NoConvergence(f"jacobi svd: not orthogonal after {max_sweeps} sweeps")
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


def cond_estimate(a) -> float:
    """sigma_max / sigma_min; inf when the smallest singular value is zero."""
    s = svd(a).s
    smallest = s[-1] if len(s) else 0.0
    if smallest == 0.0:
        return math.inf
    return float(s[0] / smallest)


# ---------------------------------------------------------------------------
# Eigendecomposition


@dataclass
class EigResult:
    q: np.ndarray  # eigenvector columns, unit norm
    lam: np.ndarray  # eigenvalues, order matching q's columns (unsorted)


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


def _schur(h: np.ndarray, budget_per_eigenvalue: int = 60):
    """Shifted QR iteration on a Hessenberg matrix: h = z @ t @ z*."""
    n = h.shape[0]
    t = h.astype(np.complex128).copy()
    z = np.eye(n, dtype=np.complex128)
    scale = max(float(np.linalg.norm(t)), 1.0)
    budget = budget_per_eigenvalue * max(n, 1)
    steps = 0
    hi = n - 1
    stagnation = 0
    while hi > 0:
        # deflate converged subdiagonals
        for k in range(hi, 0, -1):
            tol = EPS * (abs(t[k - 1, k - 1]) + abs(t[k, k])) + 1e-300
            if abs(t[k, k - 1]) <= max(tol, EPS * scale * 1e-4):
                t[k, k - 1] = 0.0
        if t[hi, hi - 1] == 0.0:
            hi -= 1
            stagnation = 0
            continue
        lo = hi
        while lo > 0 and t[lo, lo - 1] != 0.0:
            lo -= 1
        steps += 1
        stagnation += 1
        if steps > budget:
            raise NoConvergence(f"qr eigensolver: {budget} steps exhausted")
        if stagnation % 12 == 0:
            mu = t[hi, hi] + 0.75 * abs(t[hi, hi - 1])  # exceptional shift
        else:
            mu = _wilkinson_shift(t, hi)
        size = hi - lo + 1
        block = t[lo : hi + 1, lo : hi + 1] - mu * np.eye(size, dtype=np.complex128)
        rot = np.eye(size, dtype=np.complex128)
        for k in range(size - 1):
            f = block[k, k]
            g = block[k + 1, k]
            denom = math.hypot(abs(f), abs(g))
            if denom == 0.0:
                continue
            if f == 0.0:
                cs, sn = 0.0, 1.0 + 0j
            else:
                cs = abs(f) / denom
                sn = (f / abs(f)) * np.conj(g) / denom
            gmat = np.eye(size, dtype=np.complex128)
            gmat[k, k] = cs
            gmat[k, k + 1] = sn
            gmat[k + 1, k] = -np.conj(sn)
            gmat[k + 1, k + 1] = cs
            block = gmat @ block
            rot = gmat @ rot
        add_multiplies(6 * size * size)
        # similarity transform by rot*: t <- (rot t rot*) on the window
        t[lo : hi + 1, :] = rot @ t[lo : hi + 1, :]
        t[:, lo : hi + 1] = t[:, lo : hi + 1] @ rot.conj().T
        z[:, lo : hi + 1] = z[:, lo : hi + 1] @ rot.conj().T
        add_multiplies(4 * size * size * n)
    return t, z


def _triangular_eigenvectors(t: np.ndarray):
    """Eigenvectors of an upper-triangular matrix by back-substitution."""
    n = t.shape[0]
    y = np.zeros((n, n), dtype=np.complex128)
    scale = max(float(np.max(np.abs(t))), 1.0)
    for j in range(n):
        y[j, j] = 1.0
        for i in range(j - 1, -1, -1):
            rhs = -(t[i, i + 1 : j + 1] @ y[i + 1 : j + 1, j])
            denom = t[i, i] - t[j, j]
            if abs(denom) < EPS * scale:
                denom = EPS * scale
            y[i, j] = rhs / denom
        nrm = float(np.linalg.norm(y[: j + 1, j]))
        if nrm > 0.0:
            y[: j + 1, j] /= nrm
    add_multiplies(n * n * n // 3)
    return y


def eig(a) -> EigResult:
    """Eigendecomposition a @ q = q @ diag(lam), computed in complex arithmetic.

    Real inputs are promoted; raises DefectiveMatrix when the eigenvector
    matrix condition estimate exceeds DEFECTIVE_CONDITION, NoConvergence when
    the QR iteration stalls. Eigenvalues are returned unsorted.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("eig needs a square matrix")
    n = a.shape[0]
    ac = a.astype(np.complex128)
    if n == 0:
        return EigResult(q=ac.copy(), lam=np.zeros(0, dtype=np.complex128))
    if n == 1:
        return EigResult(q=np.ones((1, 1), dtype=np.complex128), lam=ac[0].copy())
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
    return EigResult(q=basis, lam=lam)
