"""Reverse-mode gradients through the Monarch application path.

For the scalar loss f = Re(<upstream, M x>) (conjugate-linear in upstream,
plain dot product in the real case), the chain rule through the stages
y = R x, w = P y, z = Ltilde w, out = P.T z gives

    d_x       = R* P.T Ltilde* P upstream
    d_Ltilde_j = u_j w_j*         (u = P upstream, segments of length n/b)
    d_R_k      = s_k x_k*         (s = P.T Ltilde* u, segments of length b)

Complex tangents pack d/d(Re theta) + i * d/d(Im theta), so every tangent
entry is checkable coordinate-by-coordinate against central differences of
f. Tangents carry no entries outside the structured support by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MonarchMatrix, monarch_matvec
from .counting import add_multiplies
from .errors import DimensionMismatch
from .structured import BlockDiagMatrix

_FD_STEP = 1e-5


@dataclass
class MonarchTangent:
    d_ltilde: np.ndarray  # (b, n/b, n/b), mirrors ltilde.blocks
    d_r: np.ndarray  # (n/b, b, b), mirrors r.blocks
    d_x: np.ndarray  # (n,)


def matvec_vjp(m: MonarchMatrix, x, upstream) -> MonarchTangent:
    """Pull one cotangent vector back through both block stages, inline. The
    products cost 3*n*b + 2*n^2/b multiplies; the 4*(n*b + n^2/b) recorded is a bound."""
    x = np.asarray(x)
    upstream = np.asarray(upstream)
    if x.shape != (m.n,) or upstream.shape != (m.n,):
        raise DimensionMismatch(f"vectors must have length {m.n}")
    n, b = m.n, m.b
    q = n // b
    lb = m.ltilde.blocks  # (b, q, q) indexed [j, l, k]
    rb = m.r.blocks  # (q, b, b) indexed [k, j, i]
    xq = x.reshape(q, b)
    y = np.matmul(rb, xq[:, :, None])[:, :, 0]  # R x, (q, b)
    w = y.T  # P y, (b, q) indexed [j, k]
    u = upstream.reshape(q, b).T  # P upstream, (b, q) indexed [j, l]
    d_ltilde = u[:, :, None] * np.conj(w)[:, None, :]
    # conj(conj(v)^T B) = B* v conjugates the vectors instead of the blocks
    t = np.conj(np.matmul(np.conj(u)[:, None, :], lb))[:, 0]  # Ltilde* u, (b, q)
    s = t.T  # P.T t, (q, b) indexed [k, j]
    d_r = s[:, :, None] * np.conj(xq)[:, None, :]
    d_x = np.conj(np.matmul(np.conj(s)[:, None, :], rb)).reshape(n)
    add_multiplies(4 * (n * b + n * q))
    return MonarchTangent(d_ltilde=d_ltilde, d_r=d_r, d_x=d_x)


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    coords_checked: int
    failures: list = field(default_factory=list)  # (label, rel_error, tolerance)


def _loss(m: MonarchMatrix, x, upstream) -> float:
    out = monarch_matvec(m, x)
    return float(np.vdot(upstream, out).real)


def _coordinate_views(m: MonarchMatrix, x: np.ndarray):
    yield from ((("L", j, l, k), m.ltilde.blocks, (j, l, k))
                for j in range(m.b) for l in range(m.n // m.b) for k in range(m.n // m.b))
    yield from ((("R", k, j, i), m.r.blocks, (k, j, i))
                for k in range(m.n // m.b) for j in range(m.b) for i in range(m.b))
    yield from ((("x", i), x, (i,)) for i in range(m.n))


def gradcheck(m: MonarchMatrix, x, seed: int = 0, tangent: MonarchTangent | None = None) -> GradCheckReport:
    """Compare the analytic tangent against central differences, per coordinate.

    The loss is linear in every single coordinate, so central differences
    carry no truncation error, only cancellation noise of order
    eps * |f| / (2h). The relative error denominator is therefore floored at
    one percent of the tangent's largest magnitude: below that, |f|-scale
    rounding noise would swamp any honest comparison. The per-coordinate
    tolerance max(1e-6, 1e-8 / |theta|) relaxes further near zero
    parameters. A tangent override can be passed in to localize injected
    faults.
    """
    x = np.asarray(x).copy()
    is_complex = np.iscomplexobj(m.ltilde.blocks) or np.iscomplexobj(x)
    work = MonarchMatrix(
        ltilde=BlockDiagMatrix(m.ltilde.blocks.copy().astype(np.complex128 if is_complex else np.float64)),
        r=BlockDiagMatrix(m.r.blocks.copy().astype(np.complex128 if is_complex else np.float64)),
    )
    rng = np.random.default_rng(seed)
    upstream = rng.standard_normal(m.n)
    if is_complex:
        upstream = upstream + 1j * rng.standard_normal(m.n)
        x = x.astype(np.complex128)
    if tangent is None:
        tangent = matvec_vjp(work, x, upstream)
    analytic = {"L": tangent.d_ltilde, "R": tangent.d_r, "x": tangent.d_x}
    gscale = max(
        float(np.max(np.abs(tangent.d_ltilde))),
        float(np.max(np.abs(tangent.d_r))),
        float(np.max(np.abs(tangent.d_x))),
    )
    floor = 1e-2 * gscale

    def central_diff(array, idx, delta):
        orig = array[idx]
        array[idx] = orig + delta
        f_plus = _loss(work, x, upstream)
        array[idx] = orig - delta
        f_minus = _loss(work, x, upstream)
        array[idx] = orig
        return (f_plus - f_minus) / (2.0 * _FD_STEP)

    failures = []
    max_rel = 0.0
    count = 0
    for label, array, idx in _coordinate_views(work, x):
        numeric = central_diff(array, idx, _FD_STEP)
        if is_complex:
            numeric = numeric + 1j * central_diff(array, idx, 1j * _FD_STEP)
        ana = analytic[label[0]][label[1:]] if label[0] != "x" else analytic["x"][label[1]]
        denom = max(abs(ana), abs(numeric), floor)
        rel = abs(ana - numeric) / denom if denom > 0.0 else 0.0
        tol = max(1e-6, 1e-8 / max(abs(array[idx]), 1e-300))
        max_rel = max(max_rel, rel)
        if rel > tol:
            failures.append((label, rel, tol))
        count += 1
    return GradCheckReport(
        max_rel_error=max_rel,
        passed=not failures,
        coords_checked=count,
        failures=failures,
    )
