"""Optimal Frobenius projection of an arbitrary square matrix onto M(b, n).

Reshape A into the 4-D tensor At[l, j, k, i] = A[l*b + j, k*b + i]. A member
of M(b, n) has every (j, k) slice At[:, j, k, :] equal to an outer product,
so the squared-distance objective splits into b * (n/b) independent rank-1
approximation problems, each solved optimally by SVD truncation
(Eckart-Young). All slices are solved together: they form one
(b * (n/b), n/b, b) stack for a single batched Jacobi SVD. Reassembling the
per-slice vectors gives the factors: Ltilde_j[l, k] = u_jk[l] and
R_k[j, i] = conj(v_jk)[i].

The per-slice phase is gauged by making the largest-magnitude entry of each
v_jk real and positive, which makes projections bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MonarchMatrix, _square_block_size
from .errors import IndexOutOfRange
from .numerics import frobenius, rank1_approx, svd
from .structured import BlockDiagMatrix


@dataclass
class ProjectionReport:
    input_norm: float
    residual: float
    per_slice_residuals: np.ndarray  # (b, n/b), indexed [j, k]
    block_size: int

    @property
    def relative_residual(self) -> float:
        return self.residual / self.input_norm if self.input_norm > 0 else 0.0


def slice_view(a, b: int, j: int, k: int) -> np.ndarray:
    """The (n/b) x b slice with entry (l, i) = a[l*b + j, k*b + i]."""
    a = np.asarray(a)
    b = _square_block_size(a, b)
    q = a.shape[0] // b
    if not (0 <= j < b and 0 <= k < q):
        raise IndexOutOfRange(f"slice index (j={j}, k={k}) outside ({b}, {q})")
    return a.reshape(q, b, q, b)[:, j, k, :].copy()


def project(a, b: int | None = None):
    """Closest Monarch matrix in Frobenius norm, with a residual report.

    Returns (MonarchMatrix, ProjectionReport). All b * (n/b) slices go to
    rank1_approx as one stack, so the rank-1 solves share one batched SVD.
    """
    a = np.asarray(a)
    b = _square_block_size(a, b)
    q = a.shape[0] // b
    slices = _slice_stack(a, b)
    u, v = rank1_approx(slices)
    # gauge: the largest-magnitude entry of each nonzero v becomes real positive
    # (a zero v comes with a zero u, which any phase leaves zero)
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)
    phase = np.conj(top) / np.where(top == 0, 1.0, np.abs(top))
    u, v = u * phase, v * phase
    per_slice = np.linalg.norm(slices - u[:, :, None] * np.conj(v)[:, None, :], axis=(1, 2)).reshape(b, q)
    m = MonarchMatrix(
        ltilde=BlockDiagMatrix(np.ascontiguousarray(u.reshape(b, q, q).transpose(0, 2, 1))),
        r=BlockDiagMatrix(np.ascontiguousarray(np.conj(v).reshape(b, q, b).transpose(1, 0, 2))),
    )
    report = ProjectionReport(
        input_norm=frobenius(a),
        residual=float(np.sqrt(np.sum(per_slice**2))),
        per_slice_residuals=per_slice,
        block_size=b,
    )
    return m, report


def _slice_stack(a: np.ndarray, b: int) -> np.ndarray:
    """All slices as a (b * (n/b), n/b, b) stack, slice (j, k) at j * (n/b) + k."""
    q = a.shape[0] // b
    return a.reshape(q, b, q, b).transpose(1, 2, 0, 3).reshape(b * q, q, b)


def slice_singular_ratios(a, b: int) -> np.ndarray:
    """sigma_2 / sigma_1 per slice (0 where sigma_1 = 0): the rank-1 test."""
    a = np.asarray(a)
    b = _square_block_size(a, b)
    s = svd(_slice_stack(a, b)).s
    with np.errstate(invalid="ignore"):
        ratios = np.where(s[:, 0] > 0, s[:, 1] / s[:, 0], 0.0)
    return ratios.reshape(b, a.shape[0] // b)
