"""Seeded benchmark inputs, built with numpy only.

Nothing here calls the library's own generators: `random_mm_star` and
`random_monarch(constraints=...)` resample through the library's Jacobi SVD,
so set-up time would move with solver changes. The library is used only to
wrap finished arrays in its public classes.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np


class InputHash:
    """SHA-256 over every generated array, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays) -> None:
        for a in arrays:
            a = np.ascontiguousarray(a)
            self._h.update(f"{a.dtype.str}{a.shape}".encode())
            self._h.update(a.tobytes())

    def add_bytes(self, data: bytes) -> None:
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """One independent stream per (seed, workload or workload part)."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def normal(rng, shape, complex_field=False) -> np.ndarray:
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def monarch_blocks(rng, n, b, complex_field=False):
    """(ltilde, r) blocks drawn i.i.d. N(0,1): shapes (b, n/b, n/b) and (n/b, b, b)."""
    q = n // b
    return normal(rng, (b, q, q), complex_field), normal(rng, (q, b, b), complex_field)


def monarch_dense(ltilde, r) -> np.ndarray:
    """Dense M with M[l*b + j, k*b + i] = Ltilde_j[l, k] * R_k[j, i]."""
    b, q, _ = ltilde.shape
    return np.einsum("jlk,kji->ljki", ltilde, r).reshape(q * b, q * b)


def conditioned_blocks(rng, count, size, complex_field=False) -> np.ndarray:
    """QR-orthogonal blocks plus a 5% perturbation: condition numbers near 1."""
    q, _ = np.linalg.qr(normal(rng, (count, size, size), complex_field))
    return q + 0.05 / np.sqrt(size) * normal(rng, (count, size, size), complex_field)


def middle_blocks(rng, count, size, complex_field=False) -> np.ndarray:
    """Middle-factor blocks whose entries have magnitude in [0.5, 1.5]."""
    mag = rng.uniform(0.5, 1.5, (count, size, size))
    if complex_field:
        return mag * np.exp(2j * np.pi * rng.uniform(size=(count, size, size)))
    return mag * rng.choice([-1.0, 1.0], (count, size, size))


def mm_star_dense(rng, n, b, complex_field=False, repeat_position=False) -> np.ndarray:
    """Dense (P.T L1 P) R (P.T L2 P) satisfying assumption 1.

    With repeat_position the middle factor's block 1 copies block 0, so two
    diagonal positions of every D_ij coincide: every member of the commuting
    family then has a repeated eigenvalue, the one-combination fast path
    declines, and the staged simultaneous diagonalization runs.
    """
    q = n // b
    l1 = conditioned_blocks(rng, b, q, complex_field)
    l2 = conditioned_blocks(rng, b, q, complex_field)
    mid = middle_blocks(rng, q, b, complex_field)
    if repeat_position:
        mid[1] = mid[0]
    eye = np.broadcast_to(np.eye(b), (q, b, b))
    m1 = monarch_dense(l1, mid)
    m2 = monarch_dense(np.conj(np.swapaxes(l2, 1, 2)), eye)
    return m1 @ m2.conj().T


def butterfly_diagonals(rng, n, kind: str) -> list[np.ndarray]:
    """Per-factor diagonals (n/k, 2, 2, k/2) for k = n, n/2, ..., 2.

    kind "random" draws N(0,1); "dft" is the radix-2 decimation-in-time DFT
    (without its bit-reversal); "hadamard" is the Sylvester construction.
    """
    out = []
    k = n
    while k >= 2:
        half = k // 2
        shape = (n // k, 2, 2, half)
        if kind == "random":
            d = rng.standard_normal(shape)
        elif kind == "dft":
            omega = np.exp(-2j * np.pi * np.arange(half) / k)
            d = np.empty(shape, dtype=np.complex128)
            d[:, 0, 0] = 1.0
            d[:, 0, 1] = omega
            d[:, 1, 0] = 1.0
            d[:, 1, 1] = -omega
        elif kind == "hadamard":
            d = np.ones(shape)
            d[:, 1, 1] = -1.0
        else:
            raise ValueError(f"unknown butterfly kind {kind!r}")
        out.append(d)
        k //= 2
    return out


def dmat_text(a) -> str:
    """The dmat text format: header, then row-major values with 17 digits."""
    a = np.asarray(a)
    kind = "complex" if np.iscomplexobj(a) else "real"
    flat = a.ravel()
    if kind == "complex":
        flat = np.column_stack([flat.real, flat.imag]).ravel()
    body = "\n".join(f"{v:.17g}" for v in flat)
    return f"dmat {a.shape[0]} {a.shape[1]} {kind}\n{body}\n"
