"""Dense reference constructions that only the tests use.

Each is computed the slow, obvious way, independently of the structured
code paths it checks.
"""

import numpy as np

from monarch.indexing import BlockPermutation


def permutation_matrix(p, dtype=np.float64) -> np.ndarray:
    """Dense P with P[sigma(i), i] = 1, from a permutation's index table."""
    mat = np.zeros((p.n, p.n), dtype=dtype)
    mat[p.table, np.arange(p.n)] = 1.0
    return mat


def monarch_dense_oracle(m) -> np.ndarray:
    """Dense form of a MonarchMatrix, P.T L P R as explicit matrices."""
    p = permutation_matrix(BlockPermutation(m.b, m.n), dtype=m.ltilde.blocks.dtype)
    return p.T @ m.ltilde.to_dense() @ p @ m.r.to_dense()


def db_entries(a, b: int) -> np.ndarray:
    """DiagBlockMatrix entries of a dense matrix with square b x b blocks:
    entries[i1, j1, i0] = a[i1*b + i0, j1*b + i0], read one by one."""
    q = a.shape[0] // b
    out = np.zeros((q, q, b), dtype=a.dtype)
    for i1 in range(q):
        for j1 in range(q):
            for i0 in range(b):
                out[i1, j1, i0] = a[i1 * b + i0, j1 * b + i0]
    return out


def butterfly_factor_dense(f) -> np.ndarray:
    """Dense form of a ButterflyFactorMatrix: entry v of quadrant (r, c) of
    block t placed one by one at (t*k + r*k/2 + v, t*k + c*k/2 + v)."""
    half = f.k // 2
    out = np.zeros((f.n, f.n), dtype=f.diagonals.dtype)
    for t in range(f.n // f.k):
        for r in range(2):
            for c in range(2):
                for v in range(half):
                    out[t * f.k + r * half + v, t * f.k + c * half + v] = f.diagonals[t, r, c, v]
    return out


def dft_matrix(n: int) -> np.ndarray:
    """Direct Vandermonde evaluation, entry (j, k) = omega**(j*k)."""
    j, k = np.indices((n, n))
    return np.exp(-2j * np.pi * (j * k % n) / n)


def sylvester_hadamard(n: int) -> np.ndarray:
    """H_1 = [[1]], H_{2m} = [[H, H], [H, -H]], for n a power of two."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"size must be a power of two, got {n}")
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h
