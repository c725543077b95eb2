"""The block-transpose permutation as an index table.

No library code calls it: the apply path permutes by a reshape-transpose,
and the tests keep their own dense form of P. The module stays only because
the traced benchmark imports monarch.indexing and wraps BlockPermutation
and the permute_* functions by name; the tests' table oracles use them too.

A flat index i with block size b splits as i = i1*b + i0 (0-indexed). The
permutation sigma_(b,n) sends i to i0*(n/b) + i1, i.e. it reshapes a length-n
vector to an (n/b) x b matrix in row-major order, transposes, and flattens.

Matrix convention: the permutation matrix P satisfies P[sigma(i), i] = 1, so
row permutation acts as out[sigma(i), :] = a[i, :] and (P @ L @ P.T) has
entries (P L P.T)[sigma(i), sigma(j)] = L[i, j].
"""

from __future__ import annotations

import numpy as np

from .errors import BadBlocking, DimensionMismatch, IndexOutOfRange


class BlockPermutation:
    """The permutation sigma_(b,n): i1*b + i0  ->  i0*(n/b) + i1."""

    def __init__(self, b: int, n: int):
        if b < 1 or n < 1 or n % b != 0:
            raise BadBlocking(f"block size {b} must divide n={n}")
        self.b = b
        self.n = n
        i = np.arange(n)
        self.table = (i % b) * (n // b) + i // b

    def __repr__(self):
        return f"BlockPermutation(b={self.b}, n={self.n})"

    def apply(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"index {i} outside [0, {self.n})")
        return int(self.table[i])

    def inverse(self) -> "BlockPermutation":
        # sigma_(b,n)^-1 = sigma_(n/b,n)
        return BlockPermutation(self.n // self.b, self.n)


def permute_vector(p, x: np.ndarray) -> np.ndarray:
    """out[sigma(i)] = x[i]."""
    x = np.asarray(x)
    if x.shape[0] != p.n:
        raise DimensionMismatch(f"vector length {x.shape[0]} != n={p.n}")
    out = np.empty_like(x)
    out[p.table] = x
    return out


def permute_rows(p, a: np.ndarray) -> np.ndarray:
    """out[sigma(i), :] = a[i, :]  (left multiplication by P)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != p.n:
        raise DimensionMismatch(f"row count {a.shape} != n={p.n}")
    out = np.empty_like(a)
    out[p.table, :] = a
    return out


def permute_cols(p, a: np.ndarray) -> np.ndarray:
    """out[:, sigma(j)] = a[:, j]  (right multiplication by P^T)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[1] != p.n:
        raise DimensionMismatch(f"column count {a.shape} != n={p.n}")
    out = np.empty_like(a)
    out[:, p.table] = a
    return out
