"""Butterfly matrices, their merge into Monarch form, and the DFT and Hadamard
butterflies.

A butterfly factor of even size k is [[D1, D2], [D3, D4]] with diagonal
quadrants; a butterfly factor matrix of size n and block size k is block
diagonal with n/k such factors; a butterfly matrix of size n = 2**s is the
product B_n B_{n/2} ... B_2.

Splitting that product at block size b gives the containment construction:
R = B_b ... B_2 lands in BD(b, n) and L = B_n ... B_{2b} lands in DB(b, n),
so every butterfly matrix is a Monarch matrix at every valid b. The merge
below multiplies factors blockwise at the target blocking instead of
forming n x n products.

DFT convention: unnormalized, entry (j, k) = exp(-2*pi*i*j*k/n). The
decimation-in-time radix-2 factorization gives
dense(butterfly) @ P_bitrev = DFT_n, with the bit-reversal kept separate
from the butterfly product (it is an index shuffle, not a butterfly factor).
The Hadamard transform needs no shuffle at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MonarchMatrix
from .errors import BadBlocking, BadSize, DimensionMismatch
from .indexing import BlockPermutation, IndexPermutation
from .structured import BlockDiagMatrix, DiagBlockMatrix, _columns, db_to_bd


def _check_power_of_two(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise BadSize(f"size must be a power of two >= 2, got {n}")
    return int(n).bit_length() - 1


@dataclass
class ButterflyFactorMatrix:
    """Block diagonal matrix of n/k butterfly factors of size k.

    diagonals[t, r, c] is the (k/2)-vector of quadrant (r, c) of block t,
    i.e. block t is [[diag(d[t,0,0]), diag(d[t,0,1])],
                     [diag(d[t,1,0]), diag(d[t,1,1])]].
    """

    n: int
    k: int
    diagonals: np.ndarray  # (n//k, 2, 2, k//2)

    def __post_init__(self):
        _check_power_of_two(self.n)
        if self.k < 2 or self.k % 2 or self.n % self.k:
            raise BadSize(f"factor size {self.k} must be even and divide n={self.n}")
        expected = (self.n // self.k, 2, 2, self.k // 2)
        self.diagonals = np.asarray(self.diagonals)
        if self.diagonals.shape != expected:
            raise DimensionMismatch(f"diagonals shape {self.diagonals.shape} != {expected}")

    def stage_apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to a vector or to each column of a matrix, O(n) per column."""
        d = self.diagonals
        half = self.k // 2
        shape = x.shape
        cols = x.reshape(self.n, -1)
        v = cols.reshape(self.n // self.k, 2, half, cols.shape[1])
        top = d[:, 0, 0, :, None] * v[:, 0] + d[:, 0, 1, :, None] * v[:, 1]
        bot = d[:, 1, 0, :, None] * v[:, 0] + d[:, 1, 1, :, None] * v[:, 1]
        out = np.stack([top, bot], axis=1).reshape(self.n, -1)
        return out.reshape(shape)

    def _dense_stack(self) -> np.ndarray:
        """All n/k blocks as one dense (n/k, k, k) stack."""
        factors, half = self.n // self.k, self.k // 2
        # entry v of quadrant (r, c) of block t sits at (r*half + v, c*half + v)
        out = np.zeros((factors, 2, half, 2, half), dtype=self.diagonals.dtype)
        t = np.arange(factors)[:, None, None, None]
        r = np.arange(2)[:, None, None]
        c = np.arange(2)[:, None]
        v = np.arange(half)
        out[t, r, v, c, v] = self.diagonals
        return out.reshape(factors, self.k, self.k)

    def block_dense(self, t: int) -> np.ndarray:
        """Dense k x k form of block t."""
        return self._dense_stack()[t]

    def to_dense(self) -> np.ndarray:
        return self.bd_blocks(self.n).blocks[0]

    def bd_blocks(self, b: int) -> BlockDiagMatrix:
        """This factor as a member of BD(b, n); valid when k divides b."""
        if b % self.k or self.n % b:
            raise BadBlocking(f"factor size {self.k} does not nest in block size {b}")
        per, q, k = b // self.k, self.n // b, self.k
        # factor block t is sub-block t % per on the diagonal of block t // per
        blocks = np.zeros((q, per, k, per, k), dtype=self.diagonals.dtype)
        p = np.arange(per)
        blocks[np.arange(q)[:, None], p, :, p, :] = self._dense_stack().reshape(q, per, k, k)
        return BlockDiagMatrix(blocks.reshape(q, b, b))

    def db_entries(self, b: int) -> DiagBlockMatrix:
        """This factor as a member of DB(b, n); valid when b divides k/2."""
        half = self.k // 2
        if half % b or self.n % b:
            raise BadBlocking(f"block size {b} does not divide half-factor {half}")
        # entry u = v*b + o of quadrant (r, c) of factor t sits at position o
        # of grid block (t*k/b + r*half/b + v, t*k/b + c*half/b + v)
        factors, per = self.n // self.k, half // b
        d = self.diagonals.reshape(factors, 2, 2, per, b)
        entries = np.zeros((factors, 2, per, factors, 2, per, b), dtype=d.dtype)
        t = np.arange(factors)[:, None, None, None]
        r = np.arange(2)[:, None, None]
        c = np.arange(2)[:, None]
        v = np.arange(per)
        entries[t, r, v, t, c, v] = d
        entries = entries.reshape(self.n // b, self.n // b, b)
        return DiagBlockMatrix(b_row=b, b_col=b, entries=entries)


@dataclass
class ButterflyMatrix:
    """Product B_n B_{n/2} ... B_2; factors stored largest size first."""

    n: int
    factors: list[ButterflyFactorMatrix]

    def __post_init__(self):
        s = _check_power_of_two(self.n)
        sizes = [f.k for f in self.factors]
        expected = [self.n >> i for i in range(s)]
        if sizes != expected:
            raise BadSize(f"factor sizes {sizes}, expected {expected}")

    def to_dense(self) -> np.ndarray:
        return butterfly_matvec(self, np.eye(self.n, dtype=self.dtype))

    @property
    def dtype(self):
        return self.factors[0].diagonals.dtype


def butterfly_matvec(bm: ButterflyMatrix, x) -> np.ndarray:
    """Apply the factor product right to left to a vector or each column of
    an (n, k) stack; O(n) per stage and column."""
    x = np.asarray(x)
    _columns(x, bm.n)  # shape check only: each stage takes any column count
    for f in reversed(bm.factors):
        x = f.stage_apply(x)
    return x


def butterfly_to_monarch(bm: ButterflyMatrix, b: int) -> MonarchMatrix:
    """Merge the butterfly factors into Monarch form at block size b.

    R collects the factors of size <= b (all inside BD(b, n)); the rest are
    conjugated to BD(n/b, n) one by one and accumulated into Ltilde.
    """
    n = bm.n
    if b < 2 or b & (b - 1) or not 1 < b < n or n % b:
        raise BadBlocking(f"need a power of two b with 1 < b < n, got b={b}, n={n}")
    q = n // b
    right = [f for f in bm.factors if f.k <= b]  # [B_b, ..., B_2]
    left = [f for f in bm.factors if f.k > b]  # [B_n, ..., B_2b]
    r_acc = right[0].bd_blocks(b)
    for f in right[1:]:
        r_acc = r_acc.matmul(f.bd_blocks(b))
    l_acc = db_to_bd(left[0].db_entries(b))
    for f in left[1:]:
        l_acc = l_acc.matmul(db_to_bd(f.db_entries(b)))
    assert l_acc.num_blocks == b and l_acc.block_rows == q
    return MonarchMatrix(ltilde=l_acc, r=r_acc)


def random_butterfly(n: int, seed: int = 0) -> ButterflyMatrix:
    """All 4 * (n/k) * (k/2) diagonal entries i.i.d. standard normal."""
    s = _check_power_of_two(n)
    rng = np.random.default_rng(seed)
    factors = [
        ButterflyFactorMatrix(n=n, k=n >> i, diagonals=rng.standard_normal((1 << i, 2, 2, n >> (i + 1))))
        for i in range(s)
    ]
    return ButterflyMatrix(n=n, factors=factors)


def dft_butterfly(n: int):
    """Radix-2 decimation-in-time factorization of the unnormalized DFT.

    Returns (butterfly, bitrev) with dense(butterfly) @ matrix(bitrev) equal
    to the DFT matrix. bitrev is composed from per-level block-transpose
    shuffles sigma_(2, n/2**level).
    """
    s = _check_power_of_two(n)
    factors = []
    for i in range(s):
        k = n >> i
        half = k // 2
        omega = np.exp(-2j * np.pi * np.arange(half) / k)
        diag = np.empty((n // k, 2, 2, half), dtype=np.complex128)
        diag[:, 0, 0] = 1.0
        diag[:, 0, 1] = omega
        diag[:, 1, 0] = 1.0
        diag[:, 1, 1] = -omega
        factors.append(ButterflyFactorMatrix(n=n, k=k, diagonals=diag))
    bitrev = IndexPermutation.identity(n)
    for level in range(s - 1):
        stage = IndexPermutation.block_local(BlockPermutation(2, n >> level), 1 << level)
        bitrev = bitrev.then(stage)
    return ButterflyMatrix(n=n, factors=factors), bitrev


def hadamard_butterfly(n: int) -> ButterflyMatrix:
    """The +-1 Hadamard matrix (Sylvester construction) as a butterfly."""
    s = _check_power_of_two(n)
    factors = []
    for i in range(s):
        k = n >> i
        diag = np.empty((n // k, 2, 2, k // 2), dtype=np.float64)
        diag[:, 0, 0] = 1.0
        diag[:, 0, 1] = 1.0
        diag[:, 1, 0] = 1.0
        diag[:, 1, 1] = -1.0
        factors.append(ButterflyFactorMatrix(n=n, k=k, diagonals=diag))
    return ButterflyMatrix(n=n, factors=factors)
