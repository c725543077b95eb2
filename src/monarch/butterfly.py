"""Butterfly matrices, their merge into Monarch form, and the DFT and Hadamard
butterflies.

A butterfly factor of even size k is [[D1, D2], [D3, D4]] with diagonal
quadrants; a butterfly factor matrix of size n and block size k is block
diagonal with n/k such factors; a butterfly matrix of size n = 2**s is the
product B_n B_{n/2} ... B_2.

Splitting that product at block size b gives the containment construction:
R = B_b ... B_2 lands in BD(b, n) and L = B_n ... B_{2b} lands in DB(b, n),
so every butterfly matrix is a Monarch matrix at every valid b. One kernel,
ButterflyFactorMatrix.stage_apply, builds every form: a dense matrix, R's
blocks and L's diagonals are each a column stack pushed through the stages
right to left, O(n) per stage and column, with no n x n product.

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
from .counting import add_multiplies
from .errors import BadBlocking, BadSize, DimensionMismatch
from .indexing import BlockPermutation, IndexPermutation
from .structured import BlockDiagMatrix, DiagBlockMatrix, _columns


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

    def stage_apply(self, x) -> np.ndarray:
        """Apply to a vector or to each column of an (n, c) stack, O(n) per
        column: two multiplies per output entry, 2*n*c in all."""
        x = np.asarray(x)
        cols = _columns(x, self.n)
        d = self.diagonals
        v = cols.reshape(self.n // self.k, 2, self.k // 2, cols.shape[1])
        top = d[:, 0, 0, :, None] * v[:, 0] + d[:, 0, 1, :, None] * v[:, 1]
        bot = d[:, 1, 0, :, None] * v[:, 0] + d[:, 1, 1, :, None] * v[:, 1]
        add_multiplies(2 * cols.size)
        return np.stack([top, bot], axis=1).reshape(x.shape)

    def block_dense(self, t: int) -> np.ndarray:
        """Dense k x k form of block t."""
        return self.bd_blocks(self.k).blocks[t]

    def to_dense(self) -> np.ndarray:
        return self.stage_apply(np.eye(self.n))

    def bd_blocks(self, b: int) -> BlockDiagMatrix:
        """This factor as a member of BD(b, n); valid when k divides b."""
        if b < 1 or b % self.k or self.n % b:
            raise BadBlocking(f"factor size {self.k} does not nest in block size {b}")
        return _bd_blocks([self], self.n, b)

    def db_entries(self, b: int) -> DiagBlockMatrix:
        """This factor as a member of DB(b, n); valid when b divides k/2."""
        half = self.k // 2
        if b < 1 or half % b:
            raise BadBlocking(f"block size {b} does not divide half-factor {half}")
        entries = _db_grid([self], self.n, b).transpose(0, 2, 1)
        return DiagBlockMatrix(b_row=b, b_col=b, entries=entries)


def _push(factors: list[ButterflyFactorMatrix], x) -> np.ndarray:
    """Apply the product of factors, right to left, to a vector or a stack."""
    for f in reversed(factors):
        x = f.stage_apply(x)
    return x


def _bd_blocks(factors: list[ButterflyFactorMatrix], n: int, b: int) -> BlockDiagMatrix:
    """The product of factors in BD(b, n) as its (n/b, b, b) blocks.

    Column i of the stack is 1 at row i of every block, so the product
    turns it into column i of every block at once.
    """
    q = n // b
    return BlockDiagMatrix(_push(factors, np.tile(np.eye(b), (q, 1))).reshape(q, b, b))


def _db_grid(factors: list[ButterflyFactorMatrix], n: int, b: int) -> np.ndarray:
    """The product L of factors in DB(b, n), with L[l*b + j, k*b + j] at [l, j, k].

    Column k of the stack is 1 on the whole of block k; each block of L is
    diagonal, so row l*b + j of the product holds entry j of block (l, k).
    """
    q = n // b
    return _push(factors, np.repeat(np.eye(q), b, axis=0)).reshape(q, b, q)


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
        return butterfly_matvec(self, np.eye(self.n))


def butterfly_matvec(bm: ButterflyMatrix, x) -> np.ndarray:
    """Apply the factor product right to left to a vector or each column of
    an (n, c) stack; O(n) per stage and column, 2*n*c multiplies a stage."""
    return _push(bm.factors, x)


def butterfly_to_monarch(bm: ButterflyMatrix, b: int) -> MonarchMatrix:
    """Merge the butterfly factors into Monarch form at block size b.

    R is the factors of size <= b applied to an (n, b) stack, Ltilde the
    rest applied to an (n, n/b) stack: 2*n*(b*log2(b) + (n/b)*log2(n/b))
    multiplies in all.
    """
    n = bm.n
    if not 1 < b < n or b & (b - 1):
        raise BadBlocking(f"need a power of two b with 1 < b < n, got b={b}, n={n}")
    right = [f for f in bm.factors if f.k <= b]  # [B_b, ..., B_2]
    left = [f for f in bm.factors if f.k > b]  # [B_n, ..., B_2b]
    ltilde = BlockDiagMatrix(_db_grid(left, n, b).transpose(1, 0, 2))
    return MonarchMatrix(ltilde=ltilde, r=_bd_blocks(right, n, b))


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
