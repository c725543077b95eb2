"""Block-diagonal (BD) and diagonal-block (DB) structured matrix classes.

BD(b, n): n/b dense blocks of size b x b on the diagonal (rectangular
variant: q blocks of b2 x b1 with q = n1/b1 = n2/b2).

DB(b, n): an (n/b) x (n/b) grid of b x b diagonal blocks. The rectangular
variant replaces diagonal blocks with wrapped-diagonal blocks, whose support
is {(i, j) : i mod b2 = j} for b2 <= b3 (the transposed condition otherwise).

The two classes are exchanged by conjugation with the block-transpose
permutation: P_(b,n) @ dense(L) @ P_(b,n).T is in BD(n/b, n) for L in
DB(b, n), realized entrywise exactly by db_to_bd / bd_to_db.

Membership predicates test exact zeros: the classes are support patterns,
so no tolerance is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import add_multiplies
from .errors import BadBlocking, DimensionMismatch, UnsupportedBlocking


@dataclass
class BlockDiagMatrix:
    """diag(B_0, ..., B_{q-1}) stored as a (q, b2, b1) array of blocks."""

    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks)
        if self.blocks.ndim != 3 or self.blocks.shape[0] < 1:
            raise BadBlocking("blocks must be a (q, b2, b1) array with q >= 1")

    @property
    def num_blocks(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_rows(self) -> int:
        return self.blocks.shape[1]

    @property
    def block_cols(self) -> int:
        return self.blocks.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        q, b2, b1 = self.blocks.shape
        return (q * b2, q * b1)

    @property
    def support_size(self) -> int:
        return self.blocks.size

    @property
    def is_square_blocked(self) -> bool:
        return self.block_rows == self.block_cols

    @classmethod
    def identity(cls, b: int, q: int, dtype=np.float64) -> "BlockDiagMatrix":
        return cls(np.broadcast_to(np.eye(b, dtype=dtype), (q, b, b)).copy())

    @classmethod
    def from_dense(cls, a, block_rows: int, block_cols: int) -> "BlockDiagMatrix":
        """Extract diagonal blocks; raises BadBlocking if a is not a member."""
        a = np.asarray(a)
        if not bd_membership(a, block_rows, block_cols):
            raise BadBlocking("matrix has entries outside the block-diagonal support")
        idx = np.arange(a.shape[0] // block_rows)
        # block i is entry (i, :, i, :) of the 4-D view
        return cls(a.reshape(len(idx), block_rows, len(idx), block_cols)[idx, :, idx])

    def to_dense(self) -> np.ndarray:
        q, b2, b1 = self.blocks.shape
        out = np.zeros((q, b2, q, b1), dtype=self.blocks.dtype)
        idx = np.arange(q)
        out[idx, :, idx] = self.blocks
        return out.reshape(q * b2, q * b1)

    def transpose(self) -> "BlockDiagMatrix":
        return BlockDiagMatrix(np.swapaxes(self.blocks, 1, 2).copy())

    def conj_transpose(self) -> "BlockDiagMatrix":
        return BlockDiagMatrix(np.conj(np.swapaxes(self.blocks, 1, 2)).copy())

    def matmul(self, other: "BlockDiagMatrix") -> "BlockDiagMatrix":
        """Blockwise product; requires matching block counts and inner sizes."""
        if self.num_blocks != other.num_blocks or self.block_cols != other.block_rows:
            raise DimensionMismatch("block structure mismatch in blockwise product")
        out = np.matmul(self.blocks, other.blocks)
        add_multiplies(self.num_blocks * self.block_rows * self.block_cols * other.block_cols)
        return BlockDiagMatrix(out)


@dataclass
class DiagBlockMatrix:
    """Grid of wrapped-diagonal blocks, stored as per-block diagonal entries.

    entries[i1, j1, :] holds the nonzero values of block (i1, j1); the vector
    length is max(b_row, b_col) (equal to b_row for the square case).
    """

    b_row: int  # b3
    b_col: int  # b2
    entries: np.ndarray  # (grid_r, grid_c, max(b_row, b_col))

    def __post_init__(self):
        self.entries = np.asarray(self.entries)
        if self.entries.ndim != 3:
            raise BadBlocking("entries must be a (grid_r, grid_c, diag) array")
        if self.entries.shape[2] != max(self.b_row, self.b_col):
            raise BadBlocking("diagonal storage length must be max(b_row, b_col)")

    @property
    def grid(self) -> tuple[int, int]:
        return self.entries.shape[0], self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        gr, gc = self.grid
        return (gr * self.b_row, gc * self.b_col)

    @property
    def support_size(self) -> int:
        return self.entries.size

    @property
    def is_square_blocked(self) -> bool:
        return self.b_row == self.b_col

    @classmethod
    def identity(cls, b: int, q: int, dtype=np.float64) -> "DiagBlockMatrix":
        entries = np.zeros((q, q, b), dtype=dtype)
        idx = np.arange(q)
        entries[idx, idx, :] = 1.0
        return cls(b_row=b, b_col=b, entries=entries)

    @classmethod
    def from_dense(cls, a, b_row: int, b_col: int) -> "DiagBlockMatrix":
        a = np.asarray(a)
        if not db_membership(a, b_row, b_col):
            raise BadBlocking("matrix has entries outside the wrapped-diagonal support")
        gr, gc = a.shape[0] // b_row, a.shape[1] // b_col
        rows, cols = _wrapped_support(b_row, b_col)
        # (grid row, grid col, row in block, col in block) view of a
        blocks = a.reshape(gr, b_row, gc, b_col).transpose(0, 2, 1, 3)
        return cls(b_row=b_row, b_col=b_col, entries=np.ascontiguousarray(blocks[:, :, rows, cols]))

    def to_dense(self) -> np.ndarray:
        gr, gc = self.grid
        out = np.zeros((gr, self.b_row, gc, self.b_col), dtype=self.entries.dtype)
        rows, cols = _wrapped_support(self.b_row, self.b_col)
        out.transpose(0, 2, 1, 3)[:, :, rows, cols] = self.entries
        return out.reshape(self.shape)


def _wrapped_support(b_row: int, b_col: int):
    """(row, col) index arrays of a wrapped-diagonal block's support."""
    if b_col <= b_row:
        rows = np.arange(b_row)
        cols = rows % b_col
    else:
        cols = np.arange(b_col)
        rows = cols % b_row
    return rows, cols


def _check_blocking(shape, b_row, b_col):
    n2, n1 = shape
    if b_row < 1 or b_col < 1 or n2 % b_row != 0 or n1 % b_col != 0:
        raise BadBlocking(f"blocks {b_row}x{b_col} do not divide shape {n2}x{n1}")
    if n2 // b_row != n1 // b_col:
        raise BadBlocking(
            f"row/column block counts differ: {n2}//{b_row} != {n1}//{b_col}"
        )


def bd_off_support(shape, b_row: int, b_col: int) -> np.ndarray:
    """Boolean mask of the entries outside the diagonal-block support."""
    _check_blocking(shape, b_row, b_col)
    n2, n1 = shape
    return (np.arange(n2)[:, None] // b_row) != (np.arange(n1)[None, :] // b_col)


def db_off_support(shape, b_row: int, b_col: int) -> np.ndarray:
    """Boolean mask of the entries violating the wrapped-diagonal pattern."""
    n3, n2 = shape
    if b_row < 1 or b_col < 1 or n3 % b_row != 0 or n2 % b_col != 0:
        raise BadBlocking(f"blocks {b_row}x{b_col} do not divide shape {n3}x{n2}")
    i0 = np.arange(n3)[:, None] % b_row
    j0 = np.arange(n2)[None, :] % b_col
    if b_col <= b_row:
        return (i0 % b_col) != j0
    return (j0 % b_row) != i0


def bd_membership(a, b_row: int, b_col: int) -> bool:
    """True iff every entry outside the diagonal-block support is exactly zero."""
    a = np.asarray(a)
    return bool(np.all(a[bd_off_support(a.shape, b_row, b_col)] == 0))


def db_membership(a, b_row: int, b_col: int) -> bool:
    """True iff all entries violating the wrapped-diagonal pattern are exactly zero."""
    a = np.asarray(a)
    return bool(np.all(a[db_off_support(a.shape, b_row, b_col)] == 0))


def db_to_bd(l: DiagBlockMatrix) -> BlockDiagMatrix:
    """Conjugate a DB matrix into its BD form.

    Square blocks only (b_row == b_col == b): the result R' in BD(n/b, .)
    satisfies R'_{i0}[i1, j1] = D_{i1,j1}[i0, i0], which is exactly
    P_(b,n3) @ dense(l) @ P_(b,n2).T.
    """
    if l.b_row != l.b_col:
        raise UnsupportedBlocking("db_to_bd requires equal row/column block sizes")
    b = l.b_row
    gr, gc = l.grid
    # entries is (gr, gc, b); output block i0 is the (gr, gc) matrix of entries[:, :, i0]
    blocks = np.ascontiguousarray(np.moveaxis(l.entries, 2, 0))
    assert blocks.shape == (b, gr, gc)
    return BlockDiagMatrix(blocks)


def bd_to_db(r: BlockDiagMatrix, b: int) -> DiagBlockMatrix:
    """Exact inverse of db_to_bd: r must consist of b blocks."""
    if r.num_blocks != b:
        raise BadBlocking(f"expected {b} blocks, found {r.num_blocks}")
    entries = np.ascontiguousarray(np.moveaxis(r.blocks, 0, 2))
    return DiagBlockMatrix(b_row=b, b_col=b, entries=entries)


def _columns(x: np.ndarray, rows: int) -> np.ndarray:
    """x as a (rows, k) column stack; a vector is a stack of one column."""
    if x.ndim not in (1, 2) or x.shape[0] != rows:
        raise DimensionMismatch(f"expected a vector or stack with {rows} rows, got shape {x.shape}")
    return x if x.ndim == 2 else x[:, None]


def bd_matvec(r: BlockDiagMatrix, x) -> np.ndarray:
    """Apply r to a vector or to each column of an (n, k) stack in one batched
    product; records exactly k * num_blocks * b2 * b1 scalar multiplies."""
    x = np.asarray(x)
    q, b2, b1 = r.blocks.shape
    cols = _columns(x, q * b1)
    k = cols.shape[1]
    out = np.matmul(r.blocks, cols.reshape(q, b1, k))
    add_multiplies(q * b2 * b1 * k)
    return out.reshape((q * b2,) + x.shape[1:])


def bd_matvec_adjoint(r: BlockDiagMatrix, x) -> np.ndarray:
    """Apply r* like bd_matvec, without materializing it."""
    x = np.asarray(x)
    q, b2, b1 = r.blocks.shape
    cols = _columns(x, q * b2)
    k = cols.shape[1]
    # conj(conj(X)^T B) = B* X, which conjugates the columns instead of the blocks
    rows = np.conj(cols).reshape(q, b2, k).swapaxes(1, 2)
    out = np.conj(np.matmul(rows, r.blocks)).swapaxes(1, 2)
    add_multiplies(q * b2 * b1 * k)
    return out.reshape((q * b1,) + x.shape[1:])


def class_containment_check(b: int, c: int, n: int) -> bool:
    """Whether BD(b,n) is contained in BD(c,n): b | c and c | n."""
    if b < 1 or c < 1 or n < 1:
        return False
    return c % b == 0 and n % c == 0
