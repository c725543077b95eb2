import numpy as np
import pytest

from monarch.counting import count_multiplies
from monarch.errors import BadBlocking, DimensionMismatch, UnsupportedBlocking
from monarch.indexing import BlockPermutation
from monarch.structured import (
    BlockDiagMatrix,
    DiagBlockMatrix,
    bd_matvec,
    bd_matvec_adjoint,
    bd_membership,
    bd_off_support,
    db_membership,
    db_off_support,
    db_to_bd,
)
from oracles import db_entries, permutation_matrix

CONJUGATION_PAIRS = [(2, 4), (2, 8), (4, 8), (4, 16), (3, 12)]


def random_bd(b, n, rng, rect_cols=None):
    cols = rect_cols if rect_cols is not None else b
    return BlockDiagMatrix(rng.standard_normal((n // b, b, cols)))


def random_db(b, n, rng):
    q = n // b
    return DiagBlockMatrix(b_row=b, b_col=b, entries=rng.standard_normal((q, q, b)))


class TestBdMembership:
    def test_constructed_member(self):
        rng = np.random.default_rng(0)
        dense = random_bd(2, 4, rng).to_dense()
        assert bd_membership(dense, 2, 2)

    def test_tiny_off_block_entry_fails(self):
        rng = np.random.default_rng(1)
        dense = random_bd(2, 4, rng).to_dense()
        dense[0, 2] = 1e-30  # exact-zero criterion, no tolerance
        assert not bd_membership(dense, 2, 2)

    def test_rectangular_member(self):
        rng = np.random.default_rng(2)
        bd = BlockDiagMatrix(rng.standard_normal((2, 3, 2)))  # 6x4, blocks 3x2
        dense = bd.to_dense()
        assert bd_membership(dense, 3, 2)
        # hand oracle: dense layout in block rows/cols
        expect = np.zeros((6, 4))
        expect[0:3, 0:2] = bd.blocks[0]
        expect[3:6, 2:4] = bd.blocks[1]
        assert np.array_equal(dense, expect)

    def test_bad_blocking(self):
        with pytest.raises(BadBlocking):
            bd_membership(np.zeros((6, 4)), 4, 2)
        with pytest.raises(BadBlocking):
            bd_membership(np.zeros((6, 4)), 3, 4)


class TestDbMembership:
    def test_db24_pattern(self):
        a, b, c, d, e, f, g, h = range(1, 9)
        m = np.array(
            [[a, 0, b, 0], [0, c, 0, d], [e, 0, f, 0], [0, g, 0, h]], dtype=float
        )
        assert db_membership(m, 2, 2)
        assert not bd_membership(m, 2, 2)

    def test_identity_member_for_every_blocking(self):
        for n in (4, 6, 8, 12):
            for b in (1, 2, 3, 4, 6):
                if n % b == 0:
                    assert db_membership(np.eye(n), b, b)

    def test_rectangular_wrapped_member(self):
        rng = np.random.default_rng(3)
        l = DiagBlockMatrix(b_row=2, b_col=3, entries=rng.standard_normal((2, 2, 3)))
        dense = l.to_dense()  # 4x6 with b3=2, b2=3
        assert db_membership(dense, 2, 3)
        # enumerate the wrapped-diagonal support from the definition (b2 > b3)
        for i in range(4):
            for j in range(6):
                i0, j0 = i % 2, j % 3
                if (j0 % 2) != i0:
                    assert dense[i, j] == 0

    def test_tall_wrapped_member(self):
        rng = np.random.default_rng(4)
        l = DiagBlockMatrix(b_row=4, b_col=2, entries=rng.standard_normal((1, 2, 4)))
        dense = l.to_dense()  # 4x4 grid 1x2 of 4x2 blocks, b2 < b3
        assert db_membership(dense, 4, 2)
        for i in range(4):
            for j in range(4):
                if (i % 4) % 2 != j % 2:
                    assert dense[i, j] == 0


class TestConversions:
    def test_db_to_bd_pattern(self):
        a, b, c, d, e, f, g, h = [float(x) for x in range(1, 9)]
        m = np.array([[a, 0, b, 0], [0, c, 0, d], [e, 0, f, 0], [0, g, 0, h]])
        out = db_to_bd(DiagBlockMatrix(b_row=2, b_col=2, entries=db_entries(m, 2))).to_dense()
        expect = np.array([[a, b, 0, 0], [e, f, 0, 0], [0, 0, c, d], [0, 0, g, h]])
        assert np.array_equal(out, expect)

    def test_identity(self):
        ident = DiagBlockMatrix(b_row=2, b_col=2, entries=db_entries(np.eye(8), 2))
        assert np.array_equal(db_to_bd(ident).to_dense(), np.eye(8))

    def test_structure_flip(self):
        rng = np.random.default_rng(5)
        l = random_db(2, 8, rng)
        out = db_to_bd(l).to_dense()
        assert not db_membership(out, 2, 2)
        assert bd_membership(out, 4, 4)

    @pytest.mark.parametrize("b,n", CONJUGATION_PAIRS)
    def test_conjugation_theorem_exact(self, b, n):
        # dense(db_to_bd(L)) == P_(b,n) dense(L) P_(b,n)^T entrywise exactly
        rng = np.random.default_rng(10 * b + n)
        for seed in range(5):
            l = random_db(b, n, rng)
            p = permutation_matrix(BlockPermutation(b, n))
            assert np.array_equal(db_to_bd(l).to_dense(), p @ l.to_dense() @ p.T)

    def test_rectangular_equal_blocks(self):
        # b2 = b3 = b: P_(b,n3) L P_(b,n2)^T is rectangular block-diagonal
        rng = np.random.default_rng(7)
        b, n3, n2 = 2, 4, 8
        l = DiagBlockMatrix(b_row=b, b_col=b, entries=rng.standard_normal((n3 // b, n2 // b, b)))
        p3 = permutation_matrix(BlockPermutation(b, n3))
        p2 = permutation_matrix(BlockPermutation(b, n2))
        conj = p3 @ l.to_dense() @ p2.T
        assert bd_membership(conj, n3 // b, n2 // b)
        assert np.array_equal(db_to_bd(l).to_dense(), conj)

    def test_unsupported_rectangular(self):
        l = DiagBlockMatrix(b_row=2, b_col=3, entries=np.ones((2, 2, 3)))
        with pytest.raises(UnsupportedBlocking):
            db_to_bd(l)


class TestBdMatvec:
    def test_identity(self):
        x = np.arange(6.0)
        assert np.array_equal(bd_matvec(BlockDiagMatrix.identity(2, 3), x), x)

    def test_hand_example(self):
        r = BlockDiagMatrix(np.array([[[1.0, 1.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]]))
        assert np.array_equal(bd_matvec(r, np.array([1.0, 2.0, 3.0, 4.0])), [3.0, 2.0, 6.0, 8.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        r = random_bd(3, 12, rng)
        x = rng.standard_normal(12)
        got = bd_matvec(r, x)
        want = r.to_dense() @ x
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_multiply_count(self):
        rng = np.random.default_rng(9)
        r = random_bd(3, 12, rng)
        with count_multiplies() as tally:
            bd_matvec(r, rng.standard_normal(12))
        assert tally.multiplies == 12 * 3  # n1 * b2

    def test_stack_of_columns_rectangular_blocks(self):
        rng = np.random.default_rng(10)
        r = BlockDiagMatrix(rng.standard_normal((3, 2, 5)) + 1j * rng.standard_normal((3, 2, 5)))
        dense = r.to_dense()  # 6 x 15
        x, y = rng.standard_normal((15, 4)), rng.standard_normal((6, 4))
        with count_multiplies() as tally:
            got = bd_matvec(r, x)
        assert tally.multiplies == 4 * 3 * 2 * 5
        with count_multiplies() as tally:
            got_adj = bd_matvec_adjoint(r, y)
        assert tally.multiplies == 4 * 3 * 2 * 5
        assert got.shape == (6, 4) and got_adj.shape == (15, 4)
        assert np.linalg.norm(got - dense @ x) <= 1e-12 * np.linalg.norm(dense @ x)
        assert np.linalg.norm(got_adj - dense.conj().T @ y) <= 1e-12 * np.linalg.norm(got_adj)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bd_matvec(BlockDiagMatrix.identity(2, 3), np.zeros(5))
        with pytest.raises(DimensionMismatch):
            bd_matvec_adjoint(BlockDiagMatrix.identity(2, 3), np.zeros((5, 2)))


class TestContainment:
    def test_random_members_nest(self):
        # BD(2, 12) lies in BD(6, 12): 2 | 6 and 6 | 12
        rng = np.random.default_rng(10)
        for _ in range(20):
            dense = random_bd(2, 12, rng).to_dense()
            assert bd_membership(dense, 6, 6)


class TestInvariants:
    def test_nonzero_budget(self):
        rng = np.random.default_rng(11)
        for b, n in [(2, 8), (4, 16), (3, 12)]:
            bd = BlockDiagMatrix(rng.uniform(0.5, 1.5, size=(n // b, b, b)))
            assert np.count_nonzero(bd.to_dense()) == n * b
            assert np.count_nonzero(~bd_off_support((n, n), b, b)) == n * b
            q = n // b
            db = DiagBlockMatrix(b_row=b, b_col=b, entries=rng.uniform(0.5, 1.5, size=(q, q, b)))
            assert np.count_nonzero(db.to_dense()) == n * n // b
            assert np.count_nonzero(~db_off_support((n, n), b, b)) == n * n // b

    def test_wrapped_support_size_from_pattern(self):
        # per-block support is max(b2, b3) whichever side is larger
        l = DiagBlockMatrix(b_row=2, b_col=3, entries=np.ones((2, 2, 3)))
        assert np.count_nonzero(l.to_dense()) == 2 * 2 * 3 == 4 * 6 // min(2, 3)
        assert np.count_nonzero(~db_off_support((4, 6), 2, 3)) == 4 * 6 // min(2, 3)
        l2 = DiagBlockMatrix(b_row=4, b_col=2, entries=np.ones((1, 2, 4)))
        assert np.count_nonzero(l2.to_dense()) == 4 * 4 // min(4, 2)
        assert np.count_nonzero(~db_off_support((4, 4), 4, 2)) == 4 * 4 // min(4, 2)

    def test_closure_under_transpose(self):
        rng = np.random.default_rng(12)
        bd = random_bd(4, 8, rng)
        assert bd_membership(bd.to_dense().T, 4, 4)
        db = random_db(4, 8, rng)
        assert db_membership(db.to_dense().T, 4, 4)
        rect = BlockDiagMatrix(rng.standard_normal((2, 3, 2)))
        assert bd_membership(rect.to_dense().T, 2, 3)
        wrapped = DiagBlockMatrix(b_row=2, b_col=3, entries=rng.standard_normal((2, 2, 3)))
        assert db_membership(wrapped.to_dense().T, 3, 2)

    def test_identity_in_both_classes(self):
        assert bd_membership(np.eye(8), 2, 2)
        assert db_membership(np.eye(8), 2, 2)
