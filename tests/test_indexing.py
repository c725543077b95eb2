import numpy as np
import pytest

from monarch.errors import BadBlocking, DimensionMismatch, IndexOutOfRange
from monarch.indexing import BlockPermutation, permute_cols, permute_rows, permute_vector
from oracles import permutation_matrix

PAIRS = [(2, 4), (2, 8), (4, 8), (4, 16), (3, 12), (1, 6), (6, 6)]


class TestSigma:
    def test_formula_example(self):
        assert BlockPermutation(2, 8).apply(1) == 4  # (0,1)_2 -> 1*4 + 0

    def test_table_small(self):
        assert list(BlockPermutation(2, 4).table) == [0, 2, 1, 3]

    def test_involution_at_sqrt(self):
        p = BlockPermutation(4, 16)
        assert all(p.apply(p.apply(i)) == i for i in range(16))

    def test_out_of_range(self):
        p = BlockPermutation(2, 8)
        with pytest.raises(IndexOutOfRange):
            p.apply(8)
        with pytest.raises(IndexOutOfRange):
            p.apply(-1)

    def test_non_divisor_rejected(self):
        with pytest.raises(BadBlocking):
            BlockPermutation(3, 8)

    @pytest.mark.parametrize("b,n", PAIRS)
    def test_bijectivity(self, b, n):
        assert sorted(BlockPermutation(b, n).table) == list(range(n))


class TestSigmaInverse:
    def test_inverse_block_size(self):
        inv = BlockPermutation(2, 8).inverse()
        assert (inv.b, inv.n) == (4, 8)

    def test_self_inverse_at_sqrt(self):
        inv = BlockPermutation(4, 16).inverse()
        assert (inv.b, inv.n) == (4, 16)

    def test_exhaustive_composition_2_6(self):
        p = BlockPermutation(2, 6)
        inv = p.inverse()
        assert all(inv.apply(p.apply(i)) == i for i in range(6))
        assert all(p.apply(inv.apply(i)) == i for i in range(6))

    def test_transpose_identity_up_to_64(self):
        # P_(b,n)^T acts as P_(n/b,n) on every vector
        for n in range(2, 65):
            for b in range(1, n + 1):
                if n % b:
                    continue
                p = permutation_matrix(BlockPermutation(b, n))
                pinv = permutation_matrix(BlockPermutation(n // b, n))
                assert np.array_equal(p.T, pinv), (b, n)


class TestPermuteOps:
    def test_identity_permutation(self):
        a = np.random.default_rng(0).standard_normal((6, 6))
        p = BlockPermutation(1, 6)
        assert np.array_equal(permute_rows(p, a), a)
        assert np.array_equal(permute_cols(p, a), a)

    def test_row_order_example(self):
        a = np.arange(16.0).reshape(4, 4)
        out = permute_rows(BlockPermutation(2, 4), a)
        assert np.array_equal(out, a[[0, 2, 1, 3]])

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8))
        p = BlockPermutation(2, 8)
        assert np.array_equal(permute_rows(p.inverse(), permute_rows(p, a)), a)

    def test_matches_matrix_action(self):
        rng = np.random.default_rng(2)
        for b, n in PAIRS:
            a = rng.standard_normal((n, n))
            p = BlockPermutation(b, n)
            pm = permutation_matrix(p)
            assert np.array_equal(permute_rows(p, a), pm @ a)
            assert np.array_equal(permute_cols(p, a), a @ pm.T)

    def test_conjugation_composition(self):
        # permute_rows(p, permute_cols(p, a)) is the two-sided conjugation P a P^T
        rng = np.random.default_rng(3)
        for b, n in [(2, 8), (3, 12)]:
            a = rng.standard_normal((n, n))
            p = BlockPermutation(b, n)
            pm = permutation_matrix(p)
            assert np.array_equal(permute_rows(p, permute_cols(p, a)), pm @ a @ pm.T)
            # entrywise: (P a P^T)[sigma(i), sigma(j)] == a[i, j]
            conj = permute_rows(p, permute_cols(p, a))
            for i in range(n):
                for j in range(n):
                    assert conj[p.apply(i), p.apply(j)] == a[i, j]

    def test_dimension_mismatch(self):
        p = BlockPermutation(2, 8)
        with pytest.raises(DimensionMismatch):
            permute_rows(p, np.zeros((4, 8)))
        with pytest.raises(DimensionMismatch):
            permute_vector(p, np.zeros(4))

