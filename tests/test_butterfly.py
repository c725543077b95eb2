import numpy as np
import pytest

from monarch.butterfly import (
    ButterflyFactorMatrix,
    ButterflyMatrix,
    butterfly_matvec,
    butterfly_to_monarch,
    dft_butterfly,
    hadamard_butterfly,
    random_butterfly,
)
from monarch.core import monarch_to_dense
from monarch.errors import BadBlocking, BadSize, DimensionMismatch
from monarch.projection import project, slice_singular_ratios
from monarch.structured import bd_membership, db_membership
from oracles import butterfly_factor_dense, dft_matrix, sylvester_hadamard


def direct_dft(x):
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * j * k / n)) for j in range(n)])


def identity_butterfly(n):
    bm = random_butterfly(n, seed=0)
    for f in bm.factors:
        f.diagonals[:, 0, 0] = 1.0
        f.diagonals[:, 1, 1] = 1.0
        f.diagonals[:, 0, 1] = 0.0
        f.diagonals[:, 1, 0] = 0.0
    return bm


class TestButterflyMatvec:
    def test_identity_factors(self):
        bm = identity_butterfly(8)
        x = np.random.default_rng(0).standard_normal(8)
        assert np.array_equal(butterfly_matvec(bm, x), x)
        assert np.array_equal(bm.to_dense(), np.eye(8))

    def test_two_by_two(self):
        diag = np.array([[[[2.0], [3.0]], [[5.0], [7.0]]]])  # [[a,b],[c,d]] as diagonals
        bm = ButterflyMatrix(n=2, factors=[ButterflyFactorMatrix(n=2, k=2, diagonals=diag)])
        out = butterfly_matvec(bm, np.array([1.0, 10.0]))
        assert np.array_equal(out, [2.0 * 1 + 3.0 * 10, 5.0 * 1 + 7.0 * 10])

    def test_matches_dense_product_oracle(self):
        bm = random_butterfly(8, seed=1)
        dense = np.eye(8)
        for f in bm.factors:  # explicit left-to-right dense product
            dense = dense @ butterfly_factor_dense(f)
        for shape in (8, (8, 3)):
            x = np.random.default_rng(2).standard_normal(shape)
            got = butterfly_matvec(bm, x)
            want = dense @ x
            assert got.shape == x.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            butterfly_matvec(random_butterfly(8, seed=0), np.zeros(4))
        with pytest.raises(DimensionMismatch):
            butterfly_matvec(random_butterfly(8, seed=0), np.zeros((4, 2)))
        for f in random_butterfly(8, seed=0).factors:
            for bad in (np.zeros((2, 8)), np.zeros(16), np.zeros((8, 2, 2)), np.zeros(())):
                with pytest.raises(DimensionMismatch):
                    f.stage_apply(bad)


class TestButterflyToMonarch:
    def test_n4_split(self):
        bm = random_butterfly(4, seed=3)
        m = butterfly_to_monarch(bm, 2)
        # L = B_4 alone, R = B_2 alone
        want = butterfly_factor_dense(bm.factors[0]) @ butterfly_factor_dense(bm.factors[1])
        got = monarch_to_dense(m)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_identity(self):
        m = butterfly_to_monarch(identity_butterfly(8), 2)
        assert np.allclose(monarch_to_dense(m), np.eye(8), atol=1e-15)

    def test_n16_b4_with_slice_rank(self):
        bm = random_butterfly(16, seed=4)
        m = butterfly_to_monarch(bm, 4)
        dense = bm.to_dense()
        assert np.linalg.norm(monarch_to_dense(m) - dense) <= 1e-12 * np.linalg.norm(dense)
        assert float(slice_singular_ratios(dense, 4).max()) <= 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_containment_every_valid_b(self, n):
        for seed in range(5):
            bm = random_butterfly(n, seed=seed)
            dense = bm.to_dense()
            b = 2
            while b < n:
                m = butterfly_to_monarch(bm, b)
                err = np.linalg.norm(monarch_to_dense(m) - dense)
                assert err <= 1e-12 * np.linalg.norm(dense), (n, b, seed)
                b *= 2

    def test_bad_blocking(self):
        bm = random_butterfly(8, seed=5)
        with pytest.raises(BadBlocking):
            butterfly_to_monarch(bm, 3)
        with pytest.raises(BadBlocking):
            butterfly_to_monarch(bm, 8)


class TestDft:
    def test_n2(self):
        bm, rev = dft_butterfly(2)
        assert np.array_equal(bm.to_dense(), np.array([[1, 1], [1, -1]], dtype=complex))
        assert list(rev) == [0, 1]

    def test_n4_vandermonde(self):
        bm, rev = dft_butterfly(4)
        got = bm.to_dense()[:, rev]
        want = dft_matrix(4)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_n16_matvec_vs_quadratic_sum(self):
        bm, rev = dft_butterfly(16)
        x = np.random.default_rng(6).standard_normal(16) + 0j
        got = butterfly_matvec(bm, x[rev])
        want = direct_dft(x)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_basis_columns(self, n):
        bm, rev = dft_butterfly(n)
        dense = bm.to_dense()[:, rev]
        for k in range(n):
            e = np.zeros(n, dtype=complex)
            e[k] = 1.0
            col = direct_dft(e)
            assert np.linalg.norm(dense[:, k] - col) <= 1e-11 * np.linalg.norm(col)

    def test_bitrev_is_involution(self):
        for s in range(1, 13):  # n = 2, 4, ..., 4096
            n = 1 << s
            _, rev = dft_butterfly(n)
            assert rev.dtype == np.int64
            assert [int(r) for r in rev] == [int(format(i, f"0{s}b")[::-1], 2) for i in range(n)]
            assert np.array_equal(rev[rev], np.arange(n))

    def test_bad_size(self):
        with pytest.raises(BadSize):
            dft_butterfly(6)
        with pytest.raises(BadSize):
            dft_butterfly(1)


class TestHadamard:
    def test_n2(self):
        assert np.array_equal(hadamard_butterfly(2).to_dense(), [[1.0, 1.0], [1.0, -1.0]])

    def test_n4_orthogonality(self):
        h = hadamard_butterfly(4).to_dense()
        assert np.array_equal(h, sylvester_hadamard(4))
        assert np.array_equal(h @ h.T, 4.0 * np.eye(4))

    def test_n8_through_monarch_exact(self):
        m = butterfly_to_monarch(hadamard_butterfly(8), 2)
        assert np.array_equal(monarch_to_dense(m), sylvester_hadamard(8))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_sylvester_and_orthogonality(self, n):
        h = hadamard_butterfly(n).to_dense()
        assert np.array_equal(h, sylvester_hadamard(n))
        assert np.array_equal(h @ h.T, float(n) * np.eye(n))


class TestRandomButterfly:
    def test_deterministic(self):
        a = random_butterfly(8, seed=7)
        b = random_butterfly(8, seed=7)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa.diagonals, fb.diagonals)

    def test_factor_support_patterns(self):
        bm = random_butterfly(8, seed=8)
        for f in bm.factors:
            dense = f.to_dense()
            assert bd_membership(dense, f.k, f.k)
            assert db_membership(dense, f.k // 2, f.k // 2)

    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_db_entries_match_dense_factor(self, n):
        for bm in (random_butterfly(n, seed=n), dft_butterfly(n)[0]):
            for f in bm.factors:
                dense = butterfly_factor_dense(f)
                # applying the factor to the identity adds only exact zeros
                assert np.array_equal(dense, f.stage_apply(np.eye(n))), (n, f.k)
                assert np.array_equal(dense, f.to_dense()), (n, f.k)
                for b in (b for b in range(1, f.k // 2 + 1) if (f.k // 2) % b == 0):
                    assert np.array_equal(f.db_entries(b).to_dense(), dense), (n, f.k, b)
                for b in range(f.k, n + 1, f.k):
                    if n % b == 0:
                        assert np.array_equal(f.bd_blocks(b).to_dense(), dense), (n, f.k, b)

    def test_block_size_must_be_positive(self):
        f = random_butterfly(8, seed=0).factors[1]  # k = 4
        for b in (0, -2, -4, -8):
            with pytest.raises(BadBlocking):
                f.bd_blocks(b)
            with pytest.raises(BadBlocking):
                f.db_entries(b)

    def test_merge_at_both_blockings(self):
        bm = random_butterfly(8, seed=9)
        dense = bm.to_dense()
        for b in (2, 4):
            m = butterfly_to_monarch(bm, b)
            assert np.linalg.norm(monarch_to_dense(m) - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_bad_size(self):
        with pytest.raises(BadSize):
            random_butterfly(12)


class TestExpressiveness:
    def test_dft_butterfly_lies_in_monarch_set(self):
        # projecting the DFT-derived butterfly dense at b = sqrt(n) recovers it
        bm, _ = dft_butterfly(16)
        dense = bm.to_dense()
        _, report = project(dense, 4)
        assert report.relative_residual <= 1e-10
