import itertools

import numpy as np
import pytest

from monarch.core import product_to_dense, random_mm_star
from monarch.counting import count_multiplies
from monarch.errors import BadBlocking, DefectiveMatrix, NoConvergence, SimDiagFailed, SingularBlock
from monarch.factorization import (
    assumption1_check,
    factorize_mm_star,
    simultaneous_diagonalize,
)
from monarch.structured import DiagBlockMatrix


class TestSimultaneousDiagonalize:
    def test_already_diagonal_family(self):
        rng = np.random.default_rng(0)
        family = [np.diag(rng.standard_normal(4)) for _ in range(3)]
        res = simultaneous_diagonalize(family)
        assert res.diag_residual <= 1e-12
        # Q is a permutation-scaled identity: one nonzero per row/column
        nonzeros = np.abs(res.q) > 1e-9 * np.abs(res.q).max()
        assert np.all(nonzeros.sum(axis=0) == 1) and np.all(nonzeros.sum(axis=1) == 1)

    def test_constructed_commuting_family(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((5, 5)) + np.eye(5)
        cinv = np.linalg.inv(c)
        family = [cinv @ np.diag(rng.standard_normal(5)) @ c for _ in range(2)]
        res = simultaneous_diagonalize(family)
        assert res.diag_residual <= 1e-8
        for g in family:
            t = res.q @ g @ np.linalg.inv(res.q)
            off = t - np.diag(np.diag(t))
            assert np.linalg.norm(off) <= 1e-7 * np.linalg.norm(g)

    def test_repeated_eigenvalues_need_staging(self):
        # first matrix has multiplicity-2 clusters; the second resolves them
        rng = np.random.default_rng(2)
        c = rng.standard_normal((6, 6)) + np.eye(6)
        cinv = np.linalg.inv(c)
        d1 = np.array([2.0, 2.0, 5.0, 5.0, 7.0, 7.0])
        d2 = np.array([1.0, 3.0, 4.0, 6.0, 9.0, 11.0])
        family = [cinv @ np.diag(d1) @ c, cinv @ np.diag(d2) @ c]
        res = simultaneous_diagonalize(family)
        assert res.diag_residual <= 1e-8

    def test_diagonal_cluster_reordered(self):
        # the second member splits the first one's cluster in the opposite
        # order, so the staged pass reorders rows of Q instead of re-solving
        family = [np.diag([1.0, 1.0, 5.0]), np.diag([3.0, 2.0, 7.0]), np.diag([4.0, 6.0, 8.0])]
        res = simultaneous_diagonalize(family)
        assert res.diag_residual <= 1e-12
        for g in family:
            t = res.q @ g @ np.linalg.inv(res.q)
            assert np.linalg.norm(t - np.diag(np.diag(t))) <= 1e-12

    def test_nilpotent_member_rejected(self):
        with pytest.raises((SimDiagFailed, DefectiveMatrix)):
            simultaneous_diagonalize([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])

    def test_non_commuting_family_rejected(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        with pytest.raises((SimDiagFailed, DefectiveMatrix)):
            simultaneous_diagonalize([a, b])


class TestFactorize:
    @pytest.mark.parametrize("n,b", [(8, 2), (9, 3), (16, 4), (16, 2), (32, 4)])
    def test_round_trip(self, n, b):
        for seed in range(20):
            product = random_mm_star(n, b, seed=seed)
            dense = product_to_dense(product)
            result = factorize_mm_star(dense, b)
            assert result.reconstruction_error <= 1e-8, (n, b, seed)
            assert result.diag_residual <= 1e-8

    def test_identity_fails_assumption(self):
        with pytest.raises(SingularBlock):
            factorize_mm_star(np.eye(16), 4)

    @pytest.mark.parametrize("i", [1, 3])
    def test_singular_column_block_named(self, i):
        dense = product_to_dense(random_mm_star(16, 4, seed=2))
        dense[i::4, 0::4] = 0.0  # permuted block (i, 0)
        with pytest.raises(SingularBlock, match=rf"permuted block \({i},0\) is singular"):
            factorize_mm_star(dense, 4)

    def test_complex_round_trip(self):
        product = random_mm_star(16, 4, seed=5, field="complex")
        dense = product_to_dense(product)
        result = factorize_mm_star(dense, 4)
        assert result.reconstruction_error <= 1e-8

    def test_middle_blocks_are_stored_diagonal(self):
        product = random_mm_star(16, 4, seed=6)
        result = factorize_mm_star(product_to_dense(product), 4)
        assert isinstance(result.middle, DiagBlockMatrix)
        assert result.middle.entries.shape == (4, 4, 4)

    def test_recovered_middle_matches_construction_modulo_gauge(self):
        n, b = 9, 3
        product = random_mm_star(n, b, seed=7)
        q = n // b
        # construction stores D_ij[k] = R_k[i, j]
        d_true = np.transpose(product.factors[0].r.blocks, (1, 2, 0))
        result = factorize_mm_star(product_to_dense(product), b)
        d_hat = result.middle.entries
        # gauge-free combination D_ij * D_00 / (D_i0 * D_0j), equal up to one
        # global permutation of the diagonal positions
        ratio = lambda d: d * d[0:1, 0:1, :] / (d[:, 0:1, :] * d[0:1, :, :])
        g_true, g_hat = ratio(d_true), ratio(d_hat)
        best = min(
            np.max(np.abs(g_hat[:, :, list(perm)] - g_true))
            for perm in itertools.permutations(range(q))
        )
        assert best <= 1e-8

    def test_gauge_covariance_of_reconstruction(self):
        # rescaling/permuting the true factors leaves the dense matrix, and
        # hence both reconstructions, unchanged
        rng = np.random.default_rng(8)
        n, b = 16, 4
        q = n // b
        product = random_mm_star(n, b, seed=9)
        dense = product_to_dense(product)
        perm = rng.permutation(q)
        p = np.eye(q)[:, perm]
        scales_i = [np.diag(rng.uniform(0.5, 2.0, q)) for _ in range(b)]
        scales_j = [np.diag(rng.uniform(0.5, 2.0, q)) for _ in range(b)]
        l1 = product.factors[0].ltilde.blocks
        l2 = product.factors[1].ltilde.blocks  # stores L2* blockwise
        d = np.transpose(product.factors[0].r.blocks, (1, 2, 0))
        mt = np.zeros((n, n))
        for i in range(b):
            a_i = l1[i] @ p @ np.linalg.inv(scales_i[i])
            for j in range(b):
                c_j = np.linalg.inv(scales_j[j]) @ p.T @ np.conj(l2[j]).T
                d_ij = scales_i[i] @ p.T @ np.diag(d[i, j]) @ p @ scales_j[j]
                mt[i * q : (i + 1) * q, j * q : (j + 1) * q] = a_i @ d_ij @ c_j
        from monarch.indexing import BlockPermutation, permutation_matrix

        pm = permutation_matrix(BlockPermutation(b, n))
        dense_gauged = pm.T @ mt @ pm
        assert np.linalg.norm(dense_gauged - dense) <= 1e-10 * np.linalg.norm(dense)
        r1 = factorize_mm_star(dense, b)
        r2 = factorize_mm_star(dense_gauged, b)
        diff = np.linalg.norm(r1.to_dense() - r2.to_dense())
        assert diff <= 1e-8 * np.linalg.norm(dense)

    def test_flop_scaling_with_block_size(self):
        # predicted work O(n^3 / b): halving b doubles the count, within 3x
        n = 64
        counts = {}
        for b in (4, 8):
            product = random_mm_star(n, b, seed=10)
            dense = product_to_dense(product)
            with count_multiplies() as tally:
                factorize_mm_star(dense, b)
            counts[b] = tally.multiplies
        ratio = counts[4] / counts[8]
        assert 2.0 / 3.0 <= ratio <= 6.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        dense = product_to_dense(random_mm_star(16, 4, seed=1))
        dense[3, 5] = bad
        with pytest.raises(NoConvergence, match="non-finite"):
            factorize_mm_star(dense, 4)

    def test_bad_blocking(self):
        with pytest.raises(BadBlocking):
            factorize_mm_star(np.eye(16), 5)
        with pytest.raises(BadBlocking):
            factorize_mm_star(np.ones((3, 4)), 2)


class TestAssumption1Check:
    def test_constructed_instance_passes(self):
        product = random_mm_star(16, 4, seed=11)
        report = assumption1_check(product_to_dense(product), 4)
        assert report.passed
        assert report.worst_condition < 1e10
        assert report.best_condition <= report.worst_condition

    def test_identity_fails(self):
        report = assumption1_check(np.eye(16), 4)
        assert not report.passed
        assert report.worst_condition == np.inf

    def test_zeroed_middle_entry_degrades(self):
        product = random_mm_star(16, 4, seed=12)
        baseline = assumption1_check(product_to_dense(product), 4)
        product.factors[0].r.blocks[0, 1, 2] = 0.0  # one middle-factor zero
        report = assumption1_check(product_to_dense(product), 4)
        assert (not report.passed) or report.worst_condition > 10 * baseline.worst_condition
