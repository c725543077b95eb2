import itertools

import numpy as np
import pytest

from monarch import factorization
from monarch import numerics as nm
from monarch.core import product_to_dense, random_mm_star
from monarch.counting import count_multiplies
from monarch.errors import BadBlocking, NonFiniteValue, SimDiagFailed, SingularBlock
from monarch.factorization import (
    assumption1_check,
    factorize_mm_star,
    simultaneous_diagonalize,
)
from monarch.structured import DiagBlockMatrix


def _conjugated(diagonals, seed):
    """Members C^-1 diag(d) C of a commuting family with a random basis C."""
    rng = np.random.default_rng(seed)
    size = len(diagonals[0])
    c = rng.standard_normal((size, size)) + size * np.eye(size)
    return [np.linalg.solve(c, np.diag(d) @ c) for d in diagonals]


def _assert_diagonalizes(res, family, tol):
    assert res.conjugated.shape == (len(family),) + res.q.shape
    for g, conjugated in zip(family, res.conjugated):
        t = res.q @ g @ res.q_inv
        assert np.linalg.norm(t - np.diag(np.diag(t))) <= tol * np.linalg.norm(g)
        assert np.linalg.norm(conjugated - t) <= tol * np.linalg.norm(g)
    assert np.linalg.norm(res.q @ res.q_inv - np.eye(len(res.q))) <= 1e-10


def _count_calls(monkeypatch, kernel):
    """Record the argument shape of every call factorization makes to a numerics kernel."""
    calls = []
    wrapped = getattr(nm, kernel)

    def counted(a):
        calls.append(a.shape)
        return wrapped(a)

    monkeypatch.setattr(factorization, kernel, counted)
    return calls


class TestSimultaneousDiagonalize:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_member_rejected(self, bad):
        family = _conjugated([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], seed=2)
        family[1][0, 2] = bad
        with pytest.raises(NonFiniteValue, match="non-finite"):
            simultaneous_diagonalize(family)

    def test_overflowing_combination_is_simdiag_failed(self):
        # finite members whose seeded combination (coefficients 0.33, 0.92
        # and 1.57) overflows
        family = [np.full((3, 3), 1e308)] * 3
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimDiagFailed, match="non-finite"):
            simultaneous_diagonalize(family)

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
        # every member has multiplicity-2 eigenvalues; their combination does not
        rng = np.random.default_rng(2)
        c = rng.standard_normal((6, 6)) + np.eye(6)
        cinv = np.linalg.inv(c)
        d1 = np.array([2.0, 2.0, 5.0, 5.0, 7.0, 7.0])
        d2 = np.array([1.0, 3.0, 4.0, 6.0, 9.0, 11.0])
        family = [cinv @ np.diag(d1) @ c, cinv @ np.diag(d2) @ c]
        res = simultaneous_diagonalize(family)
        assert res.diag_residual <= 1e-8

    def test_diagonal_cluster_reordered(self):
        # the members split the first one's double eigenvalue in opposite
        # orders; Q of a diagonal family is a scaled permutation
        family = [np.diag([1.0, 1.0, 5.0]), np.diag([3.0, 2.0, 7.0]), np.diag([4.0, 6.0, 8.0])]
        res = simultaneous_diagonalize(family)
        assert res.diag_residual <= 1e-12
        for g in family:
            t = res.q @ g @ np.linalg.inv(res.q)
            assert np.linalg.norm(t - np.diag(np.diag(t))) <= 1e-12

    def test_nilpotent_member_rejected(self):
        # every combination is a Jordan block: the eigensolver's
        # DefectiveMatrix surfaces as the documented SimDiagFailed
        with pytest.raises(SimDiagFailed):
            simultaneous_diagonalize([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])

    def test_non_commuting_family_rejected(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        with pytest.raises(SimDiagFailed):
            simultaneous_diagonalize([a, b])

    def test_coincident_combination_split_by_members(self, monkeypatch):
        # joint eigenvalues (1, 0) and (0, c0/c1) are distinct, but the seeded
        # combination c0*A + c1*B maps both to c0: one cluster of size 2 that
        # only a second eigensolve on the cluster can resolve
        c0, c1 = np.random.default_rng(factorization._SIMDIAG_SEED).standard_normal(2)
        family = _conjugated([[1.0, 0.0, 3.0, -1.0], [0.0, c0 / c1, -2.0, 4.0]], seed=4)
        lam = np.linalg.eigvals(c0 * family[0] + c1 * family[1])
        gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(4, 1)]
        assert np.sum(gaps <= factorization.CLUSTER_RTOL * np.max(np.abs(lam))) == 1
        calls = _count_calls(monkeypatch, "eig")
        res = simultaneous_diagonalize(family)
        assert calls == [(4, 4), (2, 2)]
        assert res.diag_residual <= 1e-10
        _assert_diagonalizes(res, family, 1e-10)

    def test_shared_eigenspace_kept_without_split(self, monkeypatch):
        # every member is scalar on a 2-D joint eigenspace, so any basis of
        # it serves and the combination's eigenvectors are kept as they are
        family = _conjugated([[2.0, 2.0, 5.0, -1.0], [1.0, 1.0, 4.0, 3.0], [0.5, 0.5, -2.0, 6.0]], seed=5)
        calls = _count_calls(monkeypatch, "eig")
        res = simultaneous_diagonalize(family)
        assert calls == [(4, 4)]
        assert res.diag_residual <= 1e-10
        _assert_diagonalizes(res, family, 1e-10)


class TestFactorize:
    @pytest.mark.parametrize("n,b", [(8, 2), (9, 3), (16, 4), (16, 2), (32, 4), (36, None)])
    def test_round_trip(self, n, b):  # b=None is sqrt(n)
        for seed in range(20):
            product = random_mm_star(n, b, seed=seed)
            dense = product_to_dense(product)
            result = factorize_mm_star(dense, b)
            assert result.reconstruction_error <= 1e-8, (n, b, seed)
            assert result.diag_residual <= 1e-8

    def test_ill_conditioned_row_block_seed_53(self):
        # permuted block (0, 5) has condition ~5e5: F(0, 5) would equal I only
        # to cond * eps and miss the residual bound, so the family has i, j >= 1
        dense = product_to_dense(random_mm_star(64, 8, seed=53))
        assert factorize_mm_star(dense, 8).reconstruction_error <= 1e-6

    def test_middle_factor_read_off_diagonalization(self, monkeypatch):
        # one batched inversion of block column 0 and block row 0 (Q^-1 comes
        # with the eigenbasis); D is read off Q F Q^-1
        calls = _count_calls(monkeypatch, "lu_invert")
        eig_calls = _count_calls(monkeypatch, "eig")
        result = factorize_mm_star(product_to_dense(random_mm_star(32, 4, seed=3)), 4)
        assert eig_calls == [(8, 8)]
        assert calls == [(7, 8, 8)]
        d = result.middle.entries
        assert np.all(d[0] == 1.0) and np.all(d[:, 0] == 1.0)

    def test_identity_fails_assumption(self):
        with pytest.raises(SingularBlock):
            factorize_mm_star(np.eye(16), 4)

    @pytest.mark.parametrize("i", [0, 1, 3])
    def test_singular_column_block_named(self, i):
        dense = product_to_dense(random_mm_star(16, 4, seed=2))
        dense[i::4, 0::4] = 0.0  # permuted block (i, 0)
        with pytest.raises(SingularBlock, match=rf"permuted block \({i},0\) is singular"):
            factorize_mm_star(dense, 4)

    @pytest.mark.parametrize("j", [1, 3])
    def test_singular_row_block_named(self, j):
        dense = product_to_dense(random_mm_star(16, 4, seed=2))
        dense[0::4, j::4] = 0.0  # permuted block (0, j)
        with pytest.raises(SingularBlock, match=rf"permuted block \(0,{j}\) is singular"):
            factorize_mm_star(dense, 4)

    def test_singular_column_block_named_before_row_block(self):
        dense = product_to_dense(random_mm_star(16, 4, seed=2))
        dense[0::4, 3::4] = 0.0  # permuted block (0, 3)
        dense[2::4, 0::4] = 0.0  # permuted block (2, 0)
        with pytest.raises(SingularBlock, match=r"permuted block \(2,0\) is singular"):
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
        from monarch.indexing import BlockPermutation
        from oracles import permutation_matrix

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

    def test_multiply_count_covers_block_products(self):
        # beyond the kernels' own counts: the family, T = Q F Q^-1, the A and
        # C blocks, and the reconstruction in to_dense
        n, b = 64, 8
        q, members = n // b, (b - 1) ** 2
        dense = product_to_dense(random_mm_star(n, b, seed=1))
        with count_multiplies() as tally:
            factorize_mm_star(dense, b)
        family = (b - 1) * q**3 + 2 * members * q**3
        done = family + 2 * members * q**3 + (2 * b + 1) * q**3 + b * b * q**3
        assert done == 145408
        assert tally.multiplies >= done

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        dense = product_to_dense(random_mm_star(16, 4, seed=1))
        dense[3, 5] = bad
        with pytest.raises(NonFiniteValue, match="non-finite"):
            factorize_mm_star(dense, 4)
        with pytest.raises(NonFiniteValue):
            assumption1_check(dense, 4)

    def test_overflowing_family_is_simdiag_failed(self):
        # finite input whose commuting family overflows keeps the old error
        dense = product_to_dense(random_mm_star(16, 4, seed=1))
        factorization._permuted_blocks(dense, 4)[1:, 1:] *= 1e307
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimDiagFailed):
            factorize_mm_star(dense, 4)

    def test_bad_blocking(self):
        with pytest.raises(BadBlocking):
            factorize_mm_star(np.eye(16), 5)
        with pytest.raises(BadBlocking):
            factorize_mm_star(np.ones((3, 4)), 2)
        with pytest.raises(BadBlocking, match="perfect square"):
            factorize_mm_star(np.eye(12), None)


class TestAssumption1Check:
    def test_constructed_instance_passes(self):
        product = random_mm_star(16, 4, seed=11)
        report = assumption1_check(product_to_dense(product), 4)
        assert report.passed
        assert report.worst_condition < 1e10
        assert report.best_condition <= report.worst_condition
        default = assumption1_check(product_to_dense(product), None)  # b = sqrt(16)
        assert np.array_equal(default.block_conditions, report.block_conditions)

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
