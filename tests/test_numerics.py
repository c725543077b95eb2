"""Dense linear algebra substrate: oracles are written independently here
(naive loops, power iteration, constructed instances) so the solver paths
never check themselves."""

import numpy as np
import pytest

from monarch import numerics as nm
from monarch.counting import count_multiplies
from monarch.errors import DefectiveMatrix, DimensionMismatch, MonarchError, NoConvergence, SingularMatrix


def naive_matmul(a, b):
    """Triple loop with k innermost ascending, the summation-order oracle."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a.dtype, b.dtype))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = out.dtype.type(0)
            for k in range(a.shape[1]):
                acc = acc + a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def power_iteration_eigs(h, count, max_iters=50000, tol=1e-13, seed=0):
    """Eigenvalues of a Hermitian PSD matrix by power iteration + deflation."""
    h = np.array(h)
    rng = np.random.default_rng(seed)
    eigs = []
    for _ in range(count):
        v = rng.standard_normal(h.shape[0])
        if np.iscomplexobj(h):
            v = v + 1j * rng.standard_normal(h.shape[0])
        v = v / np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_iters):
            w = h @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                lam = 0.0
                break
            v = w / norm
            new_lam = float(np.vdot(v, h @ v).real)
            if abs(new_lam - lam) <= tol * max(abs(new_lam), 1.0):
                lam = new_lam
                break
            lam = new_lam
        eigs.append(lam)
        h = h - lam * np.multiply.outer(v, np.conj(v))
    return np.array(eigs)


class TestMatmul:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 5))
        assert np.array_equal(nm.matmul(np.eye(3), x), x)

    def test_column_permutation(self):
        out = nm.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(out, np.array([[2.0, 1.0], [4.0, 3.0]]))

    def test_matches_naive_loop_bitwise(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        assert np.array_equal(nm.matmul(a, b), naive_matmul(a, b))

    def test_complex_matches_naive_loop(self):
        # vectorized complex multiply may round differently from the scalar
        # path, so the complex field is held to a couple of ulps, not bits
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        got, want = nm.matmul(a, b), naive_matmul(a, b)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nm.matmul(np.eye(3), np.eye(4))

    def test_associativity(self):
        rng = np.random.default_rng(3)
        a, b, c = (rng.standard_normal((6, 6)) for _ in range(3))
        left = nm.matmul(nm.matmul(a, b), c)
        right = nm.matmul(a, nm.matmul(b, c))
        assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left)


class TestLuInvert:
    def test_diagonal(self):
        assert np.allclose(nm.lu_invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-15)

    def test_identity(self):
        assert np.array_equal(nm.lu_invert(np.eye(4)), np.eye(4))

    def test_residual_well_conditioned(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        inv = nm.lu_invert(a)
        assert np.linalg.norm(a @ inv - np.eye(6)) <= 1e-10 * np.linalg.norm(a)

    def test_complex(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.linalg.norm(a @ nm.lu_invert(a) - np.eye(5)) <= 1e-10 * np.linalg.norm(a)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            nm.lu_invert(np.zeros((3, 3)))
        with pytest.raises(SingularMatrix):
            nm.lu_invert(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            nm.lu_invert(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            nm.lu_invert(np.ones((4, 2, 3)))

    def test_singular_member_named(self):
        a = np.tile(np.eye(3), (4, 1, 1))
        a[2, 1] = a[2, 0]
        with pytest.raises(SingularMatrix, match="matrix 2:") as exc:
            nm.lu_invert(a)
        assert exc.value.index == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        with pytest.raises(SingularMatrix):
            nm.lu_invert(np.array([[bad, 1.0], [1.0, 1.0]]))
        a = np.tile(2.0 * np.eye(4), (3, 1, 1))
        a[1, 3, 2] = bad
        with pytest.raises(SingularMatrix) as exc:
            nm.lu_invert(a)
        assert exc.value.index == 1

    def test_counts_gauss_jordan_work(self):
        with count_multiplies() as tally:
            nm.lu_invert(np.tile(np.eye(4), (3, 1, 1)))
        # (k + 1) (3 k^2 - k) / 2 per 4 x 4 matrix
        assert tally.multiplies == 3 * 110


class TestSvd:
    def test_diag(self):
        res = nm.svd(np.diag([3.0, 1.0]))
        assert np.allclose(res.s, [3.0, 1.0])

    def test_zero_matrix(self):
        res = nm.svd(np.zeros((4, 3)))
        assert np.all(res.s == 0.0)
        assert np.allclose(res.u.conj().T @ res.u, np.eye(3), atol=1e-12)

    def test_singular_values_vs_power_iteration(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((8, 5))
        res = nm.svd(a)
        oracle = power_iteration_eigs(a.T @ a, 5, seed=6)
        ours = np.sort(res.s**2)[::-1]
        oracle = np.sort(oracle)[::-1]
        assert np.all(np.abs(ours - oracle) <= 1e-8 * ours[0])

    @pytest.mark.parametrize("shape,seed,cplx", [((8, 5), 7, False), ((5, 8), 8, False), ((6, 6), 9, True)])
    def test_orthogonality_and_reconstruction(self, shape, seed, cplx):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape)
        if cplx:
            a = a + 1j * rng.standard_normal(shape)
        res = nm.svd(a)
        k = min(shape)
        assert np.linalg.norm(res.u.conj().T @ res.u - np.eye(k)) <= 1e-10
        assert np.linalg.norm(res.v.conj().T @ res.v - np.eye(k)) <= 1e-10
        assert np.all(np.diff(res.s) <= 0)
        recon = res.u @ np.diag(res.s) @ res.v.conj().T
        assert np.linalg.norm(a - recon) <= 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (2, 6, 3), (5, 1), (1, 5)])
    def test_non_finite_entry_raises(self, bad, shape):
        a = np.ones(shape)
        a.flat[3] = bad
        with pytest.raises(NoConvergence) as exc:
            nm.svd(a)
        assert isinstance(exc.value, MonarchError)
        assert "non-finite" in str(exc.value)

    def test_sweep_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(nm, "_SVD_MAX_SWEEPS", 1)
        a = np.random.default_rng(17).standard_normal((6, 6))
        with pytest.raises(NoConvergence):
            nm.svd(a)

    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatch):
            nm.svd(np.ones(3))


class TestCondEstimate:
    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        a[3] = 0.0
        conds = nm.cond_estimate(a)
        assert conds.shape == (5,)
        assert conds[3] == np.inf
        for i in (0, 1, 2, 4):
            single = nm.cond_estimate(a[i])
            assert isinstance(single, float)
            assert abs(conds[i] - single) <= 1e-12 * single
            assert abs(conds[i] - np.linalg.cond(a[i])) <= 1e-9 * conds[i]

    def test_singular_and_empty(self):
        assert nm.cond_estimate(np.diag([2.0, 0.0])) == np.inf
        assert nm.cond_estimate(np.diag([4.0, 0.5])) == 8.0
        assert nm.cond_estimate(np.zeros((0, 0))) == np.inf


class TestRank1Approx:
    def test_dominant_pair(self):
        u, v = nm.rank1_approx(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(np.multiply.outer(u, np.conj(v)), [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_rank_one_input_exact(self):
        rng = np.random.default_rng(10)
        x, y = rng.standard_normal(5), rng.standard_normal(4)
        a = np.multiply.outer(x, y)
        u, v = nm.rank1_approx(a)
        assert np.linalg.norm(a - np.multiply.outer(u, np.conj(v))) <= 1e-12 * np.linalg.norm(a)

    def test_zero_matrix(self):
        u, v = nm.rank1_approx(np.zeros((3, 2)))
        assert not u.any() and not v.any()

    def test_residual_equals_tail_singular_mass(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        u, v = nm.rank1_approx(a)
        resid_sq = np.linalg.norm(a - np.multiply.outer(u, np.conj(v))) ** 2
        tail = float(np.sum(np.linalg.svd(a, compute_uv=False)[1:] ** 2))
        assert abs(resid_sq - tail) <= 1e-9 * tail

    def test_stack(self):
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((3, 4, 5))
        stack[1] = 0.0
        u, v = nm.rank1_approx(stack)
        assert u.shape == (3, 4) and v.shape == (3, 5)
        assert not u[1].any() and not v[1].any()
        for i in (0, 2):
            ui, vi = nm.rank1_approx(stack[i])
            assert np.allclose(np.multiply.outer(u[i], v[i]), np.multiply.outer(ui, vi), atol=1e-12)

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 4))
        u, v = nm.rank1_approx(a)
        ours = np.linalg.norm(a - np.multiply.outer(u, np.conj(v)))
        for _ in range(64):
            cu = rng.standard_normal(5)
            cv = rng.standard_normal(4)
            cu /= np.linalg.norm(cu)
            cv /= np.linalg.norm(cv)
            alpha = cu @ a @ cv  # optimal scale for this direction pair
            cand = np.linalg.norm(a - alpha * np.multiply.outer(cu, cv))
            assert ours <= cand + 1e-12


class TestEig:
    def test_triangular(self):
        res = nm.eig(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert sorted(np.round(res.lam.real, 10)) == [2.0, 3.0]
        assert np.max(np.abs(res.lam.imag)) < 1e-12

    def test_diagonal_input(self):
        d = np.array([5.0, -1.0, 2.0])
        res = nm.eig(np.diag(d))
        assert np.allclose(sorted(res.lam.real), sorted(d), atol=1e-12)
        # eigenvector matrix is a permutation-scaled identity
        assert np.allclose(np.abs(res.q) @ np.abs(res.q).T, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_constructed_instance(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        c = rng.standard_normal((n, n)) + np.eye(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = np.linalg.inv(c) @ np.diag(d) @ c
        res = nm.eig(m)
        got = sorted(res.lam, key=lambda z: (z.real, z.imag))
        want = sorted(d, key=lambda z: (z.real, z.imag))
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-8 * np.max(np.abs(d))
        resid = np.linalg.norm(m @ res.q - res.q @ np.diag(res.lam))
        assert resid <= 1e-8 * np.linalg.norm(m)

    def test_defective_raises(self):
        with pytest.raises(DefectiveMatrix):
            nm.eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        a = np.random.default_rng(19).standard_normal((32, 32))
        a[7, 3] = bad
        with pytest.raises(NoConvergence, match="non-finite"):
            nm.eig(a)

    def test_multiplies_grow_as_cube(self):
        # each Givens rotation touches two rows and two columns: O(k^3) in
        # all, so doubling k multiplies the count by about 8 (a dense
        # rotation matrix per rotation gives about 16)
        counts = []
        for k in (32, 64):
            a = np.random.default_rng(k).standard_normal((k, k))
            with count_multiplies() as tally:
                nm.eig(a)
            counts.append(tally.multiplies)
        assert counts[1] / counts[0] <= 10

    def test_real_input_promoted(self):
        # rotation matrix has complex eigenvalues; real input must still work
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        res = nm.eig(rot)
        assert np.allclose(sorted(res.lam.imag), sorted([-np.sin(theta), np.sin(theta)]), atol=1e-10)
