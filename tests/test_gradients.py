import warnings

import numpy as np
import pytest

from monarch.core import (
    MonarchMatrix,
    monarch_matvec,
    monarch_to_dense,
    random_monarch,
)
from monarch.errors import DimensionMismatch
from monarch.gradients import gradcheck, matvec_vjp
from monarch.structured import BlockDiagMatrix


class TestVjp:
    def test_zero_upstream(self):
        m = random_monarch(16, 4, seed=0)
        t = matvec_vjp(m, np.ones(16), np.zeros(16))
        assert not t.d_ltilde.any() and not t.d_r.any() and not t.d_x.any()

    def test_identity_path_hand_chain_rule(self):
        m = MonarchMatrix.identity(8, 2)
        rng = np.random.default_rng(1)
        x, g = rng.standard_normal(8), rng.standard_normal(8)
        t = matvec_vjp(m, x, g)
        assert np.allclose(t.d_x, g)
        # with identity factors the stage inputs are just permuted copies,
        # so each tangent block is an outer product of upstream/x segments
        q, b = 4, 2
        u = g.reshape(q, b).T
        w = x.reshape(q, b).T
        for j in range(b):
            assert np.allclose(t.d_ltilde[j], np.outer(u[j], w[j]))
        s = u.T
        xq = x.reshape(q, b)
        for k in range(q):
            assert np.allclose(t.d_r[k], np.outer(s[k], xq[k]))

    def test_shapes_mirror_primal(self):
        m = random_monarch(16, 4, seed=2)
        t = matvec_vjp(m, np.ones(16), np.ones(16))
        assert t.d_ltilde.shape == m.ltilde.blocks.shape
        assert t.d_r.shape == m.r.blocks.shape
        assert t.d_x.shape == (16,)

    def test_dx_matches_dense_adjoint(self):
        m = random_monarch(16, 4, seed=3)
        rng = np.random.default_rng(3)
        x, g = rng.standard_normal(16), rng.standard_normal(16)
        t = matvec_vjp(m, x, g)
        dense = monarch_to_dense(m)
        assert np.linalg.norm(t.d_x - dense.T @ g) <= 1e-12 * np.linalg.norm(t.d_x)

    def test_duality(self):
        m = random_monarch(16, 4, seed=4, field="complex")
        rng = np.random.default_rng(4)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        t = matvec_vjp(m, x, g)
        for _ in range(5):
            probe = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            lhs = np.vdot(g, monarch_matvec(m, probe))
            rhs = np.vdot(t.d_x, probe)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_gradient_of_half_squared_norm(self):
        m = random_monarch(16, 4, seed=5)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16)
        t = matvec_vjp(m, x, monarch_matvec(m, x))
        dense = monarch_to_dense(m)
        want = dense.conj().T @ dense @ x
        assert np.linalg.norm(t.d_x - want) <= 1e-10 * np.linalg.norm(want)

    def test_dimension_mismatch(self):
        m = random_monarch(16, 4, seed=6)
        with pytest.raises(DimensionMismatch):
            matvec_vjp(m, np.zeros(8), np.zeros(16))


class TestGradcheck:
    def test_identity_instance(self):
        # linear exact case: orders of magnitude tighter than the 1e-6 gate
        m = MonarchMatrix.identity(8, 2)
        report = gradcheck(m, np.random.default_rng(22).standard_normal(8), seed=22)
        assert report.passed
        assert report.max_rel_error <= 1e-9

    @pytest.mark.parametrize("n,b", [(4, 2), (16, 2), (16, 4)])
    def test_random_instances(self, n, b):
        for seed in range(10):
            m = random_monarch(n, b, seed=seed)
            x = np.random.default_rng(1000 + seed).standard_normal(n)
            report = gradcheck(m, x, seed=seed)
            assert report.passed, report.failures[:3]
            assert report.max_rel_error <= 1e-6
            assert report.coords_checked == n * n // b + n * b + n

    def test_complex_instance(self):
        m = random_monarch(16, 4, seed=8, field="complex")
        rng = np.random.default_rng(8)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        report = gradcheck(m, x, seed=8)
        assert report.passed
        assert report.max_rel_error <= 1e-6

    def test_real_ltilde_complex_r(self):
        # the field comes from both factors: a complex R alone makes the
        # check complex, so no imaginary part is dropped
        n, b = 16, 4
        rng = np.random.default_rng(12)
        r = rng.standard_normal((n // b, b, b)) + 1j * rng.standard_normal((n // b, b, b))
        m = MonarchMatrix(
            ltilde=BlockDiagMatrix(rng.standard_normal((b, n // b, n // b))), r=BlockDiagMatrix(r)
        )
        x = rng.standard_normal(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = gradcheck(m, x, seed=12)
        assert report.passed, report.failures[:3]
        assert report.coords_checked == n * n // b + n * b + n
        draw = np.random.default_rng(12)
        upstream = draw.standard_normal(n) + 1j * draw.standard_normal(n)  # gradcheck(seed=12) draws the same
        tangent = matvec_vjp(m, x, upstream)
        tangent.d_r[1, 2, 0] = tangent.d_r[1, 2, 0].real
        report = gradcheck(m, x, seed=12, tangent=tangent)
        assert [f[0] for f in report.failures] == [("R", 1, 2, 0)]

    def test_fault_injection_localizes(self):
        m = random_monarch(16, 4, seed=9)
        x = np.random.default_rng(9).standard_normal(16)
        rng = np.random.default_rng(9)
        upstream = rng.standard_normal(16)  # gradcheck(seed=9) draws the same
        tangent = matvec_vjp(m, x, upstream)
        tangent.d_r[2, 1, 3] *= 1.10
        report = gradcheck(m, x, seed=9, tangent=tangent)
        assert not report.passed
        assert [f[0] for f in report.failures] == [("R", 2, 1, 3)]

    def test_fault_injection_in_ltilde(self):
        m = random_monarch(16, 4, seed=10)
        x = np.random.default_rng(10).standard_normal(16)
        upstream = np.random.default_rng(10).standard_normal(16)
        tangent = matvec_vjp(m, x, upstream)
        tangent.d_ltilde[1, 0, 2] *= 1.10
        report = gradcheck(m, x, seed=10, tangent=tangent)
        assert [f[0] for f in report.failures] == [("L", 1, 0, 2)]

    def test_tangent_support_matches_structure(self):
        # tangents live on the block arrays themselves: nothing outside the
        # structured support can be represented, and blocks are fully dense
        m = random_monarch(16, 4, seed=11)
        rng = np.random.default_rng(11)
        t = matvec_vjp(m, rng.standard_normal(16), rng.standard_normal(16))
        assert t.d_ltilde.shape == (4, 4, 4) and t.d_r.shape == (4, 4, 4)
        assert np.all(np.isfinite(t.d_ltilde)) and np.all(np.isfinite(t.d_r))
