import numpy as np
import pytest

from monarch.core import monarch_to_dense, random_monarch
from monarch.counting import count_multiplies
from monarch.errors import BadBlocking, IndexOutOfRange, NonFiniteValue
from monarch.projection import project, slice_singular_ratios, slice_view


def lapack_slice_tail(a, b):
    """Independent per-slice SVD oracle: sum of squared tail singular values."""
    n = a.shape[0]
    total = 0.0
    for j in range(b):
        for k in range(n // b):
            s = np.linalg.svd(slice_view(a, b, j, k), compute_uv=False)
            total += float(np.sum(s[1:] ** 2))
    return total


class TestSliceView:
    def test_degenerate_blocking_rejected(self):
        with pytest.raises(BadBlocking):
            slice_view(np.eye(4), 4, 0, 0)  # b must stay below n

    def test_index_arithmetic(self):
        a = np.array([[10.0 * r + c for c in range(4)] for r in range(4)])
        assert np.array_equal(slice_view(a, 2, 1, 0), [[10.0, 11.0], [30.0, 31.0]])

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            slice_view(np.eye(8), 2, 2, 0)

    def test_partition_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12))
        b = 3
        rebuilt = np.zeros_like(a)
        for j in range(b):
            for k in range(4):
                piece = slice_view(a, b, j, k)
                for l in range(4):
                    rebuilt[l * b + j, k * b : (k + 1) * b] = piece[l]
        assert np.array_equal(rebuilt, a)


class TestProject:
    def test_member_recovery_and_idempotence(self):
        m = random_monarch(16, 4, seed=1)
        dense = monarch_to_dense(m)
        m_hat, report = project(dense, 4)
        assert report.residual <= 1e-11 * np.linalg.norm(dense)
        again, report2 = project(monarch_to_dense(m_hat), 4)
        assert report2.residual <= 1e-11

    def test_identity_is_fixed_point(self):
        m_hat, report = project(np.eye(16), 4)
        assert report.residual == 0.0
        assert np.allclose(monarch_to_dense(m_hat), np.eye(16), atol=1e-14)

    def test_residual_matches_slice_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((16, 16))
        _, report = project(a, 4)
        tail = lapack_slice_tail(a, 4)
        assert abs(report.residual**2 - tail) <= 1e-9 * tail

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((16, 16))
        _, report = project(a, 4)
        for seed in range(200):
            cand = monarch_to_dense(random_monarch(16, 4, seed=seed))
            assert report.residual <= np.linalg.norm(a - cand) + 1e-12

    def test_exhaustive_certificate_6x6(self):
        # slices are 3x2; the per-slice optimum is the SVD truncation
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        m_hat, report = project(a, 2)
        best = 0.0
        for j in range(2):
            for k in range(3):
                piece = slice_view(a, 2, j, k)
                u, s, vt = np.linalg.svd(piece)
                best += float(np.sum(s[1:] ** 2))
        assert abs(report.residual**2 - best) <= 1e-10 * max(best, 1.0)
        assert np.linalg.norm(a - monarch_to_dense(m_hat)) <= np.sqrt(best) + 1e-10

    def test_orthogonal_decomposition(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((16, 16))
        m_hat, report = project(a, 4)
        total = np.linalg.norm(a) ** 2
        kept = np.linalg.norm(monarch_to_dense(m_hat)) ** 2
        assert abs(total - kept - report.residual**2) <= 1e-9 * total

    def test_report_consistency(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 12))
        m_hat, report = project(a, 3)
        assert report.block_size == 3
        assert report.per_slice_residuals.shape == (3, 4)
        assert abs(report.residual**2 - np.sum(report.per_slice_residuals**2)) <= 1e-10 * report.residual**2
        assert report.residual <= report.input_norm
        assert abs(np.linalg.norm(a - monarch_to_dense(m_hat)) - report.residual) <= 1e-12 * report.input_norm

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((16, 16))
        m1, _ = project(a, 4)
        m2, _ = project(2.5 * a, 4)
        d1, d2 = monarch_to_dense(m1), monarch_to_dense(m2)
        assert np.linalg.norm(d2 - 2.5 * d1) <= 1e-12 * np.linalg.norm(d2)

    def test_complex_projection(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m_hat, report = project(a, 4)
        tail = lapack_slice_tail(a, 4)
        assert abs(report.residual**2 - tail) <= 1e-9 * tail
        assert abs(np.linalg.norm(a - monarch_to_dense(m_hat)) - report.residual) <= 1e-10

    def test_complex_member_recovery(self):
        m = random_monarch(16, 4, seed=9, field="complex")
        dense = monarch_to_dense(m)
        _, report = project(dense, 4)
        assert report.relative_residual <= 1e-11

    def test_bitwise_reproducible_and_thread_invariant(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m1, _ = project(a, 4)
        m2, _ = project(a, 4)
        assert np.array_equal(m1.ltilde.blocks, m2.ltilde.blocks)
        assert np.array_equal(m1.r.blocks, m2.r.blocks)

    def test_zero_slice_handling(self):
        a = np.zeros((8, 8))
        a[0, 0] = 3.0
        m_hat, report = project(a, 2)
        assert np.linalg.norm(a - monarch_to_dense(m_hat)) <= 1e-12

    def test_default_block_size(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((16, 16))
        m_hat, report = project(a)
        assert report.block_size == 4

    def test_bad_blocking(self):
        with pytest.raises(BadBlocking):
            project(np.eye(12))  # not a perfect square, b required
        with pytest.raises(BadBlocking):
            project(np.eye(12), 5)
        with pytest.raises(BadBlocking):
            project(np.ones((3, 4)), 2)

    def test_flop_scaling(self):
        ratios = []
        for n in (16, 64):
            a = np.random.default_rng(n).standard_normal((n, n))
            with count_multiplies() as tally:
                project(a, int(np.sqrt(n)))
            ratios.append(tally.multiplies / n**2.5)
        assert max(ratios) / min(ratios) <= 4.0


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solver", [project, slice_singular_ratios])
    def test_rejected(self, bad, solver):
        a = np.random.default_rng(12).standard_normal((16, 16))
        a[5, 9] = bad
        with pytest.raises(NonFiniteValue):
            solver(a, 4)


class TestSliceSingularRatios:
    def test_matches_lapack(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((32, 32))
        a[:, :8] = 0.0  # whole zero slices report ratio 0
        ratios = slice_singular_ratios(a, 8)
        assert ratios.shape == (8, 4)
        for j in range(8):
            for k in range(4):
                s = np.linalg.svd(slice_view(a, 8, j, k), compute_uv=False)
                want = s[1] / s[0] if s[0] > 0 else 0.0
                assert abs(ratios[j, k] - want) <= 1e-9

    def test_monarch_input_is_rank_one(self):
        dense = monarch_to_dense(random_monarch(16, 4, seed=14))
        assert np.max(slice_singular_ratios(dense, 4)) <= 1e-9
