import threading

import numpy as np
import pytest

from monarch import core
from monarch.core import (
    MonarchMatrix,
    MonarchProduct,
    hierarchy,
    mm_star,
    monarch_flop_count,
    monarch_matvec,
    monarch_matvec_adjoint,
    monarch_param_count,
    monarch_to_dense,
    mstar_m,
    permuted_to_mstar_m,
    product_matvec,
    product_to_dense,
    random_mm_star,
    random_monarch,
)
from monarch.counting import count_multiplies
from monarch.errors import BadBlocking, DimensionMismatch, NoConvergence
from monarch.indexing import BlockPermutation
from monarch.numerics import lu_invert
from monarch.projection import slice_singular_ratios
from monarch.structured import BlockDiagMatrix
from oracles import monarch_dense_oracle, permutation_matrix


def counted_matvec_oracle(m, x):
    """Pure-loop application that tallies every scalar multiply itself."""
    n, b = m.n, m.b
    q = n // b
    perm = BlockPermutation(b, n)
    count = 0
    y = np.zeros(n, dtype=np.result_type(m.r.blocks.dtype, x.dtype))
    for k in range(q):
        for j in range(b):
            for i in range(b):
                y[k * b + j] += m.r.blocks[k, j, i] * x[k * b + i]
                count += 1
    w = np.empty_like(y)
    for idx in range(n):
        w[perm.apply(idx)] = y[idx]
    z = np.zeros_like(w)
    for j in range(b):
        for l in range(q):
            for k in range(q):
                z[j * q + l] += m.ltilde.blocks[j, l, k] * w[j * q + k]
                count += 1
    out = np.empty_like(z)
    for idx in range(n):
        out[idx] = z[perm.apply(idx)]
    return out, count


class TestMonarchMatrix:
    def test_identity_factors(self):
        m = MonarchMatrix.identity(8, 2)
        x = np.random.default_rng(0).standard_normal(8)
        assert np.array_equal(monarch_matvec(m, x), x)
        assert np.array_equal(monarch_to_dense(m), np.eye(8))

    def test_small_example_matches_dense(self):
        lt = BlockDiagMatrix(np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]))
        r = BlockDiagMatrix(np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]]]))
        m = MonarchMatrix(ltilde=lt, r=r)
        dense = monarch_to_dense(m)
        assert np.array_equal(dense, monarch_dense_oracle(m))
        x = np.random.default_rng(1).standard_normal(4)
        got = monarch_matvec(m, x)
        want = dense @ x
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_entry_identity(self):
        m = random_monarch(16, 4, seed=2)
        dense = monarch_to_dense(m)
        q, b = 4, 4
        for l in range(q):
            for j in range(b):
                for k in range(q):
                    for i in range(b):
                        assert dense[l * b + j, k * b + i] == m.ltilde.blocks[j, l, k] * m.r.blocks[k, j, i]

    def test_matvec_dense_agreement_many(self):
        rng = np.random.default_rng(3)
        m = random_monarch(16, 4, seed=3)
        dense = monarch_to_dense(m)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(16)
            want = dense @ x
            got = monarch_matvec(m, x)
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
        assert worst <= 1e-12

    def test_matvec_dense_agreement_sizes(self):
        # 100 instances across sizes up to 64
        cases = [(4, 2), (8, 2), (8, 4), (16, 4), (36, 6), (64, 8)]
        rng = np.random.default_rng(4)
        for n, b in cases:
            for seed in range(17):
                m = random_monarch(n, b, seed=seed)
                dense = monarch_to_dense(m)
                x = rng.standard_normal(n)
                want = dense @ x
                got = monarch_matvec(m, x)
                assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-30)

    def test_basis_probe_columns(self):
        m = random_monarch(16, 4, seed=5)
        dense = monarch_to_dense(m)
        for i in range(16):
            e = np.zeros(16)
            e[i] = 1.0
            assert np.allclose(monarch_matvec(m, e), dense[:, i], atol=1e-13)

    def test_dimension_mismatch(self):
        m = MonarchMatrix.identity(8, 2)
        with pytest.raises(DimensionMismatch):
            monarch_matvec(m, np.zeros(7))
        for bad in (np.zeros((7, 2)), np.zeros((16, 1)), np.zeros((8, 2, 1))):
            with pytest.raises(DimensionMismatch):
                monarch_matvec(m, bad)
            with pytest.raises(DimensionMismatch):
                monarch_matvec_adjoint(m, bad)

    def test_bad_blocking_rejected(self):
        with pytest.raises(BadBlocking):
            random_monarch(16, 5)
        with pytest.raises(BadBlocking):
            random_monarch(16, 1)
        with pytest.raises(BadBlocking):
            random_monarch(16, 0)  # rejected before n % b is formed
        with pytest.raises(BadBlocking):
            random_monarch(16, 16)
        with pytest.raises(BadBlocking):
            random_monarch(12)  # not a perfect square, b required
        m = random_monarch(16, 4, seed=0)
        for n in (5, 0, 32):  # a product's size must divide its factors' size
            with pytest.raises(BadBlocking, match="must divide"):
                MonarchProduct(factors=[m], adjoint=[False], n=n)
        with pytest.raises(BadBlocking, match="must divide"):
            hierarchy([(m, m)], n=3)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        m = random_monarch(16, 4, seed=6)
        x, y = rng.standard_normal(16), rng.standard_normal(16)
        a, b = 1.7, -0.3
        lhs = monarch_matvec(m, a * x + b * y)
        rhs = a * monarch_matvec(m, x) + b * monarch_matvec(m, y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


class TestCounts:
    def test_param_count_sqrt(self):
        assert monarch_param_count(random_monarch(16, 4, seed=0)) == 128  # 2 n sqrt(n)

    def test_param_count_general(self):
        assert monarch_param_count(random_monarch(16, 2, seed=0)) == 160  # n^2/b + n b

    def test_flop_count_matches_instrumented_tally(self):
        for n, b in [(16, 4), (16, 2), (36, 6)]:
            m = random_monarch(n, b, seed=1)
            x = np.random.default_rng(7).standard_normal(n)
            with count_multiplies() as tally:
                got = monarch_matvec(m, x)
            oracle_out, oracle_count = counted_matvec_oracle(m, x)
            assert tally.multiplies == oracle_count == monarch_flop_count(m) == n * b + n * n // b
            assert np.allclose(got, oracle_out, atol=1e-12)

    def test_tallies_count_only_their_own_thread(self):
        # two threads hold their tallies open while both run matvecs; nested
        # tallies in one thread both count its work
        m = random_monarch(64, 8, seed=2)
        x = np.random.default_rng(3).standard_normal(64)
        barrier = threading.Barrier(2, timeout=30)
        counts = {}

        def work(name, matvecs):
            with count_multiplies() as outer:
                with count_multiplies() as inner:
                    barrier.wait()
                    for _ in range(matvecs):
                        monarch_matvec(m, x)
                    barrier.wait()
            counts[name] = (outer.multiplies, inner.multiplies)

        threads = [threading.Thread(target=work, args=args) for args in (("one", 1), ("three", 3))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counts == {"one": (1024, 1024), "three": (3072, 3072)}


class TestProducts:
    def test_mm_star_symmetric_psd_action(self):
        m1 = random_monarch(16, 4, seed=8)
        p = mm_star(m1, m1)
        dense = monarch_to_dense(m1)
        want = dense @ dense.T
        got = product_to_dense(p)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(got - got.T) <= 1e-12 * np.linalg.norm(got)
        x = np.random.default_rng(9).standard_normal(16)
        assert np.linalg.norm(product_matvec(p, x) - want @ x) <= 1e-12 * np.linalg.norm(want @ x)
        assert x @ product_matvec(p, x) >= 0.0

    def test_single_factor_equals_matvec(self):
        m = random_monarch(16, 4, seed=10)
        p = MonarchProduct(factors=[m], adjoint=[False])
        x = np.random.default_rng(11).standard_normal(16)
        assert np.array_equal(product_matvec(p, x), monarch_matvec(m, x))

    def test_product_to_dense_applies_the_identity(self):
        # one product_matvec over the n identity columns, with no n x n product
        n, b = 64, 8
        p = mm_star(random_monarch(n, b, seed=3), random_monarch(n, b, seed=4))
        with count_multiplies() as tally:
            dense = product_to_dense(p)
        assert tally.multiplies == 2 * n * (n * b + n * n // b) == 131072
        x = np.random.default_rng(17).standard_normal(n)
        assert np.linalg.norm(dense @ x - product_matvec(p, x)) <= 1e-12 * np.linalg.norm(dense @ x)

    def test_mstar_m(self):
        m1 = random_monarch(16, 4, seed=12)
        m2 = random_monarch(16, 4, seed=13)
        p = mstar_m(m1, m2)
        want = monarch_to_dense(m1).conj().T @ monarch_to_dense(m2)
        assert np.linalg.norm(product_to_dense(p) - want) <= 1e-12 * np.linalg.norm(want)

    def test_hierarchy_truncation(self):
        pairs = [
            (random_monarch(8, 2, seed=s), random_monarch(8, 2, seed=100 + s)) for s in range(2)
        ]
        h = hierarchy(pairs, n=4)
        full = np.eye(8)
        for m, adj in zip(h.factors, h.adjoint):
            d = monarch_to_dense(m)
            full = full @ (d.conj().T if adj else d)
        want = full[:4, :4]
        assert np.linalg.norm(product_to_dense(h) - want) <= 1e-12 * np.linalg.norm(want)
        x = np.random.default_rng(14).standard_normal(4)
        assert np.linalg.norm(product_matvec(h, x) - want @ x) <= 1e-12 * np.linalg.norm(want @ x)
        xs = np.random.default_rng(15).standard_normal((4, 3))  # padded and cut back as a stack
        assert np.linalg.norm(product_matvec(h, xs) - want @ xs) <= 1e-12 * np.linalg.norm(want @ xs)

    def test_adjoint_action(self):
        m = random_monarch(16, 4, seed=15, field="complex")
        dense = monarch_to_dense(m)
        x = np.random.default_rng(16).standard_normal(16) + 0j
        got = monarch_matvec_adjoint(m, x)
        assert np.linalg.norm(got - dense.conj().T @ x) <= 1e-12 * np.linalg.norm(got)

    def test_permuted_mm_star_is_mstar_m(self):
        # conjugating an MM* matrix by P lands in M*M at block size n/b; the
        # adjoint flags [False, True] alone make a product MM*
        m1, m2 = random_monarch(16, 4, seed=20), random_monarch(16, 4, seed=21)
        products = [mm_star(random_monarch(16, 4, seed=seed), random_monarch(16, 4, seed=50 + seed))
                    for seed in range(5)]
        for p in products + [MonarchProduct(factors=[m1, m2], adjoint=[False, True])]:
            dense = product_to_dense(p)
            pm = permutation_matrix(BlockPermutation(4, 16))
            conj = pm @ dense @ pm.T
            ms = permuted_to_mstar_m(p)
            assert ms.factors[0].b == 16 // 4
            err = np.linalg.norm(product_to_dense(ms) - conj)
            assert err <= 1e-10 * np.linalg.norm(conj)

    def test_permuted_mstar_m_refuses_other_flags(self):
        m1, m2 = random_monarch(16, 4, seed=20), random_monarch(16, 4, seed=21)
        refused = [MonarchProduct(factors=[m1, m2], adjoint=flags)
                   for flags in ([False, False], [True, False], [True, True])]
        refused += [MonarchProduct(factors=[m1, m2], adjoint=[False, True], n=8),  # a corner
                    MonarchProduct(factors=[m1], adjoint=[False])]
        for p in refused:
            with pytest.raises(ValueError, match=r"MM\* product"):
                permuted_to_mstar_m(p)


class TestRandomInstances:
    def test_deterministic_bitwise(self):
        a = random_monarch(16, 4, seed=7)
        b = random_monarch(16, 4, seed=7)
        assert np.array_equal(a.ltilde.blocks, b.ltilde.blocks)
        assert np.array_equal(a.r.blocks, b.r.blocks)
        c = random_monarch(16, 4, seed=8)
        assert not np.array_equal(a.ltilde.blocks, c.ltilde.blocks)

    def test_assumption1_blocks_invertible(self):
        from monarch.factorization import _permuted_blocks

        m = random_mm_star(16, 4, seed=9).factors[0]
        assert np.min(np.abs(m.r.blocks)) >= 0.1
        blocks = _permuted_blocks(monarch_to_dense(m), 4)
        for i in range(4):
            for j in range(4):
                inv = lu_invert(blocks[i, j])  # must not raise
                resid = np.linalg.norm(blocks[i, j] @ inv - np.eye(4))
                assert resid <= 1e-8

    def test_conditioned_sampler_bounded(self, monkeypatch):
        monkeypatch.setattr(core, "cond_estimate", lambda a: np.inf)
        with pytest.raises(NoConvergence, match="draws"):
            random_mm_star(16, 4, seed=9)

    def test_conditioned_sampler_one_svd_per_stack(self, monkeypatch):
        from monarch import numerics

        calls = []
        svd = numerics.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(numerics, "svd", counted)
        monkeypatch.setattr(core, "_MAX_BLOCK_CONDITION", np.inf)
        random_mm_star(64, 8, seed=0)
        assert calls == [(8, 8, 8), (8, 8, 8)]

    def test_nonzero_entry_sampler_bounded(self, monkeypatch):
        monkeypatch.setattr(core, "_MIN_MIDDLE_ENTRY", np.inf)
        with pytest.raises(NoConvergence, match="redraws"):
            random_mm_star(16, 4, seed=9)

    def test_slice_rank_invariant(self):
        for n, b, field in [(16, 4, "real"), (16, 2, "real"), (36, 6, "complex")]:
            m = random_monarch(n, b, seed=11, field=field)
            ratios = slice_singular_ratios(monarch_to_dense(m), b)
            assert float(ratios.max()) <= 1e-12

    def test_complex_parts_independent(self):
        m = random_monarch(16, 4, seed=12, field="complex")
        assert np.iscomplexobj(m.ltilde.blocks)
        assert m.ltilde.blocks.real.std() > 0 and m.ltilde.blocks.imag.std() > 0
