"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here, not configurable.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from monarch import io
from monarch.butterfly import (
    butterfly_matvec,
    butterfly_to_monarch,
    dft_butterfly,
    hadamard_butterfly,
    random_butterfly,
)
from monarch.cli import main as cli_main
from monarch.core import (
    monarch_flop_count,
    monarch_matvec,
    monarch_to_dense,
    product_to_dense,
    random_mm_star,
    random_monarch,
)
from monarch.counting import count_multiplies
from monarch.errors import SingularBlock
from monarch.factorization import factorize_mm_star
from monarch.indexing import BlockPermutation
from monarch.projection import project, slice_singular_ratios, slice_view
from monarch.structured import DiagBlockMatrix, db_to_bd
from oracles import permutation_matrix, sylvester_hadamard


@contextmanager
def criterion(number, name, seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.stderr, flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f} s)", flush=True)
    assert elapsed < seconds, f"runtime {elapsed:.2f} s exceeds {seconds} s budget"


def test_criterion_1_projection_optimality():
    with criterion(1, "projection optimality", 5.0):
        candidates = [monarch_to_dense(random_monarch(16, 4, seed=10_000 + s)) for s in range(200)]
        for seed in range(50):
            a = np.random.default_rng(seed).standard_normal((16, 16))
            _, report = project(a, 4)
            tail = 0.0
            for j in range(4):
                for k in range(4):
                    s = np.linalg.svd(slice_view(a, 4, j, k), compute_uv=False)
                    tail += float(np.sum(s[1:] ** 2))
            assert abs(report.residual**2 - tail) <= 1e-9 * tail
            for cand in candidates:
                assert report.residual <= np.linalg.norm(a - cand) + 1e-12


def test_criterion_2_projection_exact_recovery():
    with criterion(2, "projection exact recovery", 5.0):
        cases = [(16, 4)] * 17 + [(16, 2)] * 17 + [(36, 6)] * 16
        for seed, (n, b) in enumerate(cases):
            m = random_monarch(n, b, seed=seed)
            dense = monarch_to_dense(m)
            _, report = project(dense, b)
            assert report.relative_residual <= 1e-11, (n, b, seed)


def test_criterion_3_factorization_round_trip():
    with criterion(3, "factorization round trip", 30.0):
        for n, b in [(8, 2), (9, 3), (16, 4), (32, 4)]:
            for seed in range(20):
                product = random_mm_star(n, b, seed=seed)
                dense = product_to_dense(product)
                result = factorize_mm_star(dense, b)
                assert result.reconstruction_error <= 1e-8, (n, b, seed)
        with pytest.raises(SingularBlock):
            factorize_mm_star(np.eye(16), 4)


def test_criterion_4_permutation_theorem():
    with criterion(4, "permutation theorem", 1.0):
        rng = np.random.default_rng(0)
        for b, n in [(2, 4), (2, 8), (4, 8), (4, 16), (3, 12)]:
            q = n // b
            for _ in range(10):
                l = DiagBlockMatrix(b_row=b, b_col=b, entries=rng.standard_normal((q, q, b)))
                p = permutation_matrix(BlockPermutation(b, n))
                assert np.array_equal(db_to_bd(l).to_dense(), p @ l.to_dense() @ p.T)


def test_criterion_5_butterfly_containment():
    with criterion(5, "butterfly containment", 5.0):
        for n in (4, 8, 16, 32):
            for seed in range(5):
                bm = random_butterfly(n, seed=seed)
                dense = bm.to_dense()
                scale = np.linalg.norm(dense)
                b = 2
                while b < n:
                    merged = butterfly_to_monarch(bm, b)
                    err = np.linalg.norm(monarch_to_dense(merged) - dense)
                    assert err <= 1e-12 * scale, (n, b, seed)
                    assert float(slice_singular_ratios(dense, b).max()) <= 1e-12
                    b *= 2


def test_criterion_6_transform_oracles():
    with criterion(6, "transform oracles", 2.0):
        for n in (2, 4, 8, 16, 32, 64):
            bm, rev = dft_butterfly(n)
            x = np.random.default_rng(n).standard_normal(n) + 0j
            got = butterfly_matvec(bm, x[rev])
            k = np.arange(n)
            want = np.array([np.sum(x * np.exp(-2j * np.pi * j * k / n)) for j in range(n)])
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)
        for n in (2, 4, 8, 16, 32):
            assert np.array_equal(hadamard_butterfly(n).to_dense(), sylvester_hadamard(n))
        bm16, _ = dft_butterfly(16)
        _, report = project(bm16.to_dense(), 4)
        assert report.relative_residual <= 1e-10


def test_criterion_7_efficiency_accounting():
    with criterion(7, "efficiency accounting", 10.0):
        for n, b in [(16, 4), (16, 2), (36, 6), (64, 8)]:
            m = random_monarch(n, b, seed=0)
            x = np.random.default_rng(1).standard_normal(n)
            with count_multiplies() as tally:
                monarch_matvec(m, x)
            assert tally.multiplies == n * b + n * n // b == monarch_flop_count(m)
        assert monarch_flop_count(random_monarch(16, 4, seed=0)) == 128  # 2 n sqrt(n)
        ratios = []
        for n in (16, 64, 256):
            a = np.random.default_rng(n).standard_normal((n, n))
            with count_multiplies() as tally:
                project(a, int(np.sqrt(n)))
            ratios.append(tally.multiplies / n**2.5)
        assert max(ratios) / min(ratios) <= 4.0, ratios


def test_criterion_8_gradients():
    with criterion(8, "gradient checks", 10.0):
        from monarch.gradients import gradcheck

        cases = [(4, 2)] * 10 + [(16, 2)] * 10 + [(16, 4)] * 10
        for seed, (n, b) in enumerate(cases):
            m = random_monarch(n, b, seed=seed)
            x = np.random.default_rng(5000 + seed).standard_normal(n)
            report = gradcheck(m, x, seed=seed)
            assert report.passed, (n, b, seed, report.failures[:2])
            assert report.max_rel_error <= 1e-6


def test_criterion_9_cli_contract(tmp_path):
    with criterion(9, "cli contract", 2.0):
        rng = np.random.default_rng(2)
        for seed in range(10):
            a = rng.standard_normal((5, 7))
            path = tmp_path / f"rt{seed}.dmat"
            io.write_dmat(path, a)
            assert np.array_equal(io.read_dmat(path), a)
            m = random_monarch(16, 4, seed=seed, field="complex" if seed % 2 else "real")
            mpath = tmp_path / f"rt{seed}.mon"
            io.write_mon(mpath, m)
            back = io.read_mon(mpath)
            assert np.array_equal(back.ltilde.blocks, m.ltilde.blocks)
            assert np.array_equal(back.r.blocks, m.r.blocks)
        # pipeline: gen -> project -> verify all exit 0
        mon = tmp_path / "m.mon"
        proj = tmp_path / "p.mon"
        assert cli_main(["gen", "--kind", "monarch", "--n", "16", "--b", "4",
                         "--seed", "3", "--out", str(mon)]) == 0
        assert cli_main(["project", "--in", str(mon), "--b", "4", "--out", str(proj)]) == 0
        assert cli_main(["verify", "--in", str(proj), "--class", "monarch-slices"]) == 0
        # documented exit codes on error fixtures
        assert cli_main(["gen", "--kind", "dft", "--n", "6",
                         "--out", str(tmp_path / "x.dmat")]) == 2
        assert cli_main(["project", "--in", str(tmp_path / "missing.dmat"), "--b", "4",
                         "--out", str(tmp_path / "o.mon")]) == 3
        eye = tmp_path / "eye.dmat"
        io.write_dmat(eye, np.eye(16))
        assert cli_main(["factorize", "--in", str(eye), "--b", "4",
                         "--out-prefix", str(tmp_path / "f")]) == 4
        from monarch.structured import BlockDiagMatrix

        bad = tmp_path / "bad.dmat"
        io.write_dmat(bad, BlockDiagMatrix(rng.uniform(0.5, 1.0, (2, 8, 8))).to_dense())
        assert cli_main(["verify", "--in", str(bad), "--class", "bd", "--b", "4"]) == 1
