"""Property tests for the batched Jacobi SVD and the projection built on it,
for the batched Gauss-Jordan inversion, and for the reshape-transpose form
of P against the index-table references.

Shapes, fields and degeneracies (zeroed or repeated columns) are drawn by
hypothesis; entries come from a seeded numpy generator so every example is
well scaled. numpy.linalg and the index-level permutation API
(BlockPermutation, permute_rows/permute_cols, permutation_matrix) serve as
the independent oracles.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from monarch import numerics as nm
from monarch.core import (
    monarch_dense_oracle,
    monarch_matvec,
    monarch_matvec_adjoint,
    monarch_to_dense,
    random_monarch,
)
from monarch.counting import count_multiplies
from monarch.factorization import MMStarFactorization, _permuted_blocks
from monarch.indexing import BlockPermutation, permutation_matrix, permute_cols, permute_rows
from monarch.projection import project, slice_view
from monarch.structured import BlockDiagMatrix, DiagBlockMatrix

# (n, b) pairs with b | n and 1 < b < n, including slices wider than tall
BLOCKINGS = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (12, 3), (12, 4), (16, 4), (16, 8), (18, 3), (32, 8)]


@st.composite
def stacks(draw):
    batch = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 10))
    cols = draw(st.integers(1, 10))
    cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((batch, rows, cols))
    if cplx:
        a = a + 1j * rng.standard_normal((batch, rows, cols))
    degeneracy = draw(st.sampled_from(["none", "zero", "repeat"]))
    if cols > 1 and degeneracy == "zero":
        a[:, :, rng.integers(cols)] = 0.0
    elif cols > 1 and degeneracy == "repeat":
        src, dst = rng.choice(cols, size=2, replace=False)
        a[:, :, dst] = a[:, :, src]
    return a


def _norms(a):
    return np.linalg.norm(a, axis=(1, 2))


@given(stacks())
def test_singular_values_match_lapack(a):
    res = nm.svd(a)
    want = np.linalg.svd(a, compute_uv=False)
    err = np.max(np.abs(res.s - want), axis=1)
    assert np.all(err <= 1e-12 * _norms(a))


@given(stacks())
def test_factors_orthonormal_and_reconstruct(a):
    res = nm.svd(a)
    k = min(a.shape[1:])
    eye = np.eye(k)
    uh = res.u.conj().transpose(0, 2, 1)
    vh = res.v.conj().transpose(0, 2, 1)
    assert np.all(np.linalg.norm(uh @ res.u - eye, axis=(1, 2)) <= 1e-12)
    assert np.all(np.linalg.norm(vh @ res.v - eye, axis=(1, 2)) <= 1e-12)
    assert np.all(np.diff(res.s, axis=1) <= 0)
    recon = (res.u * res.s[:, None, :]) @ vh
    assert np.all(np.linalg.norm(recon - a, axis=(1, 2)) <= 1e-12 * _norms(a))


@given(stacks())
def test_stack_agrees_with_single_matrices(a):
    res = nm.svd(a)
    for i in range(a.shape[0]):
        one = nm.svd(a[i])
        scale = 1e-13 * np.linalg.norm(a[i])
        assert np.max(np.abs(res.s[i] - one.s)) <= scale
        stacked = (res.u[i] * res.s[i]) @ res.v[i].conj().T
        single = (one.u * one.s) @ one.v.conj().T
        assert np.linalg.norm(stacked - single) <= 10 * scale


@st.composite
def invertible_stacks(draw):
    batch = draw(st.integers(1, 6))
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((batch, k, k))
    if draw(st.booleans()):
        a = a + 1j * rng.standard_normal((batch, k, k))
    return a


@given(invertible_stacks())
def test_lu_invert_stack_matches_single_matrices(a):
    inv = nm.lu_invert(a)
    assert inv.shape == a.shape
    eye = np.eye(a.shape[1])
    for i in range(a.shape[0]):
        single = nm.lu_invert(a[i])
        cond = np.linalg.cond(a[i])
        assert np.linalg.norm(inv[i] - single) <= 1e-13 * cond * np.linalg.norm(single)
        assert np.linalg.norm(a[i] @ inv[i] - eye) <= 1e-13 * cond * a.shape[1]


@st.composite
def square_inputs(draw):
    n, b = draw(st.sampled_from(BLOCKINGS))
    cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    if cplx:
        a = a + 1j * rng.standard_normal((n, n))
    if draw(st.booleans()):
        a[:, : b] = 0.0  # zero slices
    return a, b


@given(square_inputs())
def test_project_residual_is_lapack_slice_tail(case):
    a, b = case
    _, report = project(a, b)
    q = a.shape[0] // b
    tail = 0.0
    for j in range(b):
        for k in range(q):
            s = np.linalg.svd(slice_view(a, b, j, k), compute_uv=False)
            tail += float(np.sum(s[1:] ** 2))
    assert abs(report.residual**2 - tail) <= 1e-10 * np.linalg.norm(a) ** 2


@given(st.sampled_from(BLOCKINGS), st.sampled_from(["real", "complex"]), st.integers(0, 10**6))
def test_project_idempotent_on_monarch(blocking, field, seed):
    n, b = blocking
    dense = monarch_to_dense(random_monarch(n, b, seed=seed, field=field))
    first, report = project(dense, b)
    projected = monarch_to_dense(first)
    assert report.residual <= 1e-11 * np.linalg.norm(dense)
    assert np.linalg.norm(projected - dense) <= 1e-11 * np.linalg.norm(dense)
    again, _ = project(projected, b)
    assert np.linalg.norm(monarch_to_dense(again) - projected) <= 1e-11 * np.linalg.norm(dense)


@st.composite
def blockings(draw):
    """(n, b) with b in {2, ..., n/2}, drawn as b and q = n/b >= 2."""
    b = draw(st.integers(2, 8))
    q = draw(st.integers(2, 8))
    return b * q, b


def _normal(rng, shape, cplx):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if cplx else a


@given(blockings(), st.sampled_from(["real", "complex"]), st.integers(0, 2**32 - 1))
def test_matvec_and_adjoint_match_table_oracle(blocking, field, seed):
    n, b = blocking
    m = random_monarch(n, b, seed=seed, field=field)
    x = _normal(np.random.default_rng(seed), n, field == "complex")
    dense = monarch_dense_oracle(m)
    with count_multiplies() as tally:
        y = monarch_matvec(m, x)
    assert tally.multiplies == n * b + n * n // b
    with count_multiplies() as tally:
        z = monarch_matvec_adjoint(m, x)
    assert tally.multiplies == n * b + n * n // b
    scale = np.linalg.norm(dense) * np.linalg.norm(x)
    assert np.linalg.norm(y - dense @ x) <= 1e-13 * scale
    assert np.linalg.norm(z - dense.conj().T @ x) <= 1e-13 * scale


@given(blockings(), st.booleans(), st.integers(0, 2**32 - 1))
def test_permuted_blocks_match_index_tables(blocking, cplx, seed):
    n, b = blocking
    q = n // b
    m = _normal(np.random.default_rng(seed), (n, n), cplx)
    perm = BlockPermutation(b, n)
    mt = permute_cols(perm, permute_rows(perm, m))
    want = mt.reshape(b, q, b, q).transpose(0, 2, 1, 3)
    assert np.array_equal(_permuted_blocks(m, b), want)


@given(blockings(), st.integers(0, 2**32 - 1))
def test_factorization_to_dense_matches_permutation_matrices(blocking, seed):
    n, b = blocking
    q = n // b
    rng = np.random.default_rng(seed)
    l1, l2 = _normal(rng, (b, q, q), True), _normal(rng, (b, q, q), True)
    entries = _normal(rng, (b, b, q), True)
    fact = MMStarFactorization(
        l1=BlockDiagMatrix(l1),
        l2=BlockDiagMatrix(l2),
        middle=DiagBlockMatrix(b_row=q, b_col=q, entries=entries),
        b=b,
        n=n,
        diag_residual=0.0,
        reconstruction_error=0.0,
    )
    grid = np.block([[l1[i] @ np.diag(entries[i, j]) @ l2[j] for j in range(b)] for i in range(b)])
    p = permutation_matrix(BlockPermutation(b, n))
    want = p.T @ grid @ p
    assert np.linalg.norm(fact.to_dense() - want) <= 1e-13 * np.linalg.norm(want)
