"""Property tests for the batched Jacobi SVD and the projection built on it,
for the batched Gauss-Jordan inversion, for the QR eigensolver on
conjugated diagonal matrices, for the reshape-transpose form
of P against the index-table references, and for MM* factorization of
gauge-transformed factors.

Shapes, fields and degeneracies (zeroed or repeated columns) are drawn by
hypothesis; entries come from a seeded numpy generator so every example is
well scaled. numpy.linalg and the index-level permutation API
(BlockPermutation, permute_rows/permute_cols, permutation_matrix) serve as
the independent oracles.

Also: the adjoint identity of the apply paths, butterfly merges against
butterfly_matvec at every valid block size, and the text formats, whose
output must match a reference per-value writer byte for byte and read
back bitwise.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from monarch import io
from monarch import numerics as nm
from monarch.butterfly import butterfly_matvec, butterfly_to_monarch, random_butterfly
from monarch.core import (
    ASSUMPTION1,
    MonarchMatrix,
    monarch_matvec,
    monarch_matvec_adjoint,
    monarch_to_dense,
    random_mm_star,
    random_monarch,
)
from monarch.counting import count_multiplies
from monarch.factorization import MMStarFactorization, _permuted_blocks, factorize_mm_star
from monarch.indexing import BlockPermutation, permutation_matrix, permute_cols, permute_rows
from monarch.projection import project, slice_view
from monarch.structured import BlockDiagMatrix, DiagBlockMatrix
from oracles import monarch_dense_oracle

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
def conjugated_diagonals(draw):
    """C diag(d) C^-1 with distinct d and a well-conditioned C, real or complex."""
    k = draw(st.integers(1, 24))
    cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = _normal(rng, (k, k), cplx) + k * np.eye(k)
    d = _normal(rng, k, cplx)
    return np.linalg.solve(c.T, (c * d).T).T  # (c * d) @ c^-1


@given(conjugated_diagonals())
def test_eig_residual_and_inverse_basis(a):
    res = nm.eig(a)
    assert np.linalg.norm(a @ res.q - res.q * res.lam) <= 1e-8 * np.linalg.norm(a)
    cond = np.linalg.norm(res.q) * np.linalg.norm(res.q_inv)
    assert np.linalg.norm(res.q_inv @ res.q - np.eye(len(a))) <= 1e-10 * cond


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


@given(blockings(), st.sampled_from(["real", "complex"]), st.integers(0, 2**32 - 1))
def test_assumption1_instances_meet_the_bounds(blocking, field, seed):
    n, b = blocking
    m = random_monarch(n, b, seed=seed, field=field, constraints=ASSUMPTION1)
    p = random_mm_star(n, b, seed=seed, field=field)
    l_stacks = [m.ltilde.blocks, p.factors[0].ltilde.blocks, p.factors[1].ltilde.blocks]
    for r in (m.r.blocks, p.factors[0].r.blocks):
        assert np.min(np.abs(r)) >= 0.1
    for stack in l_stacks:
        assert np.max(np.linalg.cond(stack)) <= 1e4 * (1 + 1e-9)


def _normal(rng, shape, cplx):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if cplx else a


@given(blockings(), st.sampled_from(["real", "complex"]), st.sampled_from([None, 1, 3]),
       st.integers(0, 2**32 - 1))
def test_matvec_and_adjoint_match_table_oracle(blocking, field, cols, seed):
    # cols None applies to a vector, otherwise to an (n, cols) stack
    n, b = blocking
    k = cols or 1
    m = random_monarch(n, b, seed=seed, field=field)
    x = _normal(np.random.default_rng(seed), n if cols is None else (n, cols), field == "complex")
    dense = monarch_dense_oracle(m)
    with count_multiplies() as tally:
        y = monarch_matvec(m, x)
    assert tally.multiplies == k * (n * b + n * n // b)
    with count_multiplies() as tally:
        z = monarch_matvec_adjoint(m, x)
    assert tally.multiplies == k * (n * b + n * n // b)
    assert y.shape == z.shape == x.shape
    scale = np.linalg.norm(dense) * np.linalg.norm(x)
    assert np.linalg.norm(y - dense @ x) <= 1e-13 * scale
    assert np.linalg.norm(z - dense.conj().T @ x) <= 1e-13 * scale
    if cols == 1:
        # a one-column stack runs the vector's products, bit for bit
        assert np.array_equal(y[:, 0], monarch_matvec(m, x[:, 0]))
        assert np.array_equal(z[:, 0], monarch_matvec_adjoint(m, x[:, 0]))


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
        diag_residual=0.0,
        reconstruction_error=0.0,
    )
    grid = np.block([[l1[i] @ np.diag(entries[i, j]) @ l2[j] for j in range(b)] for i in range(b)])
    p = permutation_matrix(BlockPermutation(b, n))
    want = p.T @ grid @ p
    assert np.linalg.norm(fact.to_dense() - want) <= 1e-13 * np.linalg.norm(want)


@st.composite
def gauged_mm_star(draw):
    """Factors of an MM*(b, n) input, and the same factors gauge-transformed.

    A_i -> A_i P S_i^-1, D_ij -> S_i P.T D_ij P T_j, C_j -> T_j^-1 P.T C_j
    for one permutation P and diagonal rescalings S_i, T_j leaves every
    block A_i D_ij C_j, hence the dense matrix, unchanged. With repeat,
    two diagonal positions of every D_ij coincide: a degenerate joint
    eigenspace of the commuting family.
    """
    b = draw(st.integers(2, 4))
    q = draw(st.integers(2, 6))
    cplx = draw(st.booleans())
    repeat = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def conditioned():
        # near-orthogonal blocks keep assumption 1 far from its limit
        return np.linalg.qr(_normal(rng, (b, q, q), cplx))[0] + 0.05 * _normal(rng, (b, q, q), cplx)

    a, c = conditioned(), conditioned()
    mag = rng.uniform(0.5, 1.5, (b, b, q))
    d = mag * (np.exp(2j * np.pi * rng.uniform(size=mag.shape)) if cplx else rng.choice([-1.0, 1.0], mag.shape))
    if repeat:
        d[:, :, 1] = d[:, :, 0]
    perm = rng.permutation(q)
    s, t = rng.uniform(0.5, 2.0, (2, b, q))
    gauged = (a[:, :, perm] / s[:, None, :], s[:, None, :] * d[:, :, perm] * t[None], c[:, perm] / t[:, :, None])
    return b * q, b, (a, d, c), gauged


def _mm_star_dense(n, b, factors):
    l1, entries, l2 = factors
    q = n // b
    return MMStarFactorization(
        l1=BlockDiagMatrix(l1),
        l2=BlockDiagMatrix(l2),
        middle=DiagBlockMatrix(b_row=q, b_col=q, entries=entries),
        diag_residual=0.0,
        reconstruction_error=0.0,
    ).to_dense()


@given(gauged_mm_star())
def test_factorize_reconstructs_gauge_transformed_factors(case):
    n, b, factors, gauged = case
    dense = _mm_star_dense(n, b, gauged)
    assert np.linalg.norm(dense - _mm_star_dense(n, b, factors)) <= 1e-13 * np.linalg.norm(dense)
    result = factorize_mm_star(dense, b)
    assert result.reconstruction_error <= 1e-10
    assert np.linalg.norm(result.to_dense() - dense) <= 1e-10 * np.linalg.norm(dense)


@given(blockings(), st.sampled_from(["real", "complex"]), st.integers(0, 2**32 - 1))
def test_adjoint_identity(blocking, field, seed):
    # <M x, y> = <x, M* y>, with <u, v> = sum u conj(v)
    n, b = blocking
    m = random_monarch(n, b, seed=seed, field=field)
    rng = np.random.default_rng(seed)
    x, y = _normal(rng, n, field == "complex"), _normal(rng, n, field == "complex")
    lhs = np.vdot(y, monarch_matvec(m, x))
    rhs = np.vdot(monarch_matvec_adjoint(m, y), x)
    scale = np.linalg.norm(monarch_to_dense(m)) * np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= 1e-13 * scale


@given(st.sampled_from([4, 8, 16, 32, 64]), st.integers(0, 2**32 - 1))
def test_butterfly_merge_matches_butterfly_matvec(n, seed):
    # two multiplies per entry and stage: 2*n*log2(n) per column
    bm = random_butterfly(n, seed=seed)
    rng = np.random.default_rng(seed)
    probes = [rng.standard_normal(n) for _ in range(3)]
    s = n.bit_length() - 1
    with count_multiplies() as tally:
        butterfly_matvec(bm, np.stack(probes, axis=1))
    assert tally.multiplies == 2 * n * s * 3
    norm = np.linalg.norm(bm.to_dense())
    b = 2
    while b < n:
        with count_multiplies() as tally:
            m = butterfly_to_monarch(bm, b)
        log_b = b.bit_length() - 1
        assert tally.multiplies == 2 * n * (b * log_b + (n // b) * (s - log_b)), (n, b)
        for x in probes:
            err = np.linalg.norm(monarch_matvec(m, x) - butterfly_matvec(bm, x))
            assert err <= 1e-12 * norm * np.linalg.norm(x), (n, b)
        b *= 2


# -- text formats -------------------------------------------------------------

# every finite float64: +-0.0, subnormals and +-1.7976931348623157e308 included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]


def _reference_text(header, blocks):
    """Per-value f"{v:.17g}", 8 values a line, each block from a new line."""
    lines = [header]
    for block in blocks:
        flat = np.asarray(block).ravel()
        if np.iscomplexobj(flat):
            flat = np.column_stack([flat.real, flat.imag]).ravel()
        values = [f"{v:.17g}" for v in flat.tolist()]
        lines += [" ".join(values[i : i + 8]) for i in range(0, len(values), 8)]
    return "\n".join(lines) + "\n"


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def finite_arrays(draw, shape):
    """Finite float64 or complex128 entries, signed zeros and extremes included."""
    elements = FINITE | st.sampled_from(EDGE_VALUES)
    re = draw(arrays(np.float64, shape, elements=elements))
    if not draw(st.booleans()):
        return re
    out = np.empty(shape, dtype=np.complex128)
    # assigned, not re + 1j*im, so signed zeros survive
    out.real, out.imag = re, draw(arrays(np.float64, shape, elements=elements))
    return out


@st.composite
def dense_files(draw):
    shape = (draw(st.integers(1, 11)), draw(st.integers(1, 11)))
    return draw(finite_arrays(shape))


@st.composite
def monarch_files(draw):
    # b, q in 2..5: blocks of 4 to 25 values, mostly not a multiple of 8;
    # each stack draws its own field, so real beside complex occurs
    b, q = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    return MonarchMatrix(
        ltilde=BlockDiagMatrix(draw(finite_arrays((b, q, q)))),
        r=BlockDiagMatrix(draw(finite_arrays((q, b, b)))),
    )


@given(dense_files())
def test_write_dmat_golden_bytes_and_bitwise_round_trip(a):
    kind = "complex" if np.iscomplexobj(a) else "real"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.dmat"
        io.write_dmat(path, a)
        assert path.read_bytes() == _reference_text(f"dmat {a.shape[0]} {a.shape[1]} {kind}", [a]).encode()
        back = io.read_dmat(path)
    assert back.dtype == a.dtype and back.shape == a.shape
    assert np.array_equal(_bits(back), _bits(a))


@given(monarch_files())
def test_write_mon_golden_bytes_and_bitwise_round_trip(m):
    # one complex stack makes the file complex; the real one gains +0.0 imaginary parts
    cplx = np.iscomplexobj(m.ltilde.blocks) or np.iscomplexobj(m.r.blocks)
    dtype = np.complex128 if cplx else np.float64
    ltilde, r = m.ltilde.blocks.astype(dtype), m.r.blocks.astype(dtype)
    header = f"monarch {m.n} {m.b} {'complex' if cplx else 'real'}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mon"
        io.write_mon(path, m)
        assert path.read_bytes() == _reference_text(header, [*ltilde, *r]).encode()
        back = io.read_mon(path)
        assert io.read_any(path)[0] == "monarch"
    assert np.array_equal(_bits(back.ltilde.blocks), _bits(ltilde))
    assert np.array_equal(_bits(back.r.blocks), _bits(r))


def test_reader_accepts_blank_lines_and_any_whitespace(tmp_path):
    # leading blank lines, a blank line after the header, tabs, runs of
    # spaces, CRLF endings and values split across lines at any point
    path = tmp_path / "w.dmat"
    path.write_bytes(b"\n  \t\n  dmat 2 3   complex \r\n\r\n1 -0\t\t2.5\n\n  -3e-310 4\n5   6\n\n"
                     b"7 8\t9e300 \n-0 0\n\n")
    want = np.empty((2, 3), dtype=np.complex128)
    want.real = [[1.0, 2.5, 4.0], [6.0, 8.0, -0.0]]
    want.imag = [[-0.0, -3e-310, 5.0], [7.0, 9e300, 0.0]]
    assert np.array_equal(_bits(io.read_dmat(path)), _bits(want))
    kind, back = io.read_any(path)
    assert kind == "dmat" and np.array_equal(_bits(back), _bits(want))
