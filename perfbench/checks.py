"""Independent output checks, run outside every timed interval.

Each check returns None when the output is right and a one-line reason when
it is not. References are plain numpy (reshape plus batched matmul, LAPACK
SVD), never the library's own kernels, so a defect shared by the library's
paths cannot hide itself.
"""

from __future__ import annotations

import numpy as np

from .inputs import monarch_dense

#: relative tolerance for outputs whose reference differs only in rounding order
RTOL = 1e-10

#: tolerance of the MM* reconstruction on the benchmark's own inputs, whose
#: L blocks have condition numbers near 1 (seen: at most 3e-13)
RECON_RTOL = 1e-8

#: tolerance of the CLI's reconstruction of a `gen mmstar` file. The library's
#: generator admits L blocks up to condition 1e4 and middle entries down to 0.1;
#: at n=64, b=8 about one seed in 200 then reconstructs to 1e-8..1e-7 (seen: at
#: most 1.4e-7 in 2000 seeds), near cond(L1) cond(L2) eps = 1e-8. A wrong factor
#: gives errors of order one.
CLI_RECON_RTOL = 1e-6


def rel_err(a, ref) -> float:
    a, ref = np.asarray(a), np.asarray(ref)
    if a.shape != ref.shape:
        return np.inf
    scale = float(np.linalg.norm(ref))
    return float(np.linalg.norm(a - ref)) / (scale if scale > 0 else 1.0)


def _expect_close(what, a, ref, rtol=RTOL):
    err = rel_err(a, ref)
    return None if err <= rtol else f"{what}: relative error {err:.3e} > {rtol:.0e}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# apply: M = P.T Ltilde P R with the reshape-transpose permutation


def apply_ref(ltilde, r, x):
    q, b, _ = r.shape
    y = np.matmul(r, x.reshape(q, b, 1))[..., 0]  # R x, indexed [k, j]
    z = np.matmul(ltilde, y.T[..., None])[..., 0]  # Ltilde P R x, indexed [j, l]
    return z.T.reshape(-1)


def adjoint_ref(ltilde, r, x):
    q, b, _ = r.shape
    u = x.reshape(q, b).T  # P x, indexed [j, l]
    v = np.matmul(np.conj(np.swapaxes(ltilde, 1, 2)), u[..., None])[..., 0]
    return np.matmul(np.conj(np.swapaxes(r, 1, 2)), v.T[..., None])[..., 0].reshape(-1)


def vjp_ref(ltilde, r, x, upstream):
    """(d_ltilde, d_r, d_x) of f = Re<upstream, M x>."""
    q, b, _ = r.shape
    xq = x.reshape(q, b)
    w = np.matmul(r, xq[..., None])[..., 0].T  # P R x, [j, k]
    u = upstream.reshape(q, b).T  # P upstream, [j, l]
    d_ltilde = u[:, :, None] * np.conj(w)[:, None, :]
    s = np.matmul(np.conj(np.swapaxes(ltilde, 1, 2)), u[..., None])[..., 0].T  # [k, j]
    d_r = s[:, :, None] * np.conj(xq)[:, None, :]
    return d_ltilde, d_r, adjoint_ref(ltilde, r, upstream)


def check_vector(what, out, ref):
    return _expect_close(what, out, ref)


def check_vjp(tangent, ref):
    d_l, d_r, d_x = ref
    return _first(
        _expect_close("vjp d_ltilde", tangent.d_ltilde, d_l),
        _expect_close("vjp d_r", tangent.d_r, d_r),
        _expect_close("vjp d_x", tangent.d_x, d_x),
    )


def check_multiplies(what, counted, n, b, factor=1):
    expected = factor * (n * b + n * n // b)
    if counted != expected:
        return f"{what}: counted {counted} multiplies, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# convert


def _slices(a, b):
    """(b, n/b, n/b, b) view with [j, k, l, i] = a[l*b + j, k*b + i]."""
    q = a.shape[0] // b
    return np.asarray(a).reshape(q, b, q, b).transpose(1, 2, 0, 3)


def slice_singular_values(a, b):
    """LAPACK singular values of every (j, k) slice, shape (b, n/b, min)."""
    return np.linalg.svd(_slices(a, b), compute_uv=False)


def check_projected(a, b, ltilde, r, residual, per_slice=None):
    """Every slice must be the LAPACK rank-1 truncation, and the residual its tail (Eckart-Young)."""
    u, s, vh = np.linalg.svd(_slices(a, b), full_matrices=False)
    best = s[..., :1, None] * u[..., :, :1] * vh[..., :1, :]
    tail = np.sqrt(np.sum(s[..., 1:] ** 2, axis=-1))
    optimum = float(np.sqrt(np.sum(tail**2)))
    scale = max(float(np.linalg.norm(a)), 1e-300)
    err = float(np.linalg.norm(_slices(monarch_dense(ltilde, r), b) - best)) / scale
    if err > RTOL:
        return f"project: slices differ from their rank-1 truncations by {err:.3e} (relative)"
    if abs(residual - optimum) > RTOL * scale:
        return f"project: residual {residual!r} != SVD tail {optimum!r}"
    if per_slice is not None and np.max(np.abs(per_slice - tail)) > RTOL * scale:
        return "project: per-slice residuals differ from the SVD tails"
    return None


def check_projection(a, b, result):
    m, report = result
    return check_projected(a, b, m.ltilde.blocks, m.r.blocks, report.residual, report.per_slice_residuals)


def check_ratios(a, b, ratios):
    s = slice_singular_values(a, b)
    ref = np.where(s[..., 0] > 0, s[..., 1] / np.where(s[..., 0] > 0, s[..., 0], 1.0), 0.0)
    if np.shape(ratios) != ref.shape:
        return f"slice_singular_ratios: shape {np.shape(ratios)} != {ref.shape}"
    worst = float(np.max(np.abs(np.asarray(ratios) - ref)))
    return None if worst <= 1e-9 else f"slice_singular_ratios: off by {worst:.3e}"


def check_merge(merged, probes, butterfly_outputs):
    """Merged Monarch form against the butterfly's own application on probe vectors."""
    for v, ref in zip(probes, butterfly_outputs):
        reason = _expect_close("butterfly_to_monarch", apply_ref(merged.ltilde.blocks, merged.r.blocks, v), ref)
        if reason:
            return reason
    return None


# ---------------------------------------------------------------------------
# factorize


def mm_star_reconstruction(l1, entries, l2):
    """Dense P.T (blockwise A_i D_ij C_j) P from the recovered factors."""
    b, q, _ = l1.shape
    mt = np.einsum("ilk,ijk,jkm->iljm", l1, entries, l2)  # Mt[i*q + l, j*q + m]
    return mt.transpose(1, 0, 3, 2).reshape(b * q, b * q)


def check_factorization(m, result):
    recon = mm_star_reconstruction(result.l1.blocks, result.middle.entries, result.l2.blocks)
    return _expect_close("factorize_mm_star reconstruction", recon, m, RECON_RTOL)


# ---------------------------------------------------------------------------
# cli files


def read_matrix_file(path):
    """(header tokens, values) of a dmat or monarch text file, parsed with numpy."""
    with open(path) as fh:
        header = fh.readline().split()
        values = np.array(fh.read().split(), dtype=np.float64)
    if len(header) == 4 and header[3] == "complex":
        values = values[0::2] + 1j * values[1::2]
    return header, values


def read_dmat_file(path):
    header, values = read_matrix_file(path)
    rows, cols = int(header[1]), int(header[2])
    if header[0] != "dmat" or values.size != rows * cols:
        raise ValueError(f"{path}: not a {rows}x{cols} dmat")
    return values.reshape(rows, cols)


def read_mon_file(path):
    header, values = read_matrix_file(path)
    n, b = int(header[1]), int(header[2])
    q = n // b
    if header[0] != "monarch" or values.size != b * q * q + q * b * b:
        raise ValueError(f"{path}: not an n={n}, b={b} monarch file")
    return values[: b * q * q].reshape(b, q, q), values[b * q * q :].reshape(q, b, b)


def cli_reconstruction_error(m, b, l1, r, l2) -> float:
    """Relative error of (P.T L1 P) R (P.T L2 P) built from the dense factor files."""
    n = m.shape[0]
    i = np.arange(n)
    sigma = (i % b) * (n // b) + i // b
    return rel_err(l1[np.ix_(sigma, sigma)] @ r @ l2[np.ix_(sigma, sigma)], m)


def check_cli_factors(m, b, l1, r, l2, reported):
    """The three dense factor files against the input and the CLI's own report.

    Each file must be block diagonal with b blocks of n/b, (P.T L1 P) R (P.T L2 P)
    must give back m, and `reported` (the report's reconstruction_relative_error)
    must be the error of the files as written.
    """
    n = m.shape[0]
    q = n // b
    off_blocks = np.arange(n)[:, None] // q != np.arange(n)[None, :] // q
    for name, f in (("l1", l1), ("r", r), ("l2", l2)):
        if f.shape != m.shape or np.any(f[off_blocks]):
            return f"cli factorize: {name} file is not block diagonal with {b} blocks of {q}"
    err = cli_reconstruction_error(m, b, l1, r, l2)
    if err > CLI_RECON_RTOL:
        return f"cli factorize reconstruction: relative error {err:.3e} > {CLI_RECON_RTOL:.0e}"
    if abs(err - reported) > 0.01 * err + 1e-14:
        return f"cli factorize: report says error {reported!r}, the files give {err!r}"
    return None
