"""Command-line interface: gen, project, factorize, matvec, bench, verify.

Exit codes: 0 success, 1 predicate false, 2 usage/validation error
(including a non-finite result, which the file formats do not store),
3 unreadable or malformed input file, 4 algorithmic assumption failure
(singular permuted block / no common eigenbasis). All numeric output is
printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import io
from .butterfly import dft_butterfly, hadamard_butterfly, random_butterfly
from .core import (
    monarch_flop_count,
    monarch_matvec,
    monarch_to_dense,
    product_to_dense,
    random_mm_star,
    random_monarch,
    resolve_block_size,
)
from .errors import (
    BadBlocking,
    BadSize,
    DimensionMismatch,
    MonarchError,
    ParseError,
    SimDiagFailed,
    SingularBlock,
)
from .factorization import assumption1_check, factorize_mm_star
from .projection import project, slice_singular_ratios
from .structured import bd_off_support, db_off_support

EXIT_OK = 0
EXIT_PREDICATE_FALSE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_ASSUMPTION = 4

GAUGE_NOTE = (
    "note: factors are unique only up to permutation and diagonal rescaling;"
    " compare dense reconstructions, not factor files."
)


def fmt(x: float) -> str:
    return io.format_value(x)


def _read_dense(path):
    kind, payload = io.read_any(path)
    if kind == "monarch":
        return monarch_to_dense(payload)
    return payload


def cmd_gen(args) -> int:
    n, b, seed = args.n, args.b, args.seed
    kind = args.kind
    if kind == "monarch":
        io.write_mon(args.out, random_monarch(n, b, seed=seed, field=args.field))
    elif kind == "mmstar":
        product = random_mm_star(n, b, seed=seed, field=args.field)
        io.write_dmat(args.out, product_to_dense(product))
    elif kind == "butterfly":
        io.write_dmat(args.out, random_butterfly(n, seed=seed).to_dense())
    elif kind == "dft":
        bm, bitrev = dft_butterfly(n)
        io.write_dmat(args.out, bm.to_dense()[:, bitrev.table])
    elif kind == "hadamard":
        io.write_dmat(args.out, hadamard_butterfly(n).to_dense())
    elif kind == "dense-random":
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((n, n))
        if args.field == "complex":
            dense = dense + 1j * rng.standard_normal((n, n))
        io.write_dmat(args.out, dense)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_project(args) -> int:
    dense = _read_dense(args.infile)
    m, report = project(dense, args.b)
    io.write_mon(args.out, m)
    lines = [
        f"input_norm {fmt(report.input_norm)}",
        f"residual {fmt(report.residual)}",
        f"relative_residual {fmt(report.relative_residual)}",
        f"per_slice_max {fmt(float(report.per_slice_residuals.max()))}",
        GAUGE_NOTE,
    ]
    text = "\n".join(lines)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_factorize(args) -> int:
    dense = _read_dense(args.infile)
    try:
        result = factorize_mm_star(dense, args.b)
    except (SingularBlock, SimDiagFailed) as exc:
        print(f"factorization failed: {exc}", file=sys.stderr)
        report = assumption1_check(dense, args.b)
        print(
            f"block condition estimates: best {fmt(report.best_condition)}"
            f" worst {fmt(report.worst_condition)}"
            f" threshold {fmt(report.threshold)} pass {report.passed}",
            file=sys.stderr,
        )
        return EXIT_ASSUMPTION
    prefix = args.out_prefix
    io.write_dmat(f"{prefix}.l1.dmat", result.l1.to_dense())
    io.write_dmat(f"{prefix}.r.dmat", result.r_block_diagonal().to_dense())
    io.write_dmat(f"{prefix}.l2.dmat", result.l2.to_dense())
    lines = [
        f"reconstruction_relative_error {fmt(result.reconstruction_error)}",
        f"middle_offdiagonal_ratio {fmt(result.diag_residual)}",
        GAUGE_NOTE,
    ]
    text = "\n".join(lines)
    with open(f"{prefix}.report.txt", "w") as fh:
        fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_matvec(args) -> int:
    kind, payload = io.read_any(args.infile)
    x = io.read_dmat(args.x)
    if kind == "monarch":
        out = monarch_matvec(payload, x)
    else:
        if x.shape[0] != payload.shape[1]:
            raise DimensionMismatch(f"x has {x.shape[0]} rows != cols={payload.shape[1]}")
        out = payload @ x
    io.write_dmat(args.out, out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _bench_block_size(policy: str, n: int) -> int:
    if policy == "sqrt":
        return resolve_block_size(n)
    if policy.startswith("fixed:"):
        return resolve_block_size(n, int(policy.split(":", 1)[1]))
    raise BadBlocking(f"unknown --b-policy {policy!r}")


def cmd_bench(args) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    if not sizes or any(s < 4 for s in sizes):
        raise BadSize(f"invalid sizes {args.sizes!r}")
    reps = max(args.reps, 1)
    print("n b dense_ms monarch_ms speedup dense_flops monarch_flops")
    for n in sizes:
        b = _bench_block_size(args.b_policy, n)
        m = random_monarch(n, b, seed=args.seed)
        dense = np.random.default_rng(args.seed).standard_normal((n, n))
        x = np.random.default_rng(args.seed + 1).standard_normal(n)
        dense_times, monarch_times = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            dense @ x
            dense_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            monarch_matvec(m, x)
            monarch_times.append(time.perf_counter() - t0)
        dense_ms = float(np.median(dense_times)) * 1e3
        monarch_ms = float(np.median(monarch_times)) * 1e3
        speedup = dense_ms / monarch_ms if monarch_ms > 0 else float("inf")
        print(f"{n} {b} {fmt(dense_ms)} {fmt(monarch_ms)} {fmt(speedup)} "
              f"{n * n} {monarch_flop_count(m)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    kind, payload = io.read_any(args.infile)
    dense = monarch_to_dense(payload) if kind == "monarch" else payload
    if args.cls in ("bd", "db"):
        b_rows = args.b_rows or args.b
        b_cols = args.b_cols or args.b
        if not b_rows or not b_cols:
            raise BadBlocking("verify bd/db needs --b or --b-rows/--b-cols")
        off_support = bd_off_support if args.cls == "bd" else db_off_support
        violations = np.argwhere(off_support(dense.shape, b_rows, b_cols) & (dense != 0))
        if not len(violations):
            print(f"{args.cls} membership: pass")
            return EXIT_OK
        i, j = violations[0]  # argwhere is row-major: the first violating entry
        print(f"{args.cls} membership: fail at entry ({i}, {j})")
        return EXIT_PREDICATE_FALSE
    # monarch-slices: every slice of the 4-D reshape must be rank 1
    b = payload.b if kind == "monarch" else args.b
    if not b:
        raise BadBlocking("verify monarch-slices needs --b for dense input")
    ratios = slice_singular_ratios(dense, b)
    worst = float(ratios.max())
    if worst <= 1e-12:
        print(f"monarch-slices: pass (max sigma2/sigma1 {fmt(worst)})")
        return EXIT_OK
    j, k = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    print(f"monarch-slices: fail at slice (j={j}, k={k}), sigma2/sigma1 {fmt(worst)}")
    return EXIT_PREDICATE_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monarch",
        description="Structured-matrix toolkit: generate, apply, project, factorize, verify, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a matrix file")
    p.add_argument("--kind", required=True,
                   choices=["monarch", "mmstar", "butterfly", "dft", "hadamard", "dense-random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, default=None, help="block size (default sqrt(n))")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("project", help="closest Monarch matrix in Frobenius norm")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("factorize", help="recover MM* factors L1, R, L2")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("matvec", help="apply a stored matrix to the columns of an n x k matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_matvec)

    p = sub.add_parser("bench", help="dense vs monarch matvec timings and flop counts")
    p.add_argument("--sizes", required=True, help="comma-separated list of n")
    p.add_argument("--b-policy", default="sqrt", help="sqrt or fixed:<b>")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="membership / slice-rank predicates")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--class", dest="cls", required=True, choices=["bd", "db", "monarch-slices"])
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--b-rows", type=int, default=None)
    p.add_argument("--b-cols", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SingularBlock, SimDiagFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (MonarchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
