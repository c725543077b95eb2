"""Per-layer metrics of the traced run, reported under the same names on every workload.

A layer that a workload does not exercise reports 0. Calls and self times
are per pass of the workload's schedule, so they do not grow with run
length. `core.*.computed_bytes` is computed from (n, b), not measured;
`mult_per_byte` divides the counted multiplies by it, and `gmult_per_s`
divides them by the untraced p50 of the same call.
"""

from __future__ import annotations

import statistics

from .spans import IO_READS, IO_WRITES
from .workloads import APPLY_SIZES

SPAN_CALLS_AND_SELF = [
    "numerics.svd", "numerics.eig", "numerics.lu_invert", "numerics.matmul",
    "indexing.permute_vector", "indexing.permute_rows", "indexing.permute_cols",
    "structured.bd_matvec", "structured.bd_matvec_adjoint", "structured.blockdiag_matmul",
    "structured.db_to_bd",
    "core.monarch_matvec", "core.monarch_matvec_adjoint", "core.product_matvec", "core.monarch_to_dense",
    "butterfly.butterfly_to_monarch", "butterfly.bd_blocks", "butterfly.db_entries",
    "projection.project", "projection.rank1_approx", "projection.slice_singular_ratios",
    "projection.slice_view",
    "factorization.factorize_mm_star", "factorization.to_dense", "factorization.simultaneous_diagonalize",
    "factorization.assumption1_check",
    "gradients.matvec_vjp",
    "parallel.parallel_map",
]
SPAN_SELF_ONLY = [
    "io.read_any", "io.read_dmat", "io.read_mon", "io.write_dmat", "io.write_mon",
    "cli.gen", "cli.matvec", "cli.project", "cli.factorize", "cli.verify",
]
OP_KINDS = ["matvec", "adjoint", "vjp", "product_matvec", "project", "verify", "merge",
            "factorize", "factorize_staged", "cli"]
DENSE_SIZES = [1024, 4096]


def _size(n, b):
    return f"{n}x{b}"


def metric_units() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_CALLS_AND_SELF:
        out += [(f"{name}.calls", "calls/pass", "lower"), (f"{name}.self_ms", "ms/pass", "lower")]
    out += [(f"{name}.self_ms", "ms/pass", "lower") for name in SPAN_SELF_ONLY]
    out += [(f"numerics.multiplies_per_op.{kind}", "mult/op", "lower") for kind in OP_KINDS]
    out += [
        ("indexing.perm_builds_per_matvec", "builds/op", "lower"),
        ("factorization.fast_path_ratio", "ratio", "higher"),
        ("io.bytes_read", "B/pass", "lower"),
        ("io.bytes_written", "B/pass", "lower"),
        ("io.read_mb_per_s", "MB/s", "higher"),
        ("io.write_mb_per_s", "MB/s", "higher"),
        ("io.opens_per_read_any", "opens/call", "lower"),
        ("counting.add_multiplies.calls_per_op", "calls/op", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    out += [(f"baseline.dense_matvec_p50_us.{n}", "us", "lower") for n in DENSE_SIZES]
    for n, b in APPLY_SIZES:
        s = _size(n, b)
        out += [
            (f"core.matvec.multiplies.{s}", "mult", "lower"),
            (f"core.matvec.computed_bytes.{s}", "B", "lower"),
            (f"core.matvec.mult_per_byte.{s}", "mult/B", "higher"),
            (f"core.matvec.gmult_per_s.{s}", "Gmult/s", "higher"),
            (f"core.adjoint.computed_bytes.{s}", "B", "lower"),
            (f"core.adjoint.mult_per_byte.{s}", "mult/B", "higher"),
            (f"core.adjoint.gmult_per_s.{s}", "Gmult/s", "higher"),
        ]
    return out


def computed_bytes(n, b, itemsize=8) -> int:
    """Bytes a matvec or adjoint must touch: both factors' blocks, x, y and one
    intermediate vector written and read back."""
    return itemsize * (n * b + n * n // b + 4 * n)


def compute(tracer, traced, untraced, counted_multiplies, dense_p50_s) -> dict[str, float]:
    """Every per-layer metric; `traced`/`untraced` are the two loops' results."""
    passes = traced.passes
    values: dict[str, float] = {}
    selves = tracer.self_times()
    for name in SPAN_CALLS_AND_SELF + SPAN_SELF_ONLY:
        calls, self_s = selves.get(name, (0, 0.0))
        if name in SPAN_CALLS_AND_SELF:
            values[f"{name}.calls"] = calls / passes
        values[f"{name}.self_ms"] = self_s * 1e3 / passes

    kinds = tracer.op_kinds
    for kind in OP_KINDS:
        ops = [i for i, k in enumerate(kinds) if k == kind]
        values[f"numerics.multiplies_per_op.{kind}"] = (
            sum(tracer.multiplies[i] for i in ops) / len(ops) if ops else 0.0)
    matvecs = [i for i, k in enumerate(kinds) if k == "matvec"]
    values["indexing.perm_builds_per_matvec"] = (
        sum(tracer.perm_builds[i] for i in matvecs) / len(matvecs) if matvecs else 0.0)
    values["factorization.fast_path_ratio"] = tracer.fast_path_ratio()

    read_s = tracer.durations(IO_READS)
    write_s = tracer.durations(IO_WRITES)
    read_any_calls = selves.get("io.read_any", (0, 0.0))[0]
    values["io.bytes_read"] = tracer.bytes_read / passes
    values["io.bytes_written"] = tracer.bytes_written / passes
    values["io.read_mb_per_s"] = tracer.bytes_read / 1e6 / read_s if read_s else 0.0
    values["io.write_mb_per_s"] = tracer.bytes_written / 1e6 / write_s if write_s else 0.0
    values["io.opens_per_read_any"] = tracer.opens_in_read_any / read_any_calls if read_any_calls else 0.0
    values["counting.add_multiplies.calls_per_op"] = sum(tracer.multiply_calls.values()) / len(kinds)
    values["trace.overhead_pct"] = (untraced.ops_per_s / traced.ops_per_s - 1.0) * 100.0

    for n in DENSE_SIZES:
        values[f"baseline.dense_matvec_p50_us.{n}"] = dense_p50_s.get(n, 0.0) * 1e6
    for n, b in APPLY_SIZES:
        s = _size(n, b)
        mults = counted_multiplies.get(f"matvec {s}", 0)
        nbytes = computed_bytes(n, b) if mults else 0
        values[f"core.matvec.multiplies.{s}"] = mults
        for op in ("matvec", "adjoint"):
            values[f"core.{op}.computed_bytes.{s}"] = nbytes
            values[f"core.{op}.mult_per_byte.{s}"] = (
                counted_multiplies.get(f"{op} {s}", 0) / nbytes if nbytes else 0.0)
        for op in ("matvec", "adjoint"):
            times = untraced.durations.get(f"{op} {s}")
            values[f"core.{op}.gmult_per_s.{s}"] = (
                counted_multiplies.get(f"{op} {s}", 0) / statistics.median(times) / 1e9 if times else 0.0)
    return values
