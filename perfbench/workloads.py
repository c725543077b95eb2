"""The two workloads: seeded inputs, one pass of public calls, and their checks.

Each workload is a closed loop with one caller in one process. `library`
shuffles the calls of its three parts (apply, convert, factorize) into each
pass with the seed; `cli` keeps its script order because its commands read
each other's files. Calls look the library function up at call time
(`core.monarch_matvec`, not a bound local), so the traced run's wrappers are
the ones called.

Sizes keep every call under about half a second. On a shared 2-core Xeon VM
the speed of interpreted code wanders by 15-20% over tens of seconds, so a
latency median is only steady when its calls are spread over a long run:
the parts share one workload, and so one long run, instead of each taking a
short run of its own. There a single `project` at (256, 16) takes 3-5 s, and
a run would see few.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from monarch import butterfly, cli, core, factorization, gradients, projection, structured

from . import checks, inputs
from .loop import PASS

APPLY_SIZES = [(1024, 32), (4096, 64), (16384, 128), (4096, 8), (4096, 512)]
# the apply calls run this often per library pass: a few ms each, the repeats give
# their latencies more samples for about a sixth of the pass time
APPLY_REPEATS = 4


@dataclass
class Op:
    kind: str  # op family, e.g. "matvec"; multiplies are reported per kind
    label: str  # one configuration, e.g. "matvec 4096x64"; latencies are per label
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Schedule:
    ops: list[Op]
    # metric name as the record prints it -> (op label, percentile, scale to its unit, unit)
    named: dict[str, tuple[str, int, float, str]]
    input_hash: str
    # shuffle the order of every pass with the seed
    shuffle: bool = True
    # end-to-end role -> op label, or PASS for the time of one whole pass
    roles: dict[str, str] = field(default_factory=dict)
    # (label, call, n, b, factor): calls whose multiply count is checked once per run
    counted: list[tuple] = field(default_factory=list)
    # figures a check saw that the record should show, e.g. an accuracy
    observed: dict[str, float] = field(default_factory=dict)


def monarch_matrix(ltilde, r):
    return core.MonarchMatrix(ltilde=structured.BlockDiagMatrix(ltilde), r=structured.BlockDiagMatrix(r))


class SameOrChecked:
    """Accept an output bitwise equal to the last verified one, else run the full check.

    The inputs of a label never change, so repeated calls give the same bits;
    only a changed output pays for the reference comparison.
    """

    def __init__(self, full_check, arrays=lambda out: (out,)):
        self.full_check = full_check
        self.arrays = arrays
        self.verified = None

    def __call__(self, out):
        arrays = self.arrays(out)
        if self.verified is not None and all(np.array_equal(a, v) for a, v in zip(arrays, self.verified)):
            return None
        reason = self.full_check(out)
        if reason is None:
            self.verified = arrays
        return reason


def _tangent_arrays(t):
    return (t.d_ltilde, t.d_r, t.d_x)


def _lazy(fn):
    """Compute a check reference on first use, outside every timed interval."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


# ---------------------------------------------------------------------------
# apply


def _apply_ops(label, m, ltilde, r, x, upstream, ops, counted):
    n, b = m.n, m.b
    ref_y = _lazy(lambda: checks.apply_ref(ltilde, r, x))
    ref_adj = _lazy(lambda: checks.adjoint_ref(ltilde, r, x))
    ref_vjp = _lazy(lambda: checks.vjp_ref(ltilde, r, x, upstream))
    matvec = lambda: core.monarch_matvec(m, x)  # noqa: E731
    adjoint = lambda: core.monarch_matvec_adjoint(m, x)  # noqa: E731
    vjp = lambda: gradients.matvec_vjp(m, x, upstream)  # noqa: E731
    ops += [
        Op("matvec", f"matvec {label}", matvec,
           SameOrChecked(lambda y: checks.check_vector("monarch_matvec", y, ref_y()))),
        Op("adjoint", f"adjoint {label}", adjoint,
           SameOrChecked(lambda y: checks.check_vector("monarch_matvec_adjoint", y, ref_adj()))),
        Op("vjp", f"vjp {label}", vjp,
           SameOrChecked(lambda t: checks.check_vjp(t, ref_vjp()), _tangent_arrays)),
    ]
    counted += [(f"matvec {label}", matvec, n, b, 1), (f"adjoint {label}", adjoint, n, b, 1),
                (f"vjp {label}", vjp, n, b, 4)]


def apply(seed) -> Schedule:
    rng = inputs.rng_for(seed, "apply")
    digest = inputs.InputHash()
    ops: list[Op] = []
    counted: list[tuple] = []
    for n, b in APPLY_SIZES:
        ltilde, r = inputs.monarch_blocks(rng, n, b)
        x, upstream = rng.standard_normal(n), rng.standard_normal(n)
        digest.add(ltilde, r, x, upstream)
        _apply_ops(f"{n}x{b}", monarch_matrix(ltilde, r), ltilde, r, x, upstream, ops, counted)
    n, b = 4096, 64
    ltilde, r = inputs.monarch_blocks(rng, n, b, complex_field=True)
    x, upstream = inputs.normal(rng, n, True), inputs.normal(rng, n, True)
    digest.add(ltilde, r, x, upstream)
    _apply_ops(f"complex {n}x{b}", monarch_matrix(ltilde, r), ltilde, r, x, upstream, ops, counted)

    (la, ra), (lb, rb) = inputs.monarch_blocks(rng, n, b), inputs.monarch_blocks(rng, n, b)
    x = rng.standard_normal(n)
    digest.add(la, ra, lb, rb, x)
    pair = core.mm_star(monarch_matrix(la, ra), monarch_matrix(lb, rb))
    ref_p = _lazy(lambda: checks.apply_ref(la, ra, checks.adjoint_ref(lb, rb, x)))
    product = lambda: core.product_matvec(pair, x)  # noqa: E731
    ops.append(Op("product_matvec", f"product_matvec {n}x{b}", product,
                  SameOrChecked(lambda y: checks.check_vector("product_matvec", y, ref_p()))))
    counted.append((f"product_matvec {n}x{b}", product, n, b, 2))
    for op in ops:  # warm-up: every op is cheap here, so each runs once at full size
        op.call()
    return Schedule(
        ops=ops,
        named={
            "matvec_p50_us": ("matvec 4096x64", 50, 1e6, "us"),
            "matvec_p90_us": ("matvec 4096x64", 90, 1e6, "us"),
            "adjoint_p50_us": ("adjoint 4096x64", 50, 1e6, "us"),
            "vjp_p50_us": ("vjp 4096x64", 50, 1e6, "us"),
        },
        input_hash=digest.hexdigest(),
        counted=counted,
    )


# ---------------------------------------------------------------------------
# convert


def butterfly_matrix(diagonals, n):
    factors = [butterfly.ButterflyFactorMatrix(n=n, k=2 * d.shape[3], diagonals=d) for d in diagonals]
    return butterfly.ButterflyMatrix(n=n, factors=factors)


def _project_op(label, a, b):
    return Op("project", f"project {label}", lambda: projection.project(a, b),
              lambda res: checks.check_projection(a, b, res))


def _merge_op(label, bm, b, rng, digest):
    probes = [inputs.normal(rng, bm.n, True) for _ in range(2)]
    digest.add(*probes)
    refs = _lazy(lambda: [butterfly.butterfly_matvec(bm, v) for v in probes])
    return Op("merge", f"merge {label}", lambda: butterfly.butterfly_to_monarch(bm, b),
              lambda merged: checks.check_merge(merged, probes, refs()))


def convert(seed) -> Schedule:
    rng = inputs.rng_for(seed, "convert")
    digest = inputs.InputHash()
    dense8 = rng.standard_normal((64, 64))
    ltilde, r = inputs.monarch_blocks(rng, 64, 8)
    near = inputs.monarch_dense(ltilde, r) + 1e-3 * rng.standard_normal((64, 64))
    dense4 = rng.standard_normal((64, 64))
    cplx = inputs.normal(rng, (64, 64), True)
    ratios_in = rng.standard_normal((64, 64))
    digest.add(dense8, near, dense4, cplx, ratios_in)
    butterflies = {}
    for label, n, kind in [("random 4096", 4096, "random"), ("random 512", 512, "random"),
                           ("dft 1024", 1024, "dft"), ("hadamard 1024", 1024, "hadamard")]:
        diagonals = inputs.butterfly_diagonals(rng, n, kind)
        digest.add(*diagonals)
        butterflies[label] = butterfly_matrix(diagonals, n)
    ops = [
        _project_op("dense 64x8", dense8, 8),
        _project_op("near-monarch 64x8", near, 8),
        _project_op("dense 64x4", dense4, 4),
        _project_op("complex 64x8", cplx, 8),
        Op("verify", "verify 64x8", lambda: projection.slice_singular_ratios(ratios_in, 8),
           lambda ratios: checks.check_ratios(ratios_in, 8, ratios)),
        _merge_op("random 4096x64", butterflies["random 4096"], 64, rng, digest),
        _merge_op("random 512x8", butterflies["random 512"], 8, rng, digest),
        _merge_op("dft 1024x32", butterflies["dft 1024"], 32, rng, digest),
        _merge_op("hadamard 1024x32", butterflies["hadamard 1024"], 32, rng, digest),
    ]
    # warm-up at n=16: one full-size pass would cost seconds
    small = rng.standard_normal((16, 16))
    small_bf = butterfly_matrix(inputs.butterfly_diagonals(rng, 16, "random"), 16)
    projection.project(small, 4)
    projection.slice_singular_ratios(small, 4)
    butterfly.butterfly_to_monarch(small_bf, 4)
    return Schedule(
        ops=ops,
        named={
            "project_p50_ms": ("project dense 64x8", 50, 1e3, "ms"),
            "verify_p50_ms": ("verify 64x8", 50, 1e3, "ms"),
            "merge_p50_ms": ("merge random 4096x64", 50, 1e3, "ms"),
        },
        input_hash=digest.hexdigest(),
    )


# ---------------------------------------------------------------------------
# factorize


def factorize(seed) -> Schedule:
    rng = inputs.rng_for(seed, "factorize")
    digest = inputs.InputHash()
    ops = []
    for label, n, b, cplx, staged in [
        ("512x16", 512, 16, False, False),
        ("256x16", 256, 16, False, False),
        ("complex 256x16", 256, 16, True, False),
        ("64x8", 64, 8, False, False),
        ("staged 256x16", 256, 16, False, True),
    ]:
        m = inputs.mm_star_dense(rng, n, b, cplx, repeat_position=staged)
        digest.add(m)
        ops.append(Op("factorize_staged" if staged else "factorize", f"factorize {label}",
                      lambda m=m, b=b: factorization.factorize_mm_star(m, b),
                      lambda res, m=m: checks.check_factorization(m, res)))
    # warm-up at n=16 on both paths
    factorization.factorize_mm_star(inputs.mm_star_dense(rng, 16, 4), 4)
    factorization.factorize_mm_star(inputs.mm_star_dense(rng, 16, 4, repeat_position=True), 4)
    return Schedule(
        ops=ops,
        named={
            "factorize_p50_ms": ("factorize 512x16", 50, 1e3, "ms"),
            "factorize_staged_p50_ms": ("factorize staged 256x16", 50, 1e3, "ms"),
        },
        input_hash=digest.hexdigest(),
    )


# ---------------------------------------------------------------------------
# cli


def run_cli(argv):
    """monarch.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def expect_exit(want, then=None):
    def check(result):
        code, out, err = result
        if code != want:
            return f"exit {code}, expected {want}: {err.strip()[-200:]}"
        return then(out, err) if then else None

    return check


def output_contains(text_key, needle):
    def check(out, err):
        text = out if text_key == "out" else err
        return None if needle in text else f"output lacks {needle!r}"

    return check


def cli_workload(seed, workdir) -> Schedule:
    rng = inputs.rng_for(seed, "cli")
    digest = inputs.InputHash()
    os.makedirs(workdir, exist_ok=True)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    x = rng.standard_normal((1024, 1))
    bad = rng.standard_normal((64, 64))
    for name, a in (("x.dmat", x), ("dense-random.dmat", bad)):
        text = inputs.dmat_text(a)
        digest.add_bytes(text.encode())
        with open(path(name), "w") as fh:
            fh.write(text)
    gen_seed = str(int(rng.integers(2**31)))
    observed: dict[str, float] = {}
    digest.add_bytes(gen_seed.encode())

    def check_matvec(out, err):
        ltilde, r = checks.read_mon_file(path("m.mon"))
        y = checks.read_dmat_file(path("y.dmat"))[:, 0]
        return checks.check_vector("cli matvec", y, checks.apply_ref(ltilde, r, x[:, 0]))

    def check_factors(out, err):
        m = checks.read_dmat_file(path("mm.dmat"))
        factors = [checks.read_dmat_file(path(f"fact.{part}.dmat")) for part in ("l1", "r", "l2")]
        reported = next(float(line.split()[1]) for line in out.splitlines()
                        if line.startswith("reconstruction_relative_error "))
        observed["cli_factorize_reconstruction_error"] = reported
        return checks.check_cli_factors(m, 8, *factors, reported)

    def check_project(out, err):
        a = checks.read_dmat_file(path("mm.dmat"))
        ltilde, r = checks.read_mon_file(path("p.mon"))
        with open(path("p.txt")) as fh:
            residual = next(float(line.split()[1]) for line in fh if line.startswith("residual "))
        return checks.check_projected(a, 8, ltilde, r, residual)

    script = [
        ("cli gen monarch", ["gen", "--kind", "monarch", "--n", "1024", "--b", "32", "--seed", gen_seed,
                             "--out", path("m.mon")], expect_exit(0)),
        ("cli matvec", ["matvec", "--in", path("m.mon"), "--x", path("x.dmat"), "--out", path("y.dmat")],
         expect_exit(0, check_matvec)),
        ("cli gen mmstar", ["gen", "--kind", "mmstar", "--n", "64", "--b", "8", "--seed", gen_seed,
                            "--out", path("mm.dmat")], expect_exit(0)),
        ("cli factorize", ["factorize", "--in", path("mm.dmat"), "--b", "8", "--out-prefix", path("fact")],
         expect_exit(0, check_factors)),
        ("cli project", ["project", "--in", path("mm.dmat"), "--b", "8", "--out", path("p.mon"),
                         "--report", path("p.txt")], expect_exit(0, check_project)),
        ("cli verify slices", ["verify", "--in", path("p.mon"), "--class", "monarch-slices"],
         expect_exit(0, output_contains("out", "monarch-slices: pass"))),
        ("cli verify db", ["verify", "--in", path("p.mon"), "--class", "db", "--b", "8"],
         expect_exit(1, output_contains("out", "db membership: fail"))),
        ("cli factorize dense-random", ["factorize", "--in", path("dense-random.dmat"), "--b", "8",
                                        "--out-prefix", path("bad")],
         expect_exit(4, output_contains("err", "block condition estimates"))),
    ]
    ops = [Op("cli", label, lambda argv=argv: run_cli(argv), check) for label, argv, check in script]
    # warm-up: argument parsing, a write and a read at n=16
    run_cli(["gen", "--kind", "dense-random", "--n", "16", "--seed", gen_seed, "--out", path("warm.dmat")])
    run_cli(["verify", "--in", path("warm.dmat"), "--class", "bd", "--b", "4"])
    return Schedule(
        ops=ops,
        shuffle=False,
        roles={"op1": PASS, "op2": "cli gen monarch", "op3": "cli matvec"},
        named={"cli_pass_s": (PASS, 50, 1.0, "s")},
        input_hash=digest.hexdigest(),
        observed=observed,
    )


# ---------------------------------------------------------------------------
# library: apply, convert and factorize in one pass


def library(seed, workdir) -> Schedule:
    """The apply, convert and factorize parts, each with its own seeded inputs."""
    parts = [apply(seed), convert(seed), factorize(seed)]
    digest = inputs.InputHash()
    for part in parts:
        digest.add_bytes(part.input_hash.encode())
    return Schedule(
        ops=parts[0].ops * APPLY_REPEATS + parts[1].ops + parts[2].ops,
        roles={"op1": "matvec 4096x64", "op2": "project dense 64x8", "op3": "factorize 512x16"},
        named={name: spec for part in parts for name, spec in part.named.items()},
        input_hash=digest.hexdigest(),
        counted=parts[0].counted,
    )


WORKLOADS = {"library": library, "cli": cli_workload}
