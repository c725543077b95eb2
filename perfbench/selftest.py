"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Every check must accept the library's real output and reject the same
output with one entry perturbed (or one count, exit code or line changed).
It also asserts that BENCHMARK.json lists exactly the metrics run.py prints.
Exit status 0 when all cases behave, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.pop(0)  # run as a script: import the package, not its modules
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import END_TO_END_UNITS, ROOT, import_library  # noqa: E402

import_library()

import numpy as np  # noqa: E402

from monarch import butterfly, core, factorization, gradients, projection  # noqa: E402
from perfbench import checks, inputs, layers, workloads  # noqa: E402


def bumped(a, delta=1e-6):
    """A copy of `a` with its first entry moved by `delta` relative to the array's scale."""
    a = np.array(a, copy=True)
    a.flat[0] += delta * max(float(np.max(np.abs(a))), 1.0)
    return a


def cases():
    rng = np.random.default_rng(0)
    n, b = 16, 4
    ltilde, r = inputs.monarch_blocks(rng, n, b)
    m = workloads.monarch_matrix(ltilde, r)
    x, up = rng.standard_normal(n), rng.standard_normal(n)

    y = core.monarch_matvec(m, x)
    yield "matvec", checks.check_vector("matvec", y, checks.apply_ref(ltilde, r, x)), \
        checks.check_vector("matvec", bumped(y), checks.apply_ref(ltilde, r, x))
    y = core.monarch_matvec_adjoint(m, x)
    yield "adjoint", checks.check_vector("adjoint", y, checks.adjoint_ref(ltilde, r, x)), \
        checks.check_vector("adjoint", bumped(y), checks.adjoint_ref(ltilde, r, x))
    t = gradients.matvec_vjp(m, x, up)
    ref = checks.vjp_ref(ltilde, r, x, up)
    bad = copy.copy(t)
    bad.d_r = bumped(t.d_r)
    yield "vjp", checks.check_vjp(t, ref), checks.check_vjp(bad, ref)
    yield "multiply count", checks.check_multiplies("matvec", n * b + n * n // b, n, b), \
        checks.check_multiplies("matvec", n * b + n * n // b + 1, n, b)

    same = workloads.SameOrChecked(lambda out: checks.check_vector("matvec", out, checks.apply_ref(ltilde, r, x)))
    y = core.monarch_matvec(m, x)
    yield "repeat check", same(y), same(bumped(y))

    a = rng.standard_normal((n, n))
    pm, report = projection.project(a, b)
    bad_m = workloads.monarch_matrix(pm.ltilde.blocks, bumped(pm.r.blocks))
    bad_report = copy.copy(report)
    bad_report.residual = report.residual * (1 + 1e-6)
    yield "project matrix", checks.check_projection(a, b, (pm, report)), checks.check_projection(a, b, (bad_m, report))
    yield "project residual", None, checks.check_projection(a, b, (pm, bad_report))
    ratios = projection.slice_singular_ratios(a, b)
    yield "slice ratios", checks.check_ratios(a, b, ratios), checks.check_ratios(a, b, bumped(ratios))

    bm = workloads.butterfly_matrix(inputs.butterfly_diagonals(rng, n, "random"), n)
    probes = [rng.standard_normal(n)]
    refs = [butterfly.butterfly_matvec(bm, v) for v in probes]
    merged = butterfly.butterfly_to_monarch(bm, b)
    bad_merged = workloads.monarch_matrix(bumped(merged.ltilde.blocks), merged.r.blocks)
    yield "merge", checks.check_merge(merged, probes, refs), checks.check_merge(bad_merged, probes, refs)

    mm = inputs.mm_star_dense(rng, n, b)
    fact = factorization.factorize_mm_star(mm, b)
    bad_fact = copy.copy(fact)
    bad_fact.middle = copy.copy(fact.middle)
    bad_fact.middle.entries = bumped(fact.middle.entries)
    yield "factorize", checks.check_factorization(mm, fact), checks.check_factorization(mm, bad_fact)

    l1, rr, l2 = (fact.l1.to_dense(), fact.r_block_diagonal().to_dense(), fact.l2.to_dense())
    err = fact.reconstruction_error
    off_block = np.array(rr, copy=True)
    off_block[0, -1] = 1.0
    far = bumped(rr, 1e-3)
    far_err = checks.cli_reconstruction_error(mm, b, l1, far, l2)
    yield "cli factor files", checks.check_cli_factors(mm, b, l1, rr, l2, err), \
        checks.check_cli_factors(mm, b, l1, bumped(rr), l2, err)
    yield "cli factor structure", None, checks.check_cli_factors(mm, b, l1, off_block, l2, err)
    yield "cli factor report", None, checks.check_cli_factors(mm, b, l1, rr, l2, err + 1e-9)
    yield "cli factor tolerance", None, checks.check_cli_factors(mm, b, l1, far, l2, far_err)
    yield "cli residual", checks.check_projected(a, b, pm.ltilde.blocks, pm.r.blocks, report.residual), \
        checks.check_projected(a, b, pm.ltilde.blocks, pm.r.blocks, report.residual * (1 + 1e-6))
    exit_zero = workloads.expect_exit(0, workloads.output_contains("out", "pass"))
    yield "cli exit code", exit_zero((0, "monarch-slices: pass", "")), exit_zero((1, "monarch-slices: pass", ""))
    yield "cli output text", None, exit_zero((0, "monarch-slices: fail", ""))


def main() -> int:
    failures = 0
    for name, good, bad in cases():
        ok = good is None and bad is not None
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: accepts={good is None} rejects={bad is not None}"
              + (f" ({bad})" if bad else ""))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    per_layer = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    same_e2e = e2e == set(END_TO_END_UNITS.items())
    same_layers = per_layer == set(layers.metric_units())
    print(f"{'ok  ' if same_e2e and same_layers else 'FAIL'} BENCHMARK.json matches run.py "
          f"(end_to_end {same_e2e}, per_layer {same_layers})")
    failures += not (same_e2e and same_layers)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
