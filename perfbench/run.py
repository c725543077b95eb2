"""Benchmark of the monarch library and CLI.

    python3 perfbench/run.py --workload library --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
Workloads (see workloads.py): library (apply, convert and factorize calls
shuffled into one pass) and cli.

A run sets the workload up several times from the seed (the inputs' hash
must repeat; setup_s is the median time), then calls whole passes of its
schedule until the calls have taken --seconds, checking every output outside
the timed call. With --trace 0 the last stdout line carries the end-to-end
metrics. With --trace 1 untraced and traced passes alternate until each side
has run --seconds, spans are written to .perfbench_out/, and the last line
carries the per-layer metrics.

The line before the last is the full record: machine, per-op latencies under
their own names, input hash and any failures.

Exit status is 0 when a result was printed, 2 when the library cannot be
imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up repeats at least this often and for at least this long; setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "op1_p50_ms": "ms", "op2_p50_ms": "ms", "op3_p50_ms": "ms",
}


def count_checks(schedule, result) -> dict[str, int]:
    """Exact multiply counts of one sampled call per counted label."""
    from monarch.counting import count_multiplies

    from perfbench.checks import check_multiplies

    counts = {}
    for label, call, n, b, factor in schedule.counted:
        with count_multiplies() as tally:
            call()
        counts[label] = tally.multiplies
        result.attempted += 1
        reason = check_multiplies(label, tally.multiplies, n, b, factor)
        if reason:
            result.failed += 1
            result.failures.append(reason)
    return counts


def dense_baseline(seed, reps=200) -> dict[int, float]:
    """p50 seconds of a plain `A @ x` at each dense size (n=16384 would need 2 GiB)."""
    import numpy as np

    from perfbench.layers import DENSE_SIZES

    out = {}
    rng = np.random.default_rng([seed, 0xDE45E])
    for n in DENSE_SIZES:
        a, x = rng.standard_normal((n, n)), rng.standard_normal(n)
        a @ x
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            a @ x
            times.append(time.perf_counter() - start)
        out[n] = statistics.median(times)
        del a
    return out


def machine_record(seed) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "seed": seed,
    }


def _cache_sizes() -> dict:
    """Cache sizes in bytes as `getconf -a` reports them."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it is not OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_library():
    """Import monarch from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "monarch" / "__init__.py").is_file():
        raise ImportError(f"no monarch package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import monarch

    if Path(monarch.__file__).resolve().parent != (src / "monarch").resolve():
        raise ImportError(f"monarch imported from {monarch.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["library", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)  # keep the package's module names from shadowing the stdlib
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from perfbench import layers, workloads
    from perfbench.loop import run_alternating, run_loop
    from perfbench.spans import Tracer

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    build = workloads.WORKLOADS[args.workload]
    record = {"workload": args.workload, "machine": machine_record(args.seed), "seconds": args.seconds}
    try:
        setup_times, hashes = [], set()
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            schedule = None  # free the previous set-up before timing the next
            start = time.perf_counter()
            schedule = build(args.seed, str(workdir))
            setup_times.append(time.perf_counter() - start)
            hashes.add(schedule.input_hash)
        order_rng = random.Random(args.seed)
        if args.trace:
            tracer = Tracer()
            result, traced = run_alternating(schedule, args.seconds, order_rng, tracer)
        else:
            result = run_loop(schedule, args.seconds, order_rng)
        counts = count_checks(schedule, result)
        if args.trace:
            result.attempted += traced.attempted
            result.failed += traced.failed
            result.failures += traced.failures
            dense = dense_baseline(args.seed) if schedule.counted else {}
            per_layer = layers.compute(tracer, traced, result, counts, dense)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    if len(hashes) != 1:
        result.failed += 1
        result.failures.append(f"set-up gave {len(hashes)} different input hashes for one seed")
    e2e = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": result.ops_per_s,
    }
    for role in ("op1", "op2", "op3"):
        e2e[f"{role}_p50_ms"] = result.p(schedule.roles[role], 50) * 1e3
    record.update({
        "input_sha256": hashes.pop() if len(hashes) == 1 else sorted(hashes),
        "passes": result.passes,
        "roles": schedule.roles,
        "setup_s_all": setup_times,
        "named": {name: {"value": result.p(label, pct) * scale, "unit": unit,
                         "samples": len(result.samples(label))}
                  for name, (label, pct, scale, unit) in schedule.named.items()},
        "latency_p50_ms": {label: statistics.median(t) * 1e3 for label, t in result.durations.items()},
        "multiplies": counts,
        "observed": schedule.observed,
        "error_rate": result.failed / result.attempted,
        "failures": result.failures[:20],
    })
    if args.trace:
        record["multiplies_per_op"] = tracer.per_label(tracer.multiplies)
        record["add_multiplies_calls_per_op"] = tracer.per_label(tracer.multiply_calls)
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit, _ in layers.metric_units()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    record["end_to_end"] = e2e
    print(json.dumps(record))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
