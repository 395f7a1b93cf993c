"""Benchmark of the ipas solver, its baseline and the sweep CLI.

Run from the repository root:

    python3 bench/run.py --workload quad_check07 --seed 0 --seconds 25 --trace 0

The workloads and metrics are declared in BENCHMARK.json.  With --trace 0
a run reports every end-to-end metric; with --trace 1 it runs one fixed
pass untraced and once more under the outside-in tracer, and reports every
per-layer metric and the tracing overhead.  Every run checks its outputs.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Generated data and sweep outputs go to bench/.work/<workload>-<pid>, which
is removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# One BLAS thread per process: the sweep already keeps both cores of the
# reference machine busy with two worker processes, and single-threaded
# BLAS keeps the other workloads comparable with it.
BLAS_THREADS = 1

# Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120


def _pin_environment(workdir: str) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["TMPDIR"] = workdir
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _provenance(seed: int) -> dict:
    import numpy
    import scipy

    import ipas

    return {
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ipas": ipas.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _probe_setup(args, workdir: str) -> float:
    """One fresh process: import ipas and build the workload's inputs."""
    t0 = time.perf_counter()
    import workloads

    workloads.workloads(ROOT)[args.workload].build(args.seed, workdir)
    return time.perf_counter() - t0


def _setup_samples(args, speed, n: int) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of n fresh-process set-ups."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    speed.start()
    for _ in range(n):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        factor = speed.factor()
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({out.returncode}): {out.stderr.strip()}")
        samples.append((float(out.stdout.strip().splitlines()[-1]), factor))
    return samples


def _emit(declared: list[dict], values: dict, human: dict) -> dict:
    """Print the metric table and build the result's metrics object."""
    metrics, absent = {}, []
    for m in declared:
        value = values.get(m["name"])
        if value is None:
            absent.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<48} {value!r:>24} {m['unit']}{human.get(m['name'], '')}")
    if absent:
        print(f"absent layers (reported as 0): {', '.join(absent)}")
    return metrics


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ipas", "__init__.py")):
        print(f"error: no ipas sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(BENCH, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        _pin_environment(workdir)
        if args.probe_setup:
            print(repr(_probe_setup(args, workdir)))
            return 0
        return _run(args, spec, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run is using it


def _run(args, spec, workdir: str, t_start: float) -> int:
    t0 = time.perf_counter()
    import workloads

    workload = workloads.workloads(ROOT)[args.workload]
    inputs = workload.build(args.seed, workdir)
    own_setup = time.perf_counter() - t0
    ctx = workloads.Context(workdir=workdir)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(_provenance(args.seed), sort_keys=True))

    if args.trace:
        values = workload.trace(ctx, inputs)
        declared = spec["per_layer"]
        human = {}
    else:
        measured = workload.measure(ctx, inputs, args.seconds)
        self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        workers = getattr(workload, "workers", 0)
        setup = _setup_samples(args, ctx.speed, SETUP_SAMPLES)
        iter_rate, baseline_rate = measured["iter_per_s"], measured["baseline_iter_per_s"]
        ok = (ctx.attempted - ctx.failed) / ctx.attempted if ctx.attempted else 0.0
        values = {
            "iter_per_s": iter_rate.value,
            "baseline_iter_per_s": baseline_rate.value,
            "setup_s": statistics.median(t / f for t, f in setup),
            "sp_per_iter": measured["sp_per_iter"],
            "best_norm_d": measured["best_norm_d"],
            "peak_rss_mb": self_mb + workers * children_mb,
            "ok_frac": ok,
        }
        human = {
            "iter_per_s": f"  (median of {iter_rate.units} timed units at nominal speed; "
                          f"raw wall median {iter_rate.raw:.6g})",
            "baseline_iter_per_s": f"  (median of {baseline_rate.units} runs at nominal speed; "
                                   f"raw wall median {baseline_rate.raw:.6g})",
            "setup_s": f"  (median of {len(setup)} fresh processes at nominal speed; raw "
                       + ", ".join(f"{t:.3f}" for t, _ in setup)
                       + f"; this process {own_setup:.3f})",
            "sp_per_iter": "  (exact; pooled over the fixed set of runs)",
            "best_norm_d": "  (exact; recorded, not gated)",
            "peak_rss_mb": f"  (this process {self_mb:.1f}"
                           + (f" + {workers} x largest worker {children_mb:.1f}" if workers else "")
                           + ")",
            "ok_frac": f"  (fail_frac = {ctx.failed}/{ctx.attempted} = "
                       f"{ctx.failed / max(ctx.attempted, 1)!r})",
        }
        declared = spec["end_to_end"]

    print(f"cpu reference: {ctx.speed.describe()}")
    for note in ctx.notes:
        print(f"note: {note}")
    digest = hashlib.sha256("".join(f"{k}={v}\n" for k, v in sorted(ctx.hashes.items())).encode())
    for label, sha in sorted(ctx.hashes.items()):
        print(f"trace sha256 {label} {sha}")
    print(f"trace sha256 digest of {len(ctx.hashes)} traces {digest.hexdigest()}")
    print("metrics:")
    metrics = _emit(declared, values, human)
    for failure in ctx.failures:
        print(f"check failed: {failure}")
    correct = not ctx.failures and ctx.attempted > 0
    print(f"correctness gate: {'pass' if correct else 'FAIL'} "
          f"({ctx.attempted} attempted, {ctx.failed} failed); "
          f"wall {time.perf_counter() - t_start:.1f} s")
    print(json.dumps({"correct": correct, "attempted": max(ctx.attempted, 1),
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
