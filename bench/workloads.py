"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed through the public
ipas constructors, runs a timed section of at least ``seconds`` that
always covers a fixed set of runs (so the exact metrics, sp_per_iter and
best_norm_d, repeat exactly for a given seed and code), checks every
output, and in traced mode reports the per-layer metrics of one fixed
pass together with the tracing overhead.

- quad_check07: the check-07 noisy quadratic (n=20, m=10, N=1000,
  sigma=1), interpreter-bound; both branches of ipas_step run because the
  batch reaches the full sample mid-run.  Also runs the baseline.
- logistic_large: make_synthetic_logistic(100000, 200) with m=100; the
  oracle full sums over a 160 MB feature matrix dominate, so kernel and
  memory changes show here and interpreter overhead does not.
- sweep_logistic: ``ipas-bench run`` on a copy of configs/logistic.ini
  with 2 workers (closed loop: a worker takes the next run when its
  current one ends); the only path through cli and experiment.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import ipas
import ipas.cli

from layers import per_layer_metrics
from speed import STREAM_NOMINAL_S, Speedometer, StreamProbe
from tracer import Tracer

SWEEP_WORKERS = 2


@dataclass
class Context:
    workdir: str
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    speed: Speedometer = field(default_factory=Speedometer)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)


@dataclass(frozen=True)
class Problem:
    cs: object
    obj: object
    x0: object


@dataclass(frozen=True)
class Rate:
    """A median rate over timed units, rescaled to nominal machine speed."""

    value: float
    raw: float
    units: int

    @classmethod
    def of(cls, samples: list[tuple[float, float]]) -> "Rate":
        """samples holds (raw rate, speed factor) per timed unit."""
        return cls(
            value=statistics.median(r * f for r, f in samples),
            raw=statistics.median(r for r, _ in samples),
            units=len(samples),
        )


@dataclass
class RunSummary:
    iterations: int
    scalar_products: int
    best_norm_d: float
    sha256: str


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_records(ctx: Context, label: str, records, status: str, k_max: int) -> None:
    ctx.check(status in (ipas.STATUS_MAX_ITERATIONS, ipas.STATUS_STATIONARY),
              f"{label}: status {status!r}")
    if status == ipas.STATUS_MAX_ITERATIONS:
        ctx.check(len(records) == k_max + 1,
                  f"{label}: {len(records)} records, expected k_max + 1 = {k_max + 1}")
    else:
        ctx.check(1 <= len(records) <= k_max + 1, f"{label}: {len(records)} records")
    ctx.check(all(math.isfinite(r.norm_d_true) and math.isfinite(r.f_true) for r in records),
              f"{label}: non-finite oracle column")
    ctx.check(all(a.scalar_products <= b.scalar_products for a, b in zip(records, records[1:])),
              f"{label}: budget decreased")
    ctx.check(min(r.norm_d_true for r in records) < records[0].norm_d_true,
              f"{label}: no progress in ||d||")


def summarize_result(ctx: Context, label: str, result, obj, k_max: int) -> RunSummary:
    """Check one solver or baseline result and hash its trace bytes."""
    records = result.records
    _check_records(ctx, label, records, result.status, k_max)
    meter = result.meter
    ctx.check(records[-1].scalar_products == meter.scalar_products,
              f"{label}: trace budget differs from the meter")
    split = (meter.cg_scalar_products + meter.component_value_evals * obj.value_cost
             + meter.component_grad_evals * obj.grad_cost)
    ctx.check(split == meter.scalar_products, f"{label}: meter split does not add up")
    path = ctx.path("trace.csv")
    ipas.write_trace(records, path)
    return RunSummary(
        iterations=len(records) - 1,
        scalar_products=meter.scalar_products,
        best_norm_d=min(r.norm_d_true for r in records),
        sha256=_sha256(path),
    )


def check_repeat(ctx: Context, seen: dict, label: str, summary: RunSummary) -> None:
    """Record the first run of a label; a repeat must match it exactly."""
    first = seen.setdefault(label, summary)
    if first is summary:
        ctx.hashes[label] = summary.sha256
        return
    ctx.check(first.scalar_products == summary.scalar_products,
              f"{label}: repeat spent {summary.scalar_products} scalar products, "
              f"first run {first.scalar_products}")
    ctx.check(first.sha256 == summary.sha256, f"{label}: repeat wrote different trace bytes")


def attempt(ctx: Context, label: str, fn):
    """Run fn() as one attempted operation; an ipas error counts as failed."""
    ctx.attempted += 1
    t0 = time.perf_counter()
    try:
        result = fn()
    except ipas.IpasError as exc:
        ctx.failed += 1
        ctx.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return None, time.perf_counter() - t0
    return result, time.perf_counter() - t0


def pooled_sp_per_iter(summaries) -> float:
    return sum(s.scalar_products for s in summaries) / sum(s.iterations for s in summaries)


def _oracle_split(args, kwargs):
    meter = args[2] if len(args) > 2 else kwargs.get("meter")
    return meter is None


def make_tracer() -> Tracer:
    return Tracer(
        classify={
            "objective.full_grad": lambda a, k: "oracle.full_grad" if _oracle_split(a, k)
            else "objective.full_grad",
            "objective.full_value": lambda a, k: "oracle.full_value" if _oracle_split(a, k)
            else "objective.full_value",
        },
        count={
            "objective.draw_sample": lambda a, k: a[1] if len(a) > 1 else k["size"],
            "objective.subsample_grad": lambda a, k: (a[1] if len(a) > 1 else k["s"]).size,
            "objective.subsample_value": lambda a, k: (a[1] if len(a) > 1 else k["s"]).size,
        },
        keep=("solver.run", "baseline.run_baseline"),
    )


def traced_layers(ctx, tracer, n_components, kernel_bytes, extra):
    """Per-layer metrics of a finished traced section, with its own cross-check."""
    trace = tracer.summary()
    if tracer.absent_modules:
        ctx.notes.append(f"absent ipas modules: {', '.join(tracer.absent_modules)}")
    ipas_results = tracer.kept["solver.run"]
    baseline_results = tracer.kept["baseline.run_baseline"]
    if "constraints.inexact_project" in trace.wrapped:
        calls = trace.calls("constraints.inexact_project", "solver.run")
        checked = sum(r.projections_checked for r in ipas_results)
        ctx.check(calls == checked, f"traced {calls} inexact projections, the solver verified {checked}")
    extra = dict(extra, **{"trace.spans": trace.n_spans})
    return per_layer_metrics(trace, ipas_results, baseline_results, n_components, kernel_bytes, extra)


def overhead_metrics(iterations: int, untraced_s: float, traced_s: float) -> dict:
    """Tracing overhead from speed-rescaled untraced and traced durations."""
    untraced = iterations / untraced_s
    traced = iterations / traced_s
    return {
        "trace.iter_per_s_untraced": untraced,
        "trace.iter_per_s_traced": traced,
        "trace.overhead": untraced / traced - 1.0,
    }


def logistic_kernel_bytes(ds) -> dict:
    """Array bytes each logistic kernel call reads, computed from array sizes.

    Full sums read Z, y and the weights; the gradient reads Z and y twice
    (Z x, then Z^T c).  A sampled index reads one row of Z and its label,
    twice for a gradient.
    """
    row = ds.Z.itemsize * ds.dim + ds.y.itemsize
    weights = 8 * ds.n_samples
    value = ds.Z.nbytes + ds.y.nbytes + weights
    grad = 2 * (ds.Z.nbytes + ds.y.nbytes) + weights
    return {
        "objective.subsample_grad": (0, 2 * row), "objective.subsample_value": (0, row),
        "objective.full_grad": (grad, 0), "objective.full_value": (value, 0),
        "oracle.full_grad": (grad, 0), "oracle.full_value": (value, 0),
    }


# ---------------------------------------------------------------------------


class QuadCheck07:
    """Ten check-07 instances, each run with two solver seeds, plus the baseline.

    The instances are the acceptance fixtures (problem seed 1000+i,
    constraint seed 500+i); the workload seed only picks the solver seeds
    20*seed + j, so seed 0 reproduces check 07 in runs j = 0..9.
    """

    name = "quad_check07"
    N = 1000
    K_MAX = 2000
    INSTANCES = 10
    RUNS = 20

    def build(self, seed: int, workdir: str):
        problems = []
        for i in range(self.INSTANCES):
            spec = ipas.make_noisy_quadratic(20, self.N, sigma=1.0, seed=1000 + i)
            obj = ipas.noisy_quadratic_objective(spec)
            cs = ipas.generate_constraints(20, 10, seed=500 + i)
            problems.append(Problem(cs, obj, ipas.min_norm_feasible(cs)))
        return {"problems": problems, "spec": spec, "seed": seed}

    def _config(self, inputs, j: int):
        return ipas.SolverConfig(
            beta=0.1, c=1e-4, c1=1e-2, C_accept=1e-2, s_exp=1.0,
            dN=1, D_size=1, N0=10, t_min=1e-5, k_max=self.K_MAX,
            seed=self.RUNS * inputs["seed"] + j,
        )

    def _baseline_config(self):
        return ipas.BaselineConfig(beta=0.1, c1=1e-2, s_exp=1.0, k_max=self.K_MAX)

    def _run(self, ctx, inputs, j):
        p = inputs["problems"][j % self.INSTANCES]
        cfg = self._config(inputs, j)
        return attempt(ctx, f"ipas/run{j}", lambda: ipas.run(p.cs, p.obj, cfg, x0=p.x0))

    def _baseline(self, ctx, inputs, i):
        p = inputs["problems"][i]
        cfg = self._baseline_config()
        return attempt(ctx, f"baseline/problem{i}",
                       lambda: ipas.run_baseline(p.cs, p.obj, cfg, x0=p.x0))

    def measure(self, ctx: Context, inputs, seconds: float) -> dict:
        seen: dict[str, RunSummary] = {}
        firsts: list[RunSummary] = []
        rates, baseline_rates = [], []
        t_start = time.perf_counter()
        ctx.speed.start()
        j = 0
        # The fixed set is RUNS runs; one more repeats run 0 for the determinism check.
        while j <= self.RUNS or time.perf_counter() - t_start < seconds:
            slot = j % self.RUNS
            result, dt = self._run(ctx, inputs, slot)
            factor = ctx.speed.factor()
            if result is not None:
                s = summarize_result(ctx, f"ipas/run{slot}", result,
                                     inputs["problems"][slot % self.INSTANCES].obj, self.K_MAX)
                rates.append((s.iterations / dt, factor))
                check_repeat(ctx, seen, f"ipas/run{slot}", s)
                if j < self.RUNS:
                    firsts.append(s)
            if slot < self.INSTANCES:
                result, dt = self._baseline(ctx, inputs, slot)
                factor = ctx.speed.factor()
                if result is not None:
                    s = summarize_result(ctx, f"baseline/problem{slot}", result,
                                         inputs["problems"][slot].obj, self.K_MAX)
                    baseline_rates.append((s.iterations / dt, factor))
                    check_repeat(ctx, seen, f"baseline/problem{slot}", s)
            j += 1
        ctx.check(len(firsts) == self.RUNS, "not every run of the fixed set completed")
        if inputs["seed"] == 0 and len(firsts) == self.RUNS:
            fixture = statistics.median(s.best_norm_d for s in firsts[: self.INSTANCES])
            ctx.notes.append(f"check-07 fixture (runs 0-9) median best ||d|| = {fixture!r} "
                             "(recorded, not gated)")
        return {
            "iter_per_s": Rate.of(rates),
            "baseline_iter_per_s": Rate.of(baseline_rates),
            "sp_per_iter": pooled_sp_per_iter(firsts),
            "best_norm_d": statistics.median(s.best_norm_d for s in firsts),
        }

    def kernel_bytes(self, inputs) -> dict:
        # every instance has the same shapes, so the last one stands for all
        spec, obj = inputs["spec"], inputs["problems"][-1].obj
        q = spec.base_Q.nbytes + spec.base_q.nbytes
        full = q + spec.eps.nbytes + obj.weights.nbytes
        return {
            "objective.subsample_grad": (q, 8), "objective.subsample_value": (q, 8),
            "objective.full_grad": (full, 0), "objective.full_value": (full, 0),
            "oracle.full_grad": (full, 0), "oracle.full_value": (full, 0),
        }

    def trace(self, ctx: Context, inputs) -> dict:
        seen: dict[str, RunSummary] = {}
        untraced_s = 0.0
        iterations = 0
        ctx.speed.start()
        for j in range(self.INSTANCES):
            result, dt = self._run(ctx, inputs, j)
            factor = ctx.speed.factor()
            if result is not None:
                untraced_s += dt / factor
                iterations += len(result.records) - 1
                check_repeat(ctx, seen, f"ipas/run{j}",
                             summarize_result(ctx, f"ipas/run{j}", result,
                                              inputs["problems"][j].obj, self.K_MAX))
        traced_s = 0.0
        with make_tracer() as tracer:
            for j in range(self.INSTANCES):
                result, dt = self._run(ctx, inputs, j)
                traced_s += dt / ctx.speed.factor() if result is not None else 0.0
                self._baseline(ctx, inputs, j)
                ctx.speed.start()
        for j, result in enumerate(tracer.kept["solver.run"]):
            check_repeat(ctx, seen, f"ipas/run{j}",
                         summarize_result(ctx, f"ipas/run{j} traced", result,
                                          inputs["problems"][j].obj, self.K_MAX))
        for i, result in enumerate(tracer.kept["baseline.run_baseline"]):
            summarize_result(ctx, f"baseline/problem{i} traced", result,
                             inputs["problems"][i].obj, self.K_MAX)
        return traced_layers(ctx, tracer, self.N, self.kernel_bytes(inputs),
                             overhead_metrics(iterations, untraced_s, traced_s))


class LogisticLarge:
    """One 100000 x 200 synthetic logistic problem, m=100, several solver seeds.

    Solver parameters follow configs/logistic.ini (N0 = 1% of the samples,
    control sample 4).  The instance (dataset and constraint seed 0) is
    fixed and the workload seed picks the solver seeds 6*seed + j: with
    the instance varying too, the median best ||d|| of the fixed run set
    spread 15% across seeds.
    """

    name = "logistic_large"
    N = 100_000
    DIM = 200
    M = 100
    K_MAX = 50
    RUNS = 6
    INSTANCE_SEED = 0
    BASELINE_K_MAX = 10
    BASELINE_REPS = 6

    def build(self, seed: int, workdir: str):
        ds = ipas.make_synthetic_logistic(self.N, self.DIM, seed=self.INSTANCE_SEED)
        obj = ipas.logistic_objective(ds)
        cs = ipas.generate_constraints(self.DIM, self.M, seed=self.INSTANCE_SEED)
        return {"problem": Problem(cs, obj, ipas.min_norm_feasible(cs)), "ds": ds, "seed": seed}

    def _run(self, ctx, inputs, j):
        p = inputs["problem"]
        cfg = ipas.SolverConfig(
            beta=0.1, c=1e-4, c1=1e-4, C_accept=1.0, t_min=1e-5, N0=self.N // 100,
            D_size=4, dN=1, s_exp=1.0, k_max=self.K_MAX, seed=self.RUNS * inputs["seed"] + j,
        )
        return attempt(ctx, f"ipas/run{j}", lambda: ipas.run(p.cs, p.obj, cfg, x0=p.x0))

    def _baseline(self, ctx, inputs):
        p = inputs["problem"]
        cfg = ipas.BaselineConfig(beta=0.1, c1=1e-4, s_exp=1.0, k_max=self.BASELINE_K_MAX)
        return attempt(ctx, "baseline", lambda: ipas.run_baseline(p.cs, p.obj, cfg, x0=p.x0))

    def measure(self, ctx: Context, inputs, seconds: float) -> dict:
        with StreamProbe(self.N, self.DIM) as stream:
            speed = Speedometer(stream, STREAM_NOMINAL_S)
            out = self._measure(ctx, inputs, seconds, speed)
        ctx.notes.append(f"memory reference: {speed.describe()}")
        return out

    def _measure(self, ctx, inputs, seconds, speed):
        obj = inputs["problem"].obj
        seen: dict[str, RunSummary] = {}
        firsts: list[RunSummary] = []
        rates, baseline_rates = [], []
        t_start = time.perf_counter()
        speed.start()
        j = 0
        while j <= self.RUNS or time.perf_counter() - t_start < seconds:
            slot = j % self.RUNS
            result, dt = self._run(ctx, inputs, slot)
            factor = speed.factor()
            if result is not None:
                s = summarize_result(ctx, f"ipas/run{slot}", result, obj, self.K_MAX)
                rates.append((s.iterations / dt, factor))
                check_repeat(ctx, seen, f"ipas/run{slot}", s)
                if j < self.RUNS:
                    firsts.append(s)
            j += 1
        speed.start()
        for _ in range(self.BASELINE_REPS):
            result, dt = self._baseline(ctx, inputs)
            factor = speed.factor()
            if result is not None:
                s = summarize_result(ctx, "baseline", result, obj, self.BASELINE_K_MAX)
                baseline_rates.append((s.iterations / dt, factor))
                check_repeat(ctx, seen, "baseline", s)
        ctx.check(len(firsts) == self.RUNS, "not every run of the fixed set completed")
        return {
            "iter_per_s": Rate.of(rates),
            "baseline_iter_per_s": Rate.of(baseline_rates),
            "sp_per_iter": pooled_sp_per_iter(firsts),
            "best_norm_d": statistics.median(s.best_norm_d for s in firsts),
        }

    def kernel_bytes(self, inputs) -> dict:
        return logistic_kernel_bytes(inputs["ds"])

    def trace(self, ctx: Context, inputs) -> dict:
        with StreamProbe(self.N, self.DIM) as stream:
            return self._trace(ctx, inputs, Speedometer(stream, STREAM_NOMINAL_S))

    def _trace(self, ctx, inputs, speed):
        obj = inputs["problem"].obj
        seen: dict[str, RunSummary] = {}
        untraced_s = 0.0
        iterations = 0
        speed.start()
        for j in range(self.RUNS):
            result, dt = self._run(ctx, inputs, j)
            factor = speed.factor()
            if result is not None:
                untraced_s += dt / factor
                iterations += len(result.records) - 1
                check_repeat(ctx, seen, f"ipas/run{j}",
                             summarize_result(ctx, f"ipas/run{j}", result, obj, self.K_MAX))
        traced_s = 0.0
        with make_tracer() as tracer:
            speed.start()
            for j in range(self.RUNS):
                result, dt = self._run(ctx, inputs, j)
                traced_s += dt / speed.factor() if result is not None else 0.0
            self._baseline(ctx, inputs)
        for j, result in enumerate(tracer.kept["solver.run"]):
            check_repeat(ctx, seen, f"ipas/run{j}",
                         summarize_result(ctx, f"ipas/run{j} traced", result, obj, self.K_MAX))
        for result in tracer.kept["baseline.run_baseline"]:
            summarize_result(ctx, "baseline traced", result, obj, self.BASELINE_K_MAX)
        return traced_layers(ctx, tracer, self.N, self.kernel_bytes(inputs),
                             overhead_metrics(iterations, untraced_s, traced_s))


class SweepLogistic:
    """``ipas-bench run`` on copies of configs/logistic.ini, 2 worker processes.

    The dataset is the config's own (make_synthetic_logistic(768, 8,
    seed=42)), written to the benchmark's work directory.  Each of the
    BLOCKS sweeps runs the 2 x 2 grid on ten seeds, block b taking seeds
    20*seed + 10*b + (0..9), so seed 0 block 0 is the shipped config.
    """

    name = "sweep_logistic"
    # The pool's workers run at once; peak_rss_mb charges each the largest worker peak.
    workers = SWEEP_WORKERS
    N = 768
    BLOCKS = 2
    SEEDS_PER_BLOCK = 10
    BASELINE_REPS = 15

    def __init__(self, root: str):
        self._root = root

    def build(self, seed: int, workdir: str):
        data = os.path.join(workdir, "data", "logistic_768x8.libsvm")
        os.makedirs(os.path.dirname(data), exist_ok=True)
        ds = ipas.make_synthetic_logistic(self.N, 8, seed=42)
        ipas.save_libsvm(ds, data)
        source = os.path.join(self._root, "configs", "logistic.ini")
        configs = []
        for b in range(self.BLOCKS):
            cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
            with open(source) as fh:
                cp.read_file(fh)
            first = self.BLOCKS * self.SEEDS_PER_BLOCK * seed + self.SEEDS_PER_BLOCK * b
            cp["problem"]["dataset"] = data
            cp["run"]["seeds"] = " ".join(str(first + i) for i in range(self.SEEDS_PER_BLOCK))
            path = os.path.join(workdir, f"logistic_block{b}.ini")
            with open(path, "w") as fh:
                cp.write(fh)
            configs.append(path)
        return {"configs": configs, "ds": ds, "seed": seed}

    def _sweep(self, ctx, config: str, out: str, workers: int) -> tuple[float, float]:
        """Run one sweep through the CLI; returns (wall seconds, speed factor)."""
        argv = ["run", config, "--workers", str(workers), "--out", out]
        buf = io.StringIO()
        ctx.speed.start()
        t0 = time.perf_counter()
        # The pool's workers fill both cores, so the reference is also probed
        # during the sweep (on the thread's CPU clock, about 3% of one core).
        with contextlib.redirect_stdout(buf), ctx.speed.sampling():
            rc = ipas.cli.main(argv)
        dt = time.perf_counter() - t0
        factor = ctx.speed.factor()
        ctx.check(rc == 0, f"ipas-bench {' '.join(argv)} exited {rc}: {buf.getvalue().strip()}")
        return dt, factor

    def _check_sweep(self, ctx, label: str, out: str, k_max: int):
        """Gate one sweep directory; returns (iterations, per-trace summaries by file)."""
        rows = ipas.read_manifest(os.path.join(out, "runs.csv"))
        expected = 4 * self.SEEDS_PER_BLOCK
        ctx.check(len(rows) == expected, f"{label}: manifest has {len(rows)} rows, expected {expected}")
        bad = [r for r in rows if r["status"] == "failed"]
        ctx.attempted += len(rows)
        ctx.failed += len(bad)
        ctx.check(not bad, f"{label}: {len(bad)} failed runs")
        ctx.check(os.path.exists(os.path.join(out, "summary.csv")), f"{label}: no summary.csv")
        traces = {}
        for r in rows:
            if r["status"] == "failed":
                continue
            path = os.path.join(out, r["trace_file"])
            records = ipas.read_trace(path)
            _check_records(ctx, f"{label}/{r['trace_file']}", records, r["status"], k_max)
            traces[r["trace_file"]] = (r["config_id"], RunSummary(
                iterations=len(records) - 1,
                scalar_products=records[-1].scalar_products,
                best_norm_d=min(rec.norm_d_true for rec in records),
                sha256=_sha256(path),
            ))
        return sum(s.iterations for _, s in traces.values()), traces

    def _baseline(self, ctx, config: str):
        cfg = ipas.parse_experiment_config(config)
        cs, obj, x0 = ipas.build_problem(cfg.problem)
        bl = ipas.BaselineConfig(beta=cfg.solver.beta, c1=cfg.solver.c1, s_exp=1.0,
                                 k_max=cfg.solver.k_max)
        return obj, bl, lambda: ipas.run_baseline(cs, obj, bl, x0=x0)

    def measure(self, ctx: Context, inputs, seconds: float) -> dict:
        configs = inputs["configs"]
        k_max = ipas.parse_experiment_config(configs[0]).solver.k_max
        walls, outs = [], []
        t_start = time.perf_counter()
        j = 0
        while j < self.BLOCKS or time.perf_counter() - t_start < seconds:
            out = ctx.path(f"sweep{j}")
            walls.append(self._sweep(ctx, configs[j % self.BLOCKS], out, SWEEP_WORKERS))
            outs.append(out)
            j += 1
        seen: dict[str, RunSummary] = {}
        rates, firsts = [], []
        for j, (out, (wall, factor)) in enumerate(zip(outs, walls)):
            iterations, traces = self._check_sweep(ctx, f"sweep{j}", out, k_max)
            rates.append((iterations / wall, factor))
            for name, (config_id, s) in sorted(traces.items()):
                check_repeat(ctx, seen, name, s)
                if j < self.BLOCKS:
                    firsts.append((config_id, s))
        # A sweep run repeated in this process must match its pool worker's bytes.
        check_dir = ctx.path("repeat")
        os.makedirs(check_dir, exist_ok=True)
        payload = ipas.plan_runs(ipas.parse_experiment_config(configs[0]), output_dir=check_dir)[0]
        row, _ = attempt(ctx, "sweep repeat", lambda: ipas.execute_run(payload))
        if ctx.check(row is not None and row["status"] != "failed", f"sweep repeat failed: {row}"):
            repeat = _sha256(os.path.join(check_dir, payload["trace_file"]))
            first = seen.get(payload["trace_file"])
            ctx.check(first is not None and repeat == first.sha256,
                      f"{payload['trace_file']}: in-process repeat wrote different trace bytes")
        elif row is not None:
            ctx.failed += 1

        obj, bl, go = self._baseline(ctx, configs[0])
        baseline_rates = []
        ctx.speed.start()
        for _ in range(self.BASELINE_REPS):
            result, dt = attempt(ctx, "baseline", go)
            factor = ctx.speed.factor()
            if result is not None:
                s = summarize_result(ctx, "baseline", result, obj, bl.k_max)
                baseline_rates.append((s.iterations / dt, factor))
                check_repeat(ctx, seen, "baseline", s)

        # Median over seeds per grid point, then the geometric mean over the
        # grid: the dN=8 points converge to ~1e-8 and dN=1 to ~1e-3, so a
        # median over all runs would jump between the two modes.
        by_point: dict[str, list[float]] = {}
        for config_id, s in firsts:
            by_point.setdefault(config_id, []).append(s.best_norm_d)
        best = statistics.geometric_mean(statistics.median(v) for v in by_point.values())
        return {
            "iter_per_s": Rate.of(rates),
            "baseline_iter_per_s": Rate.of(baseline_rates),
            "sp_per_iter": pooled_sp_per_iter([s for _, s in firsts]),
            "best_norm_d": best,
        }

    def kernel_bytes(self, inputs) -> dict:
        return logistic_kernel_bytes(inputs["ds"])

    def trace(self, ctx: Context, inputs) -> dict:
        config = inputs["configs"][0]
        k_max = ipas.parse_experiment_config(config).solver.k_max
        serial = self._sweep(ctx, config, ctx.path("serial"), 1)
        parallel = self._sweep(ctx, config, ctx.path("parallel"), SWEEP_WORKERS)
        iterations, reference = self._check_sweep(ctx, "serial", ctx.path("serial"), k_max)
        ctx.hashes.update({name: s.sha256 for name, (_, s) in reference.items()})
        self._check_sweep(ctx, "parallel", ctx.path("parallel"), k_max)
        ctx.notes.append("traced sweep runs serially in-process (--workers 1): spans inside "
                         "pool workers would be lost; parallel_efficiency uses the untraced "
                         f"{SWEEP_WORKERS}-worker wall")
        with make_tracer() as tracer:
            traced = self._sweep(ctx, config, ctx.path("traced"), 1)
        _, traces = self._check_sweep(ctx, "traced", ctx.path("traced"), k_max)
        for name, (_, s) in traces.items():
            ctx.check(s.sha256 == reference[name][1].sha256, f"{name}: traced sweep wrote different bytes")
        trace_bytes = sum(os.path.getsize(os.path.join(ctx.path("traced"), name)) for name in traces)
        summary = tracer.summary()
        extra = overhead_metrics(iterations, serial[0] / serial[1], traced[0] / traced[1])
        extra["experiment.trace_bytes"] = trace_bytes
        # Sum of the traced execute_run spans over workers x the untraced pool
        # wall, both at nominal speed; tracing inflates it by up to trace.overhead.
        execute_s = summary.total("experiment.execute_run") / traced[1]
        extra["experiment.parallel_efficiency"] = (
            execute_s / (SWEEP_WORKERS * parallel[0] / parallel[1])
            if "experiment.execute_run" in summary.wrapped else None)
        return traced_layers(ctx, tracer, self.N, self.kernel_bytes(inputs), extra)


def workloads(root: str) -> dict:
    return {w.name: w for w in (QuadCheck07(), LogisticLarge(), SweepLogistic(root))}
