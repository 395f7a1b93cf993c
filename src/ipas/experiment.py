"""Experiment sweeps: config files, parallel runs, and trace summaries.

A config file describes one problem, a base solver configuration, a sweep
grid over the tolerance exponent, the batch growth step and (for the
noisy quadratic) the noise level, and a list of seeds.  Every grid point
times seed becomes one run with its own trace CSV; a manifest, a summary
table and per-grid-point budget curves are written next to the traces.
Identical configs produce byte-identical outputs, regardless of worker
count.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, EmptyGroup, IpasError, ParseError
from .objective import FiniteSumObjective
from .problems import (
    generate_constraints,
    load_libsvm,
    logistic_objective,
    make_noisy_quadratic,
    min_norm_feasible,
    noisy_quadratic_objective,
)
from .solver import (
    IterationRecord,
    SolverConfig,
    _read_csv,
    _write_csv,
    read_trace,
    run,
    write_trace,
)

MANIFEST_NAME = "runs.csv"
SUMMARY_NAME = "summary.csv"

# Stationarity levels reported as "fraction of runs that reached" columns.
REACH_THRESHOLDS = (1e-1, 1e-2, 1e-3)

# Number of points on the common budget grid for the mean curves.
CURVE_POINTS = 50

# [problem] keys of each kind besides "kind": key -> (type, default), where
# a default of None marks a required key.
_PROBLEM_FIELDS = {
    "noisy_quadratic": {
        "n": (int, None),
        "components": (int, None),
        "sigma": (float, 1.0),
        "base_seed": (int, 0),
        "base_curvature": (float, 1.0),
        "q_scale": (float, 1.0),
        "m_fraction": (float, 0.5),
        "constraint_seed": (int, 0),
    },
    "logistic": {"dataset": (str, None), "m_fraction": (float, 0.5), "constraint_seed": (int, 0)},
}

# [solver] keys that map onto SolverConfig fields: (key, field, type).
_SOLVER_FIELDS = (
    ("beta", "beta", float),
    ("c", "c", float),
    ("c1", "c1", float),
    ("t_min", "t_min", float),
    ("c_accept", "C_accept", float),
    ("n0", "N0", int),
    ("dn", "dN", int),
    ("s", "s_exp", float),
    ("d", "D_size", int),
    ("k_max", "k_max", int),
    ("tol_d", "tol_d", float),
    ("tol_e", "tol_e", float),
)
_SOLVER_KEYS = {key for key, _, _ in _SOLVER_FIELDS} | {"n0_fraction"}

_SWEEP_KEYS = {"s", "dn", "sigma"}
_RUN_KEYS = {"seeds", "output_dir"}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: dict
    solver: SolverConfig
    n0_fraction: float | None
    sweep_s: tuple[float, ...]
    sweep_dN: tuple[int, ...]
    sweep_sigma: tuple[float, ...] | None
    seeds: tuple[int, ...]
    output_dir: str


@dataclass(frozen=True)
class SummaryRow:
    config_id: str
    config_hash: str
    s_exp: float
    dN: int
    sigma: float | None
    n_runs: int
    n_failed: int
    d_final_median: float
    d_final_q25: float
    d_final_q75: float
    budget_median: float
    e_final_median: float
    reached: tuple[float, ...]  # fractions, aligned with REACH_THRESHOLDS


MANIFEST_COLUMNS = (
    "config_id", "config_hash", "s_exp", "dN", "sigma", "seed", "status", "trace_file", "error"
)
# SummaryRow's fields in order, with reached spread over one column per threshold.
SUMMARY_COLUMNS = tuple(f.name for f in dataclasses.fields(SummaryRow))[:-1] + tuple(
    f"reached_{t:g}" for t in REACH_THRESHOLDS
)
CURVE_COLUMNS = ("budget", "log10_d_mean", "log10_d_se", "d_geomean", "d_lo", "d_hi")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_ints(text: str) -> list[int]:
    out = []
    for tok in text.replace(",", " ").split():
        v = float(tok)
        if v != int(v):
            raise ValueError(f"expected an integer, got {tok!r}")
        out.append(int(v))
    return out


def parse_experiment_config(path) -> ExperimentConfig:
    """Read a key-value config file with [problem]/[solver]/[sweep]/[run] sections."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigInvalid(f"cannot parse config {path}: {exc}") from exc

    for section in cp.sections():
        if section not in ("problem", "solver", "sweep", "run"):
            raise ConfigInvalid(f"unknown section [{section}]")
    if not cp.has_section("problem") or not cp.has_section("run"):
        raise ConfigInvalid("config needs [problem] and [run] sections")

    try:
        problem = _parse_problem(dict(cp["problem"]))
        solver, n0_fraction = _parse_solver(dict(cp["solver"]) if cp.has_section("solver") else {})
        sweep_s, sweep_dN, sweep_sigma = _parse_sweep(
            dict(cp["sweep"]) if cp.has_section("sweep") else {}, problem, solver
        )
        run_sec = dict(cp["run"])
        unknown = set(run_sec) - _RUN_KEYS
        if unknown:
            raise ConfigInvalid(f"unknown keys in [run]: {sorted(unknown)}")
        if "seeds" not in run_sec:
            raise ConfigInvalid("[run] needs a seeds list")
        seeds = _distinct("seeds", _parse_ints(run_sec["seeds"]), str)
        if not seeds:
            raise ConfigInvalid("[run] seeds list is empty")
        output_dir = run_sec.get("output_dir", "runs")
    except (ValueError, KeyError) as exc:
        raise ConfigInvalid(f"bad config value: {exc}") from exc

    return ExperimentConfig(
        problem=problem,
        solver=solver,
        n0_fraction=n0_fraction,
        sweep_s=sweep_s,
        sweep_dN=sweep_dN,
        sweep_sigma=sweep_sigma,
        seeds=seeds,
        output_dir=output_dir,
    )


def _parse_problem(sec: dict) -> dict:
    kind = sec.get("kind")
    if kind not in _PROBLEM_FIELDS:
        raise ConfigInvalid(f"problem kind must be one of {sorted(_PROBLEM_FIELDS)}, got {kind!r}")
    fields = _PROBLEM_FIELDS[kind]
    unknown = set(sec) - set(fields) - {"kind"}
    if unknown:
        raise ConfigInvalid(f"unknown keys in [problem] for kind={kind}: {sorted(unknown)}")
    missing = [key for key, (_, default) in fields.items() if default is None and key not in sec]
    if missing:
        raise ConfigInvalid(f"{kind} problems need {', '.join(missing)} in [problem]")
    return {"kind": kind, **{key: conv(sec.get(key, d)) for key, (conv, d) in fields.items()}}


def _parse_solver(sec: dict) -> tuple[SolverConfig, float | None]:
    unknown = set(sec) - _SOLVER_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown keys in [solver]: {sorted(unknown)}")
    if "n0" in sec and "n0_fraction" in sec:
        raise ConfigInvalid("give either n0 or n0_fraction, not both")
    kwargs = {attr: conv(sec[key]) for key, attr, conv in _SOLVER_FIELDS if key in sec}
    n0_fraction = float(sec["n0_fraction"]) if "n0_fraction" in sec else None
    return SolverConfig(**kwargs), n0_fraction


def _parse_sweep(
    sec: dict, problem: dict, solver: SolverConfig
) -> tuple[tuple[float, ...], tuple[int, ...], tuple[float, ...] | None]:
    unknown = set(sec) - _SWEEP_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown keys in [sweep]: {sorted(unknown)}")
    sweep_s = _distinct("s", _parse_floats(sec["s"]), _format_g) if "s" in sec else (solver.s_exp,)
    sweep_dN = _distinct("dn", _parse_ints(sec["dn"]), str) if "dn" in sec else (solver.dN,)
    if "sigma" in sec:
        if problem["kind"] != "noisy_quadratic":
            raise ConfigInvalid("a sigma sweep only applies to noisy_quadratic problems")
        sweep_sigma = _distinct("sigma", _parse_floats(sec["sigma"]), _format_g)
    elif problem["kind"] == "noisy_quadratic":
        sweep_sigma = (problem["sigma"],)
    else:
        sweep_sigma = None
    return sweep_s, sweep_dN, sweep_sigma


def _format_g(v: float) -> str:
    return f"{v:g}"


def _distinct(key: str, values: list, label) -> tuple:
    """Reject values whose labels in run ids coincide.

    Two such values would write the same trace file and merge into one
    summary group, so the sweep could not keep their results apart.
    """
    labels = [label(v) for v in values]
    clashes = sorted({lab for lab in labels if labels.count(lab) > 1})
    if clashes:
        raise ConfigInvalid(
            f"{key} values {values} collide in run ids ({', '.join(clashes)}); "
            "floats are labelled by their %g form"
        )
    return tuple(values)


def plan_runs(cfg: ExperimentConfig, output_dir: str | None = None) -> list[dict]:
    """Expand the sweep grid into one self-contained payload per run.

    Payloads are plain dicts so worker processes can rebuild the problem
    and the solver configuration without sharing state with the parent.
    """
    out_dir = output_dir if output_dir is not None else cfg.output_dir
    sigmas: tuple[float | None, ...] = cfg.sweep_sigma if cfg.sweep_sigma is not None else (None,)
    payloads = []
    for s_exp in cfg.sweep_s:
        for dN in cfg.sweep_dN:
            for sigma in sigmas:
                config_id = f"s{_format_g(s_exp)}_dN{dN}"
                problem = dict(cfg.problem)
                if sigma is not None:
                    problem["sigma"] = sigma
                    config_id += f"_sig{_format_g(sigma)}"
                solver_fields = dataclasses.asdict(cfg.solver)
                solver_fields["s_exp"] = s_exp
                solver_fields["dN"] = dN
                grid_key = {
                    "problem": problem,
                    "solver": solver_fields,
                    "n0_fraction": cfg.n0_fraction,
                }
                config_hash = hashlib.sha256(
                    json.dumps(grid_key, sort_keys=True).encode()
                ).hexdigest()[:12]
                for seed in cfg.seeds:
                    payloads.append(
                        {
                            "config_id": config_id,
                            "config_hash": config_hash,
                            "s_exp": s_exp,
                            "dN": dN,
                            "sigma": sigma,
                            "seed": seed,
                            "problem": problem,
                            "solver": solver_fields,
                            "n0_fraction": cfg.n0_fraction,
                            "trace_file": f"trace_{config_id}_seed{seed}.csv",
                            "output_dir": out_dir,
                        }
                    )
    return payloads


def build_problem(problem: dict):
    """Construct (constraints, objective, x0) from a problem payload."""
    kind = problem["kind"]
    if kind == "noisy_quadratic":
        spec = make_noisy_quadratic(
            n=problem["n"],
            n_components=problem["components"],
            sigma=problem["sigma"],
            seed=problem["base_seed"],
            base_curvature=problem["base_curvature"],
            q_scale=problem["q_scale"],
        )
        obj = noisy_quadratic_objective(spec)
        n = spec.dim
    elif kind == "logistic":
        ds = load_libsvm(problem["dataset"])
        obj = logistic_objective(ds)
        n = ds.dim
    else:
        raise ConfigInvalid(f"unknown problem kind {kind!r}")
    m = max(1, round(problem["m_fraction"] * n))
    cs = generate_constraints(n, m, seed=problem["constraint_seed"])
    return cs, obj, min_norm_feasible(cs)


def _resolve_n0(n0_fraction: float | None, base_n0: int, n_components: int) -> int:
    if n0_fraction is None:
        return min(base_n0, n_components)
    return min(n_components, max(1, math.ceil(n0_fraction * n_components)))


def execute_run(payload: dict) -> dict:
    """Run one grid point / seed combination and write its trace.

    Returns a result row for the manifest; failures are reported in the
    row rather than raised, so one bad run cannot take down a sweep.
    """
    # The payload carries every manifest column except status and error.
    result = {col: payload.get(col, "") for col in MANIFEST_COLUMNS}
    try:
        cs, obj, x0 = build_problem(payload["problem"])
        fields = dict(payload["solver"])
        fields["N0"] = _resolve_n0(payload["n0_fraction"], fields["N0"], obj.n_components)
        fields["seed"] = payload["seed"]
        cfg = SolverConfig(**fields)
        out = run(cs, obj, cfg, x0=x0)
        write_trace(out.records, os.path.join(payload["output_dir"], payload["trace_file"]))
        result["status"] = out.status
    except (IpasError, OSError, ValueError) as exc:
        result["status"] = "failed"
        result["error"] = str(exc)
    return result


def read_manifest(path: str) -> list[dict]:
    cols, lines = _read_csv(path)
    if not cols:
        raise ParseError(f"{path}: empty manifest")
    rows = []
    for cells in lines:
        row = dict(zip(cols, cells))
        row["s_exp"] = float(row["s_exp"])
        row["dN"] = int(row["dN"])
        row["sigma"] = float(row["sigma"]) if row["sigma"] else None
        row["seed"] = int(row["seed"])
        rows.append(row)
    return rows


def final_norm_d(records: list[IterationRecord]) -> float:
    return records[-1].norm_d_true


def reach_budget(records: list[IterationRecord], threshold: float) -> float:
    """Scalar products spent until norm_d_true first drops to the threshold.

    Returns +inf when the run never reached it.
    """
    for r in records:
        if r.norm_d_true <= threshold:
            return float(r.scalar_products)
    return math.inf


def _summary_row(rows: list[dict], **stats) -> SummaryRow:
    """A group's row: identity columns from its first run, failure counts, stats."""
    head = rows[0]
    return SummaryRow(
        config_id=head["config_id"],
        config_hash=head["config_hash"],
        s_exp=head["s_exp"],
        dN=head["dN"],
        sigma=head["sigma"],
        n_runs=len(rows),
        n_failed=sum(1 for r in rows if r["status"] == "failed"),
        **stats,
    )


# Statistics of a group whose runs all failed.
_FAILED_STATS = dict(
    d_final_median=math.nan,
    d_final_q25=math.nan,
    d_final_q75=math.nan,
    budget_median=math.nan,
    e_final_median=math.nan,
    reached=tuple(0.0 for _ in REACH_THRESHOLDS),
)


def summarize_group(
    rows: list[dict], traces: list[list[IterationRecord]]
) -> SummaryRow:
    """Aggregate one grid point over its seeds.

    rows holds the manifest entries (completed and failed); traces holds
    the parsed trace of each completed run, aligned with the completed
    subset of rows in order.
    """
    if not rows:
        raise EmptyGroup("cannot summarise an empty run group")
    completed = [r for r in rows if r["status"] != "failed"]
    if not completed:
        raise EmptyGroup(
            f"group {rows[0]['config_id']} has no completed runs "
            f"({len(rows)} failed)"
        )
    if len(completed) != len(traces):
        raise ValueError("trace list does not match the completed runs")

    finals = np.array([final_norm_d(t) for t in traces])
    budgets = np.array([t[-1].scalar_products for t in traces], dtype=float)
    e_finals = np.array([t[-1].e_x for t in traces])
    reached = tuple(
        float(np.mean([1.0 if reach_budget(t, thr) < math.inf else 0.0 for t in traces]))
        for thr in REACH_THRESHOLDS
    )
    return _summary_row(
        rows,
        d_final_median=float(np.quantile(finals, 0.5)),
        d_final_q25=float(np.quantile(finals, 0.25)),
        d_final_q75=float(np.quantile(finals, 0.75)),
        budget_median=float(np.quantile(budgets, 0.5)),
        e_final_median=float(np.quantile(e_finals, 0.5)),
        reached=reached,
    )


def interpolate_log_d(records: list[IterationRecord], budgets: np.ndarray) -> np.ndarray:
    """Per-run interpolant of log10 norm_d_true, linear in the budget axis.

    Rows sharing a budget value collapse to the latest one, and direction
    norms are floored at 1e-16 before the log.
    """
    xs = np.array([r.scalar_products for r in records], dtype=float)
    ys = np.log10(np.maximum([r.norm_d_true for r in records], 1e-16))
    keep_x: list[float] = []
    keep_y: list[float] = []
    for x, y in zip(xs, ys):
        if keep_x and x == keep_x[-1]:
            keep_y[-1] = y
        else:
            keep_x.append(float(x))
            keep_y.append(float(y))
    return np.interp(budgets, keep_x, keep_y)


def budget_curve(
    traces: list[list[IterationRecord]], n_points: int = CURVE_POINTS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and standard error of log10 ||d|| on a common budget grid.

    The grid spans the budgets where every run has data, so each point is
    an arithmetic mean of per-run interpolants rather than an
    extrapolation.
    """
    if not traces:
        raise EmptyGroup("no traces to build a curve from")
    lo = max(t[0].scalar_products for t in traces)
    hi = min(t[-1].scalar_products for t in traces)
    if hi < lo:
        lo = hi
    grid = np.linspace(lo, hi, n_points) if hi > lo else np.array([float(lo)])
    interped = np.vstack([interpolate_log_d(t, grid) for t in traces])
    mean = interped.mean(axis=0)
    if len(traces) > 1:
        se = interped.std(axis=0, ddof=1) / np.sqrt(len(traces))
    else:
        se = np.zeros_like(mean)
    return grid, mean, se


def summarize_dir(trace_dir: str) -> list[SummaryRow]:
    """Rebuild summary.csv and the curve files from a manifest directory."""
    manifest_path = os.path.join(trace_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise EmptyGroup(f"no manifest {MANIFEST_NAME} in {trace_dir}")
    rows = read_manifest(manifest_path)
    if not rows:
        raise EmptyGroup(f"manifest in {trace_dir} lists no runs")

    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["config_id"], []).append(row)

    summary_rows = []
    for config_id in sorted(groups):
        group = sorted(groups[config_id], key=lambda r: r["seed"])
        traces = [
            read_trace(os.path.join(trace_dir, r["trace_file"]))
            for r in group
            if r["status"] != "failed"
        ]
        if traces:
            summary_rows.append(summarize_group(group, traces))
            grid, mean, se = budget_curve(traces)
            _write_csv(
                os.path.join(trace_dir, f"curve_{config_id}.csv"),
                CURVE_COLUMNS,
                (
                    (b, m, s, 10.0**m, 10.0 ** (m - 1.96 * s), 10.0 ** (m + 1.96 * s))
                    for b, m, s in zip(grid, mean, se)
                ),
            )
        else:
            # Keep fully-failed groups visible instead of dropping them.
            summary_rows.append(_summary_row(group, **_FAILED_STATS))
    _write_csv(
        os.path.join(trace_dir, SUMMARY_NAME),
        SUMMARY_COLUMNS,
        ((*dataclasses.astuple(r)[:-1], *r.reached) for r in summary_rows),
    )
    return summary_rows


@dataclass
class ExperimentOutcome:
    output_dir: str
    n_runs: int
    n_failed: int
    summary: list[SummaryRow]


def run_experiment(
    cfg: ExperimentConfig,
    workers: int | None = None,
    output_dir: str | None = None,
) -> ExperimentOutcome:
    """Execute the full sweep and write traces, manifest, summary and curves.

    workers defaults to the available parallelism; results are collected
    and written in a deterministic order regardless of scheduling.
    """
    out_dir = output_dir if output_dir is not None else cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    payloads = plan_runs(cfg, output_dir=out_dir)

    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(payloads)))

    if workers == 1:
        results = [execute_run(p) for p in payloads]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(execute_run, payloads, chunksize=1))

    results.sort(key=lambda r: (r["config_id"], r["seed"]))
    _write_csv(
        os.path.join(out_dir, MANIFEST_NAME),
        MANIFEST_COLUMNS,
        ([r[c] for c in MANIFEST_COLUMNS] for r in results),
    )
    summary = summarize_dir(out_dir)
    n_failed = sum(1 for r in results if r["status"] == "failed")
    return ExperimentOutcome(
        output_dir=out_dir, n_runs=len(results), n_failed=n_failed, summary=summary
    )
