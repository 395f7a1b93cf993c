"""Experiment sweeps: config files, parallel runs, and trace summaries.

A config file describes one problem, a base solver configuration, a sweep
grid over the tolerance exponent, the batch growth step and (for the
noisy quadratic) the noise level, and a list of seeds.  Every grid point
times seed becomes one run with its own trace CSV; a manifest, a summary
table and per-grid-point budget curves are written next to the traces,
from each completed run's TraceColumns.  Identical configs produce
byte-identical outputs, regardless of worker count.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import dataclasses
import fnmatch
import hashlib
import json
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .constraints import min_norm_feasible
from .errors import ConfigInvalid, EmptyGroup, IpasError, OutputExists
from .objective import BudgetMeter, full_value_grad
from .problems import (
    LogisticDataset,
    _usable_cpu_count,
    generate_constraints,
    logistic_objective,
    make_noisy_quadratic,
    noisy_quadratic_objective,
    parse_libsvm,
)
from .solver import (
    IterationRecord,
    SolverConfig,
    _read_csv,
    _write_csv,
    read_trace,
    run,
    validate_config,
    write_trace,
)

MANIFEST_NAME = "runs.csv"
SUMMARY_NAME = "summary.csv"

# Names of the files a sweep writes; a directory holding any of them already
# holds results, which a new sweep would overwrite or merge with its own.
_OUTPUT_PATTERNS = (MANIFEST_NAME, SUMMARY_NAME, "trace_*.csv", "curve_*.csv")

# Stationarity levels reported as "fraction of runs that reached" columns.
REACH_THRESHOLDS = (1e-1, 1e-2, 1e-3)

# Number of points on the common budget grid for the mean curves.
CURVE_POINTS = 50


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


# The manifest's columns, in order, each with the parser of its cells; sigma
# is empty for a logistic run.
_MANIFEST_PARSERS = {
    "config_id": str, "config_hash": str, "s_exp": float, "dN": int,
    "sigma": lambda v: float(v) if v else None, "seed": int,
    "status": str, "trace_file": str, "error": str,
}
MANIFEST_COLUMNS = tuple(_MANIFEST_PARSERS)
# SummaryRow's fields in order, with reached spread over one column per threshold.
SUMMARY_COLUMNS = tuple(f.name for f in dataclasses.fields(SummaryRow))[:-1] + tuple(
    f"reached_{t:g}" for t in REACH_THRESHOLDS
)
CURVE_COLUMNS = ("budget", "log10_d_mean", "log10_d_se", "d_geomean", "d_lo", "d_hi")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_ints(text: str) -> list[int]:
    """Integers, read exactly: in digits, or in a float form of an integer (10.0, 1e3).

    A float form must also be finite as a float, so inf, nan and 1e400 fail.
    """
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(int(tok))
        except ValueError:
            exact = Decimal(tok) if float(tok).is_integer() else None
            if exact is None or exact != exact.to_integral_value():
                raise ValueError(f"expected an integer, got {tok!r}") from None
            out.append(int(exact))
    return out


def _parse_int(text: str) -> int:
    """Exactly one integer, read by _parse_ints's rule."""
    values = _parse_ints(text)
    if len(values) != 1:
        raise ValueError(f"expected an integer, got {text!r}")
    return values[0]


# Each config section's table: key -> (converter, default), where the default
# is the text an absent key reads as, _REQUIRED, or None to leave it out.
_REQUIRED = object()

# [problem] keys of each kind besides "kind".
_CONSTRAINT_KEYS = {"m_fraction": (float, "0.5"), "constraint_seed": (_parse_int, "0")}
_PROBLEM_KINDS = {
    "noisy_quadratic": {
        "n": (_parse_int, _REQUIRED),
        "components": (_parse_int, _REQUIRED),
        "sigma": (float, "1.0"),
        "base_seed": (_parse_int, "0"),
        "base_curvature": (float, "1.0"),
        "q_scale": (float, "1.0"),
        **_CONSTRAINT_KEYS,
    },
    "logistic": {"dataset": (str, _REQUIRED), **_CONSTRAINT_KEYS},
}

# [solver] keys, each optional: an absent one keeps SolverConfig's default.
_SOLVER_SECTION = dict.fromkeys(
    ("beta", "c", "c1", "t_min", "c_accept", "n0_fraction", "s", "tol_d", "tol_e"), (float, None)
) | dict.fromkeys(("n0", "dn", "d", "k_max"), (_parse_int, None))
# The SolverConfig field of each [solver] key that names it otherwise.
_SOLVER_FIELD_NAMES = {"c_accept": "C_accept", "n0": "N0", "dn": "dN", "s": "s_exp", "d": "D_size"}

# [sweep] grids, each nonempty and of values distinct in run ids; an absent
# one holds the base configuration's value.
_SWEEP_SECTION = {
    "s": (lambda text: _distinct("[sweep] s", _parse_floats(text), _format_g), None),
    "dn": (lambda text: _distinct("[sweep] dn", _parse_ints(text), str), None),
    "sigma": (lambda text: _distinct("[sweep] sigma", _parse_floats(text), _format_g), None),
}

_RUN_SECTION = {
    "seeds": (lambda text: _distinct("[run] seeds", _parse_ints(text), str), _REQUIRED),
    "output_dir": (str, "runs"),
}


def parse_experiment_config(path) -> ExperimentConfig:
    """Read a key-value config file with [problem]/[solver]/[sweep]/[run] sections.

    Each section is read by its table, the checks that span keys run, and each
    grid point is prepared as its runs will be; ConfigInvalid names what failed.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigInvalid(f"cannot parse config {path}: {exc}") from exc

    for section in cp.sections():
        if section not in ("problem", "solver", "sweep", "run"):
            raise ConfigInvalid(f"unknown section [{section}]")
    if not cp.has_section("problem") or not cp.has_section("run"):
        raise ConfigInvalid("config needs [problem] and [run] sections")
    kind = cp["problem"].get("kind")
    if kind not in _PROBLEM_KINDS:
        raise ConfigInvalid(f"problem kind must be one of {sorted(_PROBLEM_KINDS)}, got {kind!r}")
    try:
        problem = _section(cp, "problem", {"kind": (str, _REQUIRED), **_PROBLEM_KINDS[kind]})
        solver = _section(cp, "solver", _SOLVER_SECTION)
        sweep = _section(cp, "sweep", _SWEEP_SECTION)
        run_sec = _section(cp, "run", _RUN_SECTION)
    except (ValueError, KeyError) as exc:
        raise ConfigInvalid(f"bad config value: {exc}") from exc

    if not 0.0 < problem["m_fraction"] <= 1.0:  # false for NaN and infinities too
        raise ConfigInvalid(f"m_fraction={problem['m_fraction']} must lie in (0, 1]")
    if "n0" in solver and "n0_fraction" in solver:
        raise ConfigInvalid("give either n0 or n0_fraction, not both")
    n0_fraction = solver.pop("n0_fraction", None)
    if n0_fraction is not None and not 0.0 < n0_fraction <= 1.0:
        raise ConfigInvalid(f"n0_fraction={n0_fraction} must lie in (0, 1]")
    base = SolverConfig(**{_SOLVER_FIELD_NAMES.get(k, k): v for k, v in solver.items()})
    if "sigma" in sweep and kind != "noisy_quadratic":
        raise ConfigInvalid("a sigma sweep only applies to noisy_quadratic problems")
    if not run_sec["output_dir"]:
        raise ConfigInvalid("[run] output_dir is empty")

    cfg = ExperimentConfig(
        problem=problem,
        solver=base,
        n0_fraction=n0_fraction,
        sweep_s=sweep.get("s", (base.s_exp,)),
        sweep_dN=sweep.get("dn", (base.dN,)),
        sweep_sigma=sweep.get("sigma", (problem["sigma"],)) if kind == "noisy_quadratic" else None,
        seeds=run_sec["seeds"],
        output_dir=run_sec["output_dir"],
    )
    _validate_grid(cfg)
    return cfg


def _section(cp: configparser.ConfigParser, name: str, table: dict) -> dict:
    """Section [name]'s values by key, read by its table; an absent section is empty.

    Raises ConfigInvalid on a key the table lacks and on a required key the
    section lacks.
    """
    sec = dict(cp[name]) if cp.has_section(name) else {}
    unknown = set(sec) - set(table)
    if unknown:
        raise ConfigInvalid(f"unknown keys in [{name}]: {sorted(unknown)}")
    missing = [key for key, (_, d) in table.items() if d is _REQUIRED and key not in sec]
    if missing:
        raise ConfigInvalid(f"[{name}] needs {', '.join(missing)}")
    return {k: conv(sec.get(k, d)) for k, (conv, d) in table.items() if k in sec or d is not None}


def _validate_grid(cfg: ExperimentConfig) -> None:
    """Raise ConfigInvalid naming the first grid point that execute_run could not prepare.

    Each distinct problem is built once and evaluated at x0 on a throwaway
    meter, then each run's SolverConfig, seed included, is checked against
    its component count.  The error is stated as a manifest row would state it.
    """
    counts: dict[str, int] = {}  # component count by distinct problem
    for payload in plan_runs(cfg):
        key = json.dumps(payload["problem"], sort_keys=True)
        try:
            if key not in counts:
                _, obj, x0 = build_problem(payload["problem"])
                meter = BudgetMeter()
                full_value_grad(obj, x0, meter).value(meter)
                counts[key] = obj.n_components
            validate_config(_run_config(payload, counts[key]), n_components=counts[key])
        except Exception as exc:
            sigma = "" if payload["sigma"] is None else f", sigma={_format_g(payload['sigma'])}"
            point = f"s={_format_g(payload['s_exp'])}, dN={payload['dN']}{sigma}"
            raise ConfigInvalid(f"grid point {point}: {_error_text(exc)}") from exc


def _format_g(v: float) -> str:
    return f"{v:g}"


def _distinct(key: str, values: list, label) -> tuple:
    """Reject an empty list, and values whose labels in run ids coincide.

    Two such values would write the same trace file and merge into one
    summary group, so the sweep could not keep their results apart.
    """
    if not values:
        raise ConfigInvalid(f"{key} list is empty")
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


# The last LIBSVM dataset this process parsed, keyed by (path, sha256 of the
# file's bytes): the runs of a sweep that one worker executes share it, and
# a file rewritten at the same path is parsed afresh.
_dataset_cache: tuple[tuple[str, str], LogisticDataset] | None = None


def _load_dataset(path: str) -> LogisticDataset:
    global _dataset_cache
    with open(path, "rb") as fh:
        data = fh.read()
    key = (path, hashlib.sha256(data).hexdigest())
    if _dataset_cache is None or _dataset_cache[0] != key:
        _dataset_cache = (key, parse_libsvm(data, path))
    return _dataset_cache[1]


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
        ds = _load_dataset(problem["dataset"])
        obj = logistic_objective(ds)
        n = ds.dim
    else:
        raise ConfigInvalid(f"unknown problem kind {kind!r}")
    m = max(1, round(problem["m_fraction"] * n))
    cs = generate_constraints(n, m, seed=problem["constraint_seed"])
    return cs, obj, min_norm_feasible(cs)


def _run_config(payload: dict, n_components: int) -> SolverConfig:
    """A planned run's SolverConfig, with N0 resolved against the component count."""
    fields = dict(payload["solver"], seed=payload["seed"])
    fraction = payload["n0_fraction"]
    n0 = fields["N0"] if fraction is None else max(1, math.ceil(fraction * n_components))
    fields["N0"] = min(n0, n_components)
    return SolverConfig(**fields)


def _error_text(exc: Exception) -> str:
    """An error as a manifest row states it: an unexpected kind also names its type."""
    if isinstance(exc, (IpasError, OSError, ValueError)):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def execute_run(payload: dict) -> dict:
    """Run one grid point / seed combination and write its trace.

    Returns a result row for the manifest; failures are reported in the
    row rather than raised, so one bad run cannot take down a sweep.  A
    completed run's row also carries its TraceColumns under "trace_columns".
    """
    # The payload carries every manifest column except status and error.
    result = {col: payload.get(col, "") for col in MANIFEST_COLUMNS}
    try:
        cs, obj, x0 = build_problem(payload["problem"])
        out = run(cs, obj, _run_config(payload, obj.n_components), x0=x0)
        write_trace(out.records, os.path.join(payload["output_dir"], payload["trace_file"]))
        result["status"] = out.status
        result["trace_columns"] = TraceColumns.of(out.records)
    except Exception as exc:
        # Any error, a defect too, is this run's alone: report it, keep the sweep going.
        result["status"] = "failed"
        result["error"] = _error_text(exc)
    return result


def read_manifest(path: str) -> list[dict]:
    """Parse a manifest written by run_experiment: one dict per run, keyed by column."""
    rows = _read_csv(path, _MANIFEST_PARSERS, "manifest")
    return [dict(zip(MANIFEST_COLUMNS, row)) for row in rows]


class TraceColumns(NamedTuple):
    """What a summary reads of one trace: each row's budget and norm_d_true, the final e_x."""

    budget: np.ndarray
    norm_d: np.ndarray
    e_final: float

    @classmethod
    def of(cls, records: list[IterationRecord]) -> TraceColumns:
        """The columns of a trace given as its records."""
        return cls(
            np.array([r.scalar_products for r in records], dtype=float),
            np.array([r.norm_d_true for r in records], dtype=float),
            records[-1].e_x,
        )


def reach_budget(trace: TraceColumns, threshold: float) -> float:
    """Scalar products spent until norm_d_true first drops to the threshold.

    Returns +inf when the run never reached it.
    """
    hits = np.flatnonzero(trace.norm_d <= threshold)
    return float(trace.budget[hits[0]]) if hits.size else math.inf


def summarize_group(rows: list[dict]) -> SummaryRow:
    """Aggregate one grid point over its seeds.

    rows holds the manifest entries, completed and failed; each completed
    one carries its TraceColumns under "trace_columns".  A group whose runs
    all failed stays visible, with NaN statistics and zero reach fractions.
    """
    if not rows:
        raise EmptyGroup("cannot summarise an empty run group")
    traces = [r["trace_columns"] for r in rows if r["status"] != "failed"]
    if traces:
        finals = np.array([(t.norm_d[-1], t.budget[-1], t.e_final) for t in traces])
        reached = tuple(
            float(np.mean([reach_budget(t, thr) < math.inf for t in traces]))
            for thr in REACH_THRESHOLDS
        )
    else:
        finals = np.full((1, 3), math.nan)
        reached = (0.0,) * len(REACH_THRESHOLDS)
    d_finals, budgets, e_finals = finals.T
    head = rows[0]
    return SummaryRow(
        config_id=head["config_id"],
        config_hash=head["config_hash"],
        s_exp=head["s_exp"],
        dN=head["dN"],
        sigma=head["sigma"],
        n_runs=len(rows),
        n_failed=len(rows) - len(traces),
        d_final_median=float(np.quantile(d_finals, 0.5)),
        d_final_q25=float(np.quantile(d_finals, 0.25)),
        d_final_q75=float(np.quantile(d_finals, 0.75)),
        budget_median=float(np.quantile(budgets, 0.5)),
        e_final_median=float(np.quantile(e_finals, 0.5)),
        reached=reached,
    )


def interpolate_log_d(trace: TraceColumns, budgets: np.ndarray) -> np.ndarray:
    """Per-run interpolant of log10 norm_d_true, linear in the budget axis.

    Rows sharing a budget value collapse to the latest one, and direction
    norms are floored at 1e-16 before the log.
    """
    ys = np.log10(np.maximum(trace.norm_d, 1e-16))
    # The last row of each run of equal budgets.
    last = np.append(trace.budget[1:] != trace.budget[:-1], True)
    return np.interp(budgets, trace.budget[last], ys[last])


def budget_curve(
    traces: list[TraceColumns], n_points: int = CURVE_POINTS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and standard error of log10 ||d|| on a common budget grid.

    The grid spans the budgets where every run has data, so each point is
    an arithmetic mean of per-run interpolants rather than an
    extrapolation.
    """
    if not traces:
        raise EmptyGroup("no traces to build a curve from")
    lo = max(t.budget[0] for t in traces)
    hi = min(t.budget[-1] for t in traces)
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
    for row in rows:
        if row["status"] != "failed":
            trace = read_trace(os.path.join(trace_dir, row["trace_file"]))
            row["trace_columns"] = TraceColumns.of(trace)
    return _write_summary(trace_dir, rows)


def _write_summary(out_dir: str, rows: list[dict]) -> list[SummaryRow]:
    """Write summary.csv, and a curve file per group with a completed run, from manifest rows."""
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["config_id"], []).append(row)

    summary_rows = []
    for config_id in sorted(groups):
        group = sorted(groups[config_id], key=lambda r: r["seed"])
        summary_rows.append(summarize_group(group))
        traces = [r["trace_columns"] for r in group if r["status"] != "failed"]
        if traces:
            grid, mean, se = budget_curve(traces)
            _write_csv(
                os.path.join(out_dir, f"curve_{config_id}.csv"),
                CURVE_COLUMNS,
                (
                    (b, m, s, 10.0**m, 10.0 ** (m - 1.96 * s), 10.0 ** (m + 1.96 * s))
                    for b, m, s in zip(grid, mean, se)
                ),
            )
    _write_csv(
        os.path.join(out_dir, SUMMARY_NAME),
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

    workers defaults to the CPUs the process may run on (its affinity
    mask where the OS has one, else os.cpu_count()); results are collected
    and written in a deterministic order regardless of scheduling.  Raises,
    before any run, ValueError if workers < 1, OutputExists if the output
    directory holds sweep results and ConfigInvalid if it cannot be made.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers={workers} must be >= 1")
    out_dir = output_dir if output_dir is not None else cfg.output_dir
    if os.path.isdir(out_dir):
        found = sorted(
            name
            for name in os.listdir(out_dir)
            if any(fnmatch.fnmatchcase(name, pat) for pat in _OUTPUT_PATTERNS)
        )
        if found:
            raise OutputExists(
                f"output directory {out_dir} already holds sweep results "
                f"({len(found)} files, e.g. {found[0]}); choose another directory"
            )
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot create output directory {out_dir}: {exc}") from exc
    payloads = plan_runs(cfg, output_dir=out_dir)

    if workers is None:
        workers = _usable_cpu_count()
    workers = min(workers, len(payloads))

    if workers <= 1:
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
    summary = _write_summary(out_dir, results)
    n_failed = sum(1 for r in results if r["status"] == "failed")
    return ExperimentOutcome(
        output_dir=out_dir, n_runs=len(results), n_failed=n_failed, summary=summary
    )
