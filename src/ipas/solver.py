"""Adaptive-sample-size projected gradient method with inexact projections.

Each iteration estimates the gradient on a mini-batch drawn by the weights
(or on the full sum once the batch covers it), takes an inexactly projected
gradient step sized by a nonmonotone Armijo search, and then lets an
independently drawn control sample accept the step or reject it and grow
the batch.  The projection tolerance eta_k = 1/(k+1)^s decays fast enough
that the squared tolerances are summable, which is what the nonmonotone
slack and the acceptance test lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterable

import numpy as np

from .constraints import (
    ConstraintSet,
    ProjectionResult,
    exact_project,
    feasibility_gap,
    inexact_project,
    projected_direction,
)
from .errors import ConfigInvalid, InvariantViolation, MaxBacktracks, NonFiniteValue, ParseError
from .objective import (
    BudgetMeter,
    FiniteSumObjective,
    draw_sample,
    full_grad,
    full_value,
    subsample_grad,
    subsample_value,
)

# Hard cap on Armijo backtracks in the full-sample search.
_MAX_BACKTRACKS = 200

# Slack for runtime feasibility checks; covers float roundoff only.
_FEAS_CHECK_ATOL = 1e-10

TRACE_COLUMNS = (
    "k",
    "N_k",
    "t_k",
    "norm_p",
    "norm_d_true",
    "e_x",
    "f_true",
    "scalar_products",
    "accepted",
    "unsuccessful",
    "cg_iters",
)

STATUS_STATIONARY = "stationary"
STATUS_MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for the adaptive solver.

    beta, c, c1, t_min all live in (0, 1); C_accept > 0 relaxes the
    acceptance test; s_exp > 0.5 makes the squared projection tolerances
    summable.  N0 is the starting batch size, dN the additive growth on
    rejection, D_size the control sample size.  tol_d/tol_e default to 0,
    which disables early stopping except at exact stationarity.
    """

    beta: float = 0.1
    c: float = 1e-4
    c1: float = 1e-2
    t_min: float = 1e-4
    C_accept: float = 1e-2
    N0: int = 1
    dN: int = 1
    s_exp: float = 1.0
    D_size: int = 1
    k_max: int = 500
    seed: int = 0
    tol_d: float = 0.0
    tol_e: float = 0.0
    oracle_metrics: bool = True


@dataclass
class SolverState:
    """Mutable per-run state threaded through the iterations."""

    x: np.ndarray
    k: int
    Nk: int
    rng: np.random.Generator
    meter: BudgetMeter
    e_x: float | None = None
    done: str | None = None
    projections_checked: int = 0


@dataclass(frozen=True)
class IterationRecord:
    """One trace row: the state entering iteration k plus the step taken there.

    norm_d_true and f_true are oracle metrics computed with the exact
    projection and the full weighted sums; they never touch the budget.
    scalar_products is the meter total after the iteration finished.
    """

    k: int
    Nk: int
    t: float
    norm_p: float
    norm_d_true: float
    e_x: float
    f_true: float
    scalar_products: int
    accepted: bool
    unsuccessful: bool
    cg_iters: int


@dataclass(frozen=True)
class AdditionalSampleResult:
    """Outcome of the control-sample acceptance test."""

    accepted: bool
    s_norm: float
    cg_iterations: int
    projection: ProjectionResult


@dataclass
class RunResult:
    records: list[IterationRecord]
    status: str
    x: np.ndarray
    meter: BudgetMeter
    seed: int
    projections_checked: int = 0

    @property
    def final_record(self) -> IterationRecord:
        return self.records[-1]


def eta(k: int, s_exp: float) -> float:
    """Projection tolerance schedule 1/(k+1)^s_exp for k = 0, 1, ..."""
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    return float((k + 1) ** (-s_exp))


def _bound_problems(cfg, unit_fields: tuple[str, ...]) -> list[str]:
    """Violations of the bounds that SolverConfig and BaselineConfig share.

    unit_fields names the parameters that must lie in (0, 1).
    """
    problems = []
    for name in unit_fields:
        v = getattr(cfg, name)
        if not (0.0 < v < 1.0):
            problems.append(f"{name}={v!r} must lie in (0, 1)")
    if not cfg.s_exp > 0.5:
        problems.append(f"s_exp={cfg.s_exp!r} must exceed 0.5 for summable squared tolerances")
    if cfg.k_max < 0:
        problems.append(f"k_max={cfg.k_max} must be >= 0")
    if cfg.tol_d < 0 or cfg.tol_e < 0:
        problems.append("tolerances tol_d and tol_e must be >= 0")
    return problems


def validate_config(
    cfg: SolverConfig,
    L_estimate: float | None = None,
    n_components: int | None = None,
) -> list[str]:
    """Raise ConfigInvalid on hard violations; return soft warnings.

    With an L_estimate, warns when t_min is too large for the backtracking
    floor guarantee t_min < min(1, 2*beta*c*(1-c1)/L).
    """
    problems = _bound_problems(cfg, ("beta", "c", "c1", "t_min"))
    if not cfg.C_accept > 0:
        problems.append(f"C_accept={cfg.C_accept!r} must be positive")
    if cfg.N0 < 1:
        problems.append(f"N0={cfg.N0} must be >= 1")
    if cfg.dN < 1:
        problems.append(f"dN={cfg.dN} must be >= 1")
    if cfg.D_size < 1:
        problems.append(f"D_size={cfg.D_size} must be >= 1")
    if n_components is not None:
        if cfg.N0 > n_components:
            problems.append(f"N0={cfg.N0} exceeds the component count {n_components}")
        # With a single component every iteration is full sample and the
        # control draw never happens, so the D_size bound only applies
        # when a mini-batch phase is reachable.
        if n_components >= 2 and cfg.D_size > n_components - 1:
            problems.append(
                f"D_size={cfg.D_size} must be <= N-1 = {n_components - 1}"
            )
    if problems:
        raise ConfigInvalid("; ".join(problems))

    warnings = []
    if L_estimate is not None and L_estimate > 0:
        floor_bound = min(1.0, 2.0 * cfg.beta * cfg.c * (1.0 - cfg.c1) / L_estimate)
        if cfg.t_min >= floor_bound:
            warnings.append(
                f"t_min={cfg.t_min!r} is not below the backtracking floor bound "
                f"{floor_bound:.3e} for L~{L_estimate:.3e}; the step-size floor "
                "guarantee does not apply"
            )
    return warnings


def search_direction(
    cs: ConstraintSet, grad_est: np.ndarray, x: np.ndarray, eta_k: float
) -> tuple[np.ndarray, ProjectionResult]:
    """Inexactly projected gradient direction p = proj(x - grad_est) - x."""
    proj = inexact_project(cs, x - grad_est, eta_k)
    return proj.point - x, proj


def descent_check(grad_full: np.ndarray, p: np.ndarray, c: float) -> bool:
    """True when p is a sufficient descent direction: g.p <= -c ||p||^2."""
    return float(grad_full @ p) <= -c * float(p @ p)


def line_search_full(
    phi: Callable[[float], float],
    f0: float,
    slope: float,
    eta_k: float,
    beta: float,
    c1: float,
) -> float:
    """Backtracking Armijo search with nonmonotone slack eta_k^2.

    Returns the largest t = beta^j (smallest j >= 0) with
    phi(t) <= f0 + c1*t*slope + eta_k^2.  phi should map non-finite trial
    values to +inf so that they simply fail the test.  Raises MaxBacktracks
    after 200 failed reductions.
    """
    slack = eta_k * eta_k
    for j in range(_MAX_BACKTRACKS + 1):
        t = beta**j
        if phi(t) <= f0 + c1 * t * slope + slack:
            return t
    raise MaxBacktracks(
        f"no step satisfied the Armijo condition within {_MAX_BACKTRACKS} backtracks; "
        "check the objective for non-finite values or a broken gradient"
    )


def line_search_minibatch(
    phi: Callable[[float], float],
    f0: float,
    slope: float,
    eta_k: float,
    beta: float,
    c1: float,
    t_min: float,
) -> float:
    """Bounded backtracking from t = 1, never returning below t_min.

    Reduces t by beta only while the Armijo condition (with slack eta_k^2)
    fails and the reduced step would still be >= t_min.  The returned step
    may violate the Armijo condition; the acceptance test downstream is
    what protects the iterate.
    """
    slack = eta_k * eta_k
    t = 1.0
    while phi(t) > f0 + c1 * t * slope + slack and beta * t >= t_min:
        t = beta * t
    return t


def additional_sampling_test(
    cs: ConstraintSet,
    obj: FiniteSumObjective,
    x: np.ndarray,
    x_trial: np.ndarray,
    eta_k: float,
    cfg: SolverConfig,
    rng: np.random.Generator,
    meter: BudgetMeter,
) -> AdditionalSampleResult:
    """Accept or reject a trial point using an independent control sample.

    Draws D_size indices, forms the inexactly projected direction s of the
    control gradient at x, and accepts when the control objective at the
    trial point improves on x by at least c*||s||^2 - C_accept*eta_k^2.
    All evaluations are charged whether or not the step is accepted.
    """
    d_set = draw_sample(obj.weights, cfg.D_size, rng)
    g_d = subsample_grad(obj, d_set, x, meter)
    proj = inexact_project(cs, x - g_d, eta_k)
    s = proj.point - x
    f_x = subsample_value(obj, d_set, x, meter)
    try:
        f_trial = subsample_value(obj, d_set, x_trial, meter)
    except NonFiniteValue:
        f_trial = math.inf
    s_sq = float(s @ s)
    accepted = f_trial <= f_x - cfg.c * s_sq + cfg.C_accept * eta_k * eta_k
    return AdditionalSampleResult(
        accepted=accepted,
        s_norm=float(np.sqrt(s_sq)),
        cg_iterations=proj.cg_iterations,
        projection=proj,
    )


def _verify_projection(
    cs: ConstraintSet, proj: ProjectionResult, eta_k: float, state: SolverState
) -> None:
    """Check the residual contract on every inexact projection the solver makes.

    The feasibility gap of the projected point must equal the reported
    residual norm up to roundoff, and both must respect the tolerance.
    """
    gap = feasibility_gap(cs, proj.point)
    if proj.residual_norm > eta_k:
        raise InvariantViolation(
            f"projection residual {proj.residual_norm:.3e} exceeds its tolerance {eta_k:.3e}"
        )
    if abs(gap - proj.residual_norm) > _FEAS_CHECK_ATOL:
        raise InvariantViolation(
            f"feasibility gap {gap:.6e} of the projected point disagrees with the "
            f"reported residual {proj.residual_norm:.6e}"
        )
    state.projections_checked += 1


def _guarded(fn: Callable[[], float]) -> float:
    """Evaluate a trial objective value, mapping non-finite results to +inf."""
    try:
        return fn()
    except NonFiniteValue:
        return math.inf


def ipas_step(
    state: SolverState, cs: ConstraintSet, obj: FiniteSumObjective, cfg: SolverConfig
) -> IterationRecord:
    """Run one iteration in place and return its trace record.

    On full-sample iterations the direction must pass the descent check or
    the iterate is merely re-projected (an unsuccessful step).  Mini-batch
    iterations always take their trial step to the acceptance test; on
    rejection the iterate is kept bitwise unchanged and the batch grows by
    dN, capped at the component count.
    """
    x = state.x
    k = state.k
    N = obj.n_components
    meter = state.meter
    eta_k = eta(k, cfg.s_exp)
    is_full = state.Nk >= N

    if is_full:
        sample = None
        grad_est = full_grad(obj, x, meter)
    else:
        sample = draw_sample(obj.weights, state.Nk, state.rng)
        grad_est = subsample_grad(obj, sample, x, meter)

    p, proj = search_direction(cs, grad_est, x, eta_k)
    _verify_projection(cs, proj, eta_k, state)
    meter.charge_cg(proj.cg_iterations, cs.m)
    cg_total = proj.cg_iterations
    norm_p = float(np.linalg.norm(p))

    e_x = state.e_x if state.e_x is not None else feasibility_gap(cs, x)

    # Oracle metrics: exact projection of the true gradient, never metered.
    f_true = math.nan
    norm_d_true = math.nan
    if cfg.oracle_metrics:
        true_grad = grad_est if is_full else full_grad(obj, x, None)
        norm_d_true = float(np.linalg.norm(projected_direction(cs, x, true_grad)))

    accepted = False
    unsuccessful = False
    t = 0.0
    if is_full:
        if descent_check(grad_est, p, cfg.c):
            f0 = full_value(obj, x, meter)
            slope = float(grad_est @ p)
            phi = lambda t_: _guarded(lambda: full_value(obj, x + t_ * p, meter))
            t = line_search_full(phi, f0, slope, eta_k, cfg.beta, cfg.c1)
            x_next = x + t * p
            accepted = True
            if cfg.oracle_metrics:
                f_true = f0
        else:
            reproj = inexact_project(cs, x, eta_k)
            _verify_projection(cs, reproj, eta_k, state)
            meter.charge_cg(reproj.cg_iterations, cs.m)
            cg_total += reproj.cg_iterations
            x_next = reproj.point
            unsuccessful = True
            if cfg.oracle_metrics:
                f_true = full_value(obj, x, None)
        Nk_next = state.Nk
    else:
        f0 = subsample_value(obj, sample, x, meter)
        slope = float(grad_est @ p)
        phi = lambda t_: _guarded(lambda: subsample_value(obj, sample, x + t_ * p, meter))
        t = line_search_minibatch(phi, f0, slope, eta_k, cfg.beta, cfg.c1, cfg.t_min)
        x_trial = x + t * p
        control = additional_sampling_test(cs, obj, x, x_trial, eta_k, cfg, state.rng, meter)
        _verify_projection(cs, control.projection, eta_k, state)
        meter.charge_cg(control.cg_iterations, cs.m)
        cg_total += control.cg_iterations
        if control.accepted:
            x_next = x_trial
            Nk_next = state.Nk
            accepted = True
        else:
            x_next = x  # rejected: the iterate is kept bitwise unchanged
            Nk_next = min(N, state.Nk + cfg.dN)
        if cfg.oracle_metrics:
            f_true = full_value(obj, x, None)

    # Feasibility bookkeeping: accepted steps must contract the gap up to
    # the projection tolerance; re-projections must land within it.
    if accepted:
        e_next = feasibility_gap(cs, x_next)
        bound = (1.0 - t) * e_x + eta_k + _FEAS_CHECK_ATOL
        if e_next > bound:
            raise InvariantViolation(
                f"feasibility gap {e_next:.6e} after the accepted step exceeds "
                f"(1 - t)*e + eta = {bound:.6e} at iteration {k}"
            )
    elif unsuccessful:
        e_next = feasibility_gap(cs, x_next)
        if e_next > eta_k + _FEAS_CHECK_ATOL:
            raise InvariantViolation(
                f"feasibility gap {e_next:.6e} after re-projection exceeds "
                f"eta = {eta_k:.6e} at iteration {k}"
            )
    else:
        e_next = e_x

    record = IterationRecord(
        k=k,
        Nk=state.Nk,
        t=float(t),
        norm_p=norm_p,
        norm_d_true=norm_d_true,
        e_x=float(e_x),
        f_true=f_true,
        scalar_products=meter.scalar_products,
        accepted=accepted,
        unsuccessful=unsuccessful,
        cg_iters=cg_total,
    )

    if is_full and norm_p <= cfg.tol_d and e_x <= cfg.tol_e:
        state.done = STATUS_STATIONARY

    state.x = x_next
    state.e_x = float(e_next)
    state.Nk = Nk_next
    state.k = k + 1
    return record


def _state_record(
    state: SolverState, cs: ConstraintSet, obj: FiniteSumObjective, oracle_metrics: bool
) -> IterationRecord:
    """Terminal trace row: the final iterate's metrics with no step fields."""
    e_x = state.e_x if state.e_x is not None else feasibility_gap(cs, state.x)
    f_true = math.nan
    norm_d_true = math.nan
    if oracle_metrics:
        f_true = full_value(obj, state.x, None)
        norm_d_true = float(
            np.linalg.norm(projected_direction(cs, state.x, full_grad(obj, state.x, None)))
        )
    return IterationRecord(
        k=state.k,
        Nk=state.Nk,
        t=0.0,
        norm_p=0.0,
        norm_d_true=norm_d_true,
        e_x=float(e_x),
        f_true=f_true,
        scalar_products=state.meter.scalar_products,
        accepted=False,
        unsuccessful=False,
        cg_iters=0,
    )


def _drive(
    cs: ConstraintSet,
    obj: FiniteSumObjective,
    cfg,
    x0: np.ndarray | None,
    step: Callable[..., IterationRecord],
    Nk: int,
    seed: int,
    oracle_metrics: bool,
) -> RunResult:
    """Run loop shared by the adaptive solver and the baseline.

    Starts from x0 (default: minimum-norm feasible point) with a batch of
    Nk and calls step(state, cs, obj, cfg), where cfg is a SolverConfig or
    a BaselineConfig, until cfg.k_max iterations or until the step marks
    the state done.  The trace ends with a terminal row for the final
    iterate, whose oracle columns are NaN unless oracle_metrics is set.
    """
    if obj.dim != cs.n:
        raise ConfigInvalid(
            f"objective dimension {obj.dim} does not match the constraint width {cs.n}"
        )
    if x0 is None:
        x0 = exact_project(cs, np.zeros(cs.n))
    else:
        x0 = np.asarray(x0, dtype=float)

    state = SolverState(x=x0, k=0, Nk=Nk, rng=np.random.default_rng(seed), meter=BudgetMeter())
    records: list[IterationRecord] = []
    status = STATUS_MAX_ITERATIONS
    while state.k < cfg.k_max:
        records.append(step(state, cs, obj, cfg))
        if state.done is not None:
            status = state.done
            break
    records.append(_state_record(state, cs, obj, oracle_metrics))
    return RunResult(
        records=records,
        status=status,
        x=state.x,
        meter=state.meter,
        seed=seed,
        projections_checked=state.projections_checked,
    )


def run(
    cs: ConstraintSet,
    obj: FiniteSumObjective,
    cfg: SolverConfig,
    x0: np.ndarray | None = None,
) -> RunResult:
    """Drive the solver from x0 (default: minimum-norm feasible point).

    Stops at k_max iterations or at the stationarity test (full sample,
    ||p_k|| <= tol_d and e(x_k) <= tol_e).  The trace carries one record
    per executed iteration plus a terminal record for the final iterate,
    so a run with k_max = 0 yields exactly the initial state row.
    """
    validate_config(cfg, n_components=obj.n_components)
    Nk = min(cfg.N0, obj.n_components)
    return _drive(
        cs, obj, cfg, x0, ipas_step, Nk=Nk, seed=cfg.seed, oracle_metrics=cfg.oracle_metrics
    )


def _write_csv(path, columns: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a header and one line per row, deterministic byte for byte.

    Floats, numpy scalars included, are written as the repr of the Python
    float, booleans as 1/0 and None as an empty cell.  Other values go through str with commas and newlines replaced,
    so every line keeps the header's cell count.
    """
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, bool):
                cells.append("1" if v else "0")
            elif isinstance(v, float):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v).replace(",", ";").replace("\n", " "))
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and string cells of a file written by _write_csv; blank lines are skipped."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# IterationRecord fields in TRACE_COLUMNS order, and the converter of each
# cell back to its field; flags are written as 1/0.
_record_cells = attrgetter(*(f.name for f in fields(IterationRecord)))
_TRACE_TYPES = (int, int, float, float, float, float, float, int, "1".__eq__, "1".__eq__, int)


def write_trace(records: Iterable[IterationRecord], path) -> None:
    """Write trace rows as CSV with a fixed header and repr'd floats.

    The format is deterministic byte for byte: identical records always
    produce identical files.
    """
    _write_csv(path, TRACE_COLUMNS, map(_record_cells, records))


def read_trace(path) -> list[IterationRecord]:
    """Parse a trace CSV written by write_trace."""
    header, rows = _read_csv(path)
    if tuple(header) != TRACE_COLUMNS:
        raise ParseError(f"{path}: missing or unexpected trace header")
    records = []
    for parts in rows:
        if len(parts) != len(TRACE_COLUMNS):
            raise ParseError(f"{path}: expected {len(TRACE_COLUMNS)} cells, got {len(parts)}")
        records.append(IterationRecord(*(conv(v) for conv, v in zip(_TRACE_TYPES, parts))))
    return records
