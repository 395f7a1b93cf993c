"""Adaptive-sample-size projected gradient method with inexact projections.

Each iteration estimates the gradient on a mini-batch drawn by the weights
(or on the full sum once the batch covers it), takes an inexactly projected
gradient step sized by a nonmonotone Armijo search, and then lets an
independently drawn control sample accept the step or reject it and grow
the batch.  The projection tolerance eta_k = 1/(k+1)^s decays fast enough
that the squared tolerances are summable, which is what the nonmonotone
slack and the acceptance test lean on.  A projection keeps a point already
within eta_k of the constraints and projects any other exactly.

A step takes its whole tolerance schedule from _tolerances(): eta_k, the
search slacks eta_k^2 (mini-batch) and eta_k^4 (full sample, summable
wherever eta_k^2 is, as the nonmonotone search of Li and Fukushima 2000
needs) and the control slack C_accept*eta_k^2.  Nothing else derives a
slack from eta_k.  line_search_full, line_search_minibatch and
additional_sampling_test apply the slack they are given, and the control
test passes eta_k on only as the tolerance of its projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .constraints import (
    ConstraintSet,
    ProjectionResult,
    feasibility_gap,
    inexact_project,
    min_norm_feasible,
    projected_direction,
)
from .errors import ConfigInvalid, InvariantViolation, MaxBacktracks, NonFiniteValue, ParseError
from .objective import (
    BudgetMeter,
    FiniteSumObjective,
    Sample,
    draw_sample,
    full_value,
    full_value_grad,
    subsample_value,
    subsample_value_along,
    subsample_value_grad,
)

# Hard cap on the backtracks of either line search.  A config is valid only
# if beta**_MAX_BACKTRACKS <= t_min: the mini-batch search then stops within
# the cap, and the full-sample search tries steps down to t_min before it
# raises MaxBacktracks.  The baseline, which has no t_min, is held to the
# adaptive solver's default.
_MAX_BACKTRACKS = 200

# Slack for runtime feasibility checks; covers float roundoff only.
_FEAS_CHECK_ATOL = 1e-10

# Distinct iterates per batched oracle evaluation in _drive; bounds the
# iterates held and the batch's temporaries.
_ORACLE_BATCH = 64

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
    """Mutable per-run state threaded through the iterations.

    x is replaced by a new array whenever the iterate moves and is never
    mutated in place; a rejected step keeps the very same object, as does a
    re-projection of an iterate already within its tolerance.  The run
    driver relies on both: it holds iterates until their deferred oracle
    columns are evaluated and tells them apart by identity.
    """

    x: np.ndarray
    k: int
    Nk: int
    rng: np.random.Generator
    meter: BudgetMeter
    e_x: float
    projections_checked: int = 0


@dataclass(frozen=True, kw_only=True)
class IterationRecord:
    """One trace row: the state entering iteration k plus the step taken there.

    This class is the trace schema: its fields, in order, are the columns
    (named by "column" metadata where the names differ), each cell parsed
    by its field's type.  The defaults are those of a row that takes no
    step.  norm_d_true and f_true are oracle metrics computed with the
    exact projection and the full weighted sums; they never touch the
    budget.  Rows that leave them NaN get them from the run driver.
    scalar_products is the meter total after the iteration finished, and
    cg_iters counts the row's projection solves (see BudgetMeter).
    """

    k: int
    Nk: int = field(metadata={"column": "N_k"})
    t: float = field(default=0.0, metadata={"column": "t_k"})
    norm_p: float = 0.0
    norm_d_true: float = math.nan
    e_x: float
    f_true: float = math.nan
    scalar_products: int
    accepted: bool = False
    unsuccessful: bool = False
    cg_iters: int = 0


@dataclass
class RunResult:
    records: list[IterationRecord]
    status: str
    x: np.ndarray
    meter: BudgetMeter
    projections_checked: int = 0


def eta(k: int, s_exp: float) -> float:
    """Projection tolerance schedule 1/(k+1)^s_exp for k = 0, 1, ..."""
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    return float((k + 1) ** (-s_exp))


class _Tolerances(NamedTuple):
    """A step's tolerance schedule at one iteration; see _tolerances()."""

    eta: float  # tolerance of every inexact projection
    search: float  # slack of the mini-batch search and the baseline's
    full_search: float  # slack of the adaptive solver's full-sample search
    control: float  # slack of the additional-sampling test


def _tolerances(k: int, s_exp: float, C_accept: float = 0.0) -> _Tolerances:
    """The tolerances of iteration k: eta_k, eta_k^2, eta_k^4 and C_accept*eta_k^2.

    The one place a slack is derived from eta_k.  The full-sample slack is
    rounded as (eta_k^2)^2 and the control slack as (C_accept*eta_k)*eta_k;
    the baseline, which has no control test, leaves C_accept at 0.
    """
    eta_k = eta(k, s_exp)
    search = eta_k * eta_k
    return _Tolerances(eta_k, search, search * search, C_accept * eta_k * eta_k)


def _bound_problems(cfg, unit_fields: tuple[str, ...], t_min: float) -> list[str]:
    """Violations of the bounds that SolverConfig and BaselineConfig share.

    unit_fields names the parameters that must lie in (0, 1); t_min is the
    smallest step the line searches must be able to reach from cfg.beta.
    """
    problems = []
    for name in unit_fields:
        v = getattr(cfg, name)
        if not (0.0 < v < 1.0):
            problems.append(f"{name}={v!r} must lie in (0, 1)")
    if 0.0 < cfg.beta < 1.0 and cfg.beta**_MAX_BACKTRACKS > t_min:
        problems.append(
            f"beta={cfg.beta!r} and t_min={t_min!r}: {_MAX_BACKTRACKS} backtracks by beta "
            f"reach only {cfg.beta**_MAX_BACKTRACKS:.3g}, above t_min"
        )
    if not cfg.s_exp > 0.5:
        problems.append(f"s_exp={cfg.s_exp!r} must exceed 0.5 for summable squared tolerances")
    if cfg.k_max < 0:
        problems.append(f"k_max={cfg.k_max} must be >= 0")
    if cfg.tol_d < 0 or cfg.tol_e < 0:
        problems.append("tolerances tol_d and tol_e must be >= 0")
    return problems


def validate_config(cfg: SolverConfig, n_components: int | None = None) -> None:
    """Raise ConfigInvalid when cfg violates a hard bound."""
    problems = _bound_problems(cfg, ("beta", "c", "c1", "t_min"), cfg.t_min)
    if not cfg.C_accept > 0:
        problems.append(f"C_accept={cfg.C_accept!r} must be positive")
    if cfg.N0 < 1:
        problems.append(f"N0={cfg.N0} must be >= 1")
    if cfg.dN < 1:
        problems.append(f"dN={cfg.dN} must be >= 1")
    if cfg.D_size < 1:
        problems.append(f"D_size={cfg.D_size} must be >= 1")
    if cfg.seed < 0:
        problems.append(f"seed={cfg.seed} must be >= 0")
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


def descent_check(slope: float, p_sq: float, c: float) -> bool:
    """True when p is a sufficient descent direction: g.p <= -c ||p||^2.

    Takes the products slope = g.p and p_sq = p.p, which the step has
    already computed for the line search and the trace.
    """
    return slope <= -c * p_sq


def line_search_full(
    value_at: Callable[[np.ndarray], float],
    x: np.ndarray,
    p: np.ndarray,
    f0: float,
    slope: float,
    slack: float,
    beta: float,
    c1: float,
) -> tuple[float, np.ndarray]:
    """Backtracking Armijo search from x along p with nonmonotone slack.

    Returns the largest t = beta^j (smallest j >= 0) with
    value_at(x + t*p) <= f0 + c1*t*slope + slack, and the very array
    x + t*p that value_at received; a trial that raises NonFiniteValue
    fails.  Raises MaxBacktracks after _MAX_BACKTRACKS failed reductions.
    """
    for j in range(_MAX_BACKTRACKS + 1):
        t = beta**j
        point = x + t * p
        if _guarded(value_at, point) <= f0 + c1 * t * slope + slack:
            return t, point
    raise MaxBacktracks(
        f"no step satisfied the Armijo condition within {_MAX_BACKTRACKS} backtracks; "
        "check the objective for non-finite values or a broken gradient"
    )


def line_search_minibatch(
    value_along: Callable[[float], float],
    x: np.ndarray,
    p: np.ndarray,
    f0: float,
    slope: float,
    slack: float,
    beta: float,
    c1: float,
    t_min: float,
) -> tuple[float, np.ndarray]:
    """Bounded backtracking from x along p, from t = 1 and never below t_min.

    Reduces t by beta only while the Armijo condition (with slack added)
    fails for value_along(t), the value at x + t*p, as a trial that raises
    NonFiniteValue does, and the reduced step would still be >= t_min.
    Returns t and x + t*p, formed once.  That step may violate the Armijo
    condition; the acceptance test downstream is what protects the iterate.
    """
    t = 1.0
    while _guarded(value_along, t) > f0 + c1 * t * slope + slack and beta * t >= t_min:
        t = beta * t
    return t, x + t * p


def additional_sampling_test(
    state: SolverState,
    cs: ConstraintSet,
    obj: FiniteSumObjective,
    x_trial: np.ndarray,
    eta_k: float,
    slack: float,
    cfg: SolverConfig,
) -> bool:
    """Accept or reject a trial point from state.x using an independent control sample.

    Draws D_size indices with state.rng and accepts when the control
    objective at the trial point improves on x by at least
    c*||s||^2 - slack, where s is the control gradient's direction at x,
    projected inexactly to tolerance eta_k.  Since c*||s||^2 >= 0, a trial
    value above f_x + slack fails the test whatever s is; the values
    decide such a step alone, and s is never projected.  The shortcut is
    exact in floating point: q = fl(c*||s||^2) >= 0 gives
    fl(f_x - q) <= f_x, and rounding is monotone, so the full test's
    threshold is never above fl(f_x + slack).

    The control values and gradient are charged to state.meter whether or
    not the step is accepted; a projection that runs goes through _project,
    which checks, charges and counts it.  Because the values come first, a
    non-finite control value at x raises NonFiniteValue before the control
    direction is projected.
    """
    x = state.x
    meter = state.meter
    d_set = Sample.of(obj, draw_sample(obj, cfg.D_size, state.rng))
    control = subsample_value_grad(obj, d_set, x, meter)
    f_x = control.value(meter)
    f_trial = _guarded(subsample_value, obj, d_set, x_trial, meter)
    if f_trial > f_x + slack:
        return False
    s = _project(state, cs, x - control.grad, eta_k).point - x
    return f_trial <= f_x - cfg.c * float(s.dot(s)) + slack


def _project(state: SolverState, cs: ConstraintSet, y: np.ndarray, eta_k: float) -> ProjectionResult:
    """Project y inexactly to tolerance eta_k; check, charge and count the projection.

    Every inexact projection of a run goes through here.  The reported
    residual norm is the feasibility gap of the projected point by
    construction, so only the tolerance needs checking: an exactly
    projected point can still miss a tolerance below its rounding.
    """
    proj = inexact_project(cs, y, eta_k)
    if proj.residual_norm > eta_k:
        raise InvariantViolation(
            f"projection residual {proj.residual_norm:.3e} exceeds its tolerance {eta_k:.3e}"
        )
    state.meter.charge_cg(proj.cg_iterations, cs.m)
    state.projections_checked += 1
    return proj


def _row(state: SolverState, **columns) -> IterationRecord:
    """A trace row: the state's columns plus the step's (none: the terminal row).

    A step builds its row before it moves the state.
    """
    return IterationRecord(
        k=state.k,
        Nk=state.Nk,
        e_x=state.e_x,
        scalar_products=state.meter.scalar_products,
        **columns,
    )


def _oracle_batch(
    cs: ConstraintSet, obj: FiniteSumObjective, held: list[tuple[np.ndarray, list[IterationRecord]]]
) -> None:
    """Fill the held rows' oracle columns from one unmetered batched pass.

    held pairs each distinct iterate with its rows.  One
    weighted_value_grad_many call and one exact projection with len(held)
    right-hand sides; a non-finite value or gradient raises NonFiniteValue
    naming the first row at the first such iterate.  The one writer of
    norm_d_true and f_true in a built row, which is frozen to all others.
    """
    X = np.column_stack([x for x, _ in held])
    values, G = obj.kernel.weighted_value_grad_many(X)
    bad = ~(np.isfinite(G).all(axis=0) & np.isfinite(values))
    if bad.any():
        j = int(bad.argmax())
        raise NonFiniteValue(
            f"oracle at row k={held[j][1][0].k}: objective value {values[j]!r} "
            "or its gradient is not finite"
        )
    norm_d = np.linalg.norm(projected_direction(cs, X, G), axis=0)
    for (_, rows), d, f in zip(held, norm_d.tolist(), values.tolist()):
        for row in rows:
            object.__setattr__(row, "norm_d_true", d)
            object.__setattr__(row, "f_true", f)


def _guarded(fn: Callable[..., float], *args) -> float:
    """fn(*args), a trial objective value, with non-finite results mapped to +inf."""
    try:
        return fn(*args)
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
    dN, capped at the component count.  The step's tolerances come from
    _tolerances().  Every projection, the control test's included, goes
    through _project, and a re-projection of an iterate within eta_k keeps
    the very same array.  The row's cg_iters is the meter's count of solves
    over the step; its oracle columns (norm_d_true, f_true) are NaN, and
    _drive fills them in batches.
    """
    x = state.x
    e_x = state.e_x
    N = obj.n_components
    meter = state.meter
    cg_start = meter.cg_iterations
    eta_k, mini_slack, full_slack, control_slack = _tolerances(state.k, cfg.s_exp, cfg.C_accept)
    is_full = state.Nk >= N

    if is_full:
        est = full_value_grad(obj, x, meter)
    else:
        sample = Sample.of(obj, draw_sample(obj, state.Nk, state.rng))
        est = subsample_value_grad(obj, sample, x, meter)
    grad_est = est.grad

    p = _project(state, cs, x - grad_est, eta_k).point - x
    p_sq = float(p.dot(p))
    slope = float(grad_est.dot(p))

    accepted = False
    unsuccessful = False
    t = 0.0
    Nk_next = state.Nk
    e_next = e_x
    if is_full:
        if descent_check(slope, p_sq, cfg.c):
            value_at = lambda z: full_value(obj, z, meter)
            t, x_next = line_search_full(
                value_at, x, p, est.value(meter), slope, full_slack, cfg.beta, cfg.c1
            )
            accepted = True
        else:
            # No sufficient descent: stay at x and only restore feasibility.
            reproj = _project(state, cs, x, eta_k)
            x_next = reproj.point
            e_next = reproj.residual_norm  # within eta_k, as _project checked
            unsuccessful = True
    else:
        value_along = subsample_value_along(obj, sample, x, p, meter)
        t, x_next = line_search_minibatch(
            value_along, x, p, est.value(meter), slope, mini_slack, cfg.beta, cfg.c1, cfg.t_min
        )
        accepted = additional_sampling_test(state, cs, obj, x_next, eta_k, control_slack, cfg)
        if not accepted:
            x_next = x  # rejected: the iterate is kept bitwise unchanged
            Nk_next = min(N, state.Nk + cfg.dN)

    # Feasibility bookkeeping: accepted steps must contract the gap up to
    # the projection tolerance.
    if accepted:
        e_next = feasibility_gap(cs, x_next)
        bound = (1.0 - t) * e_x + eta_k + _FEAS_CHECK_ATOL
        if e_next > bound:
            raise InvariantViolation(
                f"feasibility gap {e_next:.6e} after the accepted step exceeds {bound:.6e} "
                f"at iteration {state.k}"
            )

    record = _row(
        state,
        t=float(t),
        norm_p=math.sqrt(p_sq),
        accepted=accepted,
        unsuccessful=unsuccessful,
        cg_iters=meter.cg_iterations - cg_start,
    )
    state.x = x_next
    state.e_x = e_next
    state.Nk = Nk_next
    state.k += 1
    return record


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
    a BaselineConfig, until cfg.k_max iterations or until the row a step
    returns is stationary: full sample, norm_p <= cfg.tol_d and
    e_x <= cfg.tol_e.  The trace ends with a terminal row for the final
    iterate.

    With oracle_metrics set, every row whose oracle columns the step left
    NaN (every adaptive row and the terminal row) is filled after the
    fact, since nothing in the trajectory reads them.  Such rows queue as
    (iterate, rows) pairs, a row at the last pair's array (as after a
    rejected step, or a re-projection that left the iterate where it was)
    joining that pair, and _oracle_batch fills them when
    _ORACLE_BATCH iterates wait and a new one arrives, and once at the
    end.  Otherwise those columns stay NaN.

    An oracle column's bits depend on where it lands in its batch: BLAS
    takes a batch's last iterates, those short of a full kernel block, by
    another path that can round differently, as it does a batch of one.
    Rows share a column by identity, not by bytes, so trajectory changes
    that merge or move columns move oracle bits, as can _ORACLE_BATCH: on an
    x86 OpenBLAS host, 60 moved norm_d_true in 2445 of 40020 rows of twenty
    check-07 runs, 63 moved f_true in 1023 of 40040 rows of
    configs/logistic.ini, and 4096 and 1024 moved none.
    """
    if obj.dim != cs.n:
        raise ConfigInvalid(
            f"objective dimension {obj.dim} does not match the constraint width {cs.n}"
        )
    x0 = min_norm_feasible(cs) if x0 is None else np.asarray(x0, dtype=float)

    rng = np.random.default_rng(seed)
    state = SolverState(x=x0, k=0, Nk=Nk, rng=rng, meter=BudgetMeter(), e_x=feasibility_gap(cs, x0))
    records: list[IterationRecord] = []
    held: list[tuple[np.ndarray, list[IterationRecord]]] = []

    def append(record: IterationRecord, x: np.ndarray) -> None:
        records.append(record)
        if not (oracle_metrics and math.isnan(record.f_true)):
            return
        if held and held[-1][0] is x:
            held[-1][1].append(record)
            return
        if len(held) == _ORACLE_BATCH:
            _oracle_batch(cs, obj, held)
            held.clear()
        held.append((x, [record]))

    status = STATUS_MAX_ITERATIONS
    while state.k < cfg.k_max:
        x = state.x
        row = step(state, cs, obj, cfg)
        append(row, x)
        if row.Nk >= obj.n_components and row.norm_p <= cfg.tol_d and row.e_x <= cfg.tol_e:
            status = STATUS_STATIONARY
            break
    append(_row(state), state.x)
    if held:
        _oracle_batch(cs, obj, held)
    return RunResult(
        records=records,
        status=status,
        x=state.x,
        meter=state.meter,
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
    return _drive(
        cs, obj, cfg, x0, ipas_step, Nk=cfg.N0, seed=cfg.seed, oracle_metrics=cfg.oracle_metrics
    )


def _write_csv(path, columns: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a header and one line per row, deterministic byte for byte.

    Floats, numpy scalars included, are written as the repr of the Python
    float, booleans as 1/0 and None as an empty cell.  Other values go
    through str with commas and newlines replaced, so every line keeps the
    header's cell count.
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


def _read_csv(path, parsers: dict[str, Callable], what: str) -> list[list]:
    """The rows of a file _write_csv wrote with parsers' keys as its header.

    Each cell goes through its column's parser.  Blank lines are skipped.
    Raises ParseError on bytes that do not decode, on another header, on a
    row of another cell count and on a cell its parser rejects.
    """
    columns = tuple(parsers)
    try:
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode the {what}: {exc.reason}") from None
    if not lines or tuple(lines[0].split(",")) != columns:
        raise ParseError(f"{path}: missing or unexpected {what} header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ParseError(f"{path}: expected {len(columns)} cells, got {len(cells)}")
        try:
            rows.append([parse(v) for parse, v in zip(parsers.values(), cells)])
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
    return rows


def _parse_flag(cell: str) -> bool:
    """A flag cell as _write_csv writes it: 1 or 0, nothing else."""
    if cell not in ("0", "1"):
        raise ValueError(f"expected a 0/1 flag, got {cell!r}")
    return cell == "1"


# The trace schema, read off IterationRecord: each column's parser by its
# field's annotation, and a getter of a record's cells in column order
# (dataclasses.astuple would deep-copy every cell).
_TRACE_FIELDS = tuple(f.name for f in fields(IterationRecord))
_TRACE_PARSERS = {
    f.metadata.get("column", f.name): {"int": int, "float": float, "bool": _parse_flag}[f.type]
    for f in fields(IterationRecord)
}
TRACE_COLUMNS = tuple(_TRACE_PARSERS)
_record_cells = attrgetter(*_TRACE_FIELDS)


def write_trace(records: Iterable[IterationRecord], path) -> None:
    """Write trace rows as CSV with a fixed header and repr'd floats.

    The format is deterministic byte for byte: identical records always
    produce identical files.
    """
    _write_csv(path, TRACE_COLUMNS, map(_record_cells, records))


def read_trace(path) -> list[IterationRecord]:
    """Parse a trace CSV written by write_trace."""
    rows = _read_csv(path, _TRACE_PARSERS, "trace")
    return [IterationRecord(**dict(zip(_TRACE_FIELDS, row))) for row in rows]
