"""Deterministic projected gradient baseline for budget comparisons.

Every iteration evaluates the full weighted gradient, projects exactly,
and backtracks with the same nonmonotone Armijo rule as the adaptive
solver: line_search_full, given the search slack eta_k^2 that
solver._tolerances computes for it and for the adaptive solver's
mini-batch search.  The search reads its trials along the ray through
full_value_along, each charged N values as at its point.  The exact solve
is charged as the adaptive solver's projections are, m + 4 scalar
products a solve, so budgets are comparable.

Unlike the adaptive solver's full-sample branch, the step takes no
descent check.  The exact direction passes it in exact arithmetic, but
once ||d|| reaches roundoff level the computed g.d can miss the margin,
and rejecting those steps would stall the reference method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, exact_project, feasibility_gap
from .errors import ConfigInvalid
from .objective import FiniteSumObjective, full_value_along, full_value_grad
from .solver import (
    IterationRecord,
    RunResult,
    SolverConfig,
    SolverState,
    _bound_problems,
    _drive,
    _row,
    _tolerances,
    line_search_full,
)


@dataclass(frozen=True)
class BaselineConfig:
    """Line search and stopping parameters for the deterministic method.

    s_exp controls the same decaying search slack eta_k^2 as the adaptive
    solver's mini-batch search, taken from the same _tolerances, keeping
    the two methods' acceptance thresholds aligned in comparisons.
    """

    beta: float = 0.1
    c1: float = 1e-2
    s_exp: float = 1.0
    k_max: int = 500
    tol_d: float = 0.0
    tol_e: float = 0.0


def validate_baseline_config(cfg: BaselineConfig) -> None:
    problems = _bound_problems(cfg, ("beta", "c1"), SolverConfig.t_min)
    if problems:
        raise ConfigInvalid("; ".join(problems))


def baseline_step(
    state: SolverState, cs: ConstraintSet, obj: FiniteSumObjective, cfg: BaselineConfig
) -> IterationRecord:
    """One full-gradient iteration with an exact projection."""
    x = state.x
    meter = state.meter
    slack = _tolerances(state.k, cfg.s_exp).search

    full = full_value_grad(obj, x, meter)
    g = full.grad
    d = exact_project(cs, x - g) - x
    meter.charge_cg(1, cs.m)  # one factored solve, priced as the solver's
    norm_d = math.sqrt(float(d.dot(d)))

    f0 = full.value(meter)
    slope = float(g.dot(d))
    t, state.x = line_search_full(
        full_value_along(obj, x, d, meter), x, d, f0, slope, slack, cfg.beta, cfg.c1
    )

    record = _row(
        state, t=float(t), norm_p=norm_d, norm_d_true=norm_d, f_true=f0, accepted=True, cg_iters=1
    )
    state.e_x = feasibility_gap(cs, state.x)
    state.k += 1
    return record


def run_baseline(
    cs: ConstraintSet,
    obj: FiniteSumObjective,
    cfg: BaselineConfig,
    x0: np.ndarray | None = None,
) -> RunResult:
    """Drive the baseline from x0 (default: minimum-norm feasible point).

    Produces the same trace schema as the adaptive solver; every row is a
    full-sample accepted step.
    """
    validate_baseline_config(cfg)
    return _drive(
        cs, obj, cfg, x0, baseline_step, Nk=obj.n_components, seed=0, oracle_metrics=True
    )
