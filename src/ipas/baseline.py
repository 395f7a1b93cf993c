"""Deterministic projected gradient baseline for budget comparisons.

Every iteration evaluates the full weighted gradient, projects exactly,
and backtracks with the same nonmonotone Armijo rule as the adaptive
solver.  The exact solve is charged as (m + 4) * m scalar products, the
worst case of a CG solve on the same system, so budgets are comparable.

Unlike the adaptive solver's full-sample branch, the step takes no
descent check.  The exact direction passes it in exact arithmetic, but
once ||d|| reaches roundoff level the computed g.d can miss the margin,
and rejecting those steps would stall the reference method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet, exact_project, feasibility_gap
from .errors import ConfigInvalid
from .objective import FiniteSumObjective, full_grad, full_value
from .solver import (
    STATUS_STATIONARY,
    IterationRecord,
    RunResult,
    SolverState,
    _bound_problems,
    _drive,
    _guarded,
    eta,
    line_search_full,
)


@dataclass(frozen=True)
class BaselineConfig:
    """Line search and stopping parameters for the deterministic method.

    s_exp controls the same decaying slack eta_k^2 used by the adaptive
    solver's search, keeping the two methods' acceptance thresholds
    aligned in comparisons.
    """

    beta: float = 0.1
    c1: float = 1e-2
    s_exp: float = 1.0
    k_max: int = 500
    tol_d: float = 0.0
    tol_e: float = 0.0


def validate_baseline_config(cfg: BaselineConfig) -> None:
    problems = _bound_problems(cfg, ("beta", "c1"))
    if problems:
        raise ConfigInvalid("; ".join(problems))


def baseline_step(
    state: SolverState, cs: ConstraintSet, obj: FiniteSumObjective, cfg: BaselineConfig
) -> IterationRecord:
    """One full-gradient iteration with an exact projection."""
    x = state.x
    k = state.k
    meter = state.meter
    eta_k = eta(k, cfg.s_exp)

    g = full_grad(obj, x, meter)
    d = exact_project(cs, x - g) - x
    # Exact solve priced at CG's worst case on the m-dimensional system.
    meter.charge_cg(cs.m, cs.m)
    norm_d = float(np.linalg.norm(d))
    e_x = feasibility_gap(cs, x)

    f0 = full_value(obj, x, meter)
    slope = float(g @ d)
    phi = lambda t_: _guarded(lambda: full_value(obj, x + t_ * d, meter))
    t = line_search_full(phi, f0, slope, eta_k, cfg.beta, cfg.c1)

    record = IterationRecord(
        k=k,
        Nk=obj.n_components,
        t=float(t),
        norm_p=norm_d,
        norm_d_true=norm_d,
        e_x=float(e_x),
        f_true=f0,
        scalar_products=meter.scalar_products,
        accepted=True,
        unsuccessful=False,
        cg_iters=cs.m,
    )

    if norm_d <= cfg.tol_d and e_x <= cfg.tol_e:
        state.done = STATUS_STATIONARY

    state.x = x + t * d
    state.k = k + 1
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
