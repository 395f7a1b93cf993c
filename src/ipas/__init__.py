"""Adaptive-sample-size projected gradient solver for constrained finite sums.

Minimises a weighted finite sum sum_i w_i f_i(x) over the affine set
{x : A x = b}.  Gradients are estimated on growing mini-batches, steps are
projected inexactly, to within a decaying tolerance of the constraints, and
an independent control sample decides whether to accept each step or grow
the batch.  A deterministic full-gradient baseline and a benchmark CLI
round out the package.
"""

from .baseline import BaselineConfig, run_baseline, validate_baseline_config
from .constraints import (
    ConstraintSet,
    ProjectionResult,
    build_constraint_set,
    exact_project,
    feasibility_gap,
    inexact_project,
    min_norm_feasible,
    projected_direction,
)
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyGroup,
    InvariantViolation,
    IpasError,
    LabelError,
    MaxBacktracks,
    NonFiniteValue,
    OutputExists,
    ParseError,
    RankDeficient,
    WeightError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentOutcome,
    SummaryRow,
    TraceColumns,
    build_problem,
    budget_curve,
    execute_run,
    interpolate_log_d,
    parse_experiment_config,
    plan_runs,
    reach_budget,
    read_manifest,
    run_experiment,
    summarize_dir,
    summarize_group,
)
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
    uniform_weights,
)
from .problems import (
    LogisticDataset,
    NoisyQuadraticSpec,
    generate_constraints,
    load_libsvm,
    logistic_objective,
    make_noisy_quadratic,
    make_synthetic_logistic,
    noisy_quadratic_objective,
    save_libsvm,
)
from .solver import (
    STATUS_MAX_ITERATIONS,
    STATUS_STATIONARY,
    TRACE_COLUMNS,
    IterationRecord,
    RunResult,
    SolverConfig,
    SolverState,
    additional_sampling_test,
    descent_check,
    eta,
    ipas_step,
    line_search_full,
    line_search_minibatch,
    read_trace,
    run,
    validate_config,
    write_trace,
)

__version__ = "0.1.0"
