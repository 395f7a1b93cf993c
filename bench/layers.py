"""Per-layer metrics of a traced run, and the end-to-end metric each should move.

Span names are ``<defining module>.<function>``; calls of ``full_grad`` and
``full_value`` made with ``meter=None`` are recorded as ``oracle.*``.
Unless noted, a metric counts only spans inside ``solver.run`` (the
adaptive solver), so the baseline and the benchmark's own calls stay out.

Predictions, written before any optimisation is measured:

- ``constraints.inexact_project.*`` (with ``constraints.cg_solve``) move
  ``iter_per_s`` on quad_check07; ``cg_iters_per_call`` moves
  ``sp_per_iter`` on logistic_large with no wall change predicted there.
  ``constraints.projected_direction.self_s`` (oracle) and
  ``constraints.exact_project.self_s`` (inside the baseline) move
  ``baseline_iter_per_s`` on quad_check07.
- ``objective.draw_sample.*`` moves ``iter_per_s`` on quad_check07 and
  sweep_logistic, and not on logistic_large.
- ``objective.subsample_*``/``objective.full_*`` self times and the
  ``objective.meter.*`` counts move ``sp_per_iter`` on every workload.
- ``oracle.*`` self times and the computed ``problems.kernel.bytes_per_iter``
  move ``iter_per_s`` on logistic_large and barely touch quad_check07.
- ``solver.*`` loop overhead, line-search and control-test counts move
  ``iter_per_s`` on quad_check07 and ``best_norm_d`` on any workload.
- ``experiment.*`` and ``problems.load_libsvm.s`` move ``iter_per_s`` and
  ``peak_rss_mb`` on sweep_logistic only.

Counts marked "no patching" come from the solver's own outputs
(``RunResult.meter``, ``RunResult.projections_checked`` and the trace
records), not from the tracer, so they hold even when a span is absent.
"""

from __future__ import annotations

import statistics

IPAS = "solver.run"
BASELINE = "baseline.run_baseline"

# Span name -> the traced functions it needs; a metric whose functions were
# not found in the package is reported absent.
_NEEDS = {
    "oracle.full_grad": ("objective.full_grad",),
    "oracle.full_value": ("objective.full_value",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(trace, ipas_results, baseline_results, n_components, kernel_bytes, extra):
    """Compute every per-layer metric; a value of None marks the layer absent.

    trace is a TraceSummary, ipas_results/baseline_results the RunResults of
    the traced section, n_components the workload's N, kernel_bytes a map
    from span name to (bytes per call, bytes per sampled index) computed
    from array sizes, and extra the workload-specific values (sweep
    timings, tracing overhead) already measured.
    """
    wrapped = trace.wrapped
    out: dict[str, float | None] = {}

    def have(*spans):
        return all(s in wrapped for span in spans for s in _NEEDS.get(span, (span,)))

    def put(name, value, *spans):
        out[name] = value if have(*spans) else None

    def span_metrics(span):
        put(f"{span}.calls", trace.calls(span, IPAS), span)
        put(f"{span}.self_s", trace.self_time(span, IPAS), span)

    iterations = sum(len(r.records) - 1 for r in ipas_results)
    out["solver.iterations"] = iterations

    span_metrics("constraints.inexact_project")
    put("constraints.inexact_project.s", trace.total("constraints.inexact_project", IPAS),
        "constraints.inexact_project")
    put("constraints.cg_solve.self_s", trace.self_time("constraints.cg_solve", IPAS),
        "constraints.cg_solve")
    put("constraints.feasibility_gap.self_s", trace.self_time("constraints.feasibility_gap", IPAS),
        "constraints.feasibility_gap")
    put("constraints.projected_direction.self_s",
        trace.self_time("constraints.projected_direction", IPAS), "constraints.projected_direction")
    put("constraints.exact_project.self_s", trace.self_time("constraints.exact_project", BASELINE),
        "constraints.exact_project")

    # no patching: CG iterations over projections, both from the run results
    try:
        cg_iters = sum(rec.cg_iters for r in ipas_results for rec in r.records)
        projections = sum(r.projections_checked for r in ipas_results)
        out["constraints.inexact_project.cg_iters_per_call"] = _ratio(cg_iters, projections)
    except AttributeError:
        out["constraints.inexact_project.cg_iters_per_call"] = None

    span_metrics("objective.draw_sample")
    put("objective.draw_sample.indices_per_call",
        _ratio(trace.count_sum("objective.draw_sample", IPAS),
               trace.calls("objective.draw_sample", IPAS)),
        "objective.draw_sample")
    for fn in ("subsample_grad", "subsample_value", "full_grad", "full_value"):
        put(f"objective.{fn}.self_s", trace.self_time(f"objective.{fn}", IPAS), f"objective.{fn}")
    for fn in ("full_grad", "full_value"):
        put(f"oracle.{fn}.self_s", trace.self_time(f"oracle.{fn}", IPAS), f"oracle.{fn}")

    # no patching: the budget meter's own split
    try:
        meters = [r.meter for r in ipas_results]
        out["objective.meter.value_evals_per_iter"] = _ratio(
            sum(m.component_value_evals for m in meters), iterations)
        out["objective.meter.grad_evals_per_iter"] = _ratio(
            sum(m.component_grad_evals for m in meters), iterations)
        out["objective.meter.cg_sp_share"] = _ratio(
            sum(m.cg_scalar_products for m in meters), sum(m.scalar_products for m in meters))
    except AttributeError:
        for key in ("value_evals_per_iter", "grad_evals_per_iter", "cg_sp_share"):
            out[f"objective.meter.{key}"] = None

    # computed, not measured: array bytes each kernel call reads
    kernel_spans = ("objective.subsample_grad", "objective.subsample_value",
                    "objective.full_grad", "objective.full_value",
                    "oracle.full_grad", "oracle.full_value")
    moved = sum(
        per_call * trace.calls(span, IPAS) + per_index * trace.count_sum(span, IPAS)
        for span, (per_call, per_index) in kernel_bytes.items()
    )
    put("problems.kernel.bytes_per_iter", _ratio(moved, iterations), *kernel_spans)

    put("solver.run.self_s", trace.self_time("solver.run", IPAS), "solver.run")
    put("solver.ipas_step.self_s", trace.self_time("solver.ipas_step", IPAS), "solver.ipas_step")
    for search, evaluator in (("line_search_full", "objective.full_value"),
                              ("line_search_minibatch", "objective.subsample_value")):
        span = f"solver.{search}"
        calls = trace.calls(span, IPAS)
        put(f"{span}.calls", calls, span)
        put(f"{span}.evals_per_call", _ratio(trace.child_calls(span, evaluator), calls),
            span, evaluator)
    span_metrics("solver.additional_sampling_test")

    # no patching: acceptance and full-sample dynamics from the trace records
    try:
        mini = [rec for r in ipas_results for rec in r.records[:-1] if rec.Nk < n_components]
        full = [rec for r in ipas_results for rec in r.records[:-1] if rec.Nk >= n_components]
        out["solver.accept_ratio"] = _ratio(sum(rec.accepted for rec in mini), len(mini))
        out["solver.unsuccessful_ratio"] = _ratio(sum(rec.unsuccessful for rec in full), len(full))
        # a run that never reaches the full sample counts as its iteration count
        firsts = [
            next((rec.k for rec in r.records[:-1] if rec.Nk >= n_components), len(r.records) - 1)
            for r in ipas_results
        ]
        out["solver.full_sample_iter"] = statistics.median(firsts) if firsts else 0.0
    except AttributeError:
        for key in ("accept_ratio", "unsuccessful_ratio", "full_sample_iter"):
            out[f"solver.{key}"] = None

    put("baseline.run_baseline.self_s", trace.self_time(BASELINE, BASELINE), BASELINE)
    put("baseline.baseline_step.self_s", trace.self_time("baseline.baseline_step", BASELINE),
        "baseline.baseline_step")
    out["baseline.iterations"] = sum(len(r.records) - 1 for r in baseline_results)

    for fn in ("plan_runs", "build_problem", "execute_run", "summarize_dir"):
        put(f"experiment.{fn}.s", trace.total(f"experiment.{fn}"), f"experiment.{fn}")
    put("experiment.write_trace.s", trace.child_total("experiment.execute_run", "solver.write_trace"),
        "experiment.execute_run", "solver.write_trace")
    put("problems.load_libsvm.s", trace.total("problems.load_libsvm"), "problems.load_libsvm")

    # Workloads without a sweep write no sweep traces and have no pool.
    out.setdefault("experiment.trace_bytes", 0)
    out.setdefault("experiment.parallel_efficiency", 0.0)
    out.update(extra)
    return out
