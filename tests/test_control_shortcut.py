"""The control-sample test projects only when the values leave it open.

The step is accepted iff f_trial <= f_x - c*||s||^2 + C_accept*eta_k^2.
Since c*||s||^2 >= 0, a trial value above f_x + C_accept*eta_k^2 is
rejected whatever the projected control direction s is, and the solver
then never projects it.  These tests lock that the shortcut is exact:
runs decide every step as the always-projecting reference test does, and
only the budget columns fall.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipas.solver
from ipas import make_synthetic_logistic, parse_experiment_config, plan_runs, run, save_libsvm
from ipas.experiment import _run_config, build_problem

import reference
from test_golden import ipas_check07, ipas_logistic

BUDGET_COLUMNS = ("scalar_products", "cg_iters")
DECISION_COLUMNS = tuple(
    f.name for f in dataclasses.fields(ipas.solver.IterationRecord) if f.name not in BUDGET_COLUMNS
)


def shipped_logistic_grid_point(tmp_path: Path):
    """Records of one grid point of configs/logistic.ini (s = 0.75, dN = 1, seed 3)."""
    data = tmp_path / "logistic_768x8.libsvm"
    save_libsvm(make_synthetic_logistic(768, 8, seed=42), data)
    shipped = (Path(__file__).parents[1] / "configs" / "logistic.ini").read_text()
    config = tmp_path / "logistic.ini"
    config.write_text(shipped.replace("data/logistic_768x8.libsvm", str(data)))
    payload = next(
        p for p in plan_runs(parse_experiment_config(config), output_dir=str(tmp_path))
        if p["config_id"] == "s0.75_dN1" and p["seed"] == 3
    )
    cs, obj, x0 = build_problem(payload["problem"])
    return run(cs, obj, _run_config(payload, obj.n_components), x0=x0).records


INSTANCES = {
    "check07_golden": lambda tmp_path: ipas_check07(),
    "logistic_golden": lambda tmp_path: ipas_logistic(),
    "logistic_ini": shipped_logistic_grid_point,
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_runs_decide_every_step_as_the_always_projecting_test(name, tmp_path, monkeypatch):
    records = INSTANCES[name](tmp_path)
    with monkeypatch.context() as patched:
        patched.setattr(ipas.solver, "additional_sampling_test", reference.additional_sampling_test)
        ref = INSTANCES[name](tmp_path)
    assert len(records) == len(ref)
    for new_row, ref_row in zip(records, ref):
        # repr is the trace cell: exact for floats, and -0.0 differs from 0.0.
        for col in DECISION_COLUMNS:
            assert repr(getattr(new_row, col)) == repr(getattr(ref_row, col)), (new_row.k, col)
        for col in BUDGET_COLUMNS:
            assert getattr(new_row, col) <= getattr(ref_row, col), (new_row.k, col)
    # Some control test was decided by its values, or this proves nothing.
    assert any(a.cg_iters < b.cg_iters for a, b in zip(records, ref))


# Finite values at the edges of the double range, and values of the cutoff's
# order; the cutoff itself and its neighbours are drawn below.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0]
finite = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
nonnegative = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e308, math.inf]),
    st.floats(min_value=0.0, allow_nan=False),
)
unit = st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)
positive = st.one_of(
    st.sampled_from([5e-324, 1e-2, 1.0, 1e308]), st.floats(min_value=5e-324, max_value=1e308)
)


@settings(max_examples=500)
@given(
    f_x=finite,
    trial=st.one_of(
        st.tuples(st.just("value"), st.one_of(finite, st.just(math.inf))),
        st.tuples(st.just("ulps from the cutoff"), st.integers(-3, 3)),
    ),
    s_sq=nonnegative,
    c=unit,
    C_accept=positive,
    eta_k=st.one_of(st.just(1.0), unit),
)
def test_a_trial_above_the_values_cutoff_fails_the_full_test(f_x, trial, s_sq, c, C_accept, eta_k):
    # The expressions of _tolerances and additional_sampling_test, evaluated in their order.
    slack = C_accept * eta_k * eta_k
    cutoff = f_x + slack
    kind, v = trial
    if kind == "value":
        f_trial = v
    else:
        f_trial = cutoff
        for _ in range(abs(v)):
            f_trial = math.nextafter(f_trial, math.copysign(math.inf, v))
    if f_trial > cutoff:
        assert not (f_trial <= f_x - c * s_sq + slack)
