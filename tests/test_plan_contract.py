"""The plan-time contract as a property: a config either fails to parse or runs.

parse_experiment_config prepares every grid point as its runs will be, so
a config it accepts must run to the end: run_experiment writes no failed
row.  The strategies cover the [problem], [solver] and [sweep] keys of both
problem kinds, with values at their edges, at iteration budgets small
enough for tier-1.
"""

from __future__ import annotations

import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ipas import (
    ConfigInvalid,
    InvariantViolation,
    parse_experiment_config,
    run,
    run_experiment,
)
from ipas.experiment import MANIFEST_NAME, build_problem, plan_runs, read_manifest, _run_config

TINY = Path(__file__).parent / "data" / "tiny.libsvm"


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def config_texts(draw, s_range):
    """The text of a config file whose tolerance exponents lie in s_range."""
    kind = draw(st.sampled_from(["noisy_quadratic", "logistic"]))
    problem = {"kind": kind}
    if kind == "noisy_quadratic":
        problem |= {
            "n": draw(st.integers(1, 30)),
            "components": draw(st.integers(1, 3000)),
            "sigma": draw(st.just(0.0) | _floats(0.0, 10.0)),
            "base_seed": draw(st.integers(0, 10**6)),
            "base_curvature": draw(_floats(1e-4, 1e3)),
            "q_scale": draw(_floats(1e-3, 1e4)),
        }
    else:
        problem["dataset"] = TINY
    problem |= {
        "m_fraction": draw(_floats(0.01, 1.0)),
        "constraint_seed": draw(st.integers(0, 10**6)),
    }

    s = _floats(*s_range)
    optional = {
        "beta": _floats(0.0, 1.0),
        "c": _floats(0.0, 1.0),
        "c1": _floats(0.0, 1.0),
        "t_min": _floats(0.0, 1.0),
        "c_accept": _floats(0.0, 1e2),
        "s": s,
        "tol_d": st.just(0.0) | _floats(0.0, 1e-2),
        "tol_e": st.just(0.0) | _floats(0.0, 1e-2),
        "dn": st.integers(0, 100),
        "d": st.integers(0, 12),
    }
    solver = {key: draw(value) for key, value in optional.items() if draw(st.booleans())}
    start = draw(st.sampled_from(["default", "n0", "n0_fraction"]))
    if start == "n0":
        solver["n0"] = draw(st.integers(1, 50))
    elif start == "n0_fraction":
        solver["n0_fraction"] = draw(_floats(1e-4, 1.0))
    solver["k_max"] = draw(st.integers(0, 200))

    sweep = {}
    if draw(st.booleans()):
        sweep["s"] = draw(st.lists(s, min_size=1, max_size=2))
    if draw(st.booleans()):
        sweep["dn"] = draw(st.lists(st.integers(1, 100), min_size=1, max_size=2))
    if kind == "noisy_quadratic" and draw(st.booleans()):
        sweep["sigma"] = draw(st.lists(_floats(0.0, 10.0), min_size=1, max_size=2))
    seeds = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=2, unique=True))

    def section(name, values):
        lines = [f"[{name}]"]
        for key, value in values.items():
            text = " ".join(map(repr, value)) if isinstance(value, list) else str(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines)

    return "\n\n".join(
        [
            section("problem", problem),
            section("solver", solver),
            section("sweep", sweep),
            section("run", {"seeds": seeds}),
        ]
    )


def assert_rejected_or_runs(text: str) -> str:
    """parse_experiment_config raises ConfigInvalid, or no run of the sweep fails.

    Returns which of the two happened.  A failed row's error is raised again
    by running its payload without execute_run's guard, so the test reports
    the exception itself.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.ini"
        path.write_text(text + f"\noutput_dir = {Path(tmp) / 'out'}\n")
        try:
            cfg = parse_experiment_config(path)
        except ConfigInvalid:
            return "rejected at plan time"
        outcome = run_experiment(cfg, workers=1)
        if not outcome.n_failed:
            return f"ran {outcome.n_runs} runs"
        rows = read_manifest(str(Path(outcome.output_dir) / MANIFEST_NAME))
        failed = {(r["config_id"], r["seed"]) for r in rows if r["status"] == "failed"}
        for payload in plan_runs(cfg):
            if (payload["config_id"], payload["seed"]) in failed:
                cs, obj, x0 = build_problem(payload["problem"])
                run(cs, obj, _run_config(payload, obj.n_components), x0=x0)
        raise AssertionError(f"failed rows that ran again without failing: {sorted(failed)}")


_BOUNDED = settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])


@_BOUNDED
@given(config_texts(s_range=(0.6, 2.0)))
def test_an_accepted_config_runs_to_the_end(text):
    event(assert_rejected_or_runs(text))


@pytest.mark.xfail(
    strict=True,
    raises=InvariantViolation,
    reason="eta_k falls below the attainable accuracy of CG's residual (ROADMAP item 2)",
)
def test_an_accepted_config_with_a_steep_schedule_runs_to_the_end():
    # The first crash is raised here, after the draws, rather than reported
    # by hypothesis, which would shrink it with a sweep per step.
    crashes = []

    @_BOUNDED
    @given(config_texts(s_range=(4.0, 6.0)))
    def draw(text):
        if not crashes:
            try:
                assert_rejected_or_runs(text)
            except InvariantViolation as exc:
                crashes.append(exc)

    draw()
    if crashes:
        raise crashes[0]


def test_a_backtracking_factor_near_one_is_rejected_or_runs():
    # A draw of the property above, shrunk by hand.  With one component
    # every iteration is full sample, and 200 backtracks by 0.999 shrink the
    # step only to 0.82, so the second iteration would raise MaxBacktracks;
    # beta**200 lies above t_min, so the config is rejected.
    text = """
        [problem]
        kind = noisy_quadratic
        n = 2
        components = 1

        [solver]
        beta = 0.999
        k_max = 2

        [run]
        seeds = 0
    """
    assert assert_rejected_or_runs(textwrap.dedent(text)) == "rejected at plan time"


def test_a_mini_batch_search_without_a_trial_bound_is_rejected():
    # Shrunk by hand: a mini-batch search reduces t by beta until beta * t
    # < t_min, so one search could make about 6.9 million trials.  The
    # config is rejected, naming both keys.
    text = """
        [problem]
        kind = noisy_quadratic
        n = 5
        components = 100

        [solver]
        beta = 0.9999
        t_min = 1e-300
        k_max = 200

        [run]
        seeds = 0
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.ini"
        path.write_text(textwrap.dedent(text))
        with pytest.raises(ConfigInvalid, match=r"beta=0\.9999 and t_min=1e-300: 200 backtracks"):
            parse_experiment_config(path)
