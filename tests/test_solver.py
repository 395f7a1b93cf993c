import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipas.solver
from ipas import (
    BaselineConfig,
    ConfigInvalid,
    FiniteSumObjective,
    InvariantViolation,
    MaxBacktracks,
    NonFiniteValue,
    ParseError,
    STATUS_MAX_ITERATIONS,
    STATUS_STATIONARY,
    SolverConfig,
    SolverState,
    TRACE_COLUMNS,
    additional_sampling_test,
    build_constraint_set,
    descent_check,
    draw_sample,
    eta,
    exact_project,
    feasibility_gap,
    full_value,
    full_value_grad,
    generate_constraints,
    inexact_project,
    line_search_full,
    line_search_minibatch,
    logistic_objective,
    make_noisy_quadratic,
    make_synthetic_logistic,
    min_norm_feasible,
    NoisyQuadraticSpec,
    noisy_quadratic_objective,
    projected_direction,
    read_trace,
    run,
    run_baseline,
    uniform_weights,
    validate_config,
    write_trace,
)
from ipas.constraints import ProjectionResult
from ipas.objective import BudgetMeter, Sample, subsample_value_along
from ipas.solver import IterationRecord, _ORACLE_BATCH, _oracle_batch, _tolerances, ipas_step

from conftest import CallableKernel


def orthonormal_system(m: int, n: int, seed: int, shift: float = 0.0):
    """Constraint rows with A A^T = I, so every projection is exact to rounding."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    A = Q.T
    b = A @ rng.standard_normal(n) + shift
    return build_constraint_set(A, b)


def pinned_target_objective(x_star: np.ndarray, n_components: int) -> FiniteSumObjective:
    """All components equal to 0.5 ||x - x_star||^2; gradient x - x_star."""

    def fn(i, x):
        d = x - x_star
        return 0.5 * float(d @ d), d

    return FiniteSumObjective(x_star.size, CallableKernel(fn, uniform_weights(n_components)))


def reprojecting_problem():
    """A problem whose full-sample rows fail the descent check until re-projected.

    The linear term 30 (sum of A's rows) is constant on the feasible set
    but gives every gradient a large row-space part.  The start x0 sits
    0.06 from the minimum-norm feasible point against that part, at a gap
    of 0.19, and with c = 0.9 its direction fails the descent check.  While
    that gap is within eta_k the re-projection leaves x0 where it is, so
    the check fails again; once eta_k falls below it (at k = 8 for
    s_exp = 0.8) x0 is projected exactly and the steps that follow pass.
    """
    cs = generate_constraints(8, 3, seed=100)
    base = make_noisy_quadratic(8, 6, sigma=0.0, seed=200, q_scale=3.0)
    row = cs.A.sum(axis=0)
    obj = noisy_quadratic_objective(replace(base, base_q=base.base_q + 30.0 * row))
    x0 = min_norm_feasible(cs) - 0.06 * row / np.linalg.norm(row)
    return cs, obj, x0


class TestEta:
    def test_known_values(self):
        assert eta(0, 1.0) == 1.0
        assert eta(1, 1.0) == 0.5
        assert eta(3, 2.0) == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert eta(99, 0.5) == pytest.approx(0.1, rel=1e-12)

    def test_strictly_decreasing(self):
        vals = [eta(k, 0.75) for k in range(200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_squared_series_stays_bounded(self):
        # With exponent > 0.5 the partial sums of eta^2 approach a limit;
        # zeta(1.2) < 5.6 bounds the 0.6 case.
        partial = sum(eta(k, 0.6) ** 2 for k in range(100_000))
        assert partial < 5.6

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            eta(-1, 1.0)


class TestTolerances:
    def test_the_slacks_keep_their_rounding(self):
        # The control slack is rounded as (C_accept*eta_k)*eta_k, as the
        # control test rounded it when it squared eta_k itself; the other
        # grouping, C_accept*(eta_k*eta_k), differs at 725 of these k.  The
        # full-sample slack is the square of the search slack, (eta_k^2)^2;
        # ((eta_k*eta_k)*eta_k)*eta_k differs at 691 of them.
        C_accept = 1e-2
        regrouped = chained = 0
        for k in range(2000):
            eta_k, search_slack, full_search_slack, control_slack = _tolerances(k, 1.0, C_accept)
            assert eta_k == eta(k, 1.0)
            assert search_slack == eta_k * eta_k
            assert full_search_slack == search_slack * search_slack
            assert control_slack == (C_accept * eta_k) * eta_k
            regrouped += control_slack != C_accept * (eta_k * eta_k)
            chained += full_search_slack != ((eta_k * eta_k) * eta_k) * eta_k
        assert (regrouped, chained) == (725, 691)

    @staticmethod
    def spy(monkeypatch, module, name) -> list[tuple]:
        """Log the positional arguments of every call of module.name."""
        log = []

        def wrapped(*args, real=getattr(module, name)):
            log.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, wrapped)
        return log

    def test_each_step_applies_the_tolerances_of_its_iteration(self, monkeypatch):
        # Both searches take their slack at position 5.  The control test
        # takes eta_k, its projection's tolerance, at position 5 and its
        # slack at 6.
        # The full-sample search gets eta_k^4, the mini-batch search and the
        # baseline eta_k^2.
        import ipas.baseline

        full = self.spy(monkeypatch, ipas.solver, "line_search_full")
        mini = self.spy(monkeypatch, ipas.solver, "line_search_minibatch")
        control = self.spy(monkeypatch, ipas.solver, "additional_sampling_test")
        baseline = self.spy(monkeypatch, ipas.baseline, "line_search_full")
        cs = generate_constraints(6, 2, seed=1)
        obj = noisy_quadratic_objective(make_noisy_quadratic(6, 20, sigma=0.5, seed=0))
        cfg = SolverConfig(k_max=60, N0=2, dN=3, D_size=3, C_accept=0.3, s_exp=0.75, seed=0)
        expected_full, expected_mini, expected_control = [], [], []
        for r in run(cs, obj, cfg).records[:-1]:
            tol = _tolerances(r.k, cfg.s_exp, cfg.C_accept)
            if r.Nk < obj.n_components:
                expected_mini.append(tol.search)
                expected_control.append((tol.eta, tol.control))
            elif not r.unsuccessful:
                expected_full.append(tol.full_search)
        assert expected_full and expected_mini
        assert [args[5] for args in full] == expected_full
        assert [args[5] for args in mini] == expected_mini
        assert [args[5:7] for args in control] == expected_control
        records = run_baseline(cs, obj, BaselineConfig(k_max=10, s_exp=0.75)).records[:-1]
        assert [args[5] for args in baseline] == [_tolerances(r.k, 0.75).search for r in records]


class TestValidateConfig:
    def test_default_config_is_valid(self):
        validate_config(SolverConfig())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("beta", 0.0),
            ("beta", 1.0),
            ("c", -0.1),
            ("c1", 1.5),
            ("t_min", 0.0),
            ("C_accept", 0.0),
            ("C_accept", -1.0),
            ("s_exp", 0.5),
            ("s_exp", 0.2),
            ("N0", 0),
            ("dN", 0),
            ("D_size", 0),
            ("k_max", -1),
            ("tol_d", -1e-9),
            ("tol_e", -0.5),
        ],
    )
    def test_each_hard_bound(self, field, value):
        cfg = SolverConfig(**{field: value})
        with pytest.raises(ConfigInvalid):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "beta,t_min,valid",
        [
            (0.1, 1e-199, True),  # 0.1**200 rounds to 1.0000000000000112e-200
            (0.1, 1e-200, False),
            (0.95, 1e-4, True),  # 0.95**200 is 3.5e-5
            (0.96, 1e-4, False),  # 2.9e-4
            (0.999, 1e-4, False),
            (0.9999, 1e-300, False),
        ],
    )
    def test_beta_must_reach_t_min_within_the_backtrack_cap(self, beta, t_min, valid):
        cfg = SolverConfig(beta=beta, t_min=t_min)
        if valid:
            validate_config(cfg)
        else:
            with pytest.raises(ConfigInvalid, match=rf"beta={beta!r} and t_min={t_min!r}: 200"):
                validate_config(cfg)

    def test_batch_bounds_need_component_count(self):
        cfg = SolverConfig(N0=10, D_size=9)
        validate_config(cfg)  # fine without a count
        with pytest.raises(ConfigInvalid):
            validate_config(cfg, n_components=5)

    def test_control_sample_must_leave_one_out(self):
        with pytest.raises(ConfigInvalid):
            validate_config(SolverConfig(D_size=10), n_components=10)
        validate_config(SolverConfig(D_size=9), n_components=10)

    def test_single_component_skips_control_bound(self):
        # N = 1 never reaches the mini-batch phase, so D_size is moot.
        validate_config(SolverConfig(N0=1, D_size=1), n_components=1)


class TestDescentCheck:
    # The check takes slope = g.p and p_sq = ||p||^2 from the step.
    def test_antiparallel_direction_passes(self):
        assert descent_check(slope=-1.0, p_sq=1.0, c=0.5)  # g = (1, 0), p = (-1, 0)

    def test_uphill_direction_fails(self):
        assert not descent_check(slope=1.0, p_sq=1.0, c=0.5)  # g = p = (1, 0)

    def test_zero_direction_passes_trivially(self):
        assert descent_check(slope=0.0, p_sq=0.0, c=0.9)

    def test_threshold_scales_with_c(self):
        # g = (1, 0), p = (-1, 1): g.p = -1, ||p||^2 = 2
        assert descent_check(-1.0, 2.0, c=0.5)  # -1 <= -1.0 holds
        assert not descent_check(-1.0, 2.0, c=0.6)  # -1 <= -1.2 fails


def search(line_search, phi, *args, **kwargs):
    """Run a line search along the real line: from x = [0] along p = [1].

    Both searches take phi itself as their value_along, and the point
    x + t p is [t] exactly.  Returns the step and checks that the returned
    point is [t].
    """
    t, point = line_search(phi, np.zeros(1), np.ones(1), *args, **kwargs)
    assert point.tolist() == [t]
    return t


class TestLineSearchFull:
    def test_quadratic_model_lands_on_known_power(self):
        # phi(t) = f0 - t + 3 t^2 with slope -1, c1 = 0.5: the condition
        # 3 t^2 <= t/2 first holds at t = 0.5^3.
        f0 = 10.0
        phi = lambda t: f0 - t + 3 * t * t
        t = search(line_search_full, phi, f0, slope=-1.0, slack=0.0, beta=0.5, c1=0.5)
        assert t == 0.125

    def test_slack_loosens_the_step(self):
        f0 = 10.0
        phi = lambda t: f0 - t + 3 * t * t
        t = search(line_search_full, phi, f0, slope=-1.0, slack=1.0, beta=0.5, c1=0.5)
        assert t == 0.5

    def test_immediate_acceptance(self):
        f0 = 2.0
        t = search(line_search_full, lambda t: f0 - t, f0, slope=-1.0, slack=0.0, beta=0.1, c1=0.9)
        assert t == 1.0

    def test_unsatisfiable_raises_after_cap(self):
        calls = []
        phi = lambda t: calls.append(t) or 1e9
        with pytest.raises(MaxBacktracks):
            search(line_search_full, phi, 0.0, slope=-1.0, slack=0.0, beta=0.5, c1=0.5)
        assert len(calls) == 201

    @pytest.mark.parametrize("blowup", ["inf", "raise"])
    def test_nonfinite_trials_are_skipped(self, blowup):
        # A phi that explodes for large steps but behaves below t = 0.25,
        # returning +inf or raising NonFiniteValue as the objective does.
        f0 = 1.0

        def phi(t):
            if t <= 0.3:
                return f0 - 0.5 * t
            if blowup == "raise":
                raise NonFiniteValue("objective value evaluated to inf")
            return math.inf

        t = search(line_search_full, phi, f0, slope=-1.0, slack=0.0, beta=0.5, c1=0.25)
        assert t == 0.25


class TestLineSearchMinibatch:
    def test_matches_full_search_above_floor(self):
        f0 = 10.0
        phi = lambda t: f0 - t + 3 * t * t
        t = search(line_search_minibatch, phi, f0, slope=-1.0, slack=0.0, beta=0.5, c1=0.5,
                   t_min=0.01)
        assert t == 0.125

    def test_floor_stops_reduction_before_armijo_holds(self):
        # Always-failing phi with beta = 0.5, t_min = 0.1: reductions stop at
        # 0.125 because the next trial 0.0625 would cross the floor.
        phi = lambda t: 1e9
        t = search(line_search_minibatch, phi, 0.0, slope=-1.0, slack=0.0, beta=0.5, c1=0.5,
                   t_min=0.1)
        assert t == 0.125

    def test_high_floor_returns_unit_step(self):
        phi = lambda t: 1e9
        t = search(line_search_minibatch, phi, 0.0, slope=-1.0, slack=0.0, beta=0.5, c1=0.5,
                   t_min=0.9)
        assert t == 1.0

    def test_returned_step_may_violate_armijo(self):
        f0 = 0.0
        phi = lambda t: f0 + 1.0  # never satisfies the condition
        t = search(line_search_minibatch, phi, f0, slope=-1.0, slack=0.0, beta=0.1, c1=0.5,
                   t_min=0.05)
        assert phi(t) > f0 + 0.5 * t * (-1.0)

    def test_a_raising_trial_counts_as_a_failed_one(self):
        def phi(t):
            if t > 0.3:
                raise NonFiniteValue("subsampled objective value evaluated to nan")
            return -1.0

        t = search(line_search_minibatch, phi, 0.0, slope=-1.0, slack=0.0, beta=0.5, c1=0.5,
                   t_min=0.01)
        assert t == 0.25

    def test_an_overflowing_trial_along_the_ray_counts_as_a_failed_one(self):
        # f(z) = ||z||^2 / 2 from x = p = (1e154, 0): f(x + t p) = a0 (1 + t)^2
        # with a0 = 5e307 overflows at t = 1 and reads 6.05e307 at t = 0.1.
        spec = NoisyQuadraticSpec(base_Q=np.eye(2), base_q=np.zeros(2), sigma=0.0, eps=np.zeros(3))
        obj = noisy_quadratic_objective(spec)
        sample = Sample.of(obj, np.array([0, 2]))
        x = p = np.array([1e154, 0.0])
        meter = BudgetMeter()
        value_along = subsample_value_along(obj, sample, x, p, meter)
        with pytest.raises(NonFiniteValue):
            value_along(1.0)
        assert value_along(0.1) == pytest.approx(5e307 * 1.21, rel=1e-12)
        meter = BudgetMeter()
        value_along = subsample_value_along(obj, sample, x, p, meter)
        t, point = line_search_minibatch(value_along, x, p, 5e307, -1.0, 5e307, 0.1, 1e-4, 1e-5)
        assert (t, point.tolist()) == (0.1, (x + 0.1 * p).tolist())
        assert meter.component_value_evals == 2 * sample.size

    @given(
        beta=st.floats(min_value=0.05, max_value=0.9),
        t_min=st.floats(min_value=1e-6, max_value=0.99),
        fail_above=st.floats(min_value=1e-8, max_value=2.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_floor_and_grid_invariants(self, beta, t_min, fail_above):
        # phi fails the Armijo test exactly when t > fail_above.
        phi = lambda t: 1e9 if t > fail_above else -1e9
        t = search(line_search_minibatch, phi, 0.0, slope=-1.0, slack=0.0, beta=beta, c1=0.5,
                   t_min=t_min)
        # Never below the floor, and always a power of beta up to roundoff.
        assert t >= t_min or t == 1.0
        j = round(math.log(t) / math.log(beta)) if t < 1.0 else 0
        assert t == pytest.approx(beta**j, rel=1e-9)
        # On return either the test passed or the floor blocked further cuts.
        assert phi(t) <= 0.0 or beta * t < t_min


@given(
    f0=st.floats(-1e3, 1e3),
    slope=st.floats(-1e3, -1e-2),
    curvature=st.floats(0.0, 1e3),
    beta=st.floats(0.05, 0.9),
    c1=st.floats(1e-4, 0.9),
)
@settings(max_examples=200)
def test_zero_slack_is_the_plain_armijo_condition(f0, slope, curvature, beta, c1):
    # Both searches given slack 0 stop at the first trial step where
    # phi(t) <= f0 + c1*t*slope holds, and at no other.
    phi = lambda t: f0 + slope * t + curvature * t * t
    armijo = lambda t: phi(t) <= f0 + c1 * t * slope
    for line_search, extra in ((line_search_full, ()), (line_search_minibatch, (1e-300,))):
        trials = []
        t = search(line_search, lambda t: trials.append(t) or phi(t), f0, slope, 0.0, beta, c1,
                   *extra)
        assert trials[-1] == t and armijo(t)
        assert not any(armijo(u) for u in trials[:-1])


class TestSearchHandsOverItsPoint:
    """A search returns one array for its step, and an accepted step keeps it.

    Both searches read their trials through value_along and form one point,
    x + t p at the t they return.  Where the trials evaluate at their points
    (the adaptive solver's full-sample search, the baseline on a logistic
    problem), that point has the bytes of the last trial's.  The logistic
    kernel's memo is keyed on those bytes, so this is what lets the next
    iteration's full gradient, or the terminal row's oracle, reuse the
    accepted trial's evaluation.
    """

    @staticmethod
    def spy(monkeypatch, owner, searches, module=None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Log (last array an evaluator received inside the search, returned point) per search.

        The evaluators are owner's full_value, subsample_value or weighted_value,
        where it has them; the searches are module's (owner's by default).
        """
        log = []
        inside = []
        module = module or owner
        for name in ("full_value", "subsample_value", "weighted_value"):
            if hasattr(owner, name):

                def evaluator(*args, real=getattr(owner, name)):
                    if inside:  # the point: the last array argument
                        inside[-1] = next(a for a in reversed(args) if isinstance(a, np.ndarray))
                    return real(*args)

                monkeypatch.setattr(owner, name, evaluator)
        for name in searches:

            def wrapped(*args, real=getattr(module, name)):
                inside.append(None)
                try:
                    t, point = real(*args)
                finally:
                    last = inside.pop()
                log.append((last, point))
                return t, point

            monkeypatch.setattr(module, name, wrapped)
        return log

    @staticmethod
    def count_rays(monkeypatch, module) -> list[list[int]]:
        """Log [trials read along the ray, points formed from p] per mini-batch search."""
        counts = []

        class Ray(np.ndarray):
            def __rmul__(self, t):
                counts[-1][1] += 1
                return t * self.view(np.ndarray)

        def along(*args, real=module.subsample_value_along):
            value = real(*args)

            def counted(t):
                counts[-1][0] += 1
                return value(t)

            return counted

        def search(value_along, x, p, *rest, real=module.line_search_minibatch):
            counts.append([0, 0])
            t, point = real(value_along, x, p.view(Ray), *rest)
            assert type(point) is np.ndarray and point.tobytes() == (x + t * p).tobytes()
            return t, point

        monkeypatch.setattr(module, "subsample_value_along", along)
        monkeypatch.setattr(module, "line_search_minibatch", search)
        return counts

    @staticmethod
    def keep_accepted(monkeypatch, module, step_name, log) -> list[str]:
        """Check, after every accepted step, that state.x is the last search's point."""
        kinds = []

        def step(state, cs, obj, cfg, real=getattr(module, step_name)):
            searches = len(log)
            record = real(state, cs, obj, cfg)
            if record.accepted:
                assert len(log) == searches + 1
                assert state.x is log[-1][1]
                kinds.append("full" if record.Nk >= obj.n_components else "mini-batch")
            return record

        monkeypatch.setattr(module, step_name, step)
        return kinds

    @staticmethod
    def problem():
        spec = make_noisy_quadratic(6, 20, sigma=0.5, seed=0)
        return generate_constraints(6, 2, seed=1), noisy_quadratic_objective(spec)

    def test_ipas_steps_keep_the_point_each_search_hands_over(self, monkeypatch):
        rays = self.count_rays(monkeypatch, ipas.solver)
        log = self.spy(monkeypatch, ipas.solver, ("line_search_full", "line_search_minibatch"))
        kinds = self.keep_accepted(monkeypatch, ipas.solver, "ipas_step", log)
        cs, obj = self.problem()
        run(cs, obj, SolverConfig(k_max=60, N0=2, dN=3, D_size=3, seed=0))
        assert {"full", "mini-batch"} <= set(kinds)
        # A mini-batch search evaluates at no array; a full one last at the bytes it returns.
        full = [(last, point) for last, point in log if last is not None]
        assert full and all(last.tobytes() == point.tobytes() for last, point in full)
        assert len(log) - len(full) == len(rays)
        # One point per mini-batch search, however many trials it read.
        assert rays and all(formed == 1 for _, formed in rays)
        assert max(trials for trials, _ in rays) > 1

    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    def test_baseline_steps_keep_the_point_each_search_evaluated_last(self, monkeypatch, kind):
        # The logistic kernel evaluates each trial at x + t p, and the search
        # returns those bytes; the quadratic reads its trials off its polynomial
        # and evaluates at no array.
        import ipas.baseline

        if kind == "logistic":
            cs = generate_constraints(10, 3, seed=2)
            obj = logistic_objective(make_synthetic_logistic(300, 10, seed=1))
        else:
            cs, obj = self.problem()
        log = self.spy(monkeypatch, obj.kernel, ("line_search_full",), module=ipas.baseline)
        kinds = self.keep_accepted(monkeypatch, ipas.baseline, "baseline_step", log)
        ipas.baseline.run_baseline(cs, obj, ipas.baseline.BaselineConfig(k_max=10))
        assert kinds == ["full"] * 10
        if kind == "logistic":
            assert all(last.tobytes() == point.tobytes() for last, point in log)
        else:
            assert all(last is None for last, _ in log)


class TestAdditionalSamplingTest:
    def setup_method(self):
        # sum(x) = 0 over R^2; components identical so control values are
        # deterministic no matter which indices get drawn.
        self.cs = build_constraint_set(np.ones((1, 2)), np.array([0.0]))
        self.x = np.array([1.0, -1.0])
        self.obj = pinned_target_objective(np.zeros(2), n_components=5)

    def config(self, **kw):
        base = dict(c=0.01, C_accept=0.5, D_size=2)
        base.update(kw)
        return SolverConfig(**base)

    def control(self, x_trial, obj=None, seed=0, **kw):
        """The test's decision on x_trial from self.x at eta_k = 0.5, and the state it ran on.

        The control sample is D_size indices drawn with the state's
        generator; the slack is C_accept * eta_k^2, as _tolerances gives it.
        """
        state = SolverState(
            x=self.x, k=0, Nk=1, rng=np.random.default_rng(seed), meter=BudgetMeter(), e_x=0.0
        )
        cfg = self.config(**kw)
        obj = obj or self.obj
        d_set = Sample.of(obj, draw_sample(obj, cfg.D_size, state.rng))
        accepted = additional_sampling_test(
            state, self.cs, obj, d_set, np.asarray(x_trial, dtype=float), 0.5,
            cfg.C_accept * 0.25, cfg,
        )
        return accepted, state

    def spy_projection(self, monkeypatch) -> list:
        results = []

        def spy(*args):
            results.append(inexact_project(*args))
            return results[-1]

        monkeypatch.setattr(ipas.solver, "inexact_project", spy)
        return results

    def test_clear_improvement_accepted(self):
        accepted, _ = self.control(np.zeros(2))
        assert accepted is True

    def test_clear_regression_rejected(self):
        accepted, _ = self.control(np.array([10.0, -10.0]))
        assert accepted is False

    def test_threshold_boundary(self):
        # f(x) = 1, s = -x so ||s||^2 = 2: the cutoff value is
        # 1 - 2c + C eta^2 = 1 - 0.02 + 0.125 = 1.105.
        cutoff = 1.0 - 2 * 0.01 + 0.5 * 0.5**2
        for delta, expect in [(-1e-6, True), (1e-6, False)]:
            a = math.sqrt(cutoff + delta)
            accepted, _ = self.control(np.array([a, -a]), seed=1)
            assert accepted is expect

    def test_control_direction_norm(self, monkeypatch):
        # grad at x is x itself; x - grad = 0 projects to 0, so s = -x.
        results = self.spy_projection(monkeypatch)
        self.control(np.zeros(2))
        (proj,) = results
        s = proj.point - self.x
        assert float(np.linalg.norm(s)) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_charges_one_grad_and_two_values_per_index(self, monkeypatch):
        results = self.spy_projection(monkeypatch)
        _, state = self.control(np.zeros(2), D_size=3)
        meter = state.meter
        assert meter.component_grad_evals == 3
        assert meter.component_value_evals == 6
        # The control projection ran: the test charges its solve and counts it.
        (proj,) = results
        assert state.projections_checked == 1
        assert meter.cg_iterations == proj.cg_iterations
        assert meter.cg_scalar_products == proj.cg_iterations * (self.cs.m + 4)

    def test_nonfinite_trial_value_rejects(self, monkeypatch):
        def fragile(i, x):
            if abs(x[0]) > 5:
                return float("nan"), np.zeros(2)
            d = x.copy()
            return 0.5 * float(d @ d), d

        results = self.spy_projection(monkeypatch)
        obj = FiniteSumObjective(2, CallableKernel(fragile, uniform_weights(4)))
        accepted, state = self.control(np.array([10.0, -10.0]), obj=obj)
        assert accepted is False
        assert (results, state.projections_checked, state.meter.cg_scalar_products) == ([], 0, 0)

    def test_values_above_the_slack_reject_without_projecting(self, monkeypatch):
        # f(x) = 1 and C eta^2 = 0.125: a trial value above 1.125 fails the
        # test whatever s is.
        results = self.spy_projection(monkeypatch)
        a = math.sqrt(1.125 + 1e-6)
        accepted, state = self.control(np.array([a, -a]))
        meter = state.meter
        assert (accepted, results, state.projections_checked) == (False, [], 0)
        assert (meter.cg_iterations, meter.cg_scalar_products) == (0, 0)
        # The control values and gradient are charged all the same.
        assert (meter.component_grad_evals, meter.component_value_evals) == (2, 4)

    def test_values_within_the_slack_project_and_the_direction_decides(self, monkeypatch):
        # Between the full cutoff 1.105 and f(x) + C eta^2 = 1.125 only
        # c ||s||^2 = 0.02 rejects the step, so s is projected.
        results = self.spy_projection(monkeypatch)
        a = math.sqrt(1.115)
        accepted, state = self.control(np.array([a, -a]))
        assert accepted is False
        assert len(results) == 1 and state.projections_checked == 1

    def test_an_over_tolerance_control_projection_raises(self, monkeypatch):
        def over(cs_, y, eta_):
            return replace(inexact_project(cs_, y, eta_), residual_norm=2.0 * eta_)

        monkeypatch.setattr(ipas.solver, "inexact_project", over)
        with pytest.raises(InvariantViolation, match="projection residual .* exceeds"):
            self.control(np.zeros(2))

    def test_a_non_finite_control_value_raises_before_the_control_projection(self, monkeypatch):
        def failing(*args):
            raise NonFiniteValue("feasibility gap nan of the point to project is not finite")

        def nan_value(i, x):
            return math.nan, np.zeros(2)

        monkeypatch.setattr(ipas.solver, "inexact_project", failing)
        obj = FiniteSumObjective(2, CallableKernel(nan_value, uniform_weights(4)))
        with pytest.raises(NonFiniteValue, match="subsampled objective value"):
            self.control(np.zeros(2), obj=obj)

    def test_values_that_decide_never_compute_the_control_gradient(self, monkeypatch):
        # f(x) = 1 and C eta^2 = 0.125: the values reject a trial above 1.125
        # alone.  The gradient is charged all the same; an open test reads
        # it, once, on the control rows.
        calls = []
        real = self.obj.kernel.value_grad_mean
        monkeypatch.setattr(
            self.obj.kernel, "value_grad_mean", lambda rows, x: calls.append(rows) or real(rows, x)
        )
        a = math.sqrt(1.125 + 1e-6)
        accepted, state = self.control(np.array([a, -a]), D_size=3)
        assert (accepted, calls) == (False, [])
        assert state.meter.component_grad_evals == 3
        accepted, state = self.control(np.zeros(2), D_size=3)
        assert accepted is True and len(calls) == 1 and len(calls[0]) == 3
        assert state.meter.component_grad_evals == 3

    def test_an_open_test_with_a_non_finite_control_gradient_raises(self):
        # Only a test that the values leave open reads the control gradient.
        def nan_grad(i, x):
            return 0.5 * float(x @ x), np.full(2, math.nan)

        obj = FiniteSumObjective(2, CallableKernel(nan_grad, uniform_weights(4)))
        with pytest.raises(NonFiniteValue, match="subsampled gradient"):
            self.control(np.zeros(2), obj=obj)
        accepted, state = self.control(np.array([10.0, -10.0]), obj=obj)
        assert accepted is False and state.meter.component_grad_evals == 2


class TestEachPointOnce:
    """A step evaluates each point once, and charges what it stands on as before."""

    @staticmethod
    def per_step(monkeypatch, module, step_name, counters) -> list[tuple]:
        """Log (record, change of each counter) per step of module.step_name."""
        log = []

        def step(state, cs, obj, cfg, real=getattr(module, step_name)):
            before = [count() for count in counters]
            record = real(state, cs, obj, cfg)
            log.append((record, *(count() - b for count, b in zip(counters, before))))
            return record

        monkeypatch.setattr(module, step_name, step)
        return log

    @staticmethod
    def count_calls(monkeypatch, owner, name) -> list:
        calls = []
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
        return calls

    def test_a_mini_batch_row_draws_its_sample_and_control_sample_at_once(self, monkeypatch):
        draws = self.count_calls(monkeypatch, ipas.solver, "draw_sample")
        log = self.per_step(monkeypatch, ipas.solver, "ipas_step", [lambda: len(draws)])
        cs = generate_constraints(6, 2, seed=1)
        obj = noisy_quadratic_objective(make_noisy_quadratic(6, 20, sigma=0.5, seed=0))
        cfg = SolverConfig(k_max=60, N0=2, dN=3, D_size=3, seed=0)
        run(cs, obj, cfg)
        mini = [(record, n) for record, n in log if record.Nk < obj.n_components]
        assert mini and len(mini) < len(log)
        assert all(n == 1 for _, n in mini)
        assert [args[1] for args in draws] == [record.Nk + cfg.D_size for record, _ in mini]

    def test_a_streak_row_reads_the_evaluation_at_its_unmoved_iterate(self, monkeypatch):
        # The first eight rows are unsuccessful at x0, whose re-projection
        # keeps it (see reprojecting_problem); the ninth projects it exactly,
        # and the rows after it start from moved iterates.
        cs, obj, x0 = reprojecting_problem()
        cfg = SolverConfig(N0=6, dN=1, k_max=12, seed=0, s_exp=0.8, c=0.9, oracle_metrics=False)
        kernel = self.count_calls(monkeypatch, obj.kernel, "weighted_value_grad")
        projections = self.count_calls(monkeypatch, ipas.solver, "inexact_project")
        log = self.per_step(
            monkeypatch, ipas.solver, "ipas_step", [lambda: len(kernel), lambda: len(projections)]
        )
        res = run(cs, obj, cfg, x0=x0)
        rows = res.records[:-1]
        assert [r.unsuccessful for r in rows] == [True] * 9 + [False] * 3
        assert [(calls, projected) for _, calls, projected in log[:9]] == [(1, 2)] + [(0, 2)] * 8
        assert all(calls == 1 for _, calls, _ in log[9:])
        # Every row is charged its N gradients, a reused evaluation as well.
        for prev, r in zip(rows, rows[1:9]):
            spent = r.scalar_products - prev.scalar_products
            assert spent == obj.n_components * obj.grad_cost + r.cg_iters * (cs.m + 4)
        assert res.meter.component_grad_evals == 12 * obj.n_components

    def test_a_baseline_step_on_the_quadratic_evaluates_its_iterate_once(self, monkeypatch):
        # The ray takes the step's value and slope; no trial evaluates at a point.
        import ipas.baseline

        cs = generate_constraints(6, 2, seed=1)
        obj = noisy_quadratic_objective(make_noisy_quadratic(6, 20, sigma=0.5, seed=0))
        full = self.count_calls(monkeypatch, obj.kernel, "weighted_value_grad")
        pointwise = self.count_calls(monkeypatch, obj.kernel, "weighted_value")
        log = self.per_step(
            monkeypatch, ipas.baseline, "baseline_step", [lambda: len(full), lambda: len(pointwise)]
        )
        run_baseline(cs, obj, BaselineConfig(k_max=10))
        assert [(calls, points) for _, calls, points in log] == [(1, 0)] * 10


class TestRunBehaviour:
    def test_zero_iterations_yields_single_state_row(self):
        cs = orthonormal_system(2, 5, seed=7)
        obj = pinned_target_objective(np.zeros(5), n_components=3)
        res = run(cs, obj, SolverConfig(k_max=0, N0=2, D_size=2))
        assert len(res.records) == 1
        r = res.records[0]
        assert (r.k, r.Nk, r.t, r.accepted, r.unsuccessful) == (0, 2, 0.0, False, False)
        assert r.scalar_products == 0
        assert res.status == STATUS_MAX_ITERATIONS

    def test_exact_quadratic_reaches_stationarity(self):
        # Orthonormal rows make every projection exact, and the objective is
        # centred on a feasible point: one unit step lands on the solution
        # and the next iteration certifies it.
        cs = orthonormal_system(2, 6, seed=8)
        x_star = exact_project(cs, np.random.default_rng(9).standard_normal(6))
        obj = pinned_target_objective(x_star, n_components=3)
        res = run(cs, obj, SolverConfig(N0=3, k_max=50, tol_d=1e-10, tol_e=1e-10))
        assert res.status == STATUS_STATIONARY
        assert len(res.records) == 3  # two iterations plus the state row
        np.testing.assert_allclose(res.x, x_star, rtol=0, atol=1e-12)
        assert res.records[0].t == 1.0
        assert res.records[-1].norm_d_true <= 1e-12

    def test_stationarity_never_fires_below_full_sample(self):
        # Identical components mean every trial is accepted, so the batch
        # never grows: the run converges yet may not report stationary,
        # because that test is reserved for full-sample iterations.
        cs = orthonormal_system(2, 6, seed=8)
        x_star = exact_project(cs, np.random.default_rng(9).standard_normal(6))
        obj = pinned_target_objective(x_star, n_components=3)
        res = run(
            cs, obj,
            SolverConfig(N0=1, dN=1, D_size=2, k_max=50, seed=3, tol_d=1e-10, tol_e=1e-10),
        )
        assert res.status == STATUS_MAX_ITERATIONS
        assert all(r.Nk == 1 for r in res.records)
        np.testing.assert_allclose(res.x, x_star, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("method", ["ipas", "baseline"])
    @pytest.mark.parametrize("tol_d", [1e-2, 1e-3])
    def test_the_run_stops_on_the_first_stationary_row(self, method, tol_d):
        # Stationary means a full-sample row with norm_p <= tol_d and
        # e_x <= tol_e; the run stops on the first such row, and the
        # terminal row for the next iterate follows it.
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 6, sigma=0.5, seed=200))
        N, tol_e = obj.n_components, 1e-6
        if method == "ipas":
            cfg = SolverConfig(N0=2, dN=1, D_size=2, k_max=400, s_exp=2.0, tol_d=tol_d, tol_e=tol_e)
            res = run(cs, obj, cfg)
        else:
            cfg = BaselineConfig(k_max=400, s_exp=2.0, tol_d=tol_d, tol_e=tol_e)
            res = run_baseline(cs, obj, cfg)
        *rows, terminal = res.records
        hits = [r.Nk >= N and r.norm_p <= tol_d and r.e_x <= tol_e for r in rows]
        assert res.status == STATUS_STATIONARY
        assert len(rows) > 5 and hits[-1] and not any(hits[:-1])
        assert [r.k for r in res.records] == list(range(len(res.records)))
        assert (terminal.t, terminal.norm_p, terminal.accepted, terminal.cg_iters) == (0.0, 0.0, False, 0)
        assert terminal.scalar_products == rows[-1].scalar_products == res.meter.scalar_products
        assert terminal.e_x == feasibility_gap(cs, res.x)

    def test_mixed_accept_reject_bookkeeping(self):
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 25, sigma=1.5, seed=200))
        cfg = SolverConfig(N0=2, dN=2, D_size=3, k_max=60, seed=0, s_exp=1.0, t_min=1e-3)
        res = run(cs, obj, cfg)
        rows = res.records[:-1]
        minibatch = [r for r in rows if r.Nk < 25]
        rejected = [r for r in minibatch if not r.accepted and not r.unsuccessful]
        accepted = [r for r in minibatch if r.accepted]
        assert len(rejected) == 12  # (25 - 2 + 1) / 2 rounded: batch growth path
        assert len(accepted) > 0
        for r, nxt in zip(rows, rows[1:]):
            if r.Nk < 25 and not r.accepted:
                # Rejection: iterate frozen bitwise, batch grows by dN.
                assert nxt.f_true == r.f_true
                assert nxt.e_x == r.e_x
                assert nxt.Nk == min(25, r.Nk + cfg.dN)
            elif r.Nk < 25 and r.accepted:
                assert nxt.Nk == r.Nk
            else:
                assert nxt.Nk == r.Nk  # full phase never shrinks or grows

    def test_budget_is_monotone_and_positive(self):
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 25, sigma=1.5, seed=200))
        res = run(cs, obj, SolverConfig(N0=2, dN=2, D_size=3, k_max=40, seed=0))
        budgets = [r.scalar_products for r in res.records]
        assert budgets[0] > 0
        assert all(a <= b for a, b in zip(budgets, budgets[1:]))
        assert res.meter.scalar_products == budgets[-1]
        assert res.projections_checked > 0

    def test_cg_iterations_bounded_per_row(self):
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 25, sigma=1.5, seed=200))
        res = run(cs, obj, SolverConfig(N0=2, dN=2, D_size=3, k_max=40, seed=0))
        for r in res.records[:-1]:
            # At most two projections per iteration, one solve each.
            assert 0 <= r.cg_iters <= 2

    def test_feasibility_drift_bounded_by_tolerance_sums(self):
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 25, sigma=1.5, seed=200))
        cfg = SolverConfig(N0=2, dN=2, D_size=3, k_max=60, seed=0, s_exp=1.0)
        res = run(cs, obj, cfg)
        bound = 0.0
        for r in res.records:
            assert r.e_x <= bound + 1e-8
            bound += eta(r.k, cfg.s_exp)

    def test_unsuccessful_steps_reproject(self):
        # A strict descent constant makes the check fail while the iterate's
        # infeasibility, within eta_k, outweighs the true direction.  The
        # re-projection keeps an iterate within eta_k and projects any other
        # exactly.
        cs, obj, x0 = reprojecting_problem()
        cfg = SolverConfig(N0=6, dN=1, k_max=120, seed=0, s_exp=0.8, c=0.9)
        res = run(cs, obj, cfg, x0=x0)
        rows = res.records[:-1]
        kept = projected = 0
        for r, nxt in zip(rows, rows[1:]):
            if r.unsuccessful:
                assert r.t == 0.0
                assert not r.accepted
                assert nxt.e_x <= eta(r.k, cfg.s_exp)
                if r.e_x <= eta(r.k, cfg.s_exp):
                    assert repr((nxt.e_x, nxt.f_true)) == repr((r.e_x, r.f_true))
                    kept += 1
                else:
                    assert nxt.e_x <= 1e-12
                    projected += 1
        assert (kept, projected) == (8, 1)
        assert all(r.accepted for r in rows[9:])

    def test_cg_accounting_and_gap_over_every_branch(self, monkeypatch):
        # Rejected mini-batch steps, accepted full-sample steps and
        # re-projections, with and without a solve, all occur in this run.
        cs, obj, x0 = reprojecting_problem()
        cfg = SolverConfig(N0=2, dN=1, D_size=2, k_max=120, seed=0, s_exp=0.8, c=0.9)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return inexact_project(*args, **kwargs)

        monkeypatch.setattr("ipas.solver.inexact_project", counted)
        res = run(cs, obj, cfg, x0=x0)
        rows = res.records[:-1]
        assert any(r.Nk < 6 and not r.accepted for r in rows)
        assert any(r.Nk == 6 and r.accepted for r in rows)
        assert {r.cg_iters for r in rows if r.unsuccessful} == {1, 2}
        assert sum(r.cg_iters for r in res.records) * (cs.m + 4) == res.meter.cg_scalar_products
        assert res.projections_checked == len(calls)
        assert res.records[-1].e_x == feasibility_gap(cs, res.x)
        # An unsuccessful step pays for the full gradient and its projections
        # only; the value its one-pass evaluation also computed is not charged.
        for k, r in enumerate(rows):
            if r.unsuccessful:
                spent = r.scalar_products - (rows[k - 1].scalar_products if k else 0)
                assert spent == obj.n_components * obj.grad_cost + r.cg_iters * (cs.m + 4)

    def test_unsuccessful_step_neither_charges_nor_checks_the_value(self):
        # With a zero gradient the direction from an infeasible start only
        # restores feasibility, so the descent check fails and the step is
        # unsuccessful.  The NaN value that the one-pass evaluation also
        # computed is never used, so it must not be charged or raise.
        cs = orthonormal_system(2, 5, seed=14, shift=1.0)
        obj = FiniteSumObjective(
            5, CallableKernel(lambda i, x: (math.nan, np.zeros_like(x)), uniform_weights(3))
        )
        cfg = SolverConfig(N0=3, D_size=1, k_max=1, oracle_metrics=False)
        res = run(cs, obj, cfg, x0=np.zeros(5))
        (row,) = res.records[:-1]
        assert row.unsuccessful
        assert res.meter.component_value_evals == 0
        assert row.scalar_products == 3 * obj.grad_cost + row.cg_iters * (cs.m + 4)

    def test_infeasible_start_contracts_the_gap(self):
        cs = orthonormal_system(3, 8, seed=10, shift=1.0)
        x_star = exact_project(cs, np.zeros(8))
        obj = pinned_target_objective(x_star, n_components=2)
        x0 = x_star + 0.5  # violates the constraints
        res = run(cs, obj, SolverConfig(N0=2, k_max=5), x0=x0)
        e0 = res.records[0].e_x
        assert e0 == pytest.approx(feasibility_gap(cs, x0), rel=1e-12)
        assert e0 > 0.1
        assert res.records[1].e_x < 1e-8  # one exact step restores feasibility

    def test_single_component_objective_runs_full_sample(self):
        cs = orthonormal_system(2, 5, seed=11)
        x_star = exact_project(cs, np.ones(5))
        obj = pinned_target_objective(x_star, n_components=1)
        res = run(cs, obj, SolverConfig(N0=1, D_size=1, k_max=10, tol_d=1e-10, tol_e=1e-10))
        assert all(r.Nk == 1 for r in res.records)
        assert res.status == STATUS_STATIONARY

    def test_dimension_mismatch_rejected(self):
        cs = orthonormal_system(2, 5, seed=12)
        obj = pinned_target_objective(np.zeros(4), n_components=2)
        with pytest.raises(ConfigInvalid):
            run(cs, obj, SolverConfig(N0=2))

    def test_oversized_initial_batch_rejected(self):
        cs = orthonormal_system(2, 5, seed=13)
        obj = pinned_target_objective(np.zeros(5), n_components=3)
        with pytest.raises(ConfigInvalid):
            run(cs, obj, SolverConfig(N0=7))

    def test_deterministic_given_seed(self):
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 25, sigma=1.5, seed=200))
        cfg = SolverConfig(N0=2, dN=2, D_size=3, k_max=30, seed=0)
        a = run(cs, obj, cfg)
        b = run(cs, obj, cfg)
        assert a.records == b.records
        np.testing.assert_array_equal(a.x, b.x)

    def test_seed_changes_the_trajectory(self):
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 25, sigma=1.5, seed=200))
        a = run(cs, obj, SolverConfig(N0=2, dN=2, D_size=3, k_max=30, seed=0))
        b = run(cs, obj, SolverConfig(N0=2, dN=2, D_size=3, k_max=30, seed=1))
        assert a.records != b.records

    def test_oracle_metrics_do_not_touch_budget_or_iterates(self):
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 25, sigma=1.5, seed=200))
        base = dict(N0=2, dN=2, D_size=3, k_max=30, seed=0)
        with_oracle = run(cs, obj, SolverConfig(**base, oracle_metrics=True))
        without = run(cs, obj, SolverConfig(**base, oracle_metrics=False))
        np.testing.assert_array_equal(with_oracle.x, without.x)
        assert with_oracle.meter == without.meter
        assert all(math.isnan(r.f_true) for r in without.records)
        assert all(math.isnan(r.norm_d_true) for r in without.records)
        assert all(math.isfinite(r.f_true) for r in with_oracle.records)
        assert all(math.isfinite(r.norm_d_true) for r in with_oracle.records)
        # Every other field of every record is equal: the oracle never feeds back.
        blank = dict(norm_d_true=0.0, f_true=0.0)
        assert [replace(r, **blank) for r in with_oracle.records] == [
            replace(r, **blank) for r in without.records
        ]


class TestInvariantChecks:
    """The runtime checks raise InvariantViolation when a projection misreports."""

    def unsuccessful_first_step(self):
        # Zero gradient from an infeasible start: the step projection only
        # restores feasibility, the descent check fails and step 0 re-projects.
        cs = orthonormal_system(2, 5, seed=14, shift=1.0)
        obj = FiniteSumObjective(
            5, CallableKernel(lambda i, x: (0.0, np.zeros_like(x)), uniform_weights(3))
        )
        return cs, obj, SolverConfig(N0=3, D_size=1, k_max=1)

    def patch_projection(self, monkeypatch, corrupt_call, corrupt):
        calls = []

        def patched(cs_, y, eta_):
            proj = inexact_project(cs_, y, eta_)
            calls.append(proj)
            return corrupt(proj, eta_) if len(calls) == corrupt_call else proj

        monkeypatch.setattr("ipas.solver.inexact_project", patched)
        return calls

    def test_over_tolerance_step_projection_raises(self, monkeypatch):
        cs, obj, cfg = self.unsuccessful_first_step()
        over = lambda proj, eta_: replace(proj, residual_norm=2.0 * eta_)
        calls = self.patch_projection(monkeypatch, 1, over)
        with pytest.raises(InvariantViolation, match="projection residual .* exceeds"):
            run(cs, obj, cfg, x0=np.zeros(5))
        assert len(calls) == 1

    def test_over_tolerance_reprojection_raises(self, monkeypatch):
        cs, obj, cfg = self.unsuccessful_first_step()
        res = run(cs, obj, cfg, x0=np.zeros(5))
        assert res.records[0].unsuccessful
        over = lambda proj, eta_: replace(proj, residual_norm=2.0 * eta_)
        calls = self.patch_projection(monkeypatch, 2, over)
        with pytest.raises(InvariantViolation, match="projection residual .* exceeds"):
            run(cs, obj, cfg, x0=np.zeros(5))
        assert len(calls) == 2

    def test_violated_accepted_step_contraction_raises(self, monkeypatch):
        # A projection that reports its true residual but returns a point
        # moved off the constraints by 100 along a row of A: the residual
        # check passes, the accepted full-sample step does not contract the gap.
        cs = orthonormal_system(2, 6, seed=8)
        x_star = exact_project(cs, np.random.default_rng(9).standard_normal(6))
        obj = pinned_target_objective(x_star + 1e3, n_components=3)
        cfg = SolverConfig(N0=3, k_max=1)
        shift = lambda proj, eta_: ProjectionResult(
            proj.point + 100.0 * cs.A[0], proj.residual_norm, proj.cg_iterations
        )
        self.patch_projection(monkeypatch, 1, shift)
        with pytest.raises(InvariantViolation, match="after the accepted step exceeds"):
            run(cs, obj, cfg, x0=x_star)


@pytest.mark.xfail(
    strict=True,
    raises=InvariantViolation,
    reason="eta_k falls below the rounding floor of an exactly projected point (ROADMAP item 2)",
)
def test_steep_schedule_on_a_check07_instance_finishes():
    # Check 07's instance 0 and parameters, but s_exp=4, dN=20, k_max=600:
    # the run raises "projection residual 1.536e-11 exceeds its tolerance
    # 1.525e-11" at k = 505.  A projection contract with a roundoff floor
    # lets it finish, and this xfail then fails as an unexpected pass.
    spec = make_noisy_quadratic(20, 1000, 1.0, seed=1000)
    cs = generate_constraints(20, 10, seed=500)
    cfg = SolverConfig(
        beta=0.1, c=1e-4, c1=1e-2, C_accept=1e-2, s_exp=4.0,
        dN=20, D_size=1, N0=10, t_min=1e-5, k_max=600, seed=0,
    )
    result = run(cs, noisy_quadratic_objective(spec), cfg, x0=min_norm_feasible(cs))
    assert result.status in (STATUS_MAX_ITERATIONS, STATUS_STATIONARY)


class TestOracleMemo:
    """The unmetered oracle runs deferred and batched, once per distinct iterate."""

    def mixed_run(self):
        # Rejected mini-batch steps (one of them growing the batch to the
        # full sample), accepted full-sample steps and re-projections, both
        # those that keep the iterate and one that moves it.
        cs, obj, x0 = reprojecting_problem()
        cfg = SolverConfig(N0=2, dN=1, D_size=2, k_max=120, seed=0, s_exp=0.8, c=0.9)
        return cs, obj, cfg, x0

    def logistic_run(self):
        # Enough distinct iterates for two batches.
        cs = generate_constraints(10, 4, seed=101)
        obj = logistic_objective(make_synthetic_logistic(300, 10, seed=201))
        cfg = SolverConfig(N0=30, dN=30, D_size=4, k_max=90, seed=1)
        return cs, obj, cfg, None

    def record_iterates(self, monkeypatch):
        """Collect the iterate each step starts from; the caller appends res.x."""
        iterates = []

        def recorded(state, *args):
            iterates.append(state.x)
            return ipas_step(state, *args)

        monkeypatch.setattr("ipas.solver.ipas_step", recorded)
        return iterates

    def test_one_unmetered_evaluation_per_distinct_iterate(self, monkeypatch):
        # Also with batches of one iterate, so that every rejection falls on
        # a batch boundary.
        for stride in (_ORACLE_BATCH, 1):
            cs, obj, cfg, x0 = self.mixed_run()
            batches = []

            def counted(cs_, obj_, held):
                batches.append([x for x, _ in held])
                return _oracle_batch(cs_, obj_, held)

            monkeypatch.setattr("ipas.solver._ORACLE_BATCH", stride)
            monkeypatch.setattr("ipas.solver._oracle_batch", counted)
            iterates = self.record_iterates(monkeypatch)
            res = run(cs, obj, cfg, x0=x0)
            iterates.append(res.x)
            rows = res.records
            N = obj.n_components
            # The iterate stays the same object exactly after a rejected
            # mini-batch step and after a re-projection of an iterate within
            # eta_k, which row k's e_x, its gap, tells.
            same = [b is a for a, b in zip(iterates, iterates[1:])]
            assert same == [
                (r.Nk < N and not r.accepted) or (r.unsuccessful and r.e_x <= eta(r.k, cfg.s_exp))
                for r in rows[:-1]
            ]
            distinct = [x for x, s in zip(iterates, [False] + same) if not s]
            columns = [x for batch in batches for x in batch]
            assert len(columns) == len(distinct) < len(rows)
            assert all(a is b for a, b in zip(columns, distinct))
            assert len(batches) >= 2
            assert all(len(b) == stride for b in batches[:-1])
            # Rows at one iterate carry identical bits, a full-sample row
            # after a rejection included.
            shared = [(a, b) for a, b, s in zip(rows, rows[1:], same) if s]
            for a, b in shared:
                assert repr((a.f_true, a.norm_d_true)) == repr((b.f_true, b.norm_d_true))
            assert any(b.Nk == N for _, b in shared)
            assert any(a.unsuccessful for a, _ in shared)
            assert any(r.accepted and r.Nk == N for r in rows)
            assert any(r.unsuccessful and not s for r, s in zip(rows, same))

    def test_oracle_never_sees_a_mutated_array(self, monkeypatch):
        cs, obj, cfg, x0 = self.mixed_run()
        snapshots = []

        def snapshotted(state, *args):
            snapshots.append((state.x, state.x.tobytes()))
            record = ipas_step(state, *args)
            snapshots.append((state.x, state.x.tobytes()))
            return record

        checked = []

        def compared(cs_, obj_, held):
            for x, _ in held:
                (snapshot,) = {b for a, b in snapshots if a is x}
                assert x.tobytes() == snapshot
                checked.append(x)
            return _oracle_batch(cs_, obj_, held)

        monkeypatch.setattr("ipas.solver.ipas_step", snapshotted)
        monkeypatch.setattr("ipas.solver._oracle_batch", compared)
        res = run(cs, obj, cfg, x0=x0)
        assert len(checked) > _ORACLE_BATCH
        assert checked[-1] is res.x

    def test_returned_rows_are_frozen_records(self, monkeypatch):
        # The driver fills the oracle columns of the rows it still holds in
        # place; every row it returns is frozen like any other.
        cs, obj, cfg, x0 = self.mixed_run()
        flushes = []

        def counted(*args):
            flushes.append(args[2])
            return _oracle_batch(*args)

        monkeypatch.setattr("ipas.solver._oracle_batch", counted)
        res = run(cs, obj, cfg, x0=x0)
        assert len(flushes) >= 2
        for r in res.records:
            assert type(r) is IterationRecord
            assert not (math.isnan(r.norm_d_true) or math.isnan(r.f_true))
            for column in ("norm_d_true", "f_true", "k"):
                with pytest.raises(FrozenInstanceError):
                    setattr(r, column, 0.0)

    def test_no_reuse_across_runs(self):
        cs = generate_constraints(8, 3, seed=100)
        x0 = exact_project(cs, np.zeros(8))
        objs = [
            noisy_quadratic_objective(make_noisy_quadratic(8, 6, sigma=1.0, seed=seed))
            for seed in (200, 201)
        ]
        # With k_max = 0 the first run's only oracle evaluation is at x0.
        first = run(cs, objs[0], SolverConfig(N0=2, D_size=2, k_max=0), x0=x0)
        second = run(cs, objs[1], SolverConfig(N0=2, D_size=2, k_max=5), x0=x0)
        for res, obj in zip((first, second), objs):
            f = full_value(obj, x0, BudgetMeter())
            assert abs(res.records[0].f_true - f) <= 1e-12 * max(1.0, abs(f))
        assert second.records[0].f_true != first.records[0].f_true

    def test_columns_equal_a_fresh_evaluation_at_every_row(self, monkeypatch):
        # The batch sums in another order than one full_value_grad per
        # iterate, so the columns equal a fresh evaluation to a tolerance
        # fixed from float64 rounding, not bit for bit.
        for problem in (self.mixed_run, self.logistic_run):
            cs, obj, cfg, x0 = problem()
            iterates = self.record_iterates(monkeypatch)
            res = run(cs, obj, cfg, x0=x0)
            iterates.append(res.x)
            assert len(iterates) == len(res.records) > _ORACLE_BATCH
            for r, x in zip(res.records, iterates):
                meter = BudgetMeter()
                full = full_value_grad(obj, x, meter)
                f = full.value(meter)
                norm_d = float(np.linalg.norm(projected_direction(cs, x, full.grad)))
                scale = max(1.0, float(np.linalg.norm(x)), float(np.linalg.norm(full.grad)))
                assert abs(r.f_true - f) <= 1e-12 * max(1.0, abs(f))
                assert abs(r.norm_d_true - norm_d) <= 1e-12 * scale

    @pytest.mark.parametrize("bad", ["value", "gradient"])
    def test_nonfinite_column_names_the_first_offending_row(self, bad):
        # Component 0 has weight zero, so no sample ever draws it, but the
        # full weighted sum still propagates its NaN once x leaves x0.
        # Identical components accept every step, so every row from k = 1
        # on is at a new, offending iterate.
        cs = orthonormal_system(2, 6, seed=8)
        x0 = exact_project(cs, np.zeros(6))
        x_star = exact_project(cs, np.random.default_rng(9).standard_normal(6))

        def fn(i, x):
            d = x - x_star
            value, grad = 0.5 * float(d @ d), d
            if i == 0 and not np.array_equal(x, x0):
                if bad == "value":
                    value = math.nan
                else:
                    grad = np.full_like(d, math.nan)
            return value, grad

        obj = FiniteSumObjective(6, CallableKernel(fn, [0.0, 0.5, 0.5]))
        with pytest.raises(NonFiniteValue, match=r"oracle at row k=1:"):
            run(cs, obj, SolverConfig(N0=1, D_size=2, k_max=5), x0=x0)


class TestTraceIO:
    def make_records(self):
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 25, sigma=1.5, seed=200))
        return run(cs, obj, SolverConfig(N0=2, dN=2, D_size=3, k_max=20, seed=0)).records

    def test_round_trip_preserves_every_field(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "trace.csv"
        write_trace(records, path)
        assert read_trace(path) == records

    def test_header_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(self.make_records(), path)
        assert path.read_text().splitlines()[0] == ",".join(TRACE_COLUMNS)

    def test_writes_are_byte_identical(self, tmp_path):
        records = self.make_records()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(records, p1)
        write_trace(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_count_is_iterations_plus_state_row(self, tmp_path):
        cs = generate_constraints(8, 3, seed=100)
        obj = noisy_quadratic_objective(make_noisy_quadratic(8, 25, sigma=1.5, seed=200))
        res = run(cs, obj, SolverConfig(N0=2, dN=2, D_size=3, k_max=20, seed=0))
        path = tmp_path / "trace.csv"
        write_trace(res.records, path)
        n_lines = len(path.read_text().splitlines())
        assert n_lines == 1 + 20 + 1  # header + iterations + state row

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("k,N_k,nope\n0,1,2\n")
        with pytest.raises(ParseError):
            read_trace(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n0,1,0.5\n")
        with pytest.raises(ParseError):
            read_trace(path)

    @pytest.mark.parametrize("flags", ["yes,2", "yes,0", "1,2", "True,0", "1.0,0", ",0"])
    def test_flag_cells_other_than_0_or_1_rejected(self, tmp_path, flags):
        path = tmp_path / "trace.csv"
        row = "3,4,0.1,0.5,nan,0.0,nan,120,{},7"
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + row.format("1,0") + "\n")
        [record] = read_trace(path)
        assert (record.accepted, record.unsuccessful) == (True, False)
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + row.format(flags) + "\n")
        with pytest.raises(ParseError, match="0/1 flag"):
            read_trace(path)
