import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipas import (
    BudgetMeter,
    FiniteSumObjective,
    NonFiniteValue,
    Sample,
    WeightError,
    draw_sample,
    full_value,
    full_value_along,
    full_value_grad,
    subsample_value,
    subsample_value_along,
    subsample_value_grad,
    uniform_weights,
)
import ipas.objective
from ipas.objective import _GUESS_MIN_DRAW, _guessed_search

from conftest import CallableKernel

DIM = 3


def scaled_quadratic(i: int, x: np.ndarray) -> tuple[float, np.ndarray]:
    """f_i(x) = (i+1)/2 ||x||^2 + i * x_0, a family with distinct components."""
    value = 0.5 * (i + 1) * float(x @ x) + i * x[0]
    grad = (i + 1) * x + i * np.eye(DIM)[0]
    return value, grad


def make_objective(n: int, weights=None) -> FiniteSumObjective:
    if weights is None:
        weights = uniform_weights(n)
    return FiniteSumObjective(DIM, CallableKernel(scaled_quadratic, weights))


def full_ray(obj: FiniteSumObjective, x: np.ndarray, p: np.ndarray, meter: BudgetMeter):
    """full_value_along from x along p, given the value and slope there as a step computes them."""
    at_x = full_value_grad(obj, x, BudgetMeter())
    return full_value_along(obj, x, p, at_x.raw_value, float(at_x.grad.dot(p)), meter)


class TestWeights:
    def test_uniform_weights_sum_to_one(self):
        for n in (1, 2, 7, 1000):
            w = uniform_weights(n)
            assert w.shape == (n,)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w == w[0])

    def test_negative_weight_rejected(self):
        with pytest.raises(WeightError):
            make_objective(3, weights=np.array([0.6, 0.6, -0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # NaN compares false, so it would pass the sign and sum checks and
        # build an all-NaN cdf, from which every draw returns index 0.
        with pytest.raises(WeightError, match="weights must be finite"):
            make_objective(3, weights=np.array([bad, 0.5, 0.5]))

    def test_wrong_sum_rejected(self):
        with pytest.raises(WeightError):
            make_objective(2, weights=np.array([0.5, 0.6]))

    def test_no_silent_renormalisation(self):
        # A proportional-but-unnormalised vector must be refused, not fixed.
        with pytest.raises(WeightError):
            make_objective(4, weights=np.array([1.0, 1.0, 1.0, 1.0]))

    def test_empty_weights_rejected(self):
        with pytest.raises(WeightError):
            make_objective(0, weights=np.array([]))

    def test_2d_weights_rejected(self):
        with pytest.raises(WeightError):
            make_objective(2, weights=np.array([[0.5, 0.5]]))

    def test_weights_frozen_after_construction(self):
        obj = make_objective(3)
        with pytest.raises(ValueError):
            obj.weights[0] = 0.9

    def test_tiny_float_drift_tolerated(self):
        w = np.array([0.1] * 10)
        assert w.sum() != 1.0 or True  # representation drift is the point
        obj = make_objective(10, weights=w)
        assert obj.n_components == 10

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_normalised_nonnegative_vectors_accepted(self, raw):
        total = sum(raw)
        if total <= 0:
            return
        w = np.array(raw) / total
        obj = make_objective(len(raw), weights=w)
        assert obj.n_components == len(raw)


class TestDrawSample:
    def test_deterministic_for_fixed_seed(self):
        obj = make_objective(50)
        a = draw_sample(obj, 20, np.random.default_rng(5))
        b = draw_sample(obj, 20, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 7, 768, 1000, 100000])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_matches_generator_choice(self, n, uniform):
        # Same indices as Generator.choice(p=...), and the generator ends in
        # the same state, so every later draw of a run is unchanged too.
        if uniform:
            w = uniform_weights(n)
        else:
            w = np.random.default_rng(n).random(n) ** 3
            if n > 1:
                w[0] = 0.0  # a component that is never drawn
            w /= w.sum()
        obj = make_objective(n, weights=w)
        for seed in range(10):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (1, 2, 5, 64, 1000):
                got = draw_sample(obj, size, rng)
                want = ref.choice(n, size=size, replace=True, p=obj.weights / obj.weights.sum())
                np.testing.assert_array_equal(got, want)
                assert got.dtype == np.int64
                assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 3000),
        kind=st.sampled_from(["uniform", "zeros", "dominant", "lognormal"]),
        size=st.one_of(
            st.integers(1, 2 * _GUESS_MIN_DRAW), st.integers(2 * _GUESS_MIN_DRAW, 3000)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_generator_choice_for_any_weights(self, n, kind, size, seed):
        # Sizes on both sides of the guessed search's cutoff.  The reference
        # gets the renormalised weights, whose CDF is the one draw_sample
        # builds.
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            w = np.ones(n)
        elif kind == "zeros":
            w = rng.random(n) * (rng.random(n) < 0.3)
            w[rng.integers(n)] = 1.0
        elif kind == "dominant":
            w = np.full(n, 1e-12)
            w[rng.integers(n)] = 1.0
        else:
            w = rng.lognormal(0.0, 4.0, n)
        obj = make_objective(n, weights=w / w.sum())
        got = draw_sample(obj, size, np.random.default_rng(seed))
        want = np.random.default_rng(seed).choice(n, size, p=obj.weights / obj.weights.sum())
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 3000),
        uniform=st.booleans(),
        a=st.one_of(st.integers(1, _GUESS_MIN_DRAW), st.integers(_GUESS_MIN_DRAW, 3000)),
        b=st.one_of(st.integers(1, _GUESS_MIN_DRAW), st.integers(_GUESS_MIN_DRAW, 3000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_draw_of_a_plus_b_keys_is_a_draw_of_a_then_of_b(self, n, uniform, a, b, seed):
        # A mini-batch step draws its sample and its control sample at once.
        # Each part, and the whole, may fall on either side of the guessed
        # search's cutoff; the generator must end in the same state.
        w = np.ones(n) if uniform else np.random.default_rng(seed).lognormal(0.0, 2.0, n)
        obj = make_objective(n, weights=w / w.sum())
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        joint = draw_sample(obj, a + b, one)
        split = np.concatenate([draw_sample(obj, a, two), draw_sample(obj, b, two)])
        assert joint.dtype == split.dtype == np.int64
        np.testing.assert_array_equal(joint, split)
        assert one.bit_generator.state == two.bit_generator.state

    @pytest.mark.parametrize("kind", ["uniform", "skewed"])
    def test_keys_on_cdf_steps_get_the_search_answer(self, kind):
        # Keys exactly on every CDF value and on both float neighbours of
        # it, drawn in one batch (through the floor(u*N) guess for uniform
        # weights) and guessed directly: a check on the wrong side of a
        # step, or a guess not sent to the search when it misses, changes
        # an index.
        class Keys:
            def __init__(self, u):
                self.u = u

            def random(self, size):
                assert size == self.u.size
                return self.u

        n = 1000
        w = np.ones(n) if kind == "uniform" else np.random.default_rng(7).random(n) ** 4
        if kind == "skewed":
            w[::7] = 0.0
        obj = make_objective(n, weights=w / w.sum())
        steps = obj.cdf[obj.cdf < 1.0]
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0),
            (np.arange(n) + 0.5) / n,
        ])
        assert u.size >= _GUESS_MIN_DRAW
        got = draw_sample(obj, u.size, Keys(u))
        np.testing.assert_array_equal(got, obj.cdf.searchsorted(u, side="right"))
        np.testing.assert_array_equal(_guessed_search(obj.cdf, u), got)
        assert obj.weights[got].min() > 0.0

    @pytest.mark.parametrize("n", [7, 1000])
    def test_only_uniform_weights_are_guessed(self, n, monkeypatch):
        # With other weights the guess floor(u*N) misses nearly every key,
        # so those draws search the CDF directly, at any size.
        calls = []

        def spy(cdf, u, real=_guessed_search):
            calls.append(u.size)
            return real(cdf, u)

        monkeypatch.setattr(ipas.objective, "_guessed_search", spy)
        skewed = np.random.default_rng(n).random(n)
        for w, uniform in ((skewed / skewed.sum(), False), (uniform_weights(n), True)):
            obj = make_objective(n, weights=w)
            assert obj.uniform is uniform
            for size in (1, _GUESS_MIN_DRAW - 1, _GUESS_MIN_DRAW, 1000):
                draw_sample(obj, size, np.random.default_rng(size))
            assert calls == ([_GUESS_MIN_DRAW, 1000] if uniform else [])

    def test_size_and_range(self):
        s = draw_sample(make_objective(10), 33, np.random.default_rng(0))
        assert s.size == 33
        assert s.shape == (33,)
        assert s.dtype == np.int64
        assert s.min() >= 0
        assert s.max() < 10

    def test_sampling_with_replacement_possible(self):
        # With 2 components and 64 draws, a repeat is certain.
        s = draw_sample(make_objective(2), 64, np.random.default_rng(1))
        assert len(np.unique(s)) <= 2

    def test_zero_weight_component_never_drawn(self):
        obj = make_objective(3, weights=np.array([0.5, 0.5, 0.0]))
        s = draw_sample(obj, 5000, np.random.default_rng(2))
        assert not np.any(s == 2)

    def test_frequencies_match_weights(self):
        # Law of large numbers: empirical frequency within 4 standard errors.
        w = np.array([0.5, 0.3, 0.2])
        draws = 20000
        s = draw_sample(make_objective(3, weights=w), draws, np.random.default_rng(3))
        for i, p in enumerate(w):
            freq = np.mean(s == i)
            se = np.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) <= 4 * se

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            draw_sample(make_objective(3), 0, np.random.default_rng(0))


class TestSubsampleEvaluations:
    def test_value_matches_loop(self):
        obj = make_objective(6)
        x = np.array([0.5, -1.0, 2.0])
        idx = np.array([0, 2, 2, 5])
        expected = np.mean([scaled_quadratic(i, x)[0] for i in idx])
        assert subsample_value(obj, Sample.of(obj, idx), x, BudgetMeter()) == pytest.approx(
            expected, rel=1e-14
        )

    def test_grad_matches_loop(self):
        obj = make_objective(6)
        x = np.array([1.0, 0.25, -0.5])
        idx = np.array([1, 1, 4])
        expected = np.mean([scaled_quadratic(i, x)[1] for i in idx], axis=0)
        np.testing.assert_allclose(
            subsample_value_grad(obj, Sample.of(obj, idx), x, BudgetMeter()).grad,
            expected,
            rtol=1e-14,
        )

    def test_fused_value_equals_value_only_evaluation(self):
        obj = make_objective(6, weights=np.array([0.3, 0.1, 0.1, 0.2, 0.2, 0.1]))
        x = np.array([1.0, 0.25, -0.5])
        s = Sample.of(obj, np.array([1, 1, 4, 5]))
        meter = BudgetMeter()
        assert subsample_value_grad(obj, s, x, meter).value(meter) == subsample_value(
            obj, s, x, meter
        )
        assert full_value_grad(obj, x, meter).value(meter) == full_value(obj, x, meter)

    def test_repeated_index_counts_twice(self):
        # Multiset semantics: duplicates shift the average.
        obj = make_objective(3)
        x = np.ones(DIM)
        once = subsample_value(obj, Sample.of(obj, np.array([0, 2])), x, BudgetMeter())
        twice = subsample_value(obj, Sample.of(obj, np.array([0, 2, 2])), x, BudgetMeter())
        assert once != pytest.approx(twice)

    def test_subsample_ignores_weights(self):
        # The subsample average is unweighted even for skewed weights.
        w = np.array([0.9, 0.05, 0.05])
        obj = make_objective(3, weights=w)
        x = np.array([1.0, 1.0, 1.0])
        s = Sample.of(obj, np.array([0, 1, 2]))
        expected = np.mean([scaled_quadratic(i, x)[0] for i in range(3)])
        assert subsample_value(obj, s, x, BudgetMeter()) == pytest.approx(expected, rel=1e-14)

    def test_grad_estimator_unbiased_for_uniform_weights(self):
        obj = make_objective(8)
        x = np.array([0.3, -0.7, 1.1])
        meter = BudgetMeter()
        target = full_value_grad(obj, x, meter).grad
        rng = np.random.default_rng(11)
        reps, batch = 4000, 4
        acc = np.zeros(DIM)
        for _ in range(reps):
            s = Sample.of(obj, draw_sample(obj, batch, rng))
            acc += subsample_value_grad(obj, s, x, meter).grad
        est = acc / reps
        # Componentwise spread of single-sample gradients bounds the SE.
        singles = np.array([scaled_quadratic(i, x)[1] for i in range(8)])
        se = singles.std(axis=0) / np.sqrt(reps * batch)
        assert np.all(np.abs(est - target) <= 4 * se + 1e-12)

    def test_nonfinite_value_raises(self):
        def bad(i, x):
            return float("nan"), np.zeros(DIM)

        obj = FiniteSumObjective(DIM, CallableKernel(bad, uniform_weights(2)))
        s = Sample.of(obj, np.array([0]))
        meter = BudgetMeter()
        with pytest.raises(NonFiniteValue):
            subsample_value(obj, s, np.zeros(DIM), meter)
        with pytest.raises(NonFiniteValue):
            subsample_value_along(obj, s, np.zeros(DIM), np.ones(DIM), meter)(0.5)
        with pytest.raises(NonFiniteValue):
            full_ray(obj, np.zeros(DIM), np.ones(DIM), meter)(0.5)
        # A one-pass evaluation checks the value only when it is taken.
        for fused in (
            subsample_value_grad(obj, s, np.zeros(DIM), meter),
            full_value_grad(obj, np.zeros(DIM), meter),
        ):
            with pytest.raises(NonFiniteValue):
                fused.value(meter)

    def test_nonfinite_grad_raises(self):
        def bad(i, x):
            return 0.0, np.full(DIM, np.inf)

        obj = FiniteSumObjective(DIM, CallableKernel(bad, uniform_weights(2)))
        s = Sample.of(obj, np.array([1]))
        with pytest.raises(NonFiniteValue):
            subsample_value_grad(obj, s, np.zeros(DIM), BudgetMeter())
        with pytest.raises(NonFiniteValue):
            full_value_grad(obj, np.zeros(DIM), BudgetMeter())


class TestFullEvaluations:
    def test_full_value_matches_weighted_loop(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        obj = make_objective(4, weights=w)
        x = np.array([2.0, -1.0, 0.5])
        expected = sum(w[i] * scaled_quadratic(i, x)[0] for i in range(4))
        assert full_value(obj, x, BudgetMeter()) == pytest.approx(expected, rel=1e-14)

    def test_full_grad_matches_weighted_loop(self):
        w = np.array([0.7, 0.1, 0.2])
        obj = make_objective(3, weights=w)
        x = np.array([-0.2, 0.9, 1.5])
        expected = sum(w[i] * scaled_quadratic(i, x)[1] for i in range(3))
        np.testing.assert_allclose(
            full_value_grad(obj, x, BudgetMeter()).grad, expected, rtol=1e-14
        )

    def test_full_grad_matches_finite_differences(self):
        obj = make_objective(5)
        x = np.array([0.4, -0.3, 0.8])
        meter = BudgetMeter()
        g = full_value_grad(obj, x, meter).grad
        h = 1e-6
        for j in range(DIM):
            e = np.zeros(DIM)
            e[j] = h
            fd = (full_value(obj, x + e, meter) - full_value(obj, x - e, meter)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestBudgetMeter:
    def test_starts_at_zero(self):
        meter = BudgetMeter()
        assert meter.scalar_products == 0
        assert meter.component_value_evals == 0
        assert meter.component_grad_evals == 0
        assert meter.cg_scalar_products == 0

    def test_subsample_charges_sample_size(self):
        obj = make_objective(10)
        meter = BudgetMeter()
        s = Sample.of(obj, np.array([0, 1, 1, 3, 9]))
        subsample_value(obj, s, np.zeros(DIM), meter)
        assert meter.component_value_evals == 5
        assert meter.scalar_products == 5
        fused = subsample_value_grad(obj, s, np.zeros(DIM), meter)
        assert meter.component_grad_evals == 5
        assert meter.scalar_products == 10
        assert meter.component_value_evals == 5  # the value is charged when taken
        fused.value(meter)
        assert meter.component_value_evals == 10
        assert meter.scalar_products == 15

    def test_ray_charges_sample_size_per_trial(self):
        # Each trial along the ray is priced as a direct evaluation at its
        # point, and reads the same value there.
        obj = make_objective(10)
        s = Sample.of(obj, np.array([0, 1, 1, 3, 9]))
        x, p = np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.25, -0.5])
        meter, direct = BudgetMeter(), BudgetMeter()
        value = subsample_value_along(obj, s, x, p, meter)
        assert meter == BudgetMeter()
        for trial, t in enumerate((1.0, 0.1, 0.01), start=1):
            assert value(t) == subsample_value(obj, s, x + t * p, direct)
            assert meter == direct
            assert meter.component_value_evals == meter.scalar_products == 5 * trial

    def test_full_ray_charges_all_components_per_trial(self):
        obj = make_objective(7)
        x, p = np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.25, -0.5])
        meter, direct = BudgetMeter(), BudgetMeter()
        value = full_ray(obj, x, p, meter)
        assert meter == BudgetMeter()
        for trial, t in enumerate((1.0, 0.1, 0.01), start=1):
            assert value(t) == full_value(obj, x + t * p, direct)
            assert meter == direct
            assert meter.component_value_evals == meter.scalar_products == 7 * trial

    def test_full_eval_charges_all_components(self):
        obj = make_objective(7)
        meter = BudgetMeter()
        full_value(obj, np.zeros(DIM), meter)
        fused = full_value_grad(obj, np.zeros(DIM), meter)
        assert meter.component_value_evals == 7
        assert meter.component_grad_evals == 7
        assert meter.scalar_products == 14
        fused.value(meter)
        assert meter.component_value_evals == 14
        assert meter.scalar_products == 21

    def test_cg_charge_is_m_plus_4_per_iteration(self):
        meter = BudgetMeter()
        meter.charge_cg(iterations=6, m=10)
        assert meter.cg_scalar_products == 14 * 6
        assert meter.scalar_products == 84
        meter.charge_cg(iterations=0, m=10)
        assert meter.scalar_products == 84
