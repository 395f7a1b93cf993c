"""The logistic kernel's full-data methods against their two-pass form.

Above _SINGLE_PASS_MIN_BYTES of Z the kernel reads Z once per point where
its probe allows, and must still return the bits of the two-pass kernel of
tests/reference.py: in the solver's and the baseline's records, field by
field, and in the kernel's own value, margins, losses and gradient.
"""

import dataclasses

import numpy as np
import pytest

import test_golden
from ipas import (
    BaselineConfig,
    FiniteSumObjective,
    LogisticDataset,
    SolverConfig,
    generate_constraints,
    logistic_objective,
    make_synthetic_logistic,
    run,
    run_baseline,
    uniform_weights,
)
from ipas.problems import _SINGLE_PASS_MIN_BYTES, LogisticKernel
from reference import TwoPassLogisticKernel

# 21000 x 200 float64 is 33.6 MB, just above the size gate, and N is no
# multiple of a row block.  The features are scaled so that the line
# searches backtrack.
N_ROWS = 21000
DIM = 200
SCALE = 30.0


@pytest.fixture(scope="module")
def large():
    base = make_synthetic_logistic(N_ROWS, DIM, seed=3)
    ds = LogisticDataset(Z=SCALE * base.Z, y=base.y)
    assert ds.Z.nbytes >= _SINGLE_PASS_MIN_BYTES
    obj = logistic_objective(ds)
    ref = FiniteSumObjective(weights=obj.weights, dim=DIM, kernel=TwoPassLogisticKernel(ds))
    return generate_constraints(DIM, 20, seed=4), obj, ref


def fields(records) -> list[str]:
    """Every record field, in repr form: exact for floats, NaN and -0.0 included."""
    return [repr(dataclasses.astuple(r)) for r in records]


def test_baseline_records_match_the_two_pass_kernel(large):
    cs, obj, ref = large
    cfg = BaselineConfig(k_max=8, s_exp=3.0)
    records = run_baseline(cs, obj, cfg).records
    assert {r.t for r in records[:-1]} == {1.0, 0.1}  # one and two trials per search
    assert fields(records) == fields(run_baseline(cs, ref, cfg).records)


def test_full_sample_ipas_records_match_the_two_pass_kernel(large):
    cs, obj, ref = large
    cfg = SolverConfig(k_max=8, N0=N_ROWS, s_exp=3.0, seed=0)
    records = run(cs, obj, cfg).records
    assert all(r.Nk == N_ROWS for r in records)
    assert {r.t for r in records[:-1]} == {1.0, 0.1}
    assert fields(records) == fields(run(cs, ref, cfg).records)


def frozen(w: np.ndarray) -> np.ndarray:
    w = w.copy()
    w.setflags(write=False)
    return w


def assert_bits(kernel: LogisticKernel, w: np.ndarray, x: np.ndarray, value_first: bool):
    """Value, margins, losses and gradient at x equal the two-pass kernel's bytes."""
    ref = TwoPassLogisticKernel(kernel.ds)
    if value_first:
        assert kernel.weighted_value(w, x) == ref.weighted_value(w, x)
    value, grad = kernel.weighted_value_grad(w, x)
    ref_value, ref_grad = ref.weighted_value_grad(w, x)
    assert value == ref_value
    assert grad.tobytes() == ref_grad.tobytes()
    margins, losses = ref._two_pass_margins(x)
    _, memo_margins, memo_losses, _, _ = kernel._memo
    assert memo_margins.tobytes() == margins.tobytes()
    assert memo_losses.tobytes() == losses.tobytes()


def margin_scaled_point(ds: LogisticDataset, largest: float, seed: int) -> np.ndarray:
    """A random x whose largest margin |y z.x| is about `largest`."""
    x = np.random.default_rng(seed).standard_normal(ds.dim)
    return x * (largest / np.abs(ds.Z @ x).max())


class TestKernelBits:
    @pytest.mark.parametrize("n", [200, 201, 202, 203])
    def test_every_result_matches_the_two_pass_kernel(self, n):
        # n % 4 in {0, 1, 2, 3}; OpenBLAS keeps the single pass's bits only
        # at n % 4 == 0, and the probe sends the rest to the two passes.
        ds = make_synthetic_logistic(N_ROWS, n, seed=n)
        assert ds.Z.nbytes >= _SINGLE_PASS_MIN_BYTES
        kernel = LogisticKernel(ds)
        rng = np.random.default_rng(n)
        weights = (frozen(uniform_weights(N_ROWS)), rng.random(N_ROWS) / N_ROWS)
        # Margins up to about 5, 100 and 700: at 700 the gradient's products
        # reach the subnormal range.
        for i, largest in enumerate((5.0, 100.0, 700.0)):
            x = margin_scaled_point(ds, largest, seed=i)
            for w in weights:
                for value_first in (True, False):
                    kernel._memo = None
                    assert_bits(kernel, w, x, value_first)
        assert kernel._single_pass_ok is not None

    def test_a_refused_probe_keeps_the_two_passes(self, large, monkeypatch):
        _, obj, _ = large
        kernel = LogisticKernel(obj.kernel.ds)
        real = kernel._single_pass

        def off_by_an_ulp(w, x):
            margins, grad = real(w, x)
            grad[0] = np.nextafter(grad[0], np.inf)
            return margins, grad

        monkeypatch.setattr(kernel, "_single_pass", off_by_an_ulp)
        assert not kernel._takes_single_pass()
        assert kernel._single_pass_ok is False
        x = margin_scaled_point(kernel.ds, 5.0, seed=1)
        assert_bits(kernel, obj.weights, x, value_first=True)


@pytest.fixture(params=["small", "large"])
def kernel_and_point(request, large):
    """A kernel on the two passes (300 x 10) and one above the size gate."""
    if request.param == "small":
        ds = make_synthetic_logistic(300, 10, seed=8)
    else:
        ds = large[1].kernel.ds
    return LogisticKernel(ds), margin_scaled_point(ds, 5.0, seed=9)


def held_weights(kernel):
    """The weights whose gradient the kernel's memo holds, or None."""
    return kernel._memo[3]


def ref_grad(kernel, w, x):
    return TwoPassLogisticKernel(kernel.ds).weighted_value_grad(w, x)[1].tobytes()


class TestGradientMemo:
    def test_another_read_only_w_at_the_same_point_recomputes(self, kernel_and_point):
        kernel, x = kernel_and_point
        n_rows = kernel.ds.n_samples
        w1 = frozen(uniform_weights(n_rows))
        w2 = frozen(np.random.default_rng(1).random(n_rows) / n_rows)
        kernel.weighted_value(w1, x)
        for w in (w2, w1, w2):
            assert kernel.weighted_value_grad(w, x)[1].tobytes() == ref_grad(kernel, w, x)

    def test_a_writeable_w_never_reuses_a_held_gradient(self, kernel_and_point):
        kernel, x = kernel_and_point
        w = uniform_weights(kernel.ds.n_samples)
        w[:2] = (0.5 * w[0], 1.5 * w[1])  # same sum, other gradient

        def check(point):
            assert kernel.weighted_value_grad(w, point)[1].tobytes() == ref_grad(kernel, w, point)

        for _ in range(2):
            check(x)
            w[:2] = w[1::-1]
        # A gradient computed for a writeable w is not held, so freezing w
        # after a change cannot bring back the old one.
        check(0.25 * x)
        w[:2] = w[1::-1]
        w.setflags(write=False)
        check(0.25 * x)
        # Frozen, w's gradient is held after a single pass; writeable again
        # and changed, it is dropped, not reused.
        point = 0.5 * x
        kernel.weighted_value(w, point)
        assert held_weights(kernel) is (w if kernel._single_pass_ok else None)
        w.setflags(write=True)
        w[:2] = w[1::-1]
        check(point)
        assert held_weights(kernel) is None
        w.setflags(write=False)
        check(point)

    def test_a_held_gradient_is_returned_read_only(self, kernel_and_point):
        kernel, x = kernel_and_point
        w = frozen(uniform_weights(kernel.ds.n_samples))
        kernel.weighted_value(w, x)
        _, grad = kernel.weighted_value_grad(w, x)
        assert (held_weights(kernel) is w) == kernel._single_pass_ok
        if held_weights(kernel) is w:
            with pytest.raises(ValueError, match="read-only"):
                grad += 1.0
        assert grad.tobytes() == ref_grad(kernel, w, x)

    def test_two_trials_then_the_gradient_at_the_first(self, kernel_and_point):
        kernel, x = kernel_and_point
        w = frozen(uniform_weights(kernel.ds.n_samples))
        ref = TwoPassLogisticKernel(kernel.ds)
        first, second = x, 0.5 * x
        for point in (first, second):
            assert kernel.weighted_value(w, point) == ref.weighted_value(w, point)
        value, grad = kernel.weighted_value_grad(w, first.copy())
        assert value == ref.weighted_value(w, first)
        assert grad.tobytes() == ref_grad(kernel, w, first)

    @pytest.mark.parametrize("largest", [5.0, 700.0, 800.0])
    def test_raise_on_every_error_raises_as_the_two_passes_do(self, kernel_and_point, largest):
        # On the large data, margins near 700 make the gradient's products
        # underflow while the losses do not, so only a call that asks for
        # the gradient raises; margins near 800 make the losses underflow too.
        kernel, _ = kernel_and_point
        x = margin_scaled_point(kernel.ds, largest, seed=2)
        w = frozen(uniform_weights(kernel.ds.n_samples))
        ref = TwoPassLogisticKernel(kernel.ds)
        raised = {}
        for method in ("weighted_value", "weighted_value_grad"):
            # Computed at the default error state, the gradient is held; it
            # must not be reused where the two passes would raise.
            kernel.weighted_value_grad(w, 0.5 * x)
            if method == "weighted_value_grad":
                kernel.weighted_value_grad(w, x)
            outcomes = []
            for k in (kernel, ref):
                with np.errstate(all="raise"):
                    try:
                        result = getattr(k, method)(w, x)
                    except FloatingPointError:
                        result = "raised"
                outcomes.append(repr(result))
            assert outcomes[0] == outcomes[1], method
            raised[method] = outcomes[0] == repr("raised")
        if kernel.ds.n_samples == N_ROWS:
            expected = {5.0: (False, False), 700.0: (False, True), 800.0: (True, True)}
            assert (raised["weighted_value"], raised["weighted_value_grad"]) == expected[largest]


class TestWhereTheSinglePassRuns:
    def test_not_on_small_data(self, monkeypatch):
        # The sweep's 768 x 8 data, tests/data/tiny.libsvm and the golden
        # baseline's 100 x 5 fixture stay on the two passes, unprobed.
        def refuse(self, *args):
            raise AssertionError("the single pass or its probe ran on small data")

        monkeypatch.setattr(LogisticKernel, "_probe", refuse)
        monkeypatch.setattr(LogisticKernel, "_single_pass", refuse)
        test_golden.baseline_roundoff()
        test_golden.ipas_logistic()
        obj = logistic_objective(make_synthetic_logistic(768, 8, seed=42))
        cs = generate_constraints(8, 4, seed=7)
        run(cs, obj, SolverConfig(k_max=20, N0=768, D_size=4, seed=0))
        run_baseline(cs, obj, BaselineConfig(k_max=20))
        assert obj.kernel._single_pass_ok is False

    def test_on_large_data_where_the_probe_allows(self, large, monkeypatch):
        cs, obj, _ = large
        kernel = LogisticKernel(obj.kernel.ds)
        if not kernel._takes_single_pass():
            pytest.skip("the probe found that this BLAS sums the single pass in another order")
        calls = []
        real = kernel._single_pass
        monkeypatch.setattr(kernel, "_single_pass", lambda w, x: calls.append(1) or real(w, x))
        objective = FiniteSumObjective(weights=obj.weights, dim=DIM, kernel=kernel)
        records = run_baseline(cs, objective, BaselineConfig(k_max=4, s_exp=3.0)).records
        # One single pass per trial point plus the start; each gradient at
        # an accepted point is the memo's.
        trials = sum(1 if r.t == 1.0 else 2 for r in records[:-1])
        assert len(calls) == trials + 1
