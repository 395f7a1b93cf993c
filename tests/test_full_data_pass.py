"""The logistic kernel's one-point full-data methods against their memo-less forms.

The kernel sums its margins, value and gradient over the row blocks of
ipas.problems._blocks and reads them through a memo; on a Z of at least
_FUSED_MIN_BYTES a trial value computes the gradient in the same read of Z.
Whichever path a call takes, it must return the bits of the memo-less
BlockedLogisticKernel of tests/reference.py, which on data of one block
makes the plain calls Z x and Z' coef.  Checked in the solver's and the baseline's records, field by field, and in
the kernel's own value, margins, losses and gradient.
"""

import dataclasses

import numpy as np
import pytest

from ipas import (
    BaselineConfig,
    FiniteSumObjective,
    LogisticDataset,
    SolverConfig,
    generate_constraints,
    load_libsvm,
    logistic_objective,
    make_synthetic_logistic,
    run,
    run_baseline,
    uniform_weights,
)
from ipas.problems import _FUSED_MIN_BYTES, LogisticKernel, _blocks
from reference import BlockedLogisticKernel
from test_golden import DATA

# 21000 x 200 float64 is 33.6 MB, above the size gate, and N is no
# multiple of a row block.  The features are scaled so that the line
# searches backtrack.
N_ROWS = 21000
DIM = 200
SCALE = 30.0


@pytest.fixture(scope="module")
def large():
    base = make_synthetic_logistic(N_ROWS, DIM, seed=3)
    ds = LogisticDataset(Z=SCALE * base.Z, y=base.y)
    assert ds.Z.nbytes >= _FUSED_MIN_BYTES
    obj = logistic_objective(ds)
    ref = FiniteSumObjective(DIM, BlockedLogisticKernel(ds, obj.weights))
    return generate_constraints(DIM, 20, seed=4), obj, ref


def fields(records) -> list[str]:
    """Every record field, in repr form: exact for floats, NaN and -0.0 included."""
    return [repr(dataclasses.astuple(r)) for r in records]


def test_baseline_records_match_the_blocked_kernel(large):
    cs, obj, ref = large
    cfg = BaselineConfig(k_max=8, s_exp=3.0)
    records = run_baseline(cs, obj, cfg).records
    assert {r.t for r in records[:-1]} == {1.0, 0.1}  # one and two trials per search
    assert fields(records) == fields(run_baseline(cs, ref, cfg).records)


def test_full_sample_ipas_records_match_the_blocked_kernel(large):
    cs, obj, ref = large
    cfg = SolverConfig(k_max=8, N0=N_ROWS, s_exp=3.0, seed=0)
    records = run(cs, obj, cfg).records
    assert all(r.Nk == N_ROWS for r in records)
    assert {r.t for r in records[:-1]} == {1.0, 0.1}
    assert fields(records) == fields(run(cs, ref, cfg).records)


def reference(kernel: LogisticKernel) -> BlockedLogisticKernel:
    """The memo-less kernel whose bits kernel must return."""
    return BlockedLogisticKernel(kernel.ds, kernel.weights)


def assert_bits(kernel: LogisticKernel, x: np.ndarray, value_first: bool):
    """Value, margins, losses and gradient at x equal the reference kernel's bytes."""
    ref = reference(kernel)
    if value_first:
        assert kernel.weighted_value(x) == ref.weighted_value(x)
    value, grad = kernel.weighted_value_grad(x)
    ref_value, ref_grad = ref.weighted_value_grad(x)
    assert value == ref_value
    assert grad.tobytes() == ref_grad.tobytes()
    margins, losses = ref.margins_and_losses(x)
    _, memo_margins, memo_losses, _ = kernel._memo
    assert memo_margins.tobytes() == margins.tobytes()
    assert memo_losses.tobytes() == losses.tobytes()


def margin_scaled_point(ds: LogisticDataset, largest: float, seed: int) -> np.ndarray:
    """A random x whose largest margin |y z.x| is about `largest`."""
    x = np.random.default_rng(seed).standard_normal(ds.dim)
    return x * (largest / np.abs(ds.Z @ x).max())


def assert_bits_at_every_scale(ds: LogisticDataset, seed: int):
    n_rows = ds.n_samples
    rng = np.random.default_rng(seed)
    kernels = [LogisticKernel(ds, w) for w in (uniform_weights(n_rows), rng.random(n_rows) / n_rows)]
    # Margins up to about 5, 100 and 700: at 700 the gradient's products
    # reach the subnormal range.
    for i, largest in enumerate((5.0, 100.0, 700.0)):
        x = margin_scaled_point(ds, largest, seed=i)
        for kernel in kernels:
            for value_first in (True, False):
                kernel._memo = None
                assert_bits(kernel, x, value_first)


class TestKernelBits:
    @pytest.mark.parametrize("n", [200, 201, 202, 203])
    def test_every_result_matches_the_blocked_kernel(self, n):
        # n % 4 in {0, 1, 2, 3}, each above the size gate.
        ds = make_synthetic_logistic(N_ROWS, n, seed=n)
        assert ds.Z.nbytes >= _FUSED_MIN_BYTES
        assert_bits_at_every_scale(ds, seed=n)

    @pytest.mark.parametrize("data", ["tiny", "768x8", "100x5"])
    def test_one_block_data_matches_the_blocked_kernel(self, data):
        # tests/data/tiny.libsvm, the sweep's 768 x 8 data and the golden
        # baseline's 100 x 5 fixture: one block, so the plain calls.
        ds = {
            "tiny": lambda: load_libsvm(DATA / "tiny.libsvm"),
            "768x8": lambda: make_synthetic_logistic(768, 8, seed=42),
            "100x5": lambda: make_synthetic_logistic(100, 5, seed=0),
        }[data]()
        assert len(_blocks(*ds.Z.shape)) == 1
        assert_bits_at_every_scale(ds, seed=5)


class TestBlocks:
    @pytest.mark.parametrize("dim", [1, 5, 8, 200])
    def test_blocks_tile_the_rows_below_the_threaded_ddot_size(self, dim):
        # x86 OpenBLAS threads a ddot from about 10000 entries on.
        n_rows = 100000
        blocks = _blocks(n_rows, dim)
        assert blocks[0].start == 0 and blocks[-1].stop == n_rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.start % 4 == 0 for b in blocks)
        assert all(b.stop - b.start < 10000 for b in blocks)

    def test_the_last_block_takes_the_rows_left_over(self):
        blocks = _blocks(N_ROWS, DIM)
        rows = blocks[0].stop
        assert rows % 4 == 0
        assert all(b.stop - b.start == rows for b in blocks[:-1])
        assert rows <= blocks[-1].stop - blocks[-1].start < 2 * rows
        assert _blocks(3, DIM) == [slice(0, 3)]


@pytest.fixture(params=["small", "large"])
def data_and_point(request, large):
    """Data of one block (300 x 10) and of many, above the size gate."""
    if request.param == "small":
        ds = make_synthetic_logistic(300, 10, seed=8)
    else:
        ds = large[1].kernel.ds
    return ds, margin_scaled_point(ds, 5.0, seed=9)


def held_gradient(kernel):
    """The gradient the kernel's memo holds, or None."""
    return kernel._memo[3]


def ref_grad(kernel, x):
    return reference(kernel).weighted_value_grad(x)[1].tobytes()


class TestGradientMemo:
    def test_kernels_with_other_weights_keep_their_own_gradients(self, data_and_point):
        ds, x = data_and_point
        n_rows = ds.n_samples
        first = LogisticKernel(ds, uniform_weights(n_rows))
        second = LogisticKernel(ds, np.random.default_rng(1).random(n_rows) / n_rows)
        first.weighted_value(x)
        for kernel in (second, first, second):
            assert kernel.weighted_value_grad(x)[1].tobytes() == ref_grad(kernel, x)

    def test_a_held_gradient_is_returned_read_only(self, data_and_point):
        ds, x = data_and_point
        kernel = LogisticKernel(ds, uniform_weights(ds.n_samples))
        kernel.weighted_value(x)
        _, grad = kernel.weighted_value_grad(x)
        assert held_gradient(kernel) is grad
        with pytest.raises(ValueError, match="read-only"):
            grad += 1.0
        assert grad.tobytes() == ref_grad(kernel, x)
        assert kernel.weighted_value_grad(x)[1] is grad

    def test_two_trials_then_the_gradient_at_the_first(self, data_and_point):
        ds, x = data_and_point
        kernel = LogisticKernel(ds, uniform_weights(ds.n_samples))
        ref = reference(kernel)
        first, second = x, 0.5 * x
        for point in (first, second):
            assert kernel.weighted_value(point) == ref.weighted_value(point)
        value, grad = kernel.weighted_value_grad(first.copy())
        assert value == ref.weighted_value(first)
        assert grad.tobytes() == ref_grad(kernel, first)

    @pytest.mark.parametrize("largest", [5.0, 700.0, 800.0])
    def test_raise_on_every_error_raises_as_the_reference_does(self, data_and_point, largest):
        # On the large data, margins near 700 make the gradient's products
        # underflow while the losses do not, so only a call that asks for
        # the gradient raises; margins near 800 make the losses underflow too.
        ds, _ = data_and_point
        x = margin_scaled_point(ds, largest, seed=2)
        kernel = LogisticKernel(ds, uniform_weights(ds.n_samples))
        ref = reference(kernel)
        raised = {}
        for method in ("weighted_value", "weighted_value_grad"):
            # Computed at the default error state, the gradient is held; it
            # must not be reused where the memo-less kernel would raise.
            kernel.weighted_value_grad(0.5 * x)
            if method == "weighted_value_grad":
                kernel.weighted_value_grad(x)
            outcomes = []
            for k in (kernel, ref):
                with np.errstate(all="raise"):
                    try:
                        result = getattr(k, method)(x)
                    except FloatingPointError:
                        result = "raised"
                outcomes.append(repr(result))
            assert outcomes[0] == outcomes[1], method
            raised[method] = outcomes[0] == repr("raised")
        if kernel.ds.n_samples == N_ROWS:
            expected = {5.0: (False, False), 700.0: (False, True), 800.0: (True, True)}
            assert (raised["weighted_value"], raised["weighted_value_grad"]) == expected[largest]


def count_passes(kernel, monkeypatch) -> dict[str, int]:
    """Count the kernel's blocked passes by kind, as the calls go."""
    counts = {"value": 0, "fused": 0, "gradient": 0}
    real = kernel._pass

    def spy(x=None, margins=None, want_grad=True):
        kind = "gradient" if x is None else "fused" if want_grad else "value"
        counts[kind] += 1
        return real(x=x, margins=margins, want_grad=want_grad)

    monkeypatch.setattr(kernel, "_pass", spy)
    return counts


class TestWhereTheFusedPassRuns:
    @pytest.mark.parametrize("data", ["small", "large"])
    def test_a_trial_value_holds_the_gradient_only_above_the_size_gate(self, data, large):
        ds = make_synthetic_logistic(768, 8, seed=42) if data == "small" else large[1].kernel.ds
        kernel = LogisticKernel(ds, uniform_weights(ds.n_samples))
        assert kernel._fuses == (data == "large")
        x = margin_scaled_point(ds, 5.0, seed=1)
        kernel.weighted_value(x)
        assert (held_gradient(kernel) is not None) == (data == "large")
        # Not while underflow is not ignored.
        with np.errstate(under="warn"):
            kernel.weighted_value(0.25 * x)
        assert held_gradient(kernel) is None

    def test_each_trial_point_reads_z_once_on_large_data(self, large, monkeypatch):
        cs, obj, _ = large
        kernel = LogisticKernel(obj.kernel.ds, obj.weights)
        counts = count_passes(kernel, monkeypatch)
        objective = FiniteSumObjective(DIM, kernel)
        records = run_baseline(cs, objective, BaselineConfig(k_max=4, s_exp=3.0)).records
        # One fused pass per trial point plus the start; each gradient at
        # an accepted point is the memo's.
        trials = sum(1 if r.t == 1.0 else 2 for r in records[:-1])
        assert counts == {"value": 0, "fused": trials + 1, "gradient": 0}

    def test_small_data_reads_z_again_for_each_accepted_gradient(self, monkeypatch):
        obj = logistic_objective(make_synthetic_logistic(768, 8, seed=42))
        cs = generate_constraints(8, 4, seed=7)
        counts = count_passes(obj.kernel, monkeypatch)
        k_max = 20
        records = run_baseline(cs, obj, BaselineConfig(k_max=k_max)).records
        assert [r.t for r in records[:-1]] == [1.0] * k_max  # one trial per search
        # The gradient at the start is a miss, those at the k_max - 1
        # accepted points that follow read the held margins.
        assert counts == {"value": k_max, "fused": 1, "gradient": k_max - 1}
