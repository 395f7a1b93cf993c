"""The logistic kernel's one-point full-data methods against their memo-less forms.

The kernel sums its value and gradient over the row blocks of
ipas.problems._blocks, together in one read of Z and with underflow
ignored, and reads them through a memo.  Hit or miss, a call must return
the bits of the memo-less BlockedLogisticKernel of tests/reference.py.
Checked in the solver's and the baseline's records, field by field, in
the kernel's own value and gradient, and against the batched oracle at
one point.
"""

import dataclasses
import warnings
from types import SimpleNamespace

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
from ipas import problems
from ipas.problems import LogisticKernel, _blocks
from reference import BlockedLogisticKernel, logistic_value_grad_many
from test_golden import DATA

# 21000 x 200 float64 is 33.6 MB, and N is no multiple of a row block.
# The features are scaled so that the line searches backtrack.
N_ROWS = 21000
DIM = 200
SCALE = 30.0


@pytest.fixture(scope="module")
def large():
    base = make_synthetic_logistic(N_ROWS, DIM, seed=3)
    ds = LogisticDataset(Z=SCALE * base.Z, y=base.y)
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
    """Value and gradient at x equal the reference kernel's bytes."""
    ref = reference(kernel)
    if value_first:
        assert kernel.weighted_value(x) == ref.weighted_value(x)
    value, grad = kernel.weighted_value_grad(x)
    ref_value, ref_grad = ref.weighted_value_grad(x)
    assert value == ref_value
    assert grad.tobytes() == ref_grad.tobytes()


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
        # n % 8 in {0, 1, 2, 3}.
        ds = make_synthetic_logistic(N_ROWS, n, seed=n)
        assert_bits_at_every_scale(ds, seed=n)

    @pytest.mark.parametrize("data", ["tiny", "768x8", "100x5"])
    def test_small_data_matches_the_blocked_kernel(self, data):
        # tests/data/tiny.libsvm, the sweep's 768 x 8 data and the golden
        # baseline's 100 x 5 fixture: two blocks each, the last one of
        # fewer than 8 rows for tiny and 100 x 5.
        ds = {
            "tiny": lambda: load_libsvm(DATA / "tiny.libsvm"),
            "768x8": lambda: make_synthetic_logistic(768, 8, seed=42),
            "100x5": lambda: make_synthetic_logistic(100, 5, seed=0),
        }[data]()
        assert len(_blocks(*ds.Z.shape)) == 2
        assert_bits_at_every_scale(ds, seed=5)


class TestOnePointIsTheBatchAtOnePoint:
    @pytest.mark.parametrize("data", ["tiny", "768x8", "1004x50", "large"])
    def test_the_one_point_methods_return_the_batchs_bits(self, data, large):
        # weighted_value and weighted_value_grad are the K = 1 case of
        # weighted_value_grad_many: same blocks, same calls, same sums.  The
        # package's batch at one point goes through them, so it is checked
        # against the reference batch.
        ds = {
            "tiny": lambda: load_libsvm(DATA / "tiny.libsvm"),
            "768x8": lambda: make_synthetic_logistic(768, 8, seed=42),
            "1004x50": lambda: make_synthetic_logistic(1004, 50, seed=1),
            "large": lambda: large[1].kernel.ds,
        }[data]()
        n_rows = ds.n_samples
        weights = (uniform_weights(n_rows), np.random.default_rng(0).random(n_rows) / n_rows)
        for i, largest in enumerate((5.0, 100.0, 700.0)):
            x = margin_scaled_point(ds, largest, seed=i)
            for w in weights:
                values, grads = logistic_value_grad_many(ds, w, x[:, None])
                batch = LogisticKernel(ds, w).weighted_value_grad_many(x[:, None])
                assert batch[0].tobytes() == values.tobytes()
                assert batch[1].tobytes() == grads.tobytes()
                value, grad = LogisticKernel(ds, w).weighted_value_grad(x)
                assert repr(value) == repr(float(values[0]))
                assert grad.tobytes() == grads[:, 0].tobytes()
                # The gradient's products underflow at the 700 margins; the
                # kernel ignores that whatever the caller's setting.
                with np.errstate(under="warn"), warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert repr(LogisticKernel(ds, w).weighted_value(x)) == repr(value)
                strided = np.stack([x, x], axis=1)[:, 0]  # x's bytes, not contiguous
                value, grad = LogisticKernel(ds, w).weighted_value_grad(strided)
                assert repr(value) == repr(float(values[0]))
                assert grad.tobytes() == grads[:, 0].tobytes()

    def test_a_one_point_batch_at_the_held_point_reads_no_data(self, monkeypatch):
        ds = make_synthetic_logistic(768, 8, seed=42)
        kernel = LogisticKernel(ds, uniform_weights(ds.n_samples))
        x = margin_scaled_point(ds, 5.0, seed=0)
        value, grad = kernel.weighted_value_grad(x)
        counts = count_passes(kernel, monkeypatch)
        values, grads = kernel.weighted_value_grad_many(x[:, None])
        assert counts.passes == 0
        assert values.tobytes() == np.array([value]).tobytes()
        assert grads.tobytes() == grad.tobytes()
        # The oracle's own array, not a view of the held read-only gradient.
        assert grads.shape == (8, 1) and grads.flags.writeable and grads.flags.c_contiguous


class TestBlocks:
    @pytest.mark.parametrize("n_rows", [1, 7, 8, 385, 1004, N_ROWS, 100004])
    @pytest.mark.parametrize("dim", [1, 8, 50, 200, 201, 17000])
    def test_blocks_are_multiples_of_8_rows_up_to_384_but_the_last(self, n_rows, dim):
        # On x86 OpenBLAS the margins GEMM changed bits with the thread
        # count on row counts that are not a multiple of 8, and the
        # gradient GEMM on more than 384 rows.
        blocks = _blocks(n_rows, dim)
        assert blocks[0].start == 0 and blocks[-1].stop == n_rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert all(0 < size <= 384 for size in sizes)
        assert all(size % 8 == 0 for size in sizes[:-1])
        assert sizes[-1] % 8 == 0 or sizes[-1] < 8

    @pytest.mark.parametrize("dim,rows", [(1, 384), (50, 384), (200, 320), (17000, 8)])
    def test_a_full_block_holds_about_512_kb_of_rows(self, dim, rows):
        assert _blocks(10 * rows, dim) == [slice(lo, lo + rows) for lo in range(0, 10 * rows, rows)]

    def test_the_rows_left_over_make_at_most_two_blocks(self):
        assert [b.stop - b.start for b in _blocks(1004, 50)] == [384, 384, 232, 4]
        assert [b.stop - b.start for b in _blocks(100004, DIM)][-3:] == [320, 160, 4]
        assert [b.stop - b.start for b in _blocks(N_ROWS, DIM)][-2:] == [320, 200]
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
    """The (1, n) gradient the kernel's memo holds."""
    return kernel._memo[2]


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
        held = held_gradient(kernel)
        assert grad.base is held
        with pytest.raises(ValueError, match="read-only"):
            grad += 1.0
        assert grad.tobytes() == ref_grad(kernel, x)
        assert kernel.weighted_value_grad(x)[1].base is held

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

    @pytest.mark.parametrize("largest", [700.0, 800.0])
    @pytest.mark.parametrize("call", ["one-point", "serial batch", "threaded batch"])
    def test_raise_on_every_error_returns_the_bits_with_underflow_ignored(
        self, large, monkeypatch, largest, call
    ):
        # On the large data, margins near 700 make the gradient's products
        # underflow while the losses do not, and margins near 800 make the
        # losses underflow too.  The reference follows the caller's error
        # state and raises; the kernel ignores underflow and raises nothing.
        ds = large[1].kernel.ds
        kernel = LogisticKernel(ds, uniform_weights(ds.n_samples))
        K = {"one-point": 1, "serial batch": 2, "threaded batch": problems._MIN_THREADED_POINTS}[call]
        X = np.stack([margin_scaled_point(ds, largest, seed=i) for i in range(K)], axis=1)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="underflow"):
            logistic_value_grad_many(ds, kernel.weights, X)
        with np.errstate(under="ignore"):
            ref_values, ref_grads = logistic_value_grad_many(ds, kernel.weights, X)
        pools = []
        if call == "threaded batch":
            monkeypatch.setattr(problems, "_usable_cpu_count", lambda: 2)
            monkeypatch.setattr(problems, "_blas_threads", lambda: 1)
            real_pool = problems.ThreadPoolExecutor

            def pool(max_workers):
                pools.append(max_workers)
                return real_pool(max_workers)

            monkeypatch.setattr(problems, "ThreadPoolExecutor", pool)
        with np.errstate(all="raise"):
            if call == "one-point":
                # A value-only miss, then the gradient from the memo.
                x = X[:, 0]
                values = np.array([kernel.weighted_value(x)])
                value, grad = kernel.weighted_value_grad(x)
                assert value == values[0]
                grads = grad[:, None]
            else:
                values, grads = kernel.weighted_value_grad_many(X)
        assert values.tobytes() == ref_values.tobytes()
        assert grads.tobytes() == ref_grads.tobytes()
        assert pools == ([2] if call == "threaded batch" else [])


def count_passes(kernel, monkeypatch) -> SimpleNamespace:
    """Count the kernel's blocked passes over Z.

    A pass is counted at its first block's terms; a memo hit computes none.
    """
    counts = SimpleNamespace(passes=0)
    real = kernel._block_terms
    first = kernel._row_blocks[0]

    def spy(XT, block):
        counts.passes += block is first
        return real(XT, block)

    monkeypatch.setattr(kernel, "_block_terms", spy)
    return counts


class TestOnePassPerPoint:
    @pytest.mark.parametrize("under", ["ignore", "warn", "raise"])
    @pytest.mark.parametrize("data", ["small", "large"])
    def test_a_value_then_the_gradient_at_the_point_make_one_pass(
        self, data, large, under, monkeypatch
    ):
        # Whatever the caller's underflow setting, the value's pass holds
        # the gradient that the next call at the point returns.
        ds = make_synthetic_logistic(768, 8, seed=42) if data == "small" else large[1].kernel.ds
        kernel = LogisticKernel(ds, uniform_weights(ds.n_samples))
        counts = count_passes(kernel, monkeypatch)
        x = margin_scaled_point(ds, 5.0, seed=1)
        with np.errstate(under=under):
            value = kernel.weighted_value(x)
            assert held_gradient(kernel) is not None
            assert kernel.weighted_value_grad(x.copy())[0] == value
        assert counts.passes == 1

    @pytest.mark.parametrize("data", ["small", "large"])
    def test_each_trial_point_reads_z_once(self, data, large, monkeypatch):
        # The sweep's 768 x 8 problem and the large one.
        if data == "small":
            cs, obj = generate_constraints(8, 4, seed=7), make_synthetic_logistic(768, 8, seed=42)
            cfg = BaselineConfig(k_max=20)
        else:
            cs, obj = large[0], large[1].kernel.ds
            cfg = BaselineConfig(k_max=4, s_exp=3.0)
        kernel = LogisticKernel(obj, uniform_weights(obj.n_samples))
        counts = count_passes(kernel, monkeypatch)
        records = run_baseline(cs, FiniteSumObjective(obj.dim, kernel), cfg).records
        # One pass per trial point and one at the start; each gradient at an
        # accepted point is the memo's, and so is the terminal row's
        # one-point oracle.
        trials = sum(1 if r.t == 1.0 else 2 for r in records[:-1])
        assert counts.passes == trials + 1
