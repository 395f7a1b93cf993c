import inspect
import math
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit
from hypothesis import given, settings
from hypothesis import strategies as st

from ipas import (
    BaselineConfig,
    LabelError,
    BudgetMeter,
    LogisticDataset,
    NonFiniteValue,
    NoisyQuadraticSpec,
    ParseError,
    RankDeficient,
    Sample,
    SolverConfig,
    WeightError,
    exact_project,
    feasibility_gap,
    FiniteSumObjective,
    full_value,
    full_value_grad,
    generate_constraints,
    load_libsvm,
    logistic_objective,
    make_noisy_quadratic,
    make_synthetic_logistic,
    min_norm_feasible,
    noisy_quadratic_objective,
    run,
    run_baseline,
    save_libsvm,
    subsample_value,
    uniform_weights,
)

from ipas import problems
from ipas.objective import ComponentKernel, _mean
from ipas.problems import (
    _BATCH_ROWS,
    _BLOCK_ROWS,
    LogisticKernel,
    NoisyQuadraticKernel,
    _blocks,
    parse_libsvm,
)
from ipas.solver import IterationRecord, _oracle_batch
from conftest import CallableKernel, count_passes, utf8_only
from reference import (
    BlockedLogisticKernel,
    logistic_component,
    logistic_value_grad_many,
    noisy_quadratic_component,
    parse_libsvm_dicts,
)

DATA = Path(__file__).parent / "data"


def assert_batch_matches_columns(kernel, X, rtol):
    """weighted_value_grad_many at X against weighted_value_grad per column.

    The batch sums in another order, so the two agree to rtol, not bitwise.
    """
    values, grads = kernel.weighted_value_grad_many(X)
    assert values.shape == (X.shape[1],)
    assert grads.shape == X.shape
    for j in range(X.shape[1]):
        value, grad = kernel.weighted_value_grad(X[:, j])
        np.testing.assert_allclose(values[j], value, rtol=rtol)
        np.testing.assert_allclose(grads[:, j], grad, rtol=rtol)


def small_dataset() -> LogisticDataset:
    Z = np.array([[1.0, -2.0], [0.5, 0.25], [-1.5, 3.0], [2.0, 1.0]])
    y = np.array([1.0, -1.0, -1.0, 1.0])
    return LogisticDataset(Z=Z, y=y)


class TestLogisticComponents:
    def test_value_at_origin_is_log_two(self):
        ds = small_dataset()
        for i in range(ds.n_samples):
            value, _ = logistic_component(ds, i, np.zeros(2))
            assert value == pytest.approx(math.log(2.0), rel=1e-15)

    def test_gradient_at_origin(self):
        ds = small_dataset()
        for i in range(ds.n_samples):
            _, grad = logistic_component(ds, i, np.zeros(2))
            np.testing.assert_allclose(grad, -0.5 * ds.y[i] * ds.Z[i], rtol=1e-15)

    def test_hand_computed_value(self):
        ds = LogisticDataset(Z=np.array([[2.0, 0.0]]), y=np.array([1.0]))
        x = np.array([0.5, 7.0])  # margin -y z.x = -1
        value, grad = logistic_component(ds, 0, x)
        assert value == pytest.approx(math.log(1 + math.exp(-1)), rel=1e-14)
        sig = 1 / (1 + math.exp(1))
        np.testing.assert_allclose(grad, -sig * np.array([2.0, 0.0]), rtol=1e-12)

    def test_saturated_satisfied_margin_underflows_gracefully(self):
        ds = LogisticDataset(Z=np.array([[1.0]]), y=np.array([1.0]))
        value, grad = logistic_component(ds, 0, np.array([1000.0]))
        assert 0.0 <= value <= 1e-300
        assert abs(grad[0]) <= 1e-300

    def test_saturated_violated_margin_is_linear(self):
        ds = LogisticDataset(Z=np.array([[1.0]]), y=np.array([1.0]))
        value, grad = logistic_component(ds, 0, np.array([-1000.0]))
        assert value == pytest.approx(1000.0, rel=1e-15)
        assert grad[0] == pytest.approx(-1.0, rel=1e-15)

    def test_gradient_matches_finite_differences(self):
        ds = small_dataset()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2)
        for i in range(ds.n_samples):
            _, grad = logistic_component(ds, i, x)
            h = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (
                    logistic_component(ds, i, x + e)[0]
                    - logistic_component(ds, i, x - e)[0]
                ) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_vectorised_kernel_matches_loop(self):
        ds = small_dataset()
        w = np.array([0.1, 0.2, 0.3, 0.4])
        kernel = LogisticKernel(ds, w)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2)
        idx = np.array([0, 2, 2, 3])
        rows = kernel.gather(idx)
        loop_vals = np.array([logistic_component(ds, i, x)[0] for i in idx])
        np.testing.assert_allclose(kernel.values(rows, x), loop_vals, rtol=1e-14)
        loop_grad = np.mean([logistic_component(ds, i, x)[1] for i in idx], axis=0)
        vals, grad = kernel.value_grad_mean(rows, x)
        np.testing.assert_array_equal(vals, kernel.values(rows, x))
        np.testing.assert_allclose(grad, loop_grad, rtol=1e-13)
        value, grad = kernel.weighted_value_grad(x)
        assert value == kernel.weighted_value(x)
        loop_grad = sum(w[i] * logistic_component(ds, i, x)[1] for i in range(4))
        np.testing.assert_allclose(grad, loop_grad, rtol=1e-13)
        assert_batch_matches_columns(kernel, rng.standard_normal((2, 3)), rtol=1e-13)

    def test_minibatch_gradient_sums_its_row_blocks_in_order(self):
        # Two full blocks of gathered rows and a short third one.
        n_rows = 2 * _BATCH_ROWS + 5
        ds = make_synthetic_logistic(n_rows, 6, seed=12)
        kernel = LogisticKernel(ds, uniform_weights(n_rows))
        rng = np.random.default_rng(12)
        x = rng.standard_normal(6)
        rows = kernel.gather(rng.permutation(n_rows))
        Z, neg_y = rows
        coef = neg_y * expit(neg_y * (Z @ x))
        expected = Z[:_BATCH_ROWS].T @ coef[:_BATCH_ROWS]
        expected += Z[_BATCH_ROWS : 2 * _BATCH_ROWS].T @ coef[_BATCH_ROWS : 2 * _BATCH_ROWS]
        expected += Z[2 * _BATCH_ROWS :].T @ coef[2 * _BATCH_ROWS :]
        expected /= n_rows
        _, grad = kernel.value_grad_mean(rows, x)
        assert grad.shape == expected.shape and grad.tobytes() == expected.tobytes()
        loop_grad = np.mean([logistic_component(ds, i, x)[1] for i in range(n_rows)], axis=0)
        np.testing.assert_allclose(grad, loop_grad, rtol=1e-12)

    def test_batched_kernel_covers_both_block_edges(self):
        # N is not a multiple of the row block, so the last block is short,
        # and K exceeds the solver's 64-iterate batches.
        ds = make_synthetic_logistic(2 * _BLOCK_ROWS + 123, 5, seed=4)
        rng = np.random.default_rng(5)
        w = rng.random(ds.n_samples)
        w /= w.sum()
        kernel = logistic_objective(ds, w).kernel
        assert_batch_matches_columns(kernel, rng.standard_normal((5, 70)), rtol=1e-13)

    # Margins m = -y <z, x> at the edges of the shared exp(-|m|): zero, tiny
    # normal numbers, the linear and the underflowing tails, and 1e300, whose
    # exp(+|m|) would overflow.
    EXTREME_MARGINS = (0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0, 1e300, -1e300)

    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_batched_kernel_at_extreme_margins(self, label):
        # One component with z = 1, so each column's value is w * loss(m) and
        # its gradient w * (-y) * sigmoid(m): every margin is checked on its own.
        kernel = LogisticKernel(LogisticDataset(Z=np.ones((1, 1)), y=np.array([label])), [0.7])
        X = -label * np.array([self.EXTREME_MARGINS])
        assert_batch_matches_columns(kernel, X, rtol=1e-13)

    def test_batched_kernel_raises_no_floating_point_error(self):
        ds = make_synthetic_logistic(3 * len(self.EXTREME_MARGINS), 1, seed=3)
        Z = np.vstack([ds.Z, np.ones((len(self.EXTREME_MARGINS), 1))])
        kernel = logistic_objective(
            LogisticDataset(Z=Z, y=np.concatenate([ds.y, -np.ones(len(self.EXTREME_MARGINS))]))
        ).kernel
        with np.errstate(over="raise", invalid="raise"):
            values, grads = kernel.weighted_value_grad_many(np.array([self.EXTREME_MARGINS]))
        assert np.isfinite(values).all() and np.isfinite(grads).all()

    @pytest.mark.parametrize("first_bad", [math.inf, math.nan])
    def test_nonfinite_column_names_the_first_offending_row(self, first_bad):
        # x = (inf, 0) gives some component a margin of +inf, hence an
        # infinite loss; x = (nan, 0) gives NaN everywhere.
        obj = logistic_objective(small_dataset())
        cs = generate_constraints(2, 1, seed=0)
        other = math.nan if math.isinf(first_bad) else math.inf
        xs = [np.zeros(2), np.array([first_bad, 0.0]), np.array([other, 0.0])]
        held = [
            (x, [IterationRecord(k=k, Nk=1, e_x=0.0, scalar_products=0) for k in ks])
            for x, ks in zip(xs, [[0], [4, 5], [9]])
        ]
        with pytest.raises(NonFiniteValue, match=r"oracle at row k=4:"):
            _oracle_batch(cs, obj, held)

    def test_uniform_objective_is_plain_average(self):
        ds = small_dataset()
        obj = logistic_objective(ds)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2)
        mean_value = np.mean([logistic_component(ds, i, x)[0] for i in range(4)])
        meter = BudgetMeter()
        assert full_value(obj, x, meter) == pytest.approx(mean_value, rel=1e-14)
        mean_grad = np.mean([logistic_component(ds, i, x)[1] for i in range(4)], axis=0)
        np.testing.assert_allclose(full_value_grad(obj, x, meter).grad, mean_grad, rtol=1e-13)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            LogisticDataset(Z=np.zeros((2, 2)), y=np.zeros(3))
        with pytest.raises(ValueError):
            LogisticDataset(Z=np.array([[np.nan, 0.0]]), y=np.array([1.0]))
        with pytest.raises(LabelError):
            LogisticDataset(Z=np.ones((2, 1)), y=np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1), (4, 2)], ids=["first", "interior", "last"])
    def test_non_finite_entry_is_rejected(self, bad, where):
        Z = np.ones((5, 3))
        Z[where] = bad
        with pytest.raises(ValueError, match="^Z must be finite$"):
            LogisticDataset(Z=Z, y=np.ones(5))

    def test_largest_finite_entries_are_accepted(self):
        big = 1.7976931348623157e308
        assert big == np.finfo(float).max
        Z = np.array([[big, -big], [1.0, 0.0]])
        ds = LogisticDataset(Z=Z, y=np.array([1.0, -1.0]))
        np.testing.assert_array_equal(ds.Z, Z)

    def test_validation_allocates_nothing_the_size_of_z(self):
        Z = np.ones((4000, 500))
        y = np.ones(4000)
        tracemalloc.start()
        try:
            LogisticDataset(Z=Z, y=y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * Z.nbytes


class TestThreadedBatchKernel:
    """weighted_value_grad_many on helper threads against the serial reference, bit for bit."""

    DIM = 7
    # 22 full row blocks, then one of 96 rows and one of 4, in 6 tasks of
    # 4 blocks: two threads, and more tasks than the four kept in flight.
    N = 22 * _BLOCK_ROWS + 100
    # 12 blocks make 3 tasks, too few for two threads; one more row makes 4.
    SERIAL_N = 12 * _BLOCK_ROWS

    @classmethod
    def problem(cls, n_samples, K, seed=0, dim=DIM):
        rng = np.random.default_rng(seed)
        ds = make_synthetic_logistic(n_samples, dim, seed=seed)
        w = rng.random(n_samples)
        w /= w.sum()
        return logistic_objective(ds, w).kernel, rng.standard_normal((dim, K))

    @staticmethod
    def block_threads(monkeypatch, fail_at=None):
        """Record the thread of every block; raise in the block starting at fail_at."""
        seen = []
        real = LogisticKernel._block_terms

        def spy(self, XT, block):
            i = next(i for i, b in enumerate(self._row_blocks) if b is block)
            lo = _blocks(*self.ds.Z.shape)[i].start
            seen.append((lo, threading.current_thread(), np.geterr()))
            if lo == fail_at:
                raise RuntimeError(f"block at row {lo} failed")
            return real(self, XT, block)

        monkeypatch.setattr(LogisticKernel, "_block_terms", spy)
        return seen

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        # Two usable CPUs, and BLAS pinned to one thread.
        monkeypatch.setattr(problems, "_usable_cpu_count", lambda: 2)
        monkeypatch.setattr(problems, "_blas_threads", lambda: 1)

    def assert_matches_reference(self, kernel, X):
        values, grads = kernel.weighted_value_grad_many(X)
        ref_values, ref_grads = logistic_value_grad_many(kernel.ds, kernel.weights, X)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(grads, ref_grads)
        assert grads.shape == X.shape and grads.flags.c_contiguous

    @pytest.mark.parametrize("K", [1, 2, 33, 70])
    def test_threaded_sum_matches_the_serial_reference(self, monkeypatch, two_cpus, K):
        monkeypatch.setattr(problems, "_MIN_THREADED_POINTS", 1)
        kernel, X = self.problem(self.N, K, seed=K)
        seen = self.block_threads(monkeypatch)
        self.assert_matches_reference(kernel, X)
        assert sorted(lo for lo, _, _ in seen) == [b.start for b in _blocks(self.N, self.DIM)]
        assert threading.main_thread() not in {t for _, t, _ in seen}

    @pytest.mark.parametrize("K", [1, 2, 33, 70])
    @pytest.mark.parametrize(
        "n_samples,dim",
        [(SERIAL_N + 1, DIM), (N, 1), (N, 50)],
        ids=["one-row-last-block", "dim-1", "dim-50"],
    )
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_point_major_layout_on_shapes_where_the_layouts_round_apart(
        self, monkeypatch, cpus, n_samples, dim, K
    ):
        # On these shapes X' Z_b' and coef Z_b can round differently from the
        # row-major Z_b X and Z_b' coef, so only a reference in the kernel's
        # own layout matches them bit for bit.
        monkeypatch.setattr(problems, "_usable_cpu_count", lambda: cpus)
        monkeypatch.setattr(problems, "_blas_threads", lambda: 1)
        monkeypatch.setattr(problems, "_MIN_THREADED_POINTS", 1)
        kernel, X = self.problem(n_samples, K, seed=K, dim=dim)
        self.assert_matches_reference(kernel, X)

    @pytest.mark.parametrize(
        "n_samples,K,threaded",
        [
            (SERIAL_N, 70, False),
            (SERIAL_N + 1, 70, True),
            (N, problems._MIN_THREADED_POINTS - 1, False),
            (N, problems._MIN_THREADED_POINTS, True),
        ],
    )
    def test_threads_engage_only_on_enough_blocks_and_points(
        self, monkeypatch, two_cpus, n_samples, K, threaded
    ):
        kernel, X = self.problem(n_samples, K)
        seen = self.block_threads(monkeypatch)
        self.assert_matches_reference(kernel, X)
        assert (threading.main_thread() not in {t for _, t, _ in seen}) == threaded

    @pytest.mark.parametrize(
        "cpus,env,threads",
        [
            (1, {"OPENBLAS_NUM_THREADS": "1"}, None),
            (2, {}, None),
            (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, None),
            (2, {"OMP_NUM_THREADS": "1"}, 2),
            (4, {"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
            (8, {"OPENBLAS_NUM_THREADS": "1"}, 3),
        ],
    )
    def test_threads_share_the_cpus_with_blas(self, monkeypatch, cpus, env, threads):
        # None: the serial path.  Eight CPUs, but the 6 tasks make 3 threads.
        for var in problems._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(problems, "_usable_cpu_count", lambda: cpus)
        pools = []
        real_pool = problems.ThreadPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers)

        monkeypatch.setattr(problems, "ThreadPoolExecutor", pool)
        kernel, X = self.problem(self.N, 40)
        self.assert_matches_reference(kernel, X)
        assert pools == ([] if threads is None else [threads])

    def test_a_helpers_exception_reaches_the_caller(self, monkeypatch, two_cpus):
        kernel, X = self.problem(self.N, 40)
        seen = self.block_threads(monkeypatch, fail_at=9 * _BLOCK_ROWS)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block at row {9 * _BLOCK_ROWS} failed"):
            kernel.weighted_value_grad_many(X)
        failed = [t for lo, t, _ in seen if lo == 9 * _BLOCK_ROWS]
        assert failed and failed[0] is not threading.main_thread()
        assert threading.active_count() == before

    def test_helpers_run_under_the_callers_errstate(self, monkeypatch, two_cpus):
        # All but underflow, which every pass ignores.
        kernel, X = self.problem(self.N, 40)
        seen = self.block_threads(monkeypatch)
        with np.errstate(over="raise", under="raise", invalid="warn"):
            kernel.weighted_value_grad_many(X)
        assert threading.main_thread() not in {t for _, t, _ in seen}
        assert all(
            (err["over"], err["under"], err["invalid"]) == ("raise", "ignore", "warn")
            for _, _, err in seen
        )


class TestLibsvmIO:
    def test_fixture_file(self):
        ds = load_libsvm(DATA / "tiny.libsvm")
        assert ds.n_samples == 10
        assert ds.dim == 5
        np.testing.assert_array_equal(
            ds.y, [1, -1, 1, -1, 1, -1, 1, -1, 1, -1]
        )
        np.testing.assert_array_equal(ds.Z[0], [0.5, 0.0, -1.25, 0.0, 0.0])
        np.testing.assert_array_equal(ds.Z[2], [1.0, 1.0, 0.0, 0.0, 0.125])
        np.testing.assert_array_equal(ds.Z[8], [2.0, 0.0, 0.0, 0.0, 0.0])

    def test_round_trip(self, tmp_path):
        ds = make_synthetic_logistic(20, 4, seed=5)
        path = tmp_path / "data.libsvm"
        save_libsvm(ds, path)
        loaded = load_libsvm(path)
        np.testing.assert_array_equal(loaded.Z, ds.Z)
        np.testing.assert_array_equal(loaded.y, ds.y)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            (("0", "1"), (-1.0, 1.0)),
            (("1", "2"), (-1.0, 1.0)),
            (("-1", "1"), (-1.0, 1.0)),
            (("3", "7"), (-1.0, 1.0)),
            (("7", "3"), (1.0, -1.0)),
        ],
    )
    def test_label_mapping(self, tmp_path, raw, expected):
        path = tmp_path / "two.libsvm"
        path.write_text(f"{raw[0]} 1:1.0\n{raw[1]} 1:2.0\n")
        ds = load_libsvm(path)
        np.testing.assert_array_equal(ds.y, expected)

    def test_three_classes_rejected(self, tmp_path):
        path = tmp_path / "three.libsvm"
        path.write_text("1 1:1.0\n2 1:2.0\n3 1:3.0\n")
        with pytest.raises(LabelError):
            load_libsvm(path)

    def test_unknown_single_class_rejected(self, tmp_path):
        path = tmp_path / "one.libsvm"
        path.write_text("5 1:1.0\n5 1:2.0\n")
        with pytest.raises(LabelError):
            load_libsvm(path)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 1:1.0\nxyz 1:2.0\n")
        with pytest.raises(ParseError, match=r":2:"):
            load_libsvm(path)

    def test_bad_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 1:one\n")
        with pytest.raises(ParseError):
            load_libsvm(path)

    def test_missing_colon_rejected(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 23\n")
        with pytest.raises(ParseError):
            load_libsvm(path)

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 0:1.0\n")
        with pytest.raises(ParseError, match="1-based"):
            load_libsvm(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.libsvm"
        path.write_text("\n\n")
        with pytest.raises(ParseError):
            load_libsvm(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.libsvm"
        path.write_text("1 1:1.0\n\n0 1:2.0\n")
        assert load_libsvm(path).n_samples == 2


def _outcome(parse, data):
    """Z and y of a parse, or the type and message of what it raised."""
    try:
        ds = parse(data, "f.libsvm")
    except Exception as exc:  # the comparison covers every error the parsers raise
        return type(exc), str(exc)
    return ds.Z.tolist(), ds.y.tolist()


# An entry token: mostly well formed, sometimes with a repeated, zero,
# negative or malformed index, a malformed value or no colon.
_ENTRY = st.one_of(
    st.builds(
        "{}:{!r}".format,
        st.integers(1, 9),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    ),
    st.builds("{}:{}".format, st.integers(-2, 0), st.sampled_from(["1", "2.5"])),
    st.sampled_from(["3", "x:1", "2:one", "1:", ":4", "1:2:3", "04:1e-3", "+2:-0.0"]),
)
_LINE = st.builds(
    lambda label, entries, sep: sep.join([label, *entries]),
    st.sampled_from(["1", "-1", "0", "+1", "2"]),
    st.lists(_ENTRY, max_size=6),
    st.sampled_from([" ", "\t", "  "]),
)


class TestLibsvmParser:
    """parse_libsvm's flat arrays against the per-row dict parser it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_LINE, st.just(""), st.just("  ")), max_size=8))
    def test_matches_the_per_row_dict_parser(self, lines):
        data = "\n".join(lines).encode()
        assert _outcome(parse_libsvm, data) == _outcome(parse_libsvm_dicts, data)

    def test_width_is_the_largest_index(self):
        ds = parse_libsvm(b"1 2:1.5\n-1 5:2.0 1:-1\n1\n", "f")
        np.testing.assert_array_equal(
            ds.Z, [[0, 1.5, 0, 0, 0], [-1, 0, 0, 0, 2], [0, 0, 0, 0, 0]]
        )
        np.testing.assert_array_equal(ds.y, [1, -1, 1])

    def test_repeated_index_keeps_its_last_value(self):
        ds = parse_libsvm(b"1 2:1.5 1:3 2:-4 2:7\n-1 1:5 1:0.25\n1 2:1\n", "f")
        np.testing.assert_array_equal(ds.Z, [[3, 7], [0.25, 0], [0, 1]])
        np.testing.assert_array_equal(ds.y, [1, -1, 1])

    def test_large_file_matches_the_dict_parser(self, tmp_path):
        path = tmp_path / "data.libsvm"
        save_libsvm(make_synthetic_logistic(500, 30, seed=8), path)
        data = path.read_bytes()
        ds, ref = parse_libsvm(data, path), parse_libsvm_dicts(data, path)
        np.testing.assert_array_equal(ds.Z, ref.Z)
        np.testing.assert_array_equal(ds.y, ref.y)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1 1:1.0\nxyz 1:2.0\n", "f:2: bad label 'xyz'"),
            ("1 1:0.5\nnan 1:0.25\n1 1:1\n", "f:2: bad label 'nan'"),
            ("0 1:0.5\ninf 1:0.25\n", "f:2: bad label 'inf'"),
            ("-inf 1:0.5\n1 1:1\n", "f:1: bad label '-inf'"),
            ("1 1:1.0\n-1 1:2 23\n", "f:2: expected idx:val, got '23'"),
            ("1 1:one\n", "f:1: bad entry '1:one'"),
            ("1 2.0:1\n", "f:1: bad entry '2.0:1'"),
            ("1 1:1 0:1.0 x\n", "f:1: indices are 1-based, got 0"),
            ("1 -3:1.0\n", "f:1: indices are 1-based, got -3"),
            ("\n \n\t\n", "f: no samples found"),
        ],
    )
    def test_parse_error_messages(self, text, message):
        for parse in (parse_libsvm, parse_libsvm_dicts):
            with pytest.raises(ParseError) as info:
                parse(text.encode(), "f")
            assert str(info.value) == message

    @utf8_only
    @pytest.mark.parametrize(
        "data, where",
        [
            (b"1 1:0.5\n0 1:\xe9\n", "f:2: cannot decode the byte at offset 12 "),
            (b"\xff\xfe1 1:0.5\n", "f:1: cannot decode the byte at offset 0 "),
            # Past the wrapper's first chunk, whose own error reads "position 7620".
            (b"1 1:0.5\n" * 3000 + b"1 1:\xe9", "f:3001: cannot decode the byte at offset 24004 "),
            (b"1 1:0.5\r\n-1 1:1\r1 1:\xe9\n", "f:3: cannot decode the byte at offset 20 "),
        ],
        ids=["line-2", "first-byte", "past-first-chunk", "universal-newlines"],
    )
    def test_bytes_that_do_not_decode_are_a_parse_error(self, data, where):
        # They raised UnicodeDecodeError, which no caller maps to a typed error.
        # The message names the line and the byte's offset in the file.
        with pytest.raises(ParseError) as info:
            parse_libsvm(data, "f")
        assert str(info.value).startswith(where + "as utf-8: ")
        with pytest.raises(ParseError, match=r"^f: cannot decode: 'utf-8' codec can't decode"):
            parse_libsvm_dicts(data, "f")

    def test_traced_memory_stays_near_the_size_of_z(self, tmp_path):
        # The per-row dicts traced about 10x Z; flat arrays hold 16 bytes an
        # entry, and an ordered file peaks near three times Z.
        path = tmp_path / "data.libsvm"
        ds = make_synthetic_logistic(2000, 40, seed=9)
        save_libsvm(ds, path)
        data = path.read_bytes()
        tracemalloc.start()
        try:
            parsed = parse_libsvm(data, "f")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(parsed.Z, ds.Z)
        assert peak < 4 * ds.Z.nbytes


class TestSyntheticLogistic:
    def test_shapes_and_labels(self):
        ds = make_synthetic_logistic(50, 6, seed=0)
        assert ds.Z.shape == (50, 6)
        assert set(np.unique(ds.y)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = make_synthetic_logistic(30, 4, seed=9)
        b = make_synthetic_logistic(30, 4, seed=9)
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.y, b.y)

    def test_no_flips_is_separable(self):
        ds = make_synthetic_logistic(200, 5, seed=3, flip_fraction=0.0)
        # Recover the hyperplane by mirroring the generator's draw order.
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((200, 5))
        w_true = rng.standard_normal(5)
        np.testing.assert_array_equal(ds.Z, Z)
        assert np.all(ds.y * (Z @ w_true) >= 0.0)

    def test_flip_fraction_is_respected(self):
        n = 4000
        ds = make_synthetic_logistic(n, 3, seed=4, flip_fraction=0.1)
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((n, 3))
        w_true = rng.standard_normal(3)
        clean = np.where(Z @ w_true >= 0.0, 1.0, -1.0)
        flipped = np.mean(ds.y != clean)
        se = math.sqrt(0.1 * 0.9 / n)
        assert abs(flipped - 0.1) <= 4 * se


class TestNoisyQuadratic:
    def test_component_formula(self):
        spec = make_noisy_quadratic(3, 5, sigma=0.7, seed=11)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(3)
        for i in range(5):
            value, grad = noisy_quadratic_component(spec, i, x)
            ridge = 5 * spec.eps[i] ** 2
            expected = 0.5 * x @ spec.base_Q @ x + spec.base_q @ x + ridge * (x @ x)
            assert value == pytest.approx(expected, rel=1e-13)
            np.testing.assert_allclose(
                grad,
                spec.base_Q @ x + spec.base_q + 2 * ridge * x,
                rtol=1e-12,
            )

    def test_gradient_matches_finite_differences(self):
        spec = make_noisy_quadratic(4, 3, sigma=1.2, seed=13)
        x = np.array([0.3, -0.8, 1.1, 0.2])
        _, grad = noisy_quadratic_component(spec, 1, x)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (
                noisy_quadratic_component(spec, 1, x + e)[0]
                - noisy_quadratic_component(spec, 1, x - e)[0]
            ) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_zero_noise_components_are_identical(self):
        spec = make_noisy_quadratic(3, 6, sigma=0.0, seed=14)
        np.testing.assert_array_equal(spec.eps, np.zeros(6))
        x = np.array([1.0, -2.0, 0.5])
        vals = {noisy_quadratic_component(spec, i, x)[0] for i in range(6)}
        assert len(vals) == 1

    def test_uniform_average_closed_form(self):
        # Averaging the components gives base(x) + sum(eps_i^2) ||x||^2.
        spec = make_noisy_quadratic(3, 8, sigma=0.9, seed=15)
        obj = noisy_quadratic_objective(spec)
        rng = np.random.default_rng(16)
        x = rng.standard_normal(3)
        base = 0.5 * x @ spec.base_Q @ x + spec.base_q @ x
        expected = base + float(np.sum(spec.eps**2)) * float(x @ x)
        assert full_value(obj, x, BudgetMeter()) == pytest.approx(expected, rel=1e-13)

    def test_vectorised_kernel_matches_loop(self):
        spec = make_noisy_quadratic(3, 7, sigma=0.5, seed=17)
        w = np.arange(1.0, 8.0) / 28.0
        kernel = NoisyQuadraticKernel(spec, w)
        rng = np.random.default_rng(18)
        x = rng.standard_normal(3)
        idx = np.array([0, 3, 3, 6])
        rows = kernel.gather(idx)
        loop_vals = [noisy_quadratic_component(spec, i, x)[0] for i in idx]
        np.testing.assert_allclose(kernel.values(rows, x), loop_vals, rtol=1e-13)
        loop_grad = np.mean(
            [noisy_quadratic_component(spec, i, x)[1] for i in idx], axis=0
        )
        vals, grad = kernel.value_grad_mean(rows, x)
        np.testing.assert_array_equal(vals, kernel.values(rows, x))
        np.testing.assert_allclose(grad, loop_grad, rtol=1e-12)
        value, grad = kernel.weighted_value_grad(x)
        assert value == kernel.weighted_value(x)
        loop_grad = sum(w[i] * noisy_quadratic_component(spec, i, x)[1] for i in range(7))
        np.testing.assert_allclose(grad, loop_grad, rtol=1e-12)
        assert_batch_matches_columns(kernel, rng.standard_normal((3, 3)), rtol=1e-12)

    def test_spec_validation(self):
        good = make_noisy_quadratic(3, 4, sigma=0.5, seed=19)
        with pytest.raises(ValueError):
            NoisyQuadraticSpec(
                base_Q=np.array([[1.0, 0.5], [0.0, 1.0]]),  # asymmetric
                base_q=np.zeros(2),
                sigma=0.1,
                eps=np.zeros(3),
            )
        with pytest.raises(ValueError):
            NoisyQuadraticSpec(
                base_Q=np.diag([1.0, -0.5]),  # indefinite
                base_q=np.zeros(2),
                sigma=0.1,
                eps=np.zeros(3),
            )
        with pytest.raises(ValueError):
            NoisyQuadraticSpec(
                base_Q=good.base_Q, base_q=np.zeros(5), sigma=0.1, eps=np.zeros(3)
            )
        with pytest.raises(ValueError):
            NoisyQuadraticSpec(
                base_Q=good.base_Q, base_q=good.base_q, sigma=-0.1, eps=np.zeros(3)
            )

    def test_spec_rejects_a_non_square_Q_and_an_empty_eps(self):
        good = make_noisy_quadratic(3, 4, sigma=0.5, seed=19)
        with pytest.raises(ValueError, match=r"base_Q must be square, got shape \(3, 2\)"):
            NoisyQuadraticSpec(
                base_Q=good.base_Q[:, :2], base_q=good.base_q, sigma=0.1, eps=good.eps
            )
        with pytest.raises(ValueError, match="eps must be a nonempty vector"):
            NoisyQuadraticSpec(
                base_Q=good.base_Q, base_q=good.base_q, sigma=0.1, eps=np.zeros(0)
            )

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_is_rejected(self, sigma):
        # Without the check a NaN sigma builds a problem with no noise at all.
        good = make_noisy_quadratic(3, 4, sigma=0.5, seed=19)
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            NoisyQuadraticSpec(base_Q=good.base_Q, base_q=good.base_q, sigma=sigma, eps=good.eps)
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            make_noisy_quadratic(3, 4, sigma=sigma, seed=19)

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_dimension_is_rejected(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            make_noisy_quadratic(n, 4, sigma=0.5, seed=19)

    def test_noise_whose_squares_overflow_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"finite squares, got sigma=1e\+200"):
                make_noisy_quadratic(3, 4, sigma=1e200, seed=19)
            with pytest.raises(ValueError, match="base_q must be finite"):
                make_noisy_quadratic(3, 4, sigma=0.5, seed=19, q_scale=math.inf)

    def test_kernels_with_other_weights_keep_their_own_ridge(self):
        # Two kernels on one spec, each checked against a fresh kernel with
        # its weights after the other one's call.
        spec = make_noisy_quadratic(3, 7, sigma=0.5, seed=17)
        x = np.array([0.3, -1.2, 2.0])
        w = np.arange(1.0, 8.0) / 28.0
        kernels = [NoisyQuadraticKernel(spec, weights) for weights in (w, np.full(7, 1.0 / 7))]
        assert kernels[0]._ridge != kernels[1]._ridge
        for kernel in (kernels[0], kernels[1], kernels[0], kernels[1]):
            fresh = NoisyQuadraticKernel(spec, kernel.weights)
            value, grad = kernel.weighted_value_grad(x)
            assert value == kernel.weighted_value(x) == fresh.weighted_value_grad(x)[0]
            assert grad.tobytes() == fresh.weighted_value_grad(x)[1].tobytes()

    def test_kernel_matches_the_operator_forms_bitwise(self):
        # The kernel takes products with ndarray.dot and means as np.add.reduce
        # over the count; x @ y and ndarray.mean give the same bits.
        spec = make_noisy_quadratic(20, 1000, sigma=1.0, seed=23)
        obj = noisy_quadratic_objective(spec)
        kernel, w, eps_sq = obj.kernel, obj.weights, spec.eps**2
        rng = np.random.default_rng(24)
        for size in (1, 10, 999):
            x = rng.standard_normal(20) * 10.0 ** int(rng.integers(-4, 4))
            idx = rng.integers(0, 1000, size)
            Qx = spec.base_Q @ x
            base = 0.5 * float(x @ Qx) + float(spec.base_q @ x)
            vals = base + (1000 * float(x @ x)) * eps_sq[idx]
            grad = Qx + spec.base_q + (2.0 * (1000 * float(eps_sq[idx].mean()))) * x
            rows = kernel.gather(idx)
            got_vals, got_grad = kernel.value_grad_mean(rows, x)
            assert got_vals.tobytes() == vals.tobytes() == kernel.values(rows, x).tobytes()
            assert got_grad.tobytes() == grad.tobytes()
            sample = Sample.of(obj, idx)
            assert subsample_value(obj, sample, x, BudgetMeter()) == float(vals.mean())
            ridge = 1000 * float(w @ eps_sq)
            value, full_grad = kernel.weighted_value_grad(x)
            assert value == base + ridge * float(x @ x) == kernel.weighted_value(x)
            assert full_grad.tobytes() == (Qx + spec.base_q + (2.0 * ridge) * x).tobytes()
        # The mean of an empty sample is NaN, as with ndarray.mean.
        with pytest.raises(NonFiniteValue):
            empty = Sample.of(obj, np.array([], dtype=np.int64))
            subsample_value(obj, empty, x, BudgetMeter())

    def test_generator_draw_order_is_stable(self):
        # M, then q, then eps, all from one seeded generator; callers rely
        # on this to reconstruct the pieces independently.
        spec = make_noisy_quadratic(4, 6, sigma=0.8, seed=20, q_scale=2.0)
        rng = np.random.default_rng(20)
        M = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(spec.base_Q, (1.0 / 4) * (M.T @ M))
        np.testing.assert_array_equal(spec.base_q, 2.0 * rng.standard_normal(4))
        np.testing.assert_array_equal(spec.eps, rng.normal(0.0, 0.8, size=6))

    def test_base_curvature_scales_hessian(self):
        a = make_noisy_quadratic(3, 4, sigma=0.0, seed=21, base_curvature=1.0)
        b = make_noisy_quadratic(3, 4, sigma=0.0, seed=21, base_curvature=2.0)
        np.testing.assert_allclose(b.base_Q, 2.0 * a.base_Q, rtol=1e-15)
        np.testing.assert_array_equal(b.base_q, a.base_q)


def test_every_kernel_implements_the_protocol():
    objectives = (
        logistic_objective(small_dataset()),
        noisy_quadratic_objective(make_noisy_quadratic(3, 4, sigma=0.5, seed=1)),
        FiniteSumObjective(
            2, CallableKernel(lambda i, x: (float(x @ x) + i, (2.0 + i) * x), uniform_weights(2))
        ),
        FiniteSumObjective(2, BlockedLogisticKernel(small_dataset(), uniform_weights(4))),
    )
    X = np.random.default_rng(6).standard_normal((3, 4))
    for obj in objectives:
        kernel = obj.kernel
        assert isinstance(kernel, ComponentKernel), type(kernel).__name__
        assert kernel.weights is obj.weights
        # The full-data methods take the point and nothing else: the
        # weights are the kernel's own.
        for name, point in (("weighted_value", "x"), ("weighted_value_grad", "x"),
                            ("weighted_value_grad_many", "X")):
            params = list(inspect.signature(getattr(kernel, name)).parameters)
            assert params == [point], (type(kernel).__name__, name, params)
        assert_batch_matches_columns(kernel, X[: obj.dim], rtol=1e-12)


@pytest.mark.parametrize("extra", [1, -1])
def test_weights_of_the_wrong_length_are_rejected_when_the_objective_is_built(extra):
    # Without the check, 51 weights over 50 rows gave a wrong value and then
    # an IndexError mid-run, and 49 a numpy shape error at the first call.
    builders = (
        (logistic_objective, make_synthetic_logistic(50, 3, seed=0)),
        (noisy_quadratic_objective, make_noisy_quadratic(3, 50, sigma=0.5, seed=0)),
    )
    for build, data in builders:
        with pytest.raises(WeightError, match=rf"expected 50 weights.*\({50 + extra},\)"):
            build(data, weights=uniform_weights(50 + extra))


@pytest.mark.parametrize("ray", ["sample", "full"])
class TestRays:
    """The two ray methods under their one contract, against the value at the array x + t p.

    mean_along(rows, x, p, f0, slope) and weighted_value_along(x, p, f0,
    slope) each take f0 and g.p at x as a step computes them, from
    value_grad_mean or weighted_value_grad.  Trials at t = 1, 0.1, ...,
    1e-5; the sample ray on one row, on duplicate indices and on every
    component.
    """

    STEPS = [10.0**-j for j in range(6)]

    @staticmethod
    def rays(kernel, ray, x, p) -> list[tuple]:
        """(along, at, idx) per case: the ray from x along p, the value it reads at a
        point, and the sampled indices (None for the full data)."""
        if ray == "full":
            f0, g = kernel.weighted_value_grad(x)
            along = kernel.weighted_value_along(x, p, f0, float(g.dot(p)))
            return [(along, kernel.weighted_value, None)]
        n = kernel.weights.size
        cases = []
        for idx in (np.array([n - 1]), np.array([0, 2, 2, 0, 1, 2]), np.arange(n)):
            rows = kernel.gather(idx)
            vals, g = kernel.value_grad_mean(rows, x)
            along = kernel.mean_along(rows, x, p, _mean(vals), float(g.dot(p)))
            cases.append((along, lambda z, rows=rows: _mean(kernel.values(rows, z)), idx))
        return cases

    @staticmethod
    def coefficients(along) -> tuple[float, float, float]:
        """The a0, a1, a2 of the noisy quadratic's polynomial, read from its closure."""
        cells = dict(zip(along.__code__.co_freevars, (c.cell_contents for c in along.__closure__)))
        return cells["a0"], cells["a1"], cells["a2"]

    @staticmethod
    def quadratic(seed):
        spec = make_noisy_quadratic(20, 1000, sigma=1.0, seed=seed)
        return spec, noisy_quadratic_objective(spec).kernel

    @pytest.mark.parametrize("kind", ["logistic", "callable"])
    def test_kernels_that_evaluate_at_the_point_match_bit_for_bit(self, ray, kind):
        if kind == "logistic":
            kernel = logistic_objective(make_synthetic_logistic(50, 4, seed=30)).kernel
        else:
            kernel = CallableKernel(
                lambda i, x: ((i + 1) * float(x @ x) - i * x[0], 2 * (i + 1) * x - i * np.eye(4)[0]),
                uniform_weights(50),
            )
        rng = np.random.default_rng(31)
        x, p = rng.standard_normal(4), rng.standard_normal(4)
        for along, at, _ in self.rays(kernel, ray, x, p):
            for t in [0.0, *self.STEPS]:
                assert along(t).hex() == at(x + t * p).hex()

    def test_noisy_quadratic_starts_at_the_value_and_the_slope_bit_for_bit(self, ray):
        # a0 and a1 are the step's f0 and slope: a trial too small to move a0
        # reads f0 exactly, as a trial at the point would.
        _, kernel = self.quadratic(34)
        rng = np.random.default_rng(35)
        for _ in range(20):
            x, p = rng.standard_normal(20), rng.standard_normal(20)
            for along, at, idx in self.rays(kernel, ray, x, p):
                if idx is None:
                    value, g = kernel.weighted_value_grad(x)
                else:
                    vals, g = kernel.value_grad_mean(kernel.gather(idx), x)
                    value = _mean(vals)
                a0, a1, _ = self.coefficients(along)
                assert along(0.0).hex() == a0.hex() == at(x).hex() == value.hex()
                assert a1.hex() == float(g.dot(p)).hex()
                assert along(1e-300).hex() == a0.hex()

    def test_noisy_quadratic_matches_to_a_few_ulps_of_its_largest_term(self, ray):
        # The polynomial a0 + t a1 + t^2 a2 rounds otherwise than the values
        # at the array x + t p; the two agree to the rounding of their terms.
        spec, kernel = self.quadratic(32)
        Q, q = spec.base_Q, spec.base_q
        rng = np.random.default_rng(33)
        for _ in range(20):
            x, p = rng.standard_normal(20), rng.standard_normal(20)
            for along, at, idx in self.rays(kernel, ray, x, p):
                eps = spec.eps if idx is None else spec.eps[idx]
                r = 1000 * float(np.mean(eps**2))
                a1 = x @ Q @ p + q @ p + 2.0 * r * (x @ p)
                a2 = 0.5 * (p @ Q @ p) + r * (p @ p)
                for t in self.STEPS:
                    direct = at(x + t * p)
                    largest = max(abs(at(x)), abs(t * a1), abs(t * t * a2))
                    assert abs(along(t) - direct) <= 8 * np.spacing(largest), (ray, idx, t)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_noisy_quadratic_past_the_float_range_evaluates_at_the_point(self, ray):
        # p'Qp = 4e308 overflows, and a polynomial with an infinite
        # coefficient would read inf at every t, where the values at the
        # smaller steps are finite.
        spec = NoisyQuadraticSpec(base_Q=np.eye(2), base_q=np.zeros(2), sigma=0.0, eps=np.zeros(3))
        kernel = NoisyQuadraticKernel(spec, uniform_weights(3))
        x, p = np.zeros(2), np.array([2e154, 0.0])
        for along, at, _ in self.rays(kernel, ray, x, p):
            for t in (0.1, 1e-5):
                direct = at(x + t * p)
                assert math.isfinite(direct)
                assert along(t).hex() == direct.hex()
            assert not math.isfinite(along(1.0))


def record_full_data_points(kernel, monkeypatch) -> list[bytes]:
    """Log the bytes of every x passed to weighted_value/weighted_value_grad."""
    points: list[bytes] = []
    for name in ("weighted_value", "weighted_value_grad"):
        method = getattr(kernel, name)

        def spy(x, method=method):
            points.append(np.asarray(x).tobytes())
            return method(x)

        monkeypatch.setattr(kernel, name, spy)
    return points


def distinct_in_a_row(points: list[bytes]) -> int:
    """Points differing from the one before: the misses of a one-entry memo."""
    return sum(1 for i, p in enumerate(points) if i == 0 or p != points[i - 1])


class TestLogisticMemo:
    """The full-data methods reuse the value and gradient of the last point, bit-neutrally."""

    @pytest.mark.parametrize("source", ["tiny", "synthetic"])
    def test_results_equal_a_fresh_kernel(self, source, monkeypatch):
        if source == "tiny":
            ds = load_libsvm(DATA / "tiny.libsvm")
        else:
            ds = make_synthetic_logistic(300, 10, seed=8)
        rng = np.random.default_rng(9)
        w2 = rng.random(ds.n_samples)
        w2 /= w2.sum()
        kernels = [LogisticKernel(ds, w) for w in (uniform_weights(ds.n_samples), w2)]
        counters = [count_passes(kernel, monkeypatch) for kernel in kernels]
        x = rng.standard_normal(ds.dim)
        y = rng.standard_normal(ds.dim)
        y_pos_zero = y.copy()
        y_pos_zero[0] = 0.0
        y_neg_zero = y_pos_zero.copy()
        y_neg_zero[0] = -0.0
        steps = [  # (point, expected miss)
            (x, True),
            (x, False),  # a repeat
            (x.copy(), False),  # the same bytes in a new array
            (y, True),  # a new point
            (y_pos_zero, True),
            (y_neg_zero, True),  # differs only in the sign of a zero
            (y_neg_zero, False),
        ]

        def check(kernel, point):
            # Each reference comes from a new kernel, whose memo is empty.
            def fresh():
                return LogisticKernel(ds, kernel.weights)

            assert kernel.weighted_value(point) == fresh().weighted_value(point)
            value, grad = kernel.weighted_value_grad(point)
            ref_value, ref_grad = fresh().weighted_value_grad(point)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

        for i, (point, miss) in enumerate(steps):
            for kernel, counter in zip(kernels, counters):
                before = counter.one_point
                check(kernel, point)
                assert counter.one_point - before == miss, i
        # Mutated in place after a call: the same array object, new bytes.
        y_neg_zero += 0.5
        check(kernels[1], y_neg_zero)

    def problem(self):
        obj = logistic_objective(make_synthetic_logistic(300, 10, seed=1))
        return generate_constraints(10, 3, seed=2), obj

    def test_baseline_reads_each_accepted_point_once(self, monkeypatch):
        cs, obj = self.problem()
        counter = count_passes(obj.kernel, monkeypatch)
        points = record_full_data_points(obj.kernel, monkeypatch)
        k_max = 8
        records = run_baseline(cs, obj, BaselineConfig(k_max=k_max, c1=1e-4)).records
        assert [r.t for r in records[:-1]] == [1.0] * k_max  # one trial per step
        # A gradient and a trial per iteration, 2 k_max evaluations; the
        # gradient at each accepted trial point is the one its trial held.
        assert len(points) == 2 * k_max
        assert distinct_in_a_row(points) == k_max + 1
        assert counter.one_point == k_max + 1

    def test_full_sample_ipas_reads_each_distinct_point_once(self, monkeypatch):
        cs, obj = self.problem()
        counter = count_passes(obj.kernel, monkeypatch)
        points = record_full_data_points(obj.kernel, monkeypatch)
        cfg = SolverConfig(k_max=40, N0=250, dN=25, D_size=4, t_min=1e-3, seed=0)
        records = run(cs, obj, cfg).records
        # Mini-batch steps up to the full sample, then accepted one-trial steps.
        full = [r for r in records[:-1] if r.Nk == obj.n_components]
        assert len(full) >= 5
        assert all(r.accepted and r.t == 1.0 for r in full)
        assert len(points) == 2 * len(full)
        assert distinct_in_a_row(points) == len(full) + 1
        assert counter.one_point == len(full) + 1


class TestConstraintGeneration:
    def test_draw_order_makes_b_consistent(self):
        cs = generate_constraints(9, 4, seed=30)
        rng = np.random.default_rng(30)
        A = rng.standard_normal((4, 9))
        x_tilde = rng.standard_normal(9)
        np.testing.assert_array_equal(cs.A, A)
        np.testing.assert_array_equal(cs.b, A @ x_tilde)
        assert feasibility_gap(cs, x_tilde) <= 1e-12

    def test_deterministic(self):
        a = generate_constraints(7, 3, seed=31)
        b = generate_constraints(7, 3, seed=31)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.b, b.b)

    def test_dimensions(self):
        cs = generate_constraints(12, 5, seed=32)
        assert cs.m == 5
        assert cs.n == 12

    def test_a_failed_draw_is_redrawn(self, monkeypatch):
        drawn = []
        real = problems.build_constraint_set

        def first_fails(A, b):
            drawn.append(A)
            if len(drawn) == 1:
                raise RankDeficient("stand-in")
            return real(A, b)

        monkeypatch.setattr(problems, "build_constraint_set", first_fails)
        cs = generate_constraints(9, 4, seed=30)
        rng = np.random.default_rng(30)
        rng.standard_normal((4, 9)), rng.standard_normal(9)  # the failed draw
        A = rng.standard_normal((4, 9))
        np.testing.assert_array_equal(cs.A, A)
        np.testing.assert_array_equal(cs.b, A @ rng.standard_normal(9))
        assert len(drawn) == 2

    def test_gives_up_after_four_failed_draws(self, monkeypatch):
        drawn = []

        def always_fails(A, b):
            drawn.append(A)
            raise RankDeficient(f"stand-in {len(drawn)}")

        monkeypatch.setattr(problems, "build_constraint_set", always_fails)
        message = "no full-rank draw in 4 attempts for m=4, n=9"
        with pytest.raises(RankDeficient, match=message) as err:
            generate_constraints(9, 4, seed=30)
        assert len(drawn) == 4
        assert str(err.value.__cause__) == "stand-in 4"


class TestMinNormFeasible:
    def test_is_feasible(self):
        cs = generate_constraints(10, 4, seed=33)
        x = min_norm_feasible(cs)
        assert feasibility_gap(cs, x) <= 1e-10

    def test_equals_projection_of_origin(self):
        cs = generate_constraints(8, 3, seed=34)
        np.testing.assert_allclose(
            min_norm_feasible(cs), exact_project(cs, np.zeros(8)), rtol=0, atol=1e-12
        )

    def test_hand_case(self):
        from ipas import build_constraint_set

        cs = build_constraint_set(np.ones((1, 3)), np.array([3.0]))
        np.testing.assert_allclose(min_norm_feasible(cs), np.ones(3), rtol=1e-14)

    def test_beats_other_feasible_points(self):
        cs = generate_constraints(6, 2, seed=35)
        x = min_norm_feasible(cs)
        rng = np.random.default_rng(36)
        for _ in range(10):
            other = exact_project(cs, rng.standard_normal(6))
            assert np.linalg.norm(x) <= np.linalg.norm(other) + 1e-12
