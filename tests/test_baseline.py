import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ipas
from ipas import (
    BaselineConfig,
    ConfigInvalid,
    FiniteSumObjective,
    STATUS_MAX_ITERATIONS,
    STATUS_STATIONARY,
    eta,
    exact_project,
    feasibility_gap,
    generate_constraints,
    make_noisy_quadratic,
    noisy_quadratic_objective,
    run_baseline,
    uniform_weights,
    validate_baseline_config,
    write_trace,
    read_trace,
)
from ipas.problems import NoisyQuadraticKernel, _usable_cpu_count


def problem(sigma=0.8, seed=200):
    cs = generate_constraints(10, 4, seed=100)
    obj = noisy_quadratic_objective(make_noisy_quadratic(10, 20, sigma=sigma, seed=seed))
    return cs, obj


class TestBaselineConfig:
    def test_defaults_valid(self):
        validate_baseline_config(BaselineConfig())

    @pytest.mark.parametrize(
        "field,value",
        [("beta", 0.0), ("c1", 1.0), ("s_exp", 0.5), ("k_max", -2), ("tol_d", -1.0)],
    )
    def test_hard_bounds(self, field, value):
        with pytest.raises(ConfigInvalid):
            validate_baseline_config(BaselineConfig(**{field: value}))

    def test_beta_must_reach_the_solvers_default_t_min_within_the_backtrack_cap(self):
        # The full-sample search stops after 200 backtracks, which take
        # 0.999 only to 0.82; 0.95 reaches 3.5e-5, below t_min = 1e-4.
        validate_baseline_config(BaselineConfig(beta=0.95))
        with pytest.raises(ConfigInvalid, match=r"beta=0\.999 and t_min=0\.0001: 200"):
            validate_baseline_config(BaselineConfig(beta=0.999))


class TestBaselineRun:
    def test_every_row_is_full_sample_and_accepted(self):
        cs, obj = problem()
        res = run_baseline(cs, obj, BaselineConfig(k_max=30))
        for r in res.records[:-1]:
            assert r.Nk == obj.n_components
            assert r.accepted
            assert not r.unsuccessful
            assert r.cg_iters == 1  # one factored solve

    def test_stays_essentially_feasible(self):
        cs, obj = problem()
        res = run_baseline(cs, obj, BaselineConfig(k_max=50))
        for r in res.records:
            assert r.e_x <= 1e-9

    def test_descent_up_to_slack(self):
        # Consecutive objective values obey the Armijo bound with the
        # decaying slack: f_{k+1} <= f_k + c1 t_k (g.d)_k + eta_k^2, and the
        # slope term is itself at most -||d||^2 for exact projections.
        cs, obj = problem()
        cfg = BaselineConfig(k_max=60, c1=1e-2, s_exp=1.0)
        res = run_baseline(cs, obj, cfg)
        rows = res.records
        for r, nxt in zip(rows[:-1], rows[1:]):
            bound = r.f_true - cfg.c1 * r.t * r.norm_p**2 + eta(r.k, cfg.s_exp) ** 2
            assert nxt.f_true <= bound + 1e-9

    def test_direction_norm_decreases_overall(self):
        cs, obj = problem()
        res = run_baseline(cs, obj, BaselineConfig(k_max=200))
        assert res.records[-1].norm_d_true < 0.05 * res.records[0].norm_d_true

    def test_budget_charges_full_gradient_plus_exact_solve(self):
        # Iteration k costs N grads + (m+4) for the one factored solve, as
        # the adaptive solver prices its projections, + N per line search
        # value probe (at least the f0 evaluation).
        cs, obj = problem()
        res = run_baseline(cs, obj, BaselineConfig(k_max=1))
        N, m = obj.n_components, cs.m
        first = res.records[0].scalar_products
        assert res.meter.cg_scalar_products == m + 4
        probes = (first - N - (m + 4)) / N
        assert probes >= 1 and probes == int(probes)

    def test_stationarity_stop(self):
        # The nonmonotone slack keeps ||d|| hovering near eta_k sqrt(L), so
        # the tolerance schedule must decay fast enough for the stop to fire.
        cs, obj = problem(sigma=0.0)
        cfg = BaselineConfig(k_max=5000, s_exp=2.0, tol_d=1e-6, tol_e=1e-8)
        res = run_baseline(cs, obj, cfg)
        assert res.status == STATUS_STATIONARY
        assert res.records[-2].norm_p <= 1e-6
        assert len(res.records) < 5001

    def test_zero_iterations(self):
        cs, obj = problem()
        res = run_baseline(cs, obj, BaselineConfig(k_max=0))
        assert len(res.records) == 1
        assert res.status == STATUS_MAX_ITERATIONS
        assert res.records[0].scalar_products == 0

    @pytest.mark.parametrize("k_max", [0, 30])
    def test_cg_accounting_and_gap(self, k_max):
        cs, obj = problem()
        x0 = exact_project(cs, np.zeros(10)) + 0.1  # infeasible start
        res = run_baseline(cs, obj, BaselineConfig(k_max=k_max), x0=x0)
        assert sum(r.cg_iters for r in res.records) * (cs.m + 4) == res.meter.cg_scalar_products
        assert res.records[0].e_x == feasibility_gap(cs, x0)
        assert res.records[-1].e_x == feasibility_gap(cs, res.x)

    def test_deterministic(self):
        cs, obj = problem()
        a = run_baseline(cs, obj, BaselineConfig(k_max=25))
        b = run_baseline(cs, obj, BaselineConfig(k_max=25))
        assert a.records == b.records
        np.testing.assert_array_equal(a.x, b.x)

    def test_dimension_mismatch_rejected(self):
        cs, _ = problem()
        obj = noisy_quadratic_objective(make_noisy_quadratic(7, 5, sigma=0.1, seed=1))
        with pytest.raises(ConfigInvalid):
            run_baseline(cs, obj, BaselineConfig())

    def test_custom_start_is_respected(self):
        cs, obj = problem()
        x0 = exact_project(cs, np.ones(10) * 3)
        res = run_baseline(cs, obj, BaselineConfig(k_max=5), x0=x0)
        assert res.records[0].e_x <= 1e-10
        assert res.records[0].f_true != pytest.approx(
            run_baseline(cs, obj, BaselineConfig(k_max=0)).records[0].f_true
        )

    def test_trace_round_trip(self, tmp_path):
        cs, obj = problem()
        res = run_baseline(cs, obj, BaselineConfig(k_max=15))
        path = tmp_path / "baseline.csv"
        write_trace(res.records, path)
        assert read_trace(path) == res.records


# A 20000 x n logistic baseline with m = 50, written to argv[1] for n =
# argv[2]: large enough that numpy's own Z' coef and w . losses over all
# rows change bits with the BLAS thread count.
_THREADS_SCRIPT = textwrap.dedent(
    """
    import sys
    from ipas import (
        BaselineConfig, generate_constraints, logistic_objective, make_synthetic_logistic,
        run_baseline, write_trace,
    )
    n = int(sys.argv[2])
    obj = logistic_objective(make_synthetic_logistic(20000, n, 0))
    res = run_baseline(generate_constraints(n, 50, 0), obj, BaselineConfig(k_max=3))
    write_trace(res.records, sys.argv[1])
    """
)


class PointwiseQuadraticKernel(NoisyQuadraticKernel):
    """The noisy quadratic with each full-data trial evaluated at its point x + t p."""

    def weighted_value_along(self, x, p, f0, slope):
        return lambda t: self.weighted_value(x + t * p)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_trials_along_the_ray_keep_the_trace_bytes_of_trials_at_the_point(tmp_path, i):
    # Check 07's instances and baseline: the polynomial's trial values round
    # otherwise than the values at the points, but no search decides otherwise.
    cs = generate_constraints(20, 10, seed=500 + i)
    spec = make_noisy_quadratic(20, 1000, sigma=1.0, seed=1000 + i)
    cfg = BaselineConfig(beta=0.1, c1=1e-2, s_exp=1.0, k_max=2000)
    written = []
    for kernel in (NoisyQuadraticKernel, PointwiseQuadraticKernel):
        obj = FiniteSumObjective(spec.dim, kernel(spec, uniform_weights(spec.n_components)))
        path = tmp_path / f"{kernel.__name__}.csv"
        write_trace(run_baseline(cs, obj, cfg).records, path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def _written_at_each_thread_count(tmp_path, script, *args) -> list[bytes]:
    """What script writes to argv[1], run at 1 and at 2 OpenBLAS threads."""
    src = str(Path(ipas.__file__).parents[1])
    cleared = ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
    outputs = []
    for threads in ("1", "2"):
        env = {key: value for key, value in os.environ.items() if key not in cleared}
        env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        path = tmp_path / f"threads{threads}.out"
        subprocess.run(
            [sys.executable, "-c", script, str(path), *map(str, args)],
            env=env,
            check=True,
            timeout=120,
        )
        outputs.append(path.read_bytes())
    return outputs


@pytest.mark.skipif(_usable_cpu_count() < 2, reason="a second BLAS thread needs a second CPU")
@pytest.mark.parametrize("n", [100, 101])  # n % 4 = 0 and 1
def test_trace_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, n):
    # Each run takes about a second.
    traces = _written_at_each_thread_count(tmp_path, _THREADS_SCRIPT, n)
    assert traces[0] == traces[1]


# The kernel's full-data value and gradient on random N x n data, for two
# weight vectors, written to argv[1] for N, n = argv[2:4]: the first kernel
# takes a value before its gradient, the second only the gradient.
_KERNEL_SCRIPT = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    import numpy as np
    from ipas import LogisticDataset, uniform_weights
    from ipas.problems import LogisticKernel
    N, n = int(sys.argv[2]), int(sys.argv[3])
    rng = np.random.default_rng(n)
    ds = LogisticDataset(Z=rng.standard_normal((N, n)) / n**0.5, y=rng.choice([-1.0, 1.0], N))
    x = rng.standard_normal(n)
    first, second = LogisticKernel(ds, uniform_weights(N)), LogisticKernel(ds, rng.random(N) / N)
    out = [repr(first.weighted_value(x)).encode()]
    for kernel in (first, second):
        value, grad = kernel.weighted_value_grad(x)
        out += [repr(value).encode(), grad.tobytes()]
    Path(sys.argv[1]).write_bytes(b"|".join(out))
    """
)


@pytest.mark.skipif(_usable_cpu_count() < 2, reason="a second BLAS thread needs a second CPU")
@pytest.mark.parametrize(
    "shape",
    # Narrow data, in blocks of 384 rows, and data over 16384 columns
    # wide, in blocks of 8 rows whose margins are dots of n entries.
    [(30000, 2), (30000, 3), (30000, 4), (300, 17000)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_kernel_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, shape):
    outputs = _written_at_each_thread_count(tmp_path, _KERNEL_SCRIPT, *shape)
    assert outputs[0] == outputs[1]


# The kernel's mini-batch values and gradient over S sorted rows gathered
# from random (S + S/4) x n data, written to argv[1] for S, n = argv[2:4].
_MINI_BATCH_SCRIPT = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    import numpy as np
    from ipas import LogisticDataset, uniform_weights
    from ipas.problems import LogisticKernel
    S, n = int(sys.argv[2]), int(sys.argv[3])
    rng = np.random.default_rng(n)
    N = S + S // 4
    ds = LogisticDataset(Z=rng.standard_normal((N, n)) / n**0.5, y=rng.choice([-1.0, 1.0], N))
    kernel = LogisticKernel(ds, uniform_weights(N))
    idx = np.sort(rng.choice(N, S, replace=False))
    values, grad = kernel.value_grad_mean(kernel.gather(idx), rng.standard_normal(n))
    Path(sys.argv[1]).write_bytes(values.tobytes() + b"|" + grad.tobytes())
    """
)


@pytest.mark.skipif(_usable_cpu_count() < 2, reason="a second BLAS thread needs a second CPU")
def test_mini_batch_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # One Z' coef over all 8192 gathered rows changed bits between 1 and 2
    # threads; the gradient now sums two blocks of 4096 rows.
    outputs = _written_at_each_thread_count(tmp_path, _MINI_BATCH_SCRIPT, 8192, 100)
    assert outputs[0] == outputs[1]


# The batched oracle at K random points on random N x n data with random
# weights, written to argv[1] for N, n, K = argv[2:5].
_BATCH_SCRIPT = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    import numpy as np
    from ipas import LogisticDataset
    from ipas.problems import LogisticKernel
    N, n, K = map(int, sys.argv[2:5])
    rng = np.random.default_rng(n)
    ds = LogisticDataset(Z=rng.standard_normal((N, n)) / n**0.5, y=rng.choice([-1.0, 1.0], N))
    kernel = LogisticKernel(ds, rng.random(N) / N)
    values, grads = kernel.weighted_value_grad_many(rng.standard_normal((n, K)))
    Path(sys.argv[1]).write_bytes(values.tobytes() + b"|" + grads.tobytes())
    """
)


@pytest.mark.skipif(_usable_cpu_count() < 2, reason="a second BLAS thread needs a second CPU")
@pytest.mark.parametrize(
    "shape",
    # Row blocks of 384, 384, 232 and 4 rows; of 96 and 4 rows on 100 x 200,
    # where the parent's one 100-row block changed bits at K = 33 and 64.
    [(1004, 50, 1), (1004, 50, 33), (1004, 50, 64), (100, 200, 33), (100, 200, 64)],
    ids=lambda shape: "{}x{}-K{}".format(*shape),
)
def test_batched_oracle_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, shape):
    outputs = _written_at_each_thread_count(tmp_path, _BATCH_SCRIPT, *shape)
    assert outputs[0] == outputs[1]
