import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ipas import (
    ConfigInvalid,
    EmptyGroup,
    IterationRecord,
    build_problem,
    budget_curve,
    execute_run,
    final_norm_d,
    interpolate_log_d,
    parse_experiment_config,
    plan_runs,
    reach_budget,
    read_manifest,
    run_experiment,
    summarize_dir,
    summarize_group,
)
from ipas.experiment import MANIFEST_NAME, REACH_THRESHOLDS, SUMMARY_NAME, _resolve_n0

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


QUAD_CONFIG = """
    [problem]
    kind = noisy_quadratic
    n = 6
    components = 8
    sigma = 0.5
    base_seed = 3
    m_fraction = 0.5
    constraint_seed = 7

    [solver]
    n0 = 2
    d = 2
    k_max = 12
    t_min = 1e-3

    [sweep]
    s = 1.0 2.0
    dn = 1

    [run]
    seeds = 0, 1
    output_dir = runs
"""


def trace_row(k, budget, d, e=0.0, f=1.0, Nk=4, t=1.0):
    return IterationRecord(
        k=k,
        Nk=Nk,
        t=t,
        norm_p=d,
        norm_d_true=d,
        e_x=e,
        f_true=f,
        scalar_products=budget,
        accepted=True,
        unsuccessful=False,
        cg_iters=1,
    )


class TestConfigParsing:
    def test_full_quadratic_config(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        assert cfg.problem["kind"] == "noisy_quadratic"
        assert cfg.problem["n"] == 6
        assert cfg.problem["components"] == 8
        assert cfg.solver.N0 == 2
        assert cfg.solver.D_size == 2
        assert cfg.solver.k_max == 12
        assert cfg.sweep_s == (1.0, 2.0)
        assert cfg.sweep_dN == (1,)
        assert cfg.sweep_sigma == (0.5,)
        assert cfg.seeds == (0, 1)
        assert cfg.output_dir == "runs"

    def test_logistic_config(self, tmp_path):
        cfg = parse_experiment_config(
            write_config(
                tmp_path,
                f"""
                [problem]
                kind = logistic
                dataset = {DATA / 'tiny.libsvm'}
                m_fraction = 0.4

                [run]
                seeds = 5
                """,
            )
        )
        assert cfg.problem["kind"] == "logistic"
        assert cfg.sweep_sigma is None
        assert cfg.seeds == (5,)

    def test_inline_comments_are_stripped(self, tmp_path):
        cfg = parse_experiment_config(
            write_config(
                tmp_path,
                """
                [problem]
                kind = noisy_quadratic  # problem family
                n = 4                   # dimension
                components = 5

                [run]
                seeds = 0 1 2           # three seeds
                """,
            )
        )
        assert cfg.problem["n"] == 4
        assert cfg.seeds == (0, 1, 2)

    def test_solver_section_optional(self, tmp_path):
        cfg = parse_experiment_config(
            write_config(
                tmp_path,
                """
                [problem]
                kind = noisy_quadratic
                n = 4
                components = 5

                [run]
                seeds = 0
                """,
            )
        )
        assert cfg.solver.beta == 0.1  # defaults survive
        assert cfg.sweep_s == (cfg.solver.s_exp,)

    @pytest.mark.parametrize(
        "mutation",
        [
            ("[problem]", "[wrong_section]"),  # unknown section
            ("kind = noisy_quadratic", "kind = cubic"),  # unknown kind
            ("n = 6", "n = 6\n    banana = 1"),  # unknown problem key
            ("n0 = 2", "n0 = 2\n    n0_fraction = 0.1"),  # mutually exclusive
            ("d = 2", "dd = 2"),  # unknown solver key
            ("seeds = 0, 1", "seeds ="),  # empty seeds
            ("seeds = 0, 1", "other = 1"),  # missing seeds
            ("seeds = 0, 1", "seeds = 0.5"),  # non-integer seed
            ("n = 6", ""),  # missing required problem key
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, mutation):
        text = textwrap.dedent(QUAD_CONFIG).replace(*mutation)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigInvalid):
            parse_experiment_config(path)

    @pytest.mark.parametrize(
        "mutation",
        [
            ("s = 1.0 2.0", "s = 1 1.0 0.7500001 0.75"),  # ids s1 and s0.75 twice each
            ("dn = 1", "dn = 1 2 1"),
            ("dn = 1", "dn = 1\n    sigma = 0.1 0.1000001"),
            ("seeds = 0, 1", "seeds = 0, 1, 0"),
        ],
    )
    def test_colliding_run_ids_rejected(self, tmp_path, mutation):
        path = write_config(tmp_path, QUAD_CONFIG.replace(*mutation))
        with pytest.raises(ConfigInvalid, match="collide"):
            parse_experiment_config(path)

    def test_close_but_distinct_values_accepted(self, tmp_path):
        path = write_config(tmp_path, QUAD_CONFIG.replace("s = 1.0 2.0", "s = 0.75 0.7501"))
        payloads = plan_runs(parse_experiment_config(path))
        assert len({p["trace_file"] for p in payloads}) == len(payloads) == 4

    def test_sigma_sweep_requires_quadratic(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="sigma"):
            parse_experiment_config(
                write_config(
                    tmp_path,
                    f"""
                    [problem]
                    kind = logistic
                    dataset = {DATA / 'tiny.libsvm'}

                    [sweep]
                    sigma = 0.5 1.0

                    [run]
                    seeds = 0
                    """,
                )
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            parse_experiment_config(tmp_path / "absent.ini")


class TestPlanRuns:
    def test_grid_size_and_ids(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        payloads = plan_runs(cfg)
        # 2 tolerance exponents x 1 growth step x 1 sigma x 2 seeds
        assert len(payloads) == 4
        ids = {p["config_id"] for p in payloads}
        assert ids == {"s1_dN1_sig0.5", "s2_dN1_sig0.5"}
        assert payloads[0]["trace_file"] == "trace_s1_dN1_sig0.5_seed0.csv"

    def test_paper_shaped_grid_count(self, tmp_path):
        cfg = parse_experiment_config(
            write_config(
                tmp_path,
                """
                [problem]
                kind = noisy_quadratic
                n = 10
                components = 1000

                [sweep]
                s = 0.6 1.0 2.0
                dn = 1 10 50
                sigma = 0.5 1.0

                [run]
                seeds = 0 1 2 3 4 5 6 7 8 9
                """,
            )
        )
        assert len(plan_runs(cfg)) == 3 * 3 * 2 * 10

    def test_hash_distinguishes_grid_points_not_seeds(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        payloads = plan_runs(cfg)
        by_id: dict = {}
        for p in payloads:
            by_id.setdefault(p["config_id"], set()).add(p["config_hash"])
        hashes = set()
        for config_id, hs in by_id.items():
            assert len(hs) == 1  # seeds share the grid point's hash
            hashes |= hs
        assert len(hashes) == len(by_id)

    def test_sweep_overrides_solver_fields(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        for p in plan_runs(cfg):
            assert p["solver"]["s_exp"] == p["s_exp"]
            assert p["solver"]["dN"] == p["dN"]
            assert p["problem"]["sigma"] == p["sigma"]


class TestBuildProblem:
    def test_quadratic_problem(self):
        cs, obj, x0 = build_problem(
            {
                "kind": "noisy_quadratic",
                "n": 8,
                "components": 12,
                "sigma": 0.3,
                "base_seed": 1,
                "base_curvature": 1.0,
                "q_scale": 1.0,
                "m_fraction": 0.5,
                "constraint_seed": 2,
            }
        )
        assert cs.n == 8
        assert cs.m == 4
        assert obj.n_components == 12
        assert x0.shape == (8,)
        assert float(np.linalg.norm(cs.A @ x0 - cs.b)) <= 1e-10

    def test_m_fraction_floor(self):
        cs, _, _ = build_problem(
            {
                "kind": "noisy_quadratic",
                "n": 3,
                "components": 4,
                "sigma": 0.0,
                "base_seed": 0,
                "base_curvature": 1.0,
                "q_scale": 1.0,
                "m_fraction": 0.05,
                "constraint_seed": 0,
            }
        )
        assert cs.m == 1  # rounds to zero but is floored at one

    def test_logistic_problem_from_file(self):
        cs, obj, _ = build_problem(
            {
                "kind": "logistic",
                "dataset": str(DATA / "tiny.libsvm"),
                "m_fraction": 0.4,
                "constraint_seed": 0,
            }
        )
        assert obj.n_components == 10
        assert cs.n == 5
        assert cs.m == 2


class TestResolveN0:
    def test_absolute_value_passthrough(self):
        assert _resolve_n0(None, 5, 100) == 5

    def test_absolute_value_capped(self):
        assert _resolve_n0(None, 500, 100) == 100

    def test_fraction_uses_ceiling(self):
        assert _resolve_n0(0.01, 1, 768) == 8  # ceil(7.68)

    def test_fraction_floors_at_one(self):
        assert _resolve_n0(1e-9, 1, 100) == 1

    def test_fraction_capped_at_component_count(self):
        assert _resolve_n0(2.0, 1, 100) == 100


class TestExecuteRun:
    def payload(self, tmp_path, **overrides):
        base = {
            "config_id": "s1_dN1_sig0.5",
            "config_hash": "abc",
            "s_exp": 1.0,
            "dN": 1,
            "sigma": 0.5,
            "seed": 0,
            "problem": {
                "kind": "noisy_quadratic",
                "n": 5,
                "components": 6,
                "sigma": 0.5,
                "base_seed": 0,
                "base_curvature": 1.0,
                "q_scale": 1.0,
                "m_fraction": 0.5,
                "constraint_seed": 0,
            },
            "solver": {
                "beta": 0.1,
                "c": 1e-4,
                "c1": 1e-2,
                "t_min": 1e-3,
                "C_accept": 1e-2,
                "N0": 2,
                "dN": 1,
                "s_exp": 1.0,
                "D_size": 2,
                "k_max": 10,
                "seed": 0,
                "tol_d": 0.0,
                "tol_e": 0.0,
                "oracle_metrics": True,
            },
            "n0_fraction": None,
            "trace_file": "trace_test.csv",
            "output_dir": str(tmp_path),
        }
        base.update(overrides)
        return base

    def test_successful_run_writes_trace(self, tmp_path):
        result = execute_run(self.payload(tmp_path))
        assert result["status"] == "max_iterations"
        assert result["error"] == ""
        assert (tmp_path / "trace_test.csv").exists()

    def test_failure_is_reported_not_raised(self, tmp_path):
        bad = self.payload(
            tmp_path,
            problem={
                "kind": "logistic",
                "dataset": str(tmp_path / "missing.libsvm"),
                "m_fraction": 0.5,
                "constraint_seed": 0,
            },
        )
        result = execute_run(bad)
        assert result["status"] == "failed"
        assert result["error"] != ""


class TestReachAndInterpolation:
    def test_reach_budget_first_crossing(self):
        records = [
            trace_row(0, 10, 1.0),
            trace_row(1, 20, 0.05),
            trace_row(2, 30, 0.2),  # goes back up; first crossing counts
            trace_row(3, 40, 0.01),
        ]
        assert reach_budget(records, 0.1) == 20.0
        assert reach_budget(records, 0.01) == 40.0
        assert reach_budget(records, 1e-6) == math.inf
        assert final_norm_d(records) == 0.01

    def test_interpolation_hand_values(self):
        records = [trace_row(0, 0, 1.0), trace_row(1, 10, 0.1), trace_row(2, 20, 0.01)]
        out = interpolate_log_d(records, np.array([0.0, 5.0, 10.0, 15.0, 20.0]))
        np.testing.assert_allclose(out, [0.0, -0.5, -1.0, -1.5, -2.0], atol=1e-12)

    def test_duplicate_budget_keeps_latest(self):
        records = [
            trace_row(0, 0, 1.0),
            trace_row(1, 10, 0.1),
            trace_row(2, 10, 0.001),  # rejected-step row: same budget, new metric
            trace_row(3, 20, 0.0001),
        ]
        out = interpolate_log_d(records, np.array([10.0]))
        np.testing.assert_allclose(out, [-3.0], atol=1e-12)

    def test_zero_direction_is_floored(self):
        records = [trace_row(0, 0, 1.0), trace_row(1, 10, 0.0)]
        out = interpolate_log_d(records, np.array([10.0]))
        assert out[0] == -16.0

    def test_budget_curve_two_runs(self):
        t1 = [trace_row(0, 0, 1.0), trace_row(1, 100, 0.01)]
        t2 = [trace_row(0, 20, 1.0), trace_row(1, 80, 0.0001)]
        grid, mean, se = budget_curve([t1, t2], n_points=4)
        # Common support is [max(0, 20), min(100, 80)].
        assert grid[0] == 20.0
        assert grid[-1] == 80.0
        i1 = interpolate_log_d(t1, grid)
        i2 = interpolate_log_d(t2, grid)
        np.testing.assert_allclose(mean, (i1 + i2) / 2, atol=1e-12)
        expected_se = np.vstack([i1, i2]).std(axis=0, ddof=1) / np.sqrt(2)
        np.testing.assert_allclose(se, expected_se, atol=1e-12)

    def test_budget_curve_single_run_has_zero_se(self):
        t1 = [trace_row(0, 0, 1.0), trace_row(1, 100, 0.01)]
        grid, mean, se = budget_curve([t1], n_points=3)
        np.testing.assert_array_equal(se, np.zeros_like(mean))

    def test_budget_curve_empty_group(self):
        with pytest.raises(EmptyGroup):
            budget_curve([])


class TestSummarizeGroup:
    def rows(self, statuses):
        return [
            {
                "config_id": "s1_dN1",
                "config_hash": "h",
                "s_exp": 1.0,
                "dN": 1,
                "sigma": None,
                "seed": i,
                "status": st,
                "trace_file": f"t{i}.csv",
            }
            for i, st in enumerate(statuses)
        ]

    def test_quantiles_on_known_finals(self):
        traces = [
            [trace_row(0, 0, 5.0), trace_row(1, 10, d)] for d in (1.0, 2.0, 9.0)
        ]
        row = summarize_group(self.rows(["ok", "ok", "ok"]), traces)
        assert row.d_final_median == 2.0
        assert row.d_final_q25 == 1.5
        assert row.d_final_q75 == 5.5
        assert row.n_runs == 3
        assert row.n_failed == 0

    def test_reach_fractions(self):
        traces = [
            [trace_row(0, 0, 1.0), trace_row(1, 10, 0.05)],  # reaches 1e-1 only
            [trace_row(0, 0, 1.0), trace_row(1, 10, 0.005)],  # reaches 1e-1, 1e-2
        ]
        row = summarize_group(self.rows(["ok", "ok"]), traces)
        assert row.reached == (1.0, 0.5, 0.0)
        assert len(REACH_THRESHOLDS) == len(row.reached)

    def test_failed_rows_counted_but_not_aggregated(self):
        traces = [[trace_row(0, 0, 1.0), trace_row(1, 10, 0.5)]]
        row = summarize_group(self.rows(["ok", "failed"]), traces)
        assert row.n_runs == 2
        assert row.n_failed == 1
        assert row.d_final_median == 0.5

    def test_empty_group_raises(self):
        with pytest.raises(EmptyGroup):
            summarize_group([], [])
        with pytest.raises(EmptyGroup):
            summarize_group(self.rows(["failed", "failed"]), [])


class TestEndToEnd:
    def test_tiny_sweep(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        out_dir = tmp_path / "out"
        outcome = run_experiment(cfg, workers=1, output_dir=str(out_dir))
        assert outcome.n_runs == 4
        assert outcome.n_failed == 0
        assert (out_dir / MANIFEST_NAME).exists()
        assert (out_dir / SUMMARY_NAME).exists()
        assert (out_dir / "curve_s1_dN1_sig0.5.csv").exists()
        assert (out_dir / "curve_s2_dN1_sig0.5.csv").exists()
        assert len(list(out_dir.glob("trace_*.csv"))) == 4
        manifest = read_manifest(str(out_dir / MANIFEST_NAME))
        assert len(manifest) == 4
        assert all(r["status"] in ("max_iterations", "stationary") for r in manifest)
        assert [r.config_id for r in outcome.summary] == sorted(
            {"s1_dN1_sig0.5", "s2_dN1_sig0.5"}
        )

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, workers=1, output_dir=str(d1))
        run_experiment(cfg, workers=1, output_dir=str(d2))
        files1 = sorted(p.name for p in d1.iterdir())
        assert files1 == sorted(p.name for p in d2.iterdir())
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        d1, d2 = tmp_path / "serial", tmp_path / "parallel"
        run_experiment(cfg, workers=1, output_dir=str(d1))
        run_experiment(cfg, workers=2, output_dir=str(d2))
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_summarize_dir_rebuilds_summary(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        out_dir = tmp_path / "out"
        run_experiment(cfg, workers=1, output_dir=str(out_dir))
        before = (out_dir / SUMMARY_NAME).read_bytes()
        (out_dir / SUMMARY_NAME).unlink()
        rows = summarize_dir(str(out_dir))
        assert (out_dir / SUMMARY_NAME).read_bytes() == before
        assert len(rows) == 2

    def test_summarize_dir_without_manifest(self, tmp_path):
        with pytest.raises(EmptyGroup):
            summarize_dir(str(tmp_path))
