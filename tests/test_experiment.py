import math
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ipas import (
    ConfigInvalid,
    EmptyGroup,
    IterationRecord,
    LogisticDataset,
    OutputExists,
    SolverConfig,
    TraceColumns,
    build_problem,
    budget_curve,
    execute_run,
    interpolate_log_d,
    load_libsvm,
    make_synthetic_logistic,
    parse_experiment_config,
    plan_runs,
    reach_budget,
    read_manifest,
    run_experiment,
    save_libsvm,
    summarize_dir,
    summarize_group,
)
from ipas import experiment
from ipas.experiment import (
    MANIFEST_COLUMNS,
    MANIFEST_NAME,
    REACH_THRESHOLDS,
    SUMMARY_NAME,
    _run_config,
)

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
        "mutation, message",
        [
            (("[problem]", "[wrong_section]"), r"unknown section \[wrong_section\]"),
            (("kind = noisy_quadratic", "kind = cubic"), "problem kind must be one of"),
            # Inserted keys carry no indent: the text is already dedented, and
            # an indented line would continue the value above it.
            (("n = 6", "n = 6\nbanana = 1"), r"unknown keys in \[problem\]: \['banana'\]"),
            (("n0 = 2", "n0 = 2\nn0_fraction = 0.1"), "give either n0 or n0_fraction, not both"),
            (("d = 2", "dd = 2"), r"unknown keys in \[solver\]: \['dd'\]"),
            (("seeds = 0, 1", "seeds ="), r"\[run\] seeds list is empty"),
            (("seeds = 0, 1", ""), r"\[run\] needs seeds"),
            (("seeds = 0, 1", "seeds = 0.5"), "expected an integer, got '0.5'"),
            (("n = 6", ""), r"\[problem\] needs n"),
            # Grid points that break a solver bound.
            (("s = 1.0 2.0", "s = 1 0.4"), "s=0.4, .*s_exp=0.4 must exceed 0.5"),
            (("dn = 1", "dn = 0 1"), "dN=0, .*dN=0 must be >= 1"),
            (("d = 2", "d = 8"), r"D_size=8 must be <= N-1 = 7"),
            (("components = 8", "components = 0"), "n_components must be >= 1, got 0"),
            # Fractions must be finite and lie in (0, 1].
            (("m_fraction = 0.5", "m_fraction = inf"), r"m_fraction=inf must lie in \(0, 1\]"),
            (("m_fraction = 0.5", "m_fraction = nan"), r"m_fraction=nan must lie in \(0, 1\]"),
            (("m_fraction = 0.5", "m_fraction = 2"), r"m_fraction=2.0 must lie in \(0, 1\]"),
            (("m_fraction = 0.5", "m_fraction = 0"), r"m_fraction=0.0 must lie in \(0, 1\]"),
            (("n0 = 2", "n0_fraction = inf"), r"n0_fraction=inf must lie in \(0, 1\]"),
            (("n0 = 2", "n0_fraction = nan"), r"n0_fraction=nan must lie in \(0, 1\]"),
            (("n0 = 2", "n0_fraction = 1.5"), r"n0_fraction=1.5 must lie in \(0, 1\]"),
            (("n0 = 2", "n0_fraction = -0.1"), r"n0_fraction=-0.1 must lie in \(0, 1\]"),
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, mutation, message):
        text = textwrap.dedent(QUAD_CONFIG).replace(*mutation)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigInvalid, match=message):
            parse_experiment_config(path)

    @pytest.mark.parametrize(
        "section, mutation",
        [
            ("problem", ("n = 6", "n = 6\n    banana = 1")),
            ("solver", ("d = 2", "d = 2\n    dd = 2")),
            ("sweep", ("dn = 1", "dn = 1\n    step = 1")),
            ("run", ("seeds = 0, 1", "seeds = 0, 1\n    workers = 2")),
        ],
    )
    def test_unknown_key_names_its_section(self, tmp_path, section, mutation):
        path = write_config(tmp_path, QUAD_CONFIG.replace(*mutation))
        with pytest.raises(ConfigInvalid, match=rf"unknown keys in \[{section}\]"):
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

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (("s = 1.0 2.0", "s ="), "[sweep] s list is empty"),
            (("dn = 1", "dn ="), "[sweep] dn list is empty"),
            (("dn = 1", "dn = 1\n    sigma ="), "[sweep] sigma list is empty"),
            (("seeds = 0, 1", "seeds ="), "[run] seeds list is empty"),
        ],
    )
    def test_an_empty_list_is_rejected(self, tmp_path, mutation, message):
        # An empty sweep grid used to plan zero runs without complaint.
        path = write_config(tmp_path, QUAD_CONFIG.replace(*mutation))
        with pytest.raises(ConfigInvalid) as info:
            parse_experiment_config(path)
        assert str(info.value) == message

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

    def test_a_key_before_any_section_is_a_parse_error(self, tmp_path):
        path = write_config(tmp_path, "kind = noisy_quadratic\n" + textwrap.dedent(QUAD_CONFIG))
        with pytest.raises(ConfigInvalid, match="cannot parse config"):
            parse_experiment_config(path)

    def test_missing_run_section(self, tmp_path):
        text = textwrap.dedent(QUAD_CONFIG)
        path = write_config(tmp_path, text[: text.index("[run]")])
        with pytest.raises(ConfigInvalid, match=r"config needs \[problem\] and \[run\] sections"):
            parse_experiment_config(path)


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


def logistic_payload(path) -> dict:
    return {"kind": "logistic", "dataset": str(path), "m_fraction": 0.4, "constraint_seed": 0}


class TestDatasetCache:
    def test_repeated_build_reuses_the_parsed_dataset(self, tmp_path, monkeypatch):
        path = tmp_path / "data.libsvm"
        path.write_bytes((DATA / "tiny.libsvm").read_bytes())
        parsed = []
        real = experiment.parse_libsvm
        monkeypatch.setattr(
            experiment, "parse_libsvm", lambda data, p: parsed.append(p) or real(data, p)
        )
        _, first, _ = build_problem(logistic_payload(path))
        _, second, _ = build_problem(logistic_payload(path))
        assert parsed == [str(path)]
        assert second.kernel.ds is first.kernel.ds
        assert not first.kernel.ds.Z.flags.writeable
        assert not first.kernel.ds.y.flags.writeable

    def test_rewritten_file_yields_the_new_data(self, tmp_path):
        # Same path and same shape, so only the bytes tell the files apart.
        path = tmp_path / "data.libsvm"
        for seed in (1, 2):
            ds = make_synthetic_logistic(12, 3, seed=seed)
            save_libsvm(ds, path)
            _, obj, _ = build_problem(logistic_payload(path))
            np.testing.assert_array_equal(obj.kernel.ds.Z, load_libsvm(path).Z)
            np.testing.assert_array_equal(obj.kernel.ds.y, ds.y)

    def test_dataset_views_leave_the_callers_arrays_alone(self):
        Z = np.arange(6.0).reshape(3, 2)
        y = np.array([1.0, -1.0, 1.0])
        ds = LogisticDataset(Z=Z, y=y)
        assert np.shares_memory(ds.Z, Z) and np.shares_memory(ds.y, y)
        assert Z.flags.writeable and y.flags.writeable
        with pytest.raises(ValueError):
            ds.Z[0, 0] = 1.0

    def test_cached_sweep_matches_an_uncached_one(self, tmp_path, monkeypatch):
        path = tmp_path / "data.libsvm"
        save_libsvm(make_synthetic_logistic(60, 4, seed=3), path)
        config = write_config(
            tmp_path,
            f"""
            [problem]
            kind = logistic
            dataset = {path}
            m_fraction = 0.5

            [solver]
            n0 = 3
            d = 2
            k_max = 25

            [sweep]
            s = 0.75 1

            [run]
            seeds = 0 1 2
            """,
        )
        cfg = parse_experiment_config(config)
        cached, uncached = tmp_path / "cached", tmp_path / "uncached"
        run_experiment(cfg, workers=2, output_dir=str(cached))
        monkeypatch.setattr(experiment, "_load_dataset", load_libsvm)
        run_experiment(cfg, workers=1, output_dir=str(uncached))
        names = sorted(p.name for p in cached.iterdir())
        assert names == sorted(p.name for p in uncached.iterdir())
        assert len(names) == 6 + 4
        for name in names:
            assert (cached / name).read_bytes() == (uncached / name).read_bytes(), name


class TestPlanTimePreparation:
    def test_each_distinct_problem_is_built_once(self, tmp_path, monkeypatch):
        # 2 s x 2 sigma grid points, two seeds each: one build per sigma.
        built = []
        real = experiment.build_problem
        monkeypatch.setattr(
            experiment, "build_problem", lambda problem: built.append(problem) or real(problem)
        )
        config = QUAD_CONFIG.replace("dn = 1", "dn = 1\n    sigma = 0.5 1.0")
        parse_experiment_config(write_config(tmp_path, config))
        assert [p["sigma"] for p in built] == [0.5, 1.0]

    def test_a_logistic_grid_parses_its_dataset_once(self, tmp_path, monkeypatch):
        # Planning and a serial run of the 4 grid points share one parse.
        path = tmp_path / "data.libsvm"
        save_libsvm(make_synthetic_logistic(60, 4, seed=3), path)
        parsed = []
        real = experiment.parse_libsvm
        monkeypatch.setattr(
            experiment, "parse_libsvm", lambda data, p: parsed.append(p) or real(data, p)
        )
        config = f"""
            [problem]
            kind = logistic
            dataset = {path}

            [solver]
            k_max = 3

            [sweep]
            s = 0.75 1
            dn = 1 8

            [run]
            seeds = 0
            """
        cfg = parse_experiment_config(write_config(tmp_path, config))
        assert parsed == [str(path)]
        outcome = run_experiment(cfg, workers=1, output_dir=str(tmp_path / "out"))
        assert (outcome.n_runs, outcome.n_failed) == (4, 0)
        assert parsed == [str(path)]


def _resolve_n0(n0_fraction, base_n0, n_components):
    """The N0 a run of a grid point with these values starts from."""
    payload = {"solver": asdict(SolverConfig(N0=base_n0)), "n0_fraction": n0_fraction, "seed": 0}
    return _run_config(payload, n_components).N0


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


def columns(*rows):
    """TraceColumns of a trace given as (budget, norm_d) pairs."""
    return TraceColumns.of([trace_row(k, budget, d) for k, (budget, d) in enumerate(rows)])


class TestReachAndInterpolation:
    def test_reach_budget_first_crossing(self):
        # Goes back up at budget 30; the first crossing counts.
        trace = columns((10, 1.0), (20, 0.05), (30, 0.2), (40, 0.01))
        assert reach_budget(trace, 0.1) == 20.0
        assert reach_budget(trace, 0.01) == 40.0
        assert reach_budget(trace, 1e-6) == math.inf

    def test_columns_of_records(self):
        records = [trace_row(0, 10, 1.0, e=0.5), trace_row(1, 20, 0.05, e=0.25)]
        trace = TraceColumns.of(records)
        np.testing.assert_array_equal(trace.budget, [10.0, 20.0])
        np.testing.assert_array_equal(trace.norm_d, [1.0, 0.05])
        assert trace.e_final == 0.25

    def test_interpolation_hand_values(self):
        trace = columns((0, 1.0), (10, 0.1), (20, 0.01))
        out = interpolate_log_d(trace, np.array([0.0, 5.0, 10.0, 15.0, 20.0]))
        np.testing.assert_allclose(out, [0.0, -0.5, -1.0, -1.5, -2.0], atol=1e-12)

    def test_duplicate_budget_keeps_latest(self):
        # The third row is a rejected step: same budget, new metric.
        trace = columns((0, 1.0), (10, 0.1), (10, 0.001), (20, 0.0001))
        out = interpolate_log_d(trace, np.array([10.0]))
        np.testing.assert_allclose(out, [-3.0], atol=1e-12)

    def test_zero_direction_is_floored(self):
        out = interpolate_log_d(columns((0, 1.0), (10, 0.0)), np.array([10.0]))
        assert out[0] == -16.0

    def test_budget_curve_two_runs(self):
        t1 = columns((0, 1.0), (100, 0.01))
        t2 = columns((20, 1.0), (80, 0.0001))
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
        grid, mean, se = budget_curve([columns((0, 1.0), (100, 0.01))], n_points=3)
        np.testing.assert_array_equal(se, np.zeros_like(mean))

    def test_budget_curve_empty_group(self):
        with pytest.raises(EmptyGroup):
            budget_curve([])

    def test_budget_curve_of_disjoint_budgets_is_one_point(self):
        # No budget lies in both runs' ranges: the grid is the smallest
        # final budget, where the later run reads its first value.
        t1 = columns((0, 1.0), (100, 0.01))
        t2 = columns((200, 1.0), (300, 0.1))
        grid, mean, se = budget_curve([t1, t2], n_points=5)
        np.testing.assert_array_equal(grid, [100.0])
        np.testing.assert_allclose(mean, [-1.0], atol=1e-12)
        np.testing.assert_allclose(se, [1.0], atol=1e-12)  # std sqrt(2) over sqrt(2) runs


class TestSummarizeGroup:
    def rows(self, traces, n_failed=0):
        """Manifest rows: one completed run per trace, then n_failed failed runs."""
        head = {"config_id": "s1_dN1", "config_hash": "h", "s_exp": 1.0, "dN": 1, "sigma": None}
        completed = [
            {**head, "seed": i, "status": "ok", "trace_columns": t} for i, t in enumerate(traces)
        ]
        failed = [
            {**head, "seed": len(traces) + i, "status": "failed"} for i in range(n_failed)
        ]
        return completed + failed

    def test_quantiles_on_known_finals(self):
        row = summarize_group(self.rows([columns((0, 5.0), (10, d)) for d in (1.0, 2.0, 9.0)]))
        assert row.d_final_median == 2.0
        assert row.d_final_q25 == 1.5
        assert row.d_final_q75 == 5.5
        assert row.budget_median == 10.0
        assert row.n_runs == 3
        assert row.n_failed == 0

    def test_reach_fractions(self):
        traces = [
            columns((0, 1.0), (10, 0.05)),  # reaches 1e-1 only
            columns((0, 1.0), (10, 0.005)),  # reaches 1e-1, 1e-2
        ]
        row = summarize_group(self.rows(traces))
        assert row.reached == (1.0, 0.5, 0.0)
        assert len(REACH_THRESHOLDS) == len(row.reached)

    def test_failed_rows_counted_but_not_aggregated(self):
        row = summarize_group(self.rows([columns((0, 1.0), (10, 0.5))], n_failed=1))
        assert row.n_runs == 2
        assert row.n_failed == 1
        assert row.d_final_median == 0.5

    def test_all_failed_group_keeps_a_nan_row(self):
        row = summarize_group(self.rows([], n_failed=2))
        assert (row.config_id, row.n_runs, row.n_failed) == ("s1_dN1", 2, 2)
        stats = (row.d_final_median, row.d_final_q25, row.d_final_q75, row.budget_median)
        assert all(math.isnan(v) for v in (*stats, row.e_final_median))
        assert row.reached == (0.0,) * len(REACH_THRESHOLDS)

    def test_empty_group_raises(self):
        with pytest.raises(EmptyGroup):
            summarize_group([])


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

    def test_process_pool_forks_after_a_threaded_oracle(self, tmp_path):
        # The parent evaluates the batched logistic oracle on helper threads,
        # then the sweep's process pool forks from it.  6144 rows make 16
        # row blocks, enough for the oracle's threads in the workers too.
        # A child process, so that a hang fails at the timeout.
        data = tmp_path / "data.libsvm"
        save_libsvm(make_synthetic_logistic(6144, 3, seed=11), data)
        config = write_config(
            tmp_path,
            f"""
            [problem]
            kind = logistic
            dataset = {data}

            [solver]
            n0 = 40
            d = 4
            k_max = 30

            [sweep]
            s = 0.75 1
            dn = 1

            [run]
            seeds = 0 1
            """,
        )
        script = textwrap.dedent(
            f"""
            import threading
            from concurrent.futures import ThreadPoolExecutor
            import numpy as np
            from ipas import load_libsvm, logistic_objective, parse_experiment_config, problems
            from ipas import run_experiment

            pools = []

            class CountingPool(ThreadPoolExecutor):
                def __init__(self, *args, **kwargs):
                    pools.append(args)
                    super().__init__(*args, **kwargs)

            problems.ThreadPoolExecutor = CountingPool
            problems._usable_cpu_count = lambda: 2
            problems._blas_threads = lambda: 1
            problems._MIN_THREADED_POINTS = 1
            obj = logistic_objective(load_libsvm({str(data)!r}))
            X = np.random.default_rng(0).standard_normal((3, 40))
            obj.kernel.weighted_value_grad_many(X)
            assert pools == [(2,)], pools
            assert threading.active_count() == 1, threading.enumerate()
            cfg = parse_experiment_config({str(config)!r})
            for workers in (2, 1):
                out_dir = {str(tmp_path)!r} + f"/w{{workers}}"
                outcome = run_experiment(cfg, workers=workers, output_dir=out_dir)
                assert (outcome.n_runs, outcome.n_failed) == (4, 0)
            print("done")
            """
        )
        src = str(Path(experiment.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "done"
        names = sorted(p.name for p in (tmp_path / "w1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "w2").iterdir())
        for name in names:
            parallel, serial = (tmp_path / d / name for d in ("w2", "w1"))
            assert parallel.read_bytes() == serial.read_bytes(), name

    def test_default_workers_follow_the_affinity_mask(self, tmp_path, monkeypatch):
        # One usable CPU on a host that has more: the sweep runs serially.
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-CPU affinity mask must not start a process pool")

        monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(experiment.concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        outcome = run_experiment(cfg, output_dir=str(tmp_path / "out"))
        assert (outcome.n_runs, outcome.n_failed) == (4, 0)

    def test_mixed_group_summary_matches_the_rebuild(self, tmp_path, monkeypatch):
        # One seed of one grid point fails, the other runs complete.
        real_execute_run = experiment.execute_run

        def fail_one_seed(payload):
            if payload["config_id"] == "s1_dN1_sig0.5" and payload["seed"] == 1:
                payload = {**payload, "problem": {**payload["problem"], "kind": "cubic"}}
            return real_execute_run(payload)

        monkeypatch.setattr(experiment, "execute_run", fail_one_seed)
        cfg = parse_experiment_config(
            write_config(tmp_path, QUAD_CONFIG.replace("seeds = 0, 1", "seeds = 0, 1, 2"))
        )
        out_dir = tmp_path / "out"
        outcome = run_experiment(cfg, workers=1, output_dir=str(out_dir))
        assert outcome.n_failed == 1
        assert [(r.config_id, r.n_runs, r.n_failed) for r in outcome.summary] == [
            ("s1_dN1_sig0.5", 3, 1),
            ("s2_dN1_sig0.5", 3, 0),
        ]
        written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert "trace_s1_dN1_sig0.5_seed1.csv" not in written
        for name in [SUMMARY_NAME, "curve_s1_dN1_sig0.5.csv", "curve_s2_dN1_sig0.5.csv"]:
            (out_dir / name).unlink()
        assert summarize_dir(str(out_dir)) == outcome.summary
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == written

    def test_unexpected_error_fails_only_its_run(self, tmp_path, monkeypatch):
        # An error outside the expected kinds (a ZeroDivisionError from a
        # problem builder, after planning accepted the config) fails the runs
        # of its grid point, with its type in the row, and the sweep finishes.
        real_build_problem = experiment.build_problem

        def build_problem(problem):
            if problem["sigma"] == 1.0:
                raise ZeroDivisionError("float division by zero")
            return real_build_problem(problem)

        config = QUAD_CONFIG.replace("s = 1.0 2.0", "s = 1.0\n    sigma = 0.5 1.0")
        cfg = parse_experiment_config(write_config(tmp_path, config))
        monkeypatch.setattr(experiment, "build_problem", build_problem)
        out_dir = tmp_path / "out"
        outcome = run_experiment(cfg, workers=1, output_dir=str(out_dir))
        manifest = read_manifest(str(out_dir / MANIFEST_NAME))
        assert [(r["sigma"], r["status"]) for r in manifest] == [
            (0.5, "max_iterations"),
            (0.5, "max_iterations"),
            (1.0, "failed"),
            (1.0, "failed"),
        ]
        assert {r["error"] for r in manifest} == {"", "ZeroDivisionError: float division by zero"}
        assert outcome.n_failed == 2
        assert [(r.n_runs, r.n_failed) for r in outcome.summary] == [(2, 0), (2, 2)]

    def test_summarize_dir_rebuilds_summary(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        out_dir = tmp_path / "out"
        run_experiment(cfg, workers=1, output_dir=str(out_dir))
        before = (out_dir / SUMMARY_NAME).read_bytes()
        (out_dir / SUMMARY_NAME).unlink()
        rows = summarize_dir(str(out_dir))
        assert (out_dir / SUMMARY_NAME).read_bytes() == before
        assert len(rows) == 2

    @pytest.mark.parametrize("case", ["one_dn", "two_dn", "missing_data"])
    def test_run_writes_what_summarize_dir_rebuilds(self, tmp_path, case):
        # run_experiment summarises the columns its runs return; summarize_dir
        # reads the same runs back from the manifest and the traces.
        data = tmp_path / "data.libsvm"
        save_libsvm(make_synthetic_logistic(60, 4, seed=3), data)
        config = f"""
            [problem]
            kind = logistic
            dataset = {data}

            [solver]
            n0 = 3
            d = 2
            k_max = 30

            [sweep]
            s = 0.75 1
            dn = {"1 8" if case == "two_dn" else "1"}

            [run]
            seeds = 2 0 1
            """
        cfg = parse_experiment_config(write_config(tmp_path, config))
        if case == "missing_data":
            data.unlink()  # gone after planning, so every run fails
        out_dir = tmp_path / "out"
        outcome = run_experiment(cfg, workers=1, output_dir=str(out_dir))
        assert outcome.n_failed == (outcome.n_runs if case == "missing_data" else 0)
        written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        derived = [SUMMARY_NAME, *(p.name for p in out_dir.glob("curve_*.csv"))]
        n_curves = 0 if case == "missing_data" else len(cfg.sweep_s) * len(cfg.sweep_dN)
        assert len(derived) == 1 + n_curves
        for name in derived:
            (out_dir / name).unlink()
        # repr: a fully failed group's statistics are NaN.
        assert repr(summarize_dir(str(out_dir))) == repr(outcome.summary)
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == written

    def test_refuses_a_directory_with_results(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        out_dir = tmp_path / "out"
        run_experiment(cfg, workers=1, output_dir=str(out_dir))
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        with pytest.raises(OutputExists, match=f"output directory {out_dir} already holds"):
            run_experiment(cfg, workers=1, output_dir=str(out_dir))
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.parametrize(
        "name", [MANIFEST_NAME, SUMMARY_NAME, "trace_other_seed0.csv", "curve_other.csv"]
    )
    def test_any_sweep_output_blocks_the_run(self, tmp_path, name):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / name).write_text("earlier\n")
        with pytest.raises(OutputExists, match=name):
            run_experiment(cfg, workers=1, output_dir=str(out_dir))
        assert [p.name for p in out_dir.iterdir()] == [name]
        assert (out_dir / name).read_text() == "earlier\n"

    def test_empty_or_unrelated_directory_runs(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, QUAD_CONFIG))
        empty, other = tmp_path / "empty", tmp_path / "other"
        empty.mkdir()
        other.mkdir()
        for name in ("notes.txt", "runs.csv.bak", "trace.csv", "curve_old.txt"):
            (other / name).write_text("keep\n")
        assert run_experiment(cfg, workers=1, output_dir=str(empty)).n_failed == 0
        assert run_experiment(cfg, workers=1, output_dir=str(other)).n_failed == 0
        for name in ("notes.txt", "runs.csv.bak", "trace.csv", "curve_old.txt"):
            assert (other / name).read_text() == "keep\n"
        assert (empty / MANIFEST_NAME).read_bytes() == (other / MANIFEST_NAME).read_bytes()

    def test_summarize_dir_without_manifest(self, tmp_path):
        with pytest.raises(EmptyGroup):
            summarize_dir(str(tmp_path))

    def test_summarize_dir_with_a_header_only_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(",".join(MANIFEST_COLUMNS) + "\n")
        with pytest.raises(EmptyGroup, match="lists no runs"):
            summarize_dir(str(tmp_path))
