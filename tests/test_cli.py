import textwrap
from pathlib import Path

import pytest

from ipas import (
    IpasError,
    experiment,
    make_synthetic_logistic,
    parse_experiment_config,
    save_libsvm,
)
from ipas.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_RUN_FAILURE, main

from conftest import utf8_only


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        textwrap.dedent(
            f"""
            [problem]
            kind = noisy_quadratic
            n = 5
            components = 6
            sigma = 0.3

            [solver]
            n0 = 2
            d = 2
            k_max = 8

            [run]
            seeds = 0 1
            output_dir = {tmp_path / 'default_out'}
            """
        )
    )
    return path


class TestValidate:
    def test_good_config(self, config_path, capsys):
        assert main(["validate", str(config_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "2 runs planned" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "absent.ini")])
        assert code == EXIT_CONFIG_ERROR
        assert "invalid" in capsys.readouterr().err

    def test_bad_solver_value(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(
            textwrap.dedent(
                """
                [problem]
                kind = noisy_quadratic
                n = 5
                components = 6

                [solver]
                s = 0.4

                [run]
                seeds = 0
                """
            )
        )
        assert main(["validate", str(path)]) == EXIT_CONFIG_ERROR

    def test_default_solver_config_is_valid(self, tmp_path, capsys):
        path = tmp_path / "defaults.ini"
        path.write_text(
            textwrap.dedent(
                """
                [problem]
                kind = noisy_quadratic
                n = 5
                components = 6

                [run]
                seeds = 0
                """
            )
        )
        assert main(["validate", str(path)]) == EXIT_OK


def colliding_config(tmp_path):
    # s = 1 and 1.0 share the id s1; 0.7500001 and 0.75 share s0.75.
    path = tmp_path / "collide.ini"
    path.write_text(
        textwrap.dedent(
            """
            [problem]
            kind = noisy_quadratic
            n = 5
            components = 6

            [solver]
            n0 = 2
            d = 2
            k_max = 4

            [sweep]
            s = 1 1.0 0.7500001 0.75

            [run]
            seeds = 0
            """
        )
    )
    return path


class TestCollidingRunIds:
    def test_validate_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(colliding_config(tmp_path))]) == EXIT_CONFIG_ERROR
        assert "collide" in capsys.readouterr().err

    def test_run_exits_two_and_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", str(colliding_config(tmp_path)), "--out", str(out_dir)])
        assert code == EXIT_CONFIG_ERROR
        assert not out_dir.exists()
        assert "collide" in capsys.readouterr().err


def bad_grid_config(tmp_path):
    # The base [solver] values are valid, but three of the four grid
    # points break the s_exp or dN bounds.
    path = tmp_path / "bad_grid.ini"
    path.write_text(
        textwrap.dedent(
            """
            [problem]
            kind = noisy_quadratic
            n = 5
            components = 6

            [solver]
            n0 = 2
            d = 2
            k_max = 4

            [sweep]
            s = 1 0.4
            dn = 0 1

            [run]
            seeds = 0
            """
        )
    )
    return path


class TestInvalidGridPoint:
    def test_validate_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(bad_grid_config(tmp_path))]) == EXIT_CONFIG_ERROR
        assert "grid point s=1, dN=0" in capsys.readouterr().err

    def test_run_exits_two_and_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", str(bad_grid_config(tmp_path)), "--out", str(out_dir)])
        assert code == EXIT_CONFIG_ERROR
        assert not out_dir.exists()
        assert "grid point s=1, dN=0" in capsys.readouterr().err


class TestImpossibleControlSample:
    # D_size must stay below the component count the config itself states.
    def config(self, tmp_path):
        path = tmp_path / "big_d.ini"
        path.write_text(
            textwrap.dedent(
                """
                [problem]
                kind = noisy_quadratic
                n = 5
                components = 6

                [solver]
                d = 6
                k_max = 4

                [run]
                seeds = 0
                """
            )
        )
        return path

    def test_validate_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(self.config(tmp_path))]) == EXIT_CONFIG_ERROR
        assert "D_size=6 must be <= N-1 = 5" in capsys.readouterr().err

    def test_run_exits_two_and_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", str(self.config(tmp_path)), "--out", str(out_dir)])
        assert code == EXIT_CONFIG_ERROR
        assert not out_dir.exists()
        assert "D_size=6 must be <= N-1 = 5" in capsys.readouterr().err


class TestFractionOutOfRange:
    # The shipped logistic config with a starting-batch fraction that no
    # run could resolve; parsing rejects it before anything runs.
    def config(self, tmp_path):
        shipped = (Path(__file__).parents[1] / "configs" / "logistic.ini").read_text()
        path = tmp_path / "inf_n0.ini"
        path.write_text(shipped.replace("n0_fraction = 0.01", "n0_fraction = inf"))
        return path

    def test_validate_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(self.config(tmp_path))]) == EXIT_CONFIG_ERROR
        assert "n0_fraction=inf must lie in (0, 1]" in capsys.readouterr().err

    def test_run_exits_two_and_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", str(self.config(tmp_path)), "--out", str(out_dir)])
        assert code == EXIT_CONFIG_ERROR
        assert not out_dir.exists()
        assert "n0_fraction=inf must lie in (0, 1]" in capsys.readouterr().err


class TestUnrunnableProblem:
    # Configs that parse but whose runs could not start: planning builds each
    # problem and evaluates it at x0, so the builder's own message rejects
    # them before anything runs.
    QUAD = """
        [problem]
        kind = noisy_quadratic
        n = 5
        components = 6
        {key} = {value}

        [solver]
        n0 = 2
        d = 2
        k_max = 8

        [run]
        seeds = 0
        """
    LOGISTIC = """
        [problem]
        kind = logistic
        dataset = {dataset}

        [solver]
        d = {d}

        [run]
        seeds = 0
        """
    CASES = {
        "negative_sigma": (
            QUAD.format(key="sigma", value="-1"),
            "s=1, dN=1, sigma=-1",
            "sigma must be finite and nonnegative, got -1.0",
        ),
        "negative_base_seed": (
            QUAD.format(key="base_seed", value="-1"),
            "s=1, dN=1, sigma=1",
            "expected non-negative integer",
        ),
        "negative_constraint_seed": (
            QUAD.format(key="constraint_seed", value="-1"),
            "s=1, dN=1, sigma=1",
            "expected non-negative integer",
        ),
        "infinite_q_scale": (
            QUAD.format(key="q_scale", value="inf"),
            "s=1, dN=1, sigma=1",
            "base_q must be finite",
        ),
        "overflowing_sigma": (
            QUAD.format(key="sigma", value="1e200"),
            "s=1, dN=1, sigma=1e+200",
            "eps must have finite squares, got sigma=1e+200",
        ),
        "zero_components": (
            QUAD.format(key="sigma", value="1").replace("components = 6", "components = 0"),
            "s=1, dN=1, sigma=1",
            "n_components must be >= 1, got 0",
        ),
        "negative_components": (
            QUAD.format(key="sigma", value="1").replace("components = 6", "components = -1"),
            "s=1, dN=1, sigma=1",
            "n_components must be >= 1, got -1",
        ),
        "negative_run_seed": (
            QUAD.format(key="sigma", value="1").replace("seeds = 0", "seeds = 0 -1"),
            "s=1, dN=1, sigma=1",
            "seed=-1 must be >= 0",
        ),
        "nan_curvature": (
            QUAD.format(key="base_curvature", value="nan"),
            "s=1, dN=1, sigma=1",
            "array must not contain infs or NaNs",
        ),
        "negative_curvature": (
            QUAD.format(key="base_curvature", value="-1"),
            "s=1, dN=1, sigma=1",
            "base_Q must be positive semidefinite",
        ),
        "control_sample_of_every_row": (
            LOGISTIC.format(dataset="{data}", d=40),
            "s=1, dN=1",
            "D_size=40 must be <= N-1 = 39",
        ),
        "missing_dataset": (
            LOGISTIC.format(dataset="{missing}", d=1),
            "s=1, dN=1",
            "[Errno 2] No such file or directory",
        ),
        "empty_output_dir": (
            QUAD.format(key="sigma", value="1").replace(
                "seeds = 0", "seeds = 0\n        output_dir ="
            ),
            None,
            "[run] output_dir is empty",
        ),
    }

    def config(self, tmp_path, case):
        data = tmp_path / "rows40.libsvm"
        save_libsvm(make_synthetic_logistic(40, 3, seed=1), data)
        text = self.CASES[case][0].format(data=data, missing=tmp_path / "missing.libsvm")
        path = tmp_path / f"{case}.ini"
        path.write_text(textwrap.dedent(text))
        return path

    def expected(self, case):
        _, point, message = self.CASES[case]
        return f"grid point {point}: {message}" if point else message

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_validate_exits_two(self, tmp_path, capsys, case):
        assert main(["validate", str(self.config(tmp_path, case))]) == EXIT_CONFIG_ERROR
        assert f"invalid: {self.expected(case)}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_exits_two_and_writes_nothing(self, tmp_path, capsys, case):
        out_dir = tmp_path / "out"
        code = main(["run", str(self.config(tmp_path, case)), "--out", str(out_dir)])
        assert code == EXIT_CONFIG_ERROR
        assert not out_dir.exists()
        assert f"config error: {self.expected(case)}" in capsys.readouterr().err

    def test_run_with_an_empty_out_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # An empty --out wrote to the config's output_dir, where an empty
        # [run] output_dir (the empty_output_dir case) exits 2.
        out_dir = tmp_path / "out"
        path = tmp_path / "quad.ini"
        path.write_text(
            textwrap.dedent(self.QUAD.format(key="sigma", value="1")).replace(
                "seeds = 0", f"seeds = 0\noutput_dir = {out_dir}"
            )
        )
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["run", str(path), "--out", ""]) == EXIT_CONFIG_ERROR
        assert "config error: --out is empty" in capsys.readouterr().err
        assert not out_dir.exists()


class TestEmptyLists:
    # An empty sweep grid planned zero runs: validate said "ok: 0 runs
    # planned", and run wrote an empty runs.csv and summary.csv that a later
    # summarize refused.  It is rejected as an empty seeds list is.
    @pytest.mark.parametrize(
        "section, key", [("sweep", "s"), ("sweep", "dn"), ("sweep", "sigma"), ("run", "seeds")]
    )
    def test_validate_and_run_exit_two(self, tmp_path, capsys, section, key):
        sweep = f"[sweep]\n{key} =\n" if section == "sweep" else ""
        seeds = "" if key == "seeds" else "0"
        path = tmp_path / "empty.ini"
        path.write_text(
            "[problem]\nkind = noisy_quadratic\nn = 5\ncomponents = 6\n"
            f"[solver]\nn0 = 2\nd = 2\nk_max = 8\n{sweep}[run]\nseeds = {seeds}\n"
        )
        message = f"[{section}] {key} list is empty"
        assert main(["validate", str(path)]) == EXIT_CONFIG_ERROR
        assert f"invalid: {message}" in capsys.readouterr().err
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()


@utf8_only
class TestUndecodableBytes:
    # A byte that is not UTF-8, in the config or in its dataset, made validate
    # and run print a UnicodeDecodeError traceback and exit 1.
    CONFIG = b"[problem]\nkind = noisy_quadratic\nn = 4\ncomponents = 10\n# caf\xe9\n[run]\nseeds = 0\n"

    def config(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(self.CONFIG)
        return path

    def dataset_config(self, tmp_path):
        data = tmp_path / "latin1.libsvm"
        data.write_bytes(b"1 1:0.5\n-1 1:0.25 # caf\xe9\n")
        path = tmp_path / "logistic.ini"
        path.write_text(f"[problem]\nkind = logistic\ndataset = {data}\n[run]\nseeds = 0\n")
        return path

    @pytest.mark.parametrize(
        "which, message",
        [
            ("config", "cannot read config "),
            ("dataset_config", "latin1.libsvm:2: cannot decode the byte at offset 23 as utf-8: "),
        ],
    )
    def test_validate_and_run_exit_two(self, tmp_path, capsys, which, message):
        path = getattr(self, which)(tmp_path)
        assert main(["validate", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("invalid: ") and message in err and "Traceback" not in err
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out_dir.exists()


class TestIntegerLists:
    # Seeds, the dn sweep and the integer keys of [problem] and [solver] are
    # read as exact integers.  A float form is accepted where it names a
    # finite integer; read through a float, inf and 1e400 crashed validate
    # with an OverflowError, and 2**53 + 1 became 2**53.  Read through int,
    # k_max = 1e3 failed while seeds = 1e3 was accepted.
    def config(self, tmp_path, seeds="0", dn="1", n="5", k_max="8"):
        path = tmp_path / "ints.ini"
        path.write_text(
            textwrap.dedent(
                f"""
                [problem]
                kind = noisy_quadratic
                n = {n}
                components = 6

                [solver]
                n0 = 2
                d = 2
                k_max = {k_max}

                [sweep]
                dn = {dn}

                [run]
                seeds = {seeds}
                """
            )
        )
        return path

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seeds", "inf"),
            ("seeds", "1e400"),
            ("dn", "inf"),
            ("seeds", "nan"),
            ("dn", "1.5"),
            ("k_max", "1.5"),
            ("n", "1 2"),
        ],
    )
    def test_a_non_integer_exits_two(self, tmp_path, capsys, key, value):
        path = self.config(tmp_path, **{key: value})
        assert main(["validate", str(path)]) == EXIT_CONFIG_ERROR
        assert f"expected an integer, got {value!r}" in capsys.readouterr().err

    def test_finite_float_forms_are_integers(self, tmp_path, capsys):
        path = self.config(tmp_path, seeds="10.0 1e3", dn="1e0 2", n="5.0", k_max="1e3")
        assert main(["validate", str(path)]) == EXIT_OK
        assert "4 runs planned across 2 seeds" in capsys.readouterr().out
        cfg = parse_experiment_config(path)
        assert (cfg.seeds, cfg.sweep_dN) == ((10, 1000), (1, 2))
        assert (cfg.problem["n"], cfg.solver.k_max) == (5, 1000)
        assert type(cfg.problem["n"]) is type(cfg.solver.k_max) is int

    def test_seeds_are_read_exactly(self, tmp_path, capsys):
        path = self.config(tmp_path, seeds="9007199254740992 9007199254740993")
        assert main(["validate", str(path)]) == EXIT_OK
        assert "across 2 seeds" in capsys.readouterr().out
        assert parse_experiment_config(path).seeds == (2**53, 2**53 + 1)


class TestRun:
    def test_run_writes_outputs(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "cli_out"
        code = main(["run", str(config_path), "--out", str(out_dir), "--workers", "1"])
        assert code == EXIT_OK
        assert (out_dir / "runs.csv").exists()
        assert (out_dir / "summary.csv").exists()
        stdout = capsys.readouterr().out
        assert "2 runs (0 failed)" in stdout

    def test_config_error_exits_two(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.ini")]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("workers", [0, -2])
    def test_a_worker_count_below_one_exits_two_and_writes_nothing(
        self, config_path, tmp_path, capsys, workers
    ):
        # It used to run one worker in silence.
        out_dir = tmp_path / "out"
        code = main(["run", str(config_path), "--out", str(out_dir), "--workers", str(workers)])
        assert code == EXIT_CONFIG_ERROR
        assert f"--workers {workers} must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_run_experiment_rejects_a_worker_count_below_one(self, config_path, tmp_path, workers):
        cfg = parse_experiment_config(config_path)
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=f"workers={workers} must be >= 1"):
            experiment.run_experiment(cfg, workers=workers, output_dir=str(out_dir))
        assert not out_dir.exists()

    def test_failed_runs_exit_one(self, config_path, tmp_path, capsys, monkeypatch):
        # Planning accepts the config; its one run fails while it runs.
        def doomed(*args, **kwargs):
            raise IpasError("doomed")

        monkeypatch.setattr(experiment, "run", doomed)
        path = tmp_path / "doomed.ini"
        path.write_text(config_path.read_text().replace("seeds = 0 1", "seeds = 0"))
        code = main(["run", str(path), "--out", str(tmp_path / "out"), "--workers", "1"])
        assert code == EXIT_RUN_FAILURE
        assert "1 failed" in capsys.readouterr().out


class TestUnusableOutputDir:
    # An output path under a regular file (NotADirectoryError) or at one
    # (FileExistsError).
    @pytest.mark.parametrize("where", ["under_a_file", "at_a_file"])
    def test_exits_two_before_any_run(self, config_path, tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        out_dir = blocker / "out" if where == "under_a_file" else blocker
        argv = ["run", str(config_path), "--workers", "1", "--out", str(out_dir)]
        assert main(argv) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert f"config error: cannot create output directory {out_dir}: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert blocker.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "exp.ini"]


class TestExistingResults:
    # A second sweep into a directory must not overwrite or merge with the first.
    def test_second_run_exits_two_and_changes_nothing(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        argv = ["run", str(config_path), "--out", str(out_dir), "--workers", "1"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert main(argv) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: output directory {out_dir} already holds")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_premade_empty_directory_runs(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["run", str(config_path), "--out", str(out_dir), "--workers", "1"]) == EXIT_OK
        assert "2 runs (0 failed)" in capsys.readouterr().out
        assert (out_dir / "runs.csv").exists()


class TestSummarize:
    def test_rebuild_after_run(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out_dir), "--workers", "1"])
        capsys.readouterr()
        assert main(["summarize", str(out_dir)]) == EXIT_OK
        assert "summarised 1 config group(s)" in capsys.readouterr().out

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path)]) == EXIT_RUN_FAILURE
        assert "summarize failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda r: [r[0], r[1].rsplit(",", 2)[0], *r[2:]], "expected 9 cells, got 7"),
            (lambda r: [r[0].replace("seed", "sead"), *r[1:]], "unexpected manifest header"),
            (lambda r: [r[0], r[1].replace(",0,", ",zero,", 1), *r[2:]], "'zero'"),
        ],
        ids=["short-row", "header", "bad-cell"],
    )
    def test_damaged_manifest_exits_one(self, config_path, tmp_path, capsys, damage, message):
        # Cells used to be zipped onto whatever header was found, so a short
        # row crashed with a KeyError traceback.
        out_dir = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out_dir), "--workers", "1"])
        manifest = out_dir / "runs.csv"
        rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join(damage(rows)) + "\n")
        capsys.readouterr()
        assert main(["summarize", str(out_dir)]) == EXIT_RUN_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"summarize failed: {manifest}: ")
        assert message in err and "Traceback" not in err

    @utf8_only
    @pytest.mark.parametrize("what", ["trace", "manifest"])
    def test_undecodable_bytes_exit_one(self, config_path, tmp_path, capsys, what):
        # A byte that is not UTF-8 made summarize print a UnicodeDecodeError
        # traceback.
        out_dir = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out_dir), "--workers", "1"])
        path = out_dir / "runs.csv" if what == "manifest" else sorted(out_dir.glob("trace_*.csv"))[0]
        with open(path, "ab") as fh:
            fh.write(b"\xe9")
        capsys.readouterr()
        assert main(["summarize", str(out_dir)]) == EXIT_RUN_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"summarize failed: {path}: cannot decode the {what}: ")
        assert "Traceback" not in err


class TestParser:
    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        capsys.readouterr()
