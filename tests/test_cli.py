import textwrap

import pytest

from ipas.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_RUN_FAILURE, OUTPUT_DIR_ENV, main


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

    def test_warning_is_printed_but_valid(self, tmp_path, capsys):
        path = tmp_path / "warn.ini"
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


class TestRun:
    def test_run_writes_outputs(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "cli_out"
        code = main(["run", str(config_path), "--out", str(out_dir), "--workers", "1"])
        assert code == EXIT_OK
        assert (out_dir / "runs.csv").exists()
        assert (out_dir / "summary.csv").exists()
        stdout = capsys.readouterr().out
        assert "2 runs (0 failed)" in stdout

    def test_env_var_sets_output_dir(self, config_path, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
        assert main(["run", str(config_path), "--workers", "1"]) == EXIT_OK
        assert (env_dir / "runs.csv").exists()

    def test_flag_beats_env_var(self, config_path, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        flag_dir = tmp_path / "flag_out"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
        assert (
            main(["run", str(config_path), "--out", str(flag_dir), "--workers", "1"])
            == EXIT_OK
        )
        assert (flag_dir / "runs.csv").exists()
        assert not env_dir.exists()

    def test_config_error_exits_two(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.ini")]) == EXIT_CONFIG_ERROR

    def test_failed_runs_exit_one(self, tmp_path, capsys):
        path = tmp_path / "doomed.ini"
        path.write_text(
            textwrap.dedent(
                f"""
                [problem]
                kind = logistic
                dataset = {tmp_path / 'missing.libsvm'}

                [run]
                seeds = 0
                """
            )
        )
        code = main(["run", str(path), "--out", str(tmp_path / "out"), "--workers", "1"])
        assert code == EXIT_RUN_FAILURE
        assert "1 failed" in capsys.readouterr().out


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
