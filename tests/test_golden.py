"""Byte-level behaviour lock on traces and sweep outputs.

The files under tests/data/golden/ were written by this module.  Each test
reruns the same computation and compares the bytes, so a refactor that
changes any trace value, any CSV cell or the row order fails here.  When
a change to the output is intended, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import shutil
import tempfile
import textwrap
from pathlib import Path

import pytest

from ipas import (
    BaselineConfig,
    SolverConfig,
    generate_constraints,
    load_libsvm,
    logistic_objective,
    make_noisy_quadratic,
    make_synthetic_logistic,
    min_norm_feasible,
    noisy_quadratic_objective,
    parse_experiment_config,
    run,
    run_baseline,
    run_experiment,
    write_trace,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def ipas_quadratic():
    # Mini-batch phase, batch growth, then full-sample iterations.
    obj = noisy_quadratic_objective(make_noisy_quadratic(10, 50, sigma=1.0, seed=11))
    cs = generate_constraints(10, 4, seed=12)
    cfg = SolverConfig(k_max=60, N0=2, dN=2, D_size=2, t_min=1e-3, seed=0)
    return run(cs, obj, cfg, x0=min_norm_feasible(cs)).records


def ipas_logistic():
    obj = logistic_objective(load_libsvm(DATA / "tiny.libsvm"))
    cs = generate_constraints(obj.dim, 2, seed=3)
    cfg = SolverConfig(k_max=60, N0=2, D_size=2, t_min=1e-3, seed=0)
    return run(cs, obj, cfg).records


def baseline_roundoff():
    # ||d|| falls to exactly 0.0 after about 220 iterations, so the tail
    # of this trace lives in the roundoff regime.
    obj = logistic_objective(make_synthetic_logistic(100, 5, seed=0))
    cs = generate_constraints(5, 2, seed=7)
    return run_baseline(cs, obj, BaselineConfig(k_max=240, c1=1e-4)).records


TRACES = {
    "ipas_quadratic.csv": ipas_quadratic,
    "ipas_logistic.csv": ipas_logistic,
    "baseline_roundoff.csv": baseline_roundoff,
}

QUAD_SWEEP = """
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
"""

# Every run fails while loading the dataset, so each group is fully failed.
FAILED_SWEEP = """
    [problem]
    kind = logistic
    dataset = no_such_dataset.libsvm

    [sweep]
    s = 0.75 1

    [run]
    seeds = 0 1
"""

SWEEPS = {
    "sweep_quadratic": (QUAD_SWEEP, ("runs.csv", "summary.csv", "curve_s1_dN1_sig0.5.csv")),
    "sweep_failed": (FAILED_SWEEP, ("runs.csv", "summary.csv")),
}


def trace_bytes(name: str, tmp_dir: Path) -> bytes:
    path = tmp_dir / name
    write_trace(TRACES[name](), path)
    return path.read_bytes()


def sweep_dir(name: str, tmp_dir: Path) -> Path:
    config = tmp_dir / f"{name}.ini"
    config.write_text(textwrap.dedent(SWEEPS[name][0]))
    out = tmp_dir / name
    run_experiment(parse_experiment_config(config), workers=1, output_dir=str(out))
    return out


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_matches_golden(name, tmp_path):
    assert trace_bytes(name, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_outputs_match_golden(name, tmp_path):
    out = sweep_dir(name, tmp_path)
    for fname in SWEEPS[name][1]:
        assert (out / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def test_failed_sweep_has_no_curves(tmp_path):
    out = sweep_dir("sweep_failed", tmp_path)
    assert not list(out.glob("curve_*.csv"))


def _regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp())
    try:
        for name in TRACES:
            (GOLDEN / name).write_bytes(trace_bytes(name, tmp))
        for name, (_, files) in SWEEPS.items():
            out = sweep_dir(name, tmp)
            (GOLDEN / name).mkdir(exist_ok=True)
            for fname in files:
                shutil.copyfile(out / fname, GOLDEN / name / fname)
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    _regenerate()
