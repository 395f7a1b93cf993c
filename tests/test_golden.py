"""Byte-level behaviour lock on traces and sweep outputs.

The files under tests/data/golden/ were written by this module.  Each test
reruns the same computation and compares the bytes, so a refactor that
changes any trace value, any CSV cell or the row order fails here.  When
a change to the output is intended, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.  The script prints, for each
file, "unchanged" or the columns whose cells changed, with the number of
rows and the worst relative change in each.  To verify that a change
keeps every file's bytes without rewriting any of them, run

    PYTHONPATH=src python tests/test_golden.py --check

which prints the same report and exits 1 if any file would change.
"""

import dataclasses
import math
import shutil
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

import ipas.solver
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


def ipas_check07():
    # Check 07's instance 4 (n = 20, N = 1000, m = 10) with a steeper
    # tolerance schedule and faster batch growth than the check uses, so
    # that 100 iterations reach what check 07 reaches only after 1000:
    # draws of 100 to 980 keys, the full sample from k = 51 and a closing
    # streak of unsuccessful rows from k = 91, all at one iterate, whose
    # re-projections keep it where it is.
    obj = noisy_quadratic_objective(make_noisy_quadratic(20, 1000, sigma=1.0, seed=1004))
    cs = generate_constraints(20, 10, seed=504)
    cfg = SolverConfig(
        beta=0.1, c=1e-4, c1=1e-2, C_accept=1e-2, s_exp=5.0,
        dN=20, D_size=1, N0=100, t_min=1e-5, k_max=100, seed=4,
    )
    return run(cs, obj, cfg, x0=min_norm_feasible(cs)).records


TRACES = {
    "ipas_check07.csv": ipas_check07,
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

# Planning reads tiny.libsvm; sweep_dir then points the runs at a dataset
# that does not exist, so every run fails while loading it and each group is
# fully failed.  Planning rejects a config that names the missing file; the
# swapped dict equals the one such a config parses to, so its config hashes
# are those in the golden files.
FAILED_SWEEP = f"""
    [problem]
    kind = logistic
    dataset = {DATA / "tiny.libsvm"}

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
    cfg = parse_experiment_config(config)
    if name == "sweep_failed":
        cfg = dataclasses.replace(cfg, problem={**cfg.problem, "dataset": "no_such_dataset.libsvm"})
    run_experiment(cfg, workers=1, output_dir=str(out))
    return out


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_matches_golden(name, tmp_path):
    assert trace_bytes(name, tmp_path) == (GOLDEN / name).read_bytes()


def test_check07_trace_covers_the_sampled_step(monkeypatch, tmp_path):
    # Replays the golden run with a spy on the projections, to see those
    # that kept their point without a solve, which the trace does not show.
    kept = []

    def spied(cs, y, eta):
        proj = ipas.constraints.inexact_project(cs, y, eta)
        if proj.cg_iterations == 0:
            kept.append(proj.point is y)
        return proj

    monkeypatch.setattr(ipas.solver, "inexact_project", spied)
    records = ipas_check07()
    write_trace(records, tmp_path / "replay.csv")
    assert (tmp_path / "replay.csv").read_bytes() == (GOLDEN / "ipas_check07.csv").read_bytes()
    mini = [r for r in records[:-1] if r.Nk < 1000]
    assert max(r.Nk for r in mini) > 900
    assert any(r.Nk == 1000 and r.accepted for r in records[:-1])
    streak = [r for r in records[:-1] if r.unsuccessful]
    assert [r.k for r in streak] == list(range(streak[0].k, len(records) - 1))
    assert len({(r.norm_p, r.e_x, r.norm_d_true) for r in streak}) == 1
    assert len(kept) >= len(streak) and all(kept)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_outputs_match_golden(name, tmp_path):
    out = sweep_dir(name, tmp_path)
    for fname in SWEEPS[name][1]:
        assert (out / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def test_failed_sweep_has_no_curves(tmp_path):
    out = sweep_dir("sweep_failed", tmp_path)
    assert not list(out.glob("curve_*.csv"))


def test_check_mode_reports_a_change_without_rewriting(monkeypatch, tmp_path, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    assert _regenerate(write=False)
    stale = golden / "sweep_quadratic" / "summary.csv"
    stale_bytes = stale.read_bytes().replace(b"s2_dN1", b"s9_dN1")
    stale.write_bytes(stale_bytes)
    capsys.readouterr()
    assert not _regenerate(write=False)
    assert stale.read_bytes() == stale_bytes
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert report.pop("sweep_quadratic/summary.csv").startswith("1 of 2 rows changed: config_id")
    assert set(report.values()) == {"unchanged"}


def _relative_change(old: str, new: str) -> float:
    """|new - old| / max(|old|, |new|) between two numeric cells; inf for text."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def change_report(old: bytes | None, new: bytes) -> str:
    """One line saying how a regenerated golden file differs from its old bytes."""
    if old == new:
        return "unchanged"
    if old is None:
        return "new file"
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    header = new_lines[0].split(",")
    if old_lines[0] != new_lines[0] or len(old_lines) != len(new_lines):
        return f"rewritten: header or row count changed ({len(old_lines)} -> {len(new_lines)} lines)"
    rows: set[int] = set()
    columns: dict[str, list] = {}  # column -> [rows changed, worst relative change]
    for r, (a, b) in enumerate(zip(old_lines[1:], new_lines[1:])):
        for col, x, y in zip(header, a.split(","), b.split(",")):
            if x != y:
                rows.add(r)
                stats = columns.setdefault(col, [0, 0.0])
                stats[0] += 1
                stats[1] = max(stats[1], _relative_change(x, y))
    parts = ", ".join(
        f"{col} ({n} rows, worst relative {worst:.1e})" for col, (n, worst) in columns.items()
    )
    return f"{len(rows)} of {len(new_lines) - 1} rows changed: {parts}"


def _regenerate(write: bool) -> bool:
    """Rerun every golden computation and report each file; True if all are unchanged.

    With write False the files are only compared, never rewritten.
    """
    unchanged = True

    def visit(path: Path, data: bytes) -> None:
        nonlocal unchanged
        old = path.read_bytes() if path.exists() else None
        unchanged &= old == data
        print(f"{path.relative_to(GOLDEN)}: {change_report(old, data)}")
        if write:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)

    tmp = Path(tempfile.mkdtemp())
    try:
        for name in TRACES:
            visit(GOLDEN / name, trace_bytes(name, tmp))
        for name, (_, files) in SWEEPS.items():
            out = sweep_dir(name, tmp)
            for fname in files:
                visit(GOLDEN / name / fname, (out / fname).read_bytes())
    finally:
        shutil.rmtree(tmp)
    return unchanged


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    check = sys.argv[1:] == ["--check"]
    unchanged = _regenerate(write=not check)
    sys.exit(1 if check and not unchanged else 0)
