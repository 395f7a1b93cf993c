"""End-to-end acceptance checks for the package.

Twelve checks cover the projection oracle pair, the convex-combination
identity of the projector, the residual contract enforced during solver
runs, the descent property of projected directions, the feasibility
recursion, component gradients against central finite differences,
desk-scale convergence on both problem families, the scalar-product
budget comparison against the deterministic baseline, sample-size
dynamics, byte determinism of traces, and step-size floors re-evaluated
from traces.

Each test prints one summary line (shown with ``pytest -s`` and in
failure reports) and enforces the same verdict with an assertion.  The
solver runs are shared through session fixtures so the module stays
fast.  All twelve checks pass.  Every check-07 seed reaches the 1e-3
target well within its 2000 iterations and then ends its run in an
unbroken streak of unsuccessful full-sample rows at one iterate; a
diagnostic next to check 07 records each seed's best optimality measure
and the length of that streak.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

import ipas.solver
from ipas import (
    BaselineConfig,
    BudgetMeter,
    SolverConfig,
    build_constraint_set,
    eta,
    exact_project,
    full_value_grad,
    generate_constraints,
    inexact_project,
    load_libsvm,
    logistic_objective,
    make_noisy_quadratic,
    make_synthetic_logistic,
    min_norm_feasible,
    noisy_quadratic_objective,
    projected_direction,
    run,
    run_baseline,
    save_libsvm,
    write_trace,
)

from reference import logistic_component, noisy_quadratic_component

QUAD_N = 1000
QUAD_DIM = 20
QUAD_M = 10
LOGI_N = 768
LOGI_DIM = 8
LOGI_M = 4


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"check {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@dataclass(frozen=True)
class SolverCase:
    """One seeded solver run kept together with everything that produced it."""

    cs: object
    obj: object
    cfg: SolverConfig
    x0: np.ndarray
    result: object
    spec: object = None


@dataclass(frozen=True)
class Batch:
    cases: tuple
    wall: float
    extras: dict


@pytest.fixture(scope="session")
def quad_batch():
    """Ten seeded runs on the noisy quadratic family (n=20, m=10, N=1000, sigma=1).

    A spy counts the inexact projections the runs make, apart from the
    solver's own count of the projections it checked.
    """
    projections_run = 0

    def counted_project(*args, **kwargs):
        nonlocal projections_run
        projections_run += 1
        return inexact_project(*args, **kwargs)

    t0 = time.perf_counter()
    cases = []
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(ipas.solver, "inexact_project", counted_project)
        for i in range(10):
            spec = make_noisy_quadratic(QUAD_DIM, QUAD_N, sigma=1.0, seed=1000 + i)
            obj = noisy_quadratic_objective(spec)
            cs = generate_constraints(QUAD_DIM, QUAD_M, seed=500 + i)
            cfg = SolverConfig(
                beta=0.1, c=1e-4, c1=1e-2, C_accept=1e-2, s_exp=1.0,
                dN=1, D_size=1, N0=10, t_min=1e-5, k_max=2000, seed=i,
            )
            x0 = min_norm_feasible(cs)
            cases.append(SolverCase(cs=cs, obj=obj, cfg=cfg, x0=x0,
                                    result=run(cs, obj, cfg, x0=x0), spec=spec))
    return Batch(cases=tuple(cases), wall=time.perf_counter() - t0,
                 extras={"projections_run": projections_run})


@pytest.fixture(scope="session")
def logistic_batch(tmp_path_factory):
    """Ten seeded runs plus the deterministic baseline on a logistic problem.

    The dataset is written to LIBSVM text and read back so the runs consume
    exactly what the parser produces.  Sizes follow a small clinical tabular
    shape: 768 samples, 8 features, 4 equality constraints, warm start at
    the minimum-norm feasible point, initial batch of ceil(0.01 * 768) = 8.
    """
    t0 = time.perf_counter()
    raw = make_synthetic_logistic(LOGI_N, LOGI_DIM, seed=42)
    path = tmp_path_factory.mktemp("acceptance") / "logistic_768x8.libsvm"
    save_libsvm(raw, path)
    ds = load_libsvm(path)
    obj = logistic_objective(ds)
    cs = generate_constraints(LOGI_DIM, LOGI_M, seed=7)
    x0 = min_norm_feasible(cs)
    g0 = full_value_grad(obj, x0, BudgetMeter()).grad
    d0 = float(np.linalg.norm(projected_direction(cs, x0, g0)))
    cases = []
    for seed in range(10):
        cfg = SolverConfig(
            beta=0.1, c=1e-4, c1=1e-4, C_accept=1.0, s_exp=1.0,
            dN=1, D_size=4, N0=8, t_min=1e-5, k_max=1000, seed=seed,
        )
        cases.append(SolverCase(cs=cs, obj=obj, cfg=cfg, x0=x0,
                                result=run(cs, obj, cfg, x0=x0)))
    bl_cfg = BaselineConfig(beta=0.1, c1=1e-4, s_exp=1.0, k_max=400)
    baseline = run_baseline(cs, obj, bl_cfg, x0=x0)
    wall = time.perf_counter() - t0
    return Batch(cases=tuple(cases), wall=wall,
                 extras={"ds": ds, "d0": d0, "baseline": baseline, "bl_cfg": bl_cfg})


def test_01_inexact_projection_matches_exact_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cs = build_constraint_set(rng.standard_normal((20, 50)), rng.standard_normal(20))
        y = 3.0 * rng.standard_normal(50)
        res = inexact_project(cs, y, 1e-12)
        worst = max(worst, float(np.max(np.abs(res.point - exact_project(cs, y)))))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and wall < 5.0
    line = _report(1, ok, f"100 random 20x50 systems, worst infinity-norm "
                          f"difference {worst:.2e} (limit 1e-8), {wall:.2f}s")
    assert ok, line


def test_02_projection_respects_convex_combinations():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 12))
        n = m + int(rng.integers(4, 30))
        cs = build_constraint_set(rng.standard_normal((m, n)), rng.standard_normal(m))
        count = int(rng.integers(2, 7))
        scale = float(rng.uniform(0.5, 4.0))
        points = scale * rng.standard_normal((count, n))
        w = rng.random(count)
        w /= w.sum()
        lhs = exact_project(cs, w @ points)
        rhs = np.zeros(n)
        for wi, yi in zip(w, points):
            rhs += wi * exact_project(cs, yi)
        err = float(np.linalg.norm(lhs - rhs))
        bound = 1e-9 * float(max(np.linalg.norm(yi) for yi in points))
        worst = max(worst, err / bound)
        assert err <= bound, f"combination identity violated: {err:.3e} > {bound:.3e}"
    line = _report(2, True, f"100 weighted combinations, worst error at "
                            f"{worst:.1e} of the 1e-9*max||y|| allowance")
    assert True, line


def test_03_projection_residual_contract_in_runs(quad_batch):
    # Every projection that ran is checked.  Each step projects once and
    # each unsuccessful row once more; a mini-batch row's control test
    # projects only when its values leave the test open.
    ran = quad_batch.extras["projections_run"]
    checked = 0
    floor = 0
    control_tests = 0
    for case in quad_batch.cases:
        steps = case.result.records[:-1]
        floor += len(steps) + sum(1 for rec in steps if rec.unsuccessful)
        control_tests += sum(1 for rec in steps if rec.Nk < QUAD_N)
        checked += case.result.projections_checked
    ok = checked == ran and checked >= floor and checked > 0
    line = _report(3, ok, f"{checked} inexact projections verified in-run against "
                          f"both the tolerance and the gap-equals-residual "
                          f"identity ({ran} ran, at least {floor} expected); the "
                          f"control values decided {floor + control_tests - ran} of "
                          f"{control_tests} control tests without a projection")
    assert ok, line


def test_04_projected_direction_is_a_descent_direction():
    rng = np.random.default_rng(4242)
    n, m = 30, 15
    cs = build_constraint_set(rng.standard_normal((m, n)), rng.standard_normal(m))
    basis = rng.standard_normal((n, n))
    hess = basis.T @ basis / n
    lin = rng.standard_normal(n)
    worst = -np.inf
    for _ in range(1000):
        x = exact_project(cs, 4.0 * rng.standard_normal(n))
        g = hess @ x + lin
        d = projected_direction(cs, x, g)
        slack = float(d @ g + d @ d)
        worst = max(worst, slack)
        assert slack <= 1e-9, f"direction-gradient product above -||d||^2: {slack:.3e}"
    line = _report(4, True, f"1000 feasible points, max of d.g + ||d||^2 "
                            f"was {worst:.2e} (limit 1e-9)")
    assert True, line


def test_05_feasibility_recursion_on_accepted_steps(quad_batch, logistic_batch):
    steps = 0
    worst = -np.inf
    for case in quad_batch.cases + logistic_batch.cases:
        recs = case.result.records
        for k in range(len(recs) - 1):
            rec = recs[k]
            if not rec.accepted:
                continue
            bound = (1.0 - rec.t) * rec.e_x + eta(rec.k, case.cfg.s_exp) + 1e-10
            margin = recs[k + 1].e_x - bound
            worst = max(worst, margin)
            steps += 1
            assert margin <= 0.0, (
                f"accepted step {rec.k}: gap {recs[k + 1].e_x:.3e} above "
                f"(1-t)*e + eta bound {bound:.3e}"
            )
    line = _report(5, True, f"{steps} accepted steps across 20 runs, worst "
                            f"margin {worst:.1e} below the recursion bound")
    assert True, line


def test_06_component_gradients_match_finite_differences(quad_batch, logistic_batch):
    ds = logistic_batch.extras["ds"]
    spec = quad_batch.cases[0].spec
    rng = np.random.default_rng(606)
    h = 1e-6
    worst_rel = 0.0

    for _ in range(100):
        x = 0.7 * rng.standard_normal(LOGI_DIM)
        fd = np.empty((LOGI_N, LOGI_DIM))
        for j in range(LOGI_DIM):
            step = np.zeros(LOGI_DIM)
            step[j] = h
            up = np.logaddexp(0.0, -ds.y * (ds.Z @ (x + step)))
            dn = np.logaddexp(0.0, -ds.y * (ds.Z @ (x - step)))
            fd[:, j] = (up - dn) / (2.0 * h)
        for i in range(LOGI_N):
            grad = logistic_component(ds, i, x)[1]
            err = float(np.linalg.norm(fd[i] - grad))
            allowance = 1e-5 * float(np.linalg.norm(grad)) + 1e-9
            worst_rel = max(worst_rel, err / allowance)
            assert err <= allowance, f"logistic component {i}: fd error {err:.3e}"

    for _ in range(100):
        x = rng.standard_normal(QUAD_DIM)
        base_fd = np.empty(QUAD_DIM)
        sq_fd = np.empty(QUAD_DIM)
        for j in range(QUAD_DIM):
            step = np.zeros(QUAD_DIM)
            step[j] = h
            up, dn = x + step, x - step
            base_fd[j] = (
                0.5 * up @ spec.base_Q @ up + spec.base_q @ up
                - 0.5 * dn @ spec.base_Q @ dn - spec.base_q @ dn
            ) / (2.0 * h)
            sq_fd[j] = (up @ up - dn @ dn) / (2.0 * h)
        for i in range(QUAD_N):
            grad = noisy_quadratic_component(spec, i, x)[1]
            fd_i = base_fd + QUAD_N * spec.eps[i] ** 2 * sq_fd
            err = float(np.linalg.norm(fd_i - grad))
            allowance = 1e-5 * float(np.linalg.norm(grad)) + 1e-9
            worst_rel = max(worst_rel, err / allowance)
            assert err <= allowance, f"quadratic component {i}: fd error {err:.3e}"

    line = _report(6, True, f"all components at 100 points per family, worst "
                            f"error at {worst_rel:.1e} of the 1e-5 relative allowance")
    assert True, line


def test_07_noisy_quadratic_desk_convergence(quad_batch):
    wins = 0
    bests = []
    for case in quad_batch.cases:
        recs = case.result.records
        wins += any(r.norm_d_true <= 1e-3 and r.e_x <= 1e-6 for r in recs)
        bests.append(min(r.norm_d_true for r in recs))
    ok = wins >= 9 and quad_batch.wall < 60.0
    line = _report(7, ok, f"{wins}/10 seeds reached optimality 1e-3 with "
                          f"feasibility 1e-6 within 2000 iterations "
                          f"(need 9); per-seed best optimality "
                          f"{', '.join(f'{b:.1e}' for b in bests)}; "
                          f"{quad_batch.wall:.1f}s")
    assert ok, line


# Each check-07 seed's best ||d|| and the length of the streak of
# unsuccessful full-sample rows that closes its run.
CHECK07_RECORD = {
    0: (3.186e-05, 603), 1: (4.945e-05, 628), 2: (3.371e-05, 165), 3: (2.708e-05, 667),
    4: (7.074e-05, 866), 5: (5.102e-05, 749), 6: (7.635e-05, 712), 7: (1.705e-05, 656),
    8: (4.268e-05, 300), 9: (5.073e-05, 695),
}


def test_07_best_norms_and_closing_streaks_are_recorded(quad_batch):
    """Record each check-07 seed's best ||d|| and the streak that closes its run.

    Every seed ends in an unbroken streak of unsuccessful full-sample rows,
    with no unsuccessful row before it.  The streak sits at one iterate:
    its rows agree in norm_p, e_x and norm_d_true, and each makes one
    solve, its step projection's, because the re-projection keeps an
    iterate within eta_k.  What fails the descent check there was measured
    in exact arithmetic at the final iterate (README, check 07): on seed 0
    the infeasibility term mu.(A x - b), on seed 4 the rounding error of
    the computed p.  Both scale with ||g||, not with eta_k, so the streak
    does not end as eta_k falls.
    """
    record = {}
    for case in quad_batch.cases:
        recs = case.result.records[:-1]  # the terminal row takes no step
        first = next((i for i, r in enumerate(recs) if r.unsuccessful), len(recs))
        streak = recs[first:]
        assert streak and all(r.unsuccessful and r.Nk == QUAD_N for r in streak), (
            f"seed {case.cfg.seed}: the unsuccessful rows from k={first} are not one "
            "closing full-sample streak"
        )
        assert len({(r.norm_p, r.e_x, r.norm_d_true) for r in streak}) == 1
        assert {r.cg_iters for r in streak} == {1}
        best = min(r.norm_d_true for r in case.result.records)
        record[case.cfg.seed] = (best, len(streak))
    print("check 07 record: " + "; ".join(
        f"seed {seed} best {best:.3e}, closing streak {n}" for seed, (best, n) in record.items()
    ))
    assert record == {
        seed: (pytest.approx(best, rel=1e-3), n) for seed, (best, n) in CHECK07_RECORD.items()
    }


def test_08_logistic_desk_convergence(logistic_batch):
    d0 = logistic_batch.extras["d0"]
    finals = [case.result.records[-1].norm_d_true for case in logistic_batch.cases]
    med = float(np.median(finals))
    ok = med <= 0.1 * d0 and logistic_batch.wall < 120.0
    line = _report(8, ok, f"median final optimality {med:.2e} vs start {d0:.2e} "
                          f"(need at most {0.1 * d0:.2e}); {logistic_batch.wall:.1f}s")
    assert ok, line


def test_09_budget_advantage_over_deterministic_baseline(logistic_batch):
    baseline = logistic_batch.extras["baseline"]
    bl_row = next((r for r in baseline.records if r.norm_d_true <= 1e-2), None)
    assert bl_row is not None, "baseline never reached optimality 1e-2"
    wins = 0
    budgets = []
    for case in logistic_batch.cases:
        row = next((r for r in case.result.records if r.norm_d_true <= 1e-2), None)
        budgets.append(row.scalar_products if row else None)
        if row is not None and row.scalar_products <= bl_row.scalar_products:
            wins += 1
    ok = wins >= 7
    line = _report(9, ok, f"{wins}/10 seeds reached optimality 1e-2 within the "
                          f"baseline budget of {bl_row.scalar_products} scalar "
                          f"products (need 7); per-seed budgets {budgets}")
    assert ok, line


def test_10_sample_size_dynamics(quad_batch):
    transitions = 0
    for case in quad_batch.cases:
        recs = case.result.records
        dN = case.cfg.dN
        for k in range(len(recs) - 1):
            rec, nxt = recs[k], recs[k + 1]
            assert nxt.Nk >= rec.Nk, f"batch size shrank at iteration {rec.k}"
            if rec.accepted or rec.unsuccessful:
                assert nxt.Nk == rec.Nk, f"batch size moved on a kept iterate at {rec.k}"
            else:
                assert nxt.Nk == min(QUAD_N, rec.Nk + dN), (
                    f"rejected step at {rec.k} grew the batch by "
                    f"{nxt.Nk - rec.Nk}, expected {dN}"
                )
            transitions += 1
    line = _report(10, True, f"{transitions} iteration transitions checked, "
                             f"zero sample-size violations")
    assert True, line


def test_11_trace_byte_determinism(quad_batch, logistic_batch, tmp_path):
    pairs = []
    for tag, case in (("quad", quad_batch.cases[0]), ("logi", logistic_batch.cases[0])):
        repeat = run(case.cs, case.obj, case.cfg, x0=case.x0)
        first = tmp_path / f"{tag}_a.csv"
        second = tmp_path / f"{tag}_b.csv"
        write_trace(case.result.records, first)
        write_trace(repeat.records, second)
        pairs.append(first.read_bytes() == second.read_bytes())
    ok = all(pairs)
    line = _report(11, ok, "repeated runs produced byte-identical trace CSVs "
                           "for both problem families")
    assert ok, line


def test_12_step_size_floor_and_trace_reevaluation(quad_batch, logistic_batch):
    mini_rows = 0
    full_rows = 0
    for case in quad_batch.cases + logistic_batch.cases:
        cfg = case.cfg
        recs = case.result.records
        n_comp = case.obj.n_components
        for k in range(len(recs) - 1):
            rec = recs[k]
            if rec.Nk < n_comp and not rec.unsuccessful:
                assert rec.t >= cfg.t_min, (
                    f"mini-batch step {rec.t:.3e} below the floor {cfg.t_min:.3e} "
                    f"at iteration {rec.k}"
                )
                mini_rows += 1
            elif rec.Nk >= n_comp and rec.accepted:
                slack = eta(rec.k, cfg.s_exp) ** 4  # the full-sample search's slack
                bound = rec.f_true - cfg.c1 * rec.t * cfg.c * rec.norm_p**2 + slack
                assert recs[k + 1].f_true <= bound + 1e-9, (
                    f"full-sample step at {rec.k} violates the re-evaluated "
                    f"line-search bound: {recs[k + 1].f_true!r} > {bound!r}"
                )
                full_rows += 1

    baseline = logistic_batch.extras["baseline"]
    bl_cfg = logistic_batch.extras["bl_cfg"]
    recs = baseline.records
    for k in range(len(recs) - 1):
        rec = recs[k]
        slack = eta(rec.k, bl_cfg.s_exp) ** 2
        bound = rec.f_true - bl_cfg.c1 * rec.t * rec.norm_p**2 + slack
        assert recs[k + 1].f_true <= bound + 1e-9, (
            f"baseline step at {rec.k} violates the re-evaluated bound"
        )
        full_rows += 1

    line = _report(12, True, f"{mini_rows} mini-batch rows at or above the step "
                             f"floor and {full_rows} full-sample rows satisfying "
                             f"the re-evaluated decrease bound, zero violations")
    assert True, line
