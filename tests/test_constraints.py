import warnings

import numpy as np
import pytest

import reference
from conftest import kkt_project, random_system

from ipas import (
    CgStalled,
    DimensionMismatch,
    RankDeficient,
    build_constraint_set,
    cg_solve,
    exact_project,
    feasibility_gap,
    inexact_project,
    projected_direction,
)


class TestBuildConstraintSet:
    def test_shapes_and_metadata(self):
        cs = random_system(3, 7, seed=0)
        assert cs.m == 3
        assert cs.n == 7
        assert cs.A.shape == (3, 7)
        assert cs.b.shape == (3,)
        assert cs.AAt.shape == (3, 3)

    def test_gram_matrix_matches_definition(self):
        cs = random_system(4, 9, seed=1)
        np.testing.assert_allclose(cs.AAt, cs.A @ cs.A.T, rtol=0, atol=1e-12)

    def test_cholesky_factor_reconstructs_gram(self):
        cs = random_system(5, 11, seed=2)
        L = np.tril(cs.chol[0])
        np.testing.assert_allclose(L @ L.T, cs.AAt, rtol=1e-10, atol=1e-10)

    def test_arrays_are_read_only(self):
        cs = random_system(2, 5, seed=3)
        with pytest.raises(ValueError):
            cs.A[0, 0] = 99.0
        with pytest.raises(ValueError):
            cs.b[0] = 99.0

    def test_duplicate_row_rejected(self):
        A = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        b = np.zeros(2)
        with pytest.raises(RankDeficient):
            build_constraint_set(A, b)

    def test_scaled_row_rejected(self):
        A = np.array([[1.0, 0.0, 2.0], [2.0, 0.0, 4.0]])
        with pytest.raises(RankDeficient):
            build_constraint_set(A, np.zeros(2))

    def test_wide_requirement(self):
        # More rows than columns can never have full row rank here.
        A = np.eye(3)[:, :2]  # 3 x 2
        with pytest.raises((RankDeficient, DimensionMismatch)):
            build_constraint_set(A, np.zeros(3))

    def test_b_length_mismatch(self):
        A = np.eye(2, 4)
        with pytest.raises(DimensionMismatch):
            build_constraint_set(A, np.zeros(3))

    def test_non_2d_A_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_constraint_set(np.zeros(4), np.zeros(2))

    def test_tiny_pivot_rejected(self):
        # A A^T = diag(1, 1e-26) factors, but its pivots 1 and 1e-13 differ
        # by more than the relative threshold.
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1e-13, 0.0]])
        with pytest.raises(RankDeficient, match="pivot ratio 1.000e-13"):
            build_constraint_set(A, np.zeros(2))

    def test_nonfinite_entries_rejected(self):
        A = np.eye(2, 4)
        A[0, 1] = np.nan
        with pytest.raises(DimensionMismatch):
            build_constraint_set(A, np.zeros(2))
        A2 = np.eye(2, 4)
        b2 = np.array([np.inf, 0.0])
        with pytest.raises(DimensionMismatch):
            build_constraint_set(A2, b2)


class TestFeasibilityGap:
    def test_zero_on_feasible_point(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 6))
        x = rng.standard_normal(6)
        cs = build_constraint_set(A, A @ x)
        assert feasibility_gap(cs, x) <= 1e-12

    def test_hand_value(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 2.0])
        cs = build_constraint_set(A, b)
        # Ax - b = (2, 2) -> norm sqrt(8)
        x = np.array([3.0, 4.0])
        assert feasibility_gap(cs, x) == pytest.approx(np.sqrt(8.0), rel=1e-15)

    def test_matches_direct_norm(self):
        cs = random_system(4, 10, seed=8)
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.standard_normal(10)
            expected = np.linalg.norm(cs.A @ y - cs.b)
            assert feasibility_gap(cs, y) == pytest.approx(expected, rel=1e-13)


    @pytest.mark.parametrize("shape", [(9,), (10, 1), ()])
    def test_wrong_shape_rejected(self, shape):
        cs = random_system(4, 10, seed=8)
        with pytest.raises(DimensionMismatch, match=r"x must have shape \(10,\)"):
            feasibility_gap(cs, np.zeros(shape))

    @pytest.mark.parametrize("size", [1e-170, 1e200])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_gap_off_the_normal_range_of_its_square(self, size):
        # ||r||^2 underflows to 0 at 1e-170 and overflows at 1e200 (with a
        # RuntimeWarning); the gap is taken at a power-of-two scaling of r.
        rng = np.random.default_rng(10)
        A = rng.standard_normal((10, 13))
        cs = build_constraint_set(A, np.zeros(10))
        v = rng.standard_normal(13)
        expected = np.linalg.norm(A @ v) * size
        assert feasibility_gap(cs, size * v) == pytest.approx(expected, rel=1e-13)


class TestExactProject:
    def test_feasible_point_is_fixed(self):
        cs = random_system(3, 8, seed=10)
        rng = np.random.default_rng(11)
        p = exact_project(cs, rng.standard_normal(8))
        np.testing.assert_allclose(exact_project(cs, p), p, rtol=0, atol=1e-10)

    def test_coordinate_pinning_example(self):
        # Constrain the first coordinate to 5; projection just overwrites it.
        A = np.array([[1.0, 0.0, 0.0]])
        b = np.array([5.0])
        cs = build_constraint_set(A, b)
        y = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(
            exact_project(cs, y), [5.0, -2.0, 3.0], rtol=0, atol=1e-14
        )

    def test_sum_constraint_example(self):
        # sum(x) = 3 over R^3: projection shifts by the mean defect.
        A = np.ones((1, 3))
        b = np.array([3.0])
        cs = build_constraint_set(A, b)
        y = np.array([1.0, 2.0, 6.0])  # sum 9, defect 6, shift -2 each
        np.testing.assert_allclose(
            exact_project(cs, y), [-1.0, 0.0, 4.0], rtol=0, atol=1e-14
        )

    def test_against_kkt_oracle(self):
        rng = np.random.default_rng(12)
        for m, n in [(1, 4), (3, 8), (7, 15), (10, 40)]:
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            cs = build_constraint_set(A, b)
            for _ in range(5):
                y = rng.standard_normal(n) * 10
                np.testing.assert_allclose(
                    exact_project(cs, y),
                    kkt_project(A, b, y),
                    rtol=1e-10,
                    atol=1e-10,
                )

    def test_result_is_feasible(self):
        cs = random_system(6, 20, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = exact_project(cs, rng.standard_normal(20) * 100)
            assert feasibility_gap(cs, p) <= 1e-9

    def test_projection_is_affine(self):
        cs = random_system(4, 12, seed=15)
        rng = np.random.default_rng(16)
        for _ in range(25):
            y1 = rng.standard_normal(12)
            y2 = rng.standard_normal(12)
            lam = rng.uniform(0.0, 1.0)
            combo = exact_project(cs, lam * y1 + (1 - lam) * y2)
            split = lam * exact_project(cs, y1) + (1 - lam) * exact_project(cs, y2)
            np.testing.assert_allclose(combo, split, rtol=0, atol=1e-9)

    def test_idempotent(self):
        cs = random_system(5, 14, seed=17)
        rng = np.random.default_rng(18)
        y = rng.standard_normal(14) * 7
        p1 = exact_project(cs, y)
        p2 = exact_project(cs, p1)
        np.testing.assert_allclose(p2, p1, rtol=0, atol=1e-10)

    def test_minimizes_distance(self):
        # The projection must beat any other feasible point for distance.
        cs = random_system(3, 9, seed=19)
        rng = np.random.default_rng(20)
        y = rng.standard_normal(9)
        p = exact_project(cs, y)
        for _ in range(20):
            other = exact_project(cs, rng.standard_normal(9))
            assert np.linalg.norm(y - p) <= np.linalg.norm(y - other) + 1e-12


class TestCgSolve:
    def test_identity_system(self):
        rhs = np.array([1.0, -2.0, 3.0])
        x, res, iters = cg_solve(np.eye(3), rhs, tol_abs=1e-12, max_iter=30)
        np.testing.assert_allclose(x, rhs, rtol=0, atol=1e-12)
        assert res <= 1e-12
        assert iters == 1

    def test_zero_rhs_short_circuits(self):
        x, res, iters = cg_solve(2 * np.eye(4), np.zeros(4), tol_abs=1e-10, max_iter=10)
        assert iters == 0
        assert res == 0.0
        np.testing.assert_array_equal(x, np.zeros(4))

    def test_diagonal_system(self):
        d = np.array([1.0, 4.0, 9.0, 16.0])
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        x, res, _ = cg_solve(np.diag(d), rhs, tol_abs=1e-12, max_iter=50)
        np.testing.assert_allclose(x, rhs / d, rtol=1e-10, atol=1e-12)
        assert res <= 1e-12

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(21)
        for k in range(5):
            dim = 6 + k
            M = rng.standard_normal((dim, dim))
            S = M @ M.T + dim * np.eye(dim)
            rhs = rng.standard_normal(dim)
            x, res, iters = cg_solve(S, rhs, tol_abs=1e-11, max_iter=200)
            np.testing.assert_allclose(x, np.linalg.solve(S, rhs), rtol=1e-7, atol=1e-9)
            assert res <= 1e-11
            assert 1 <= iters <= 200

    def test_reported_residual_is_true_residual(self):
        rng = np.random.default_rng(22)
        M = rng.standard_normal((8, 8))
        S = M @ M.T + 8 * np.eye(8)
        rhs = rng.standard_normal(8)
        x, res, _ = cg_solve(S, rhs, tol_abs=1e-3, max_iter=100)
        assert np.linalg.norm(rhs - S @ x) == pytest.approx(res, rel=1e-9, abs=1e-15)
        assert res <= 1e-3

    def test_loose_tolerance_uses_fewer_iterations(self):
        rng = np.random.default_rng(23)
        M = rng.standard_normal((30, 30))
        S = M @ M.T + 0.5 * np.eye(30)
        rhs = rng.standard_normal(30)
        _, _, it_loose = cg_solve(S, rhs, tol_abs=1e-1, max_iter=500)
        _, _, it_tight = cg_solve(S, rhs, tol_abs=1e-10, max_iter=500)
        assert it_loose < it_tight

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(24)
        M = rng.standard_normal((40, 40))
        S = M @ M.T + 1e-8 * np.eye(40)
        rhs = rng.standard_normal(40)
        with pytest.raises(CgStalled) as exc:
            cg_solve(S, rhs, tol_abs=1e-14, max_iter=3)
        assert exc.value.iterations == 3
        assert exc.value.residual_norm > 1e-14

    def test_indefinite_operator_raises(self):
        S = np.diag([1.0, -1.0])
        rhs = np.array([0.3, 1.0])
        with pytest.raises(CgStalled):
            cg_solve(S, rhs, tol_abs=1e-12, max_iter=50)

    @staticmethod
    def gram_and_direction():
        rng = np.random.default_rng(25)
        A = rng.standard_normal((10, 13))
        return A @ A.T, rng.standard_normal(10)

    @pytest.mark.parametrize("rel", [1e-2, 1e-10])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_power_of_two_scaling_is_exact(self, rel):
        # The norm of 2^510 d squares past the float range (with a
        # RuntimeWarning) and is solved at a power-of-two scaling; 2^490 d
        # is solved as it is.  The two solves agree to the scaling, bit for
        # bit.
        S, d = self.gram_and_direction()
        tol = rel * np.linalg.norm(d)
        hi = cg_solve(S, 2.0**510 * d, 2.0**510 * tol, 100)
        lo = cg_solve(S, 2.0**490 * d, 2.0**490 * tol, 100)
        assert same_bits(hi[0], lo[0] * 2.0**20)
        assert hi[1:] == (lo[1] * 2.0**20, lo[2])
        assert lo[2] > 0

    @pytest.mark.parametrize("size", [1e153, 1e154])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_finite_rhs_is_solved(self, size):
        # Solved unscaled, p^T A p overflows at 1e153 ("not SPD") and r.r
        # at 1e154 ("right-hand side norm inf").
        S, d = self.gram_and_direction()
        x, res, iters = cg_solve(S, size * d, 1e-10 * size, 100)
        assert 0 < iters <= 100
        assert 0.0 < res <= 1e-10 * size
        assert np.linalg.norm(S @ (x / size) - d) <= 2e-10

    def test_tiny_rhs_converges_to_its_tolerance(self):
        # ||1e-170 d||^2 underflows to 0: solved unscaled, it would read as
        # an exact solution at iteration 0 whatever the tolerance.
        S, d = self.gram_and_direction()
        x, res, iters = cg_solve(S, 1e-170 * d, 1e-180, 100)
        assert iters > 0
        assert 0.0 < res <= 1e-180
        assert np.linalg.norm(S @ (x * 1e170) - d) * 1e-170 == pytest.approx(res, rel=1e-6)
        # A tolerance below roundoff at that scale stalls, in the caller's units.
        with pytest.raises(CgStalled, match=r"tolerance 1\.000e-200 in 100 iterations") as err:
            cg_solve(S, 1e-170 * d, 1e-200, 100)
        assert 1e-200 < err.value.residual_norm < 1e-180


class TestInexactProject:
    def test_tight_tolerance_matches_exact(self):
        for m, n, seed in [(3, 8, 30), (5, 20, 31), (50, 200, 32)]:
            cs = random_system(m, n, seed)
            rng = np.random.default_rng(seed + 100)
            y = rng.standard_normal(n) * 5
            result = inexact_project(cs, y, eta=1e-12)
            np.testing.assert_allclose(
                result.point, exact_project(cs, y), rtol=1e-8, atol=1e-8
            )
            assert result.residual_norm <= 1e-12

    def test_residual_equals_feasibility_gap(self):
        # The reported residual is the feasibility gap of the returned point
        # bit for bit, which is why the solver never recomputes it.
        for eta in (1e-2, 1e-5, 1e-9):
            cs = random_system(6, 25, seed=33)
            rng = np.random.default_rng(34)
            y = rng.standard_normal(25) * 3
            result = inexact_project(cs, y, eta=eta)
            assert result.residual_norm == feasibility_gap(cs, result.point)
            assert result.residual_norm <= eta

    @pytest.mark.parametrize("a_scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("y_scale", [1e-6, 1.0, 1e6])
    def test_residual_equals_feasibility_gap_ill_scaled(self, a_scale, y_scale):
        rng = np.random.default_rng(35)
        A = rng.standard_normal((6, 25)) * (a_scale * 10.0 ** rng.uniform(-1, 1, size=(6, 1)))
        cs = build_constraint_set(A, A @ rng.standard_normal(25))
        y = rng.standard_normal(25) * y_scale
        rhs_norm = feasibility_gap(cs, y)
        for rel in (1e-2, 1e-6):
            result = inexact_project(cs, y, eta=rel * rhs_norm)
            assert result.residual_norm == feasibility_gap(cs, result.point)

    def test_feasible_input_costs_nothing(self):
        cs = random_system(4, 10, seed=35)
        x = exact_project(cs, np.zeros(10))
        result = inexact_project(cs, x, eta=1e-8)
        assert result.cg_iterations == 0
        np.testing.assert_array_equal(result.point, x)

    def test_looser_tolerance_cheaper(self):
        cs = random_system(40, 120, seed=36)
        rng = np.random.default_rng(37)
        y = rng.standard_normal(120) * 10
        loose = inexact_project(cs, y, eta=1e-1)
        tight = inexact_project(cs, y, eta=1e-10)
        assert loose.cg_iterations < tight.cg_iterations
        assert loose.residual_norm <= 1e-1
        assert tight.residual_norm <= 1e-10

    def test_error_bounded_by_conditioning(self):
        # || exact - inexact || <= ||A^T (A A^T)^{-1}||_2 * residual, with the
        # operator norm estimated by power iteration on (A A^T)^{-1}.
        cs = random_system(8, 30, seed=40)
        rng = np.random.default_rng(41)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        for _ in range(300):
            w = np.linalg.solve(cs.AAt, v)
            v = w / np.linalg.norm(w)
        lam_max = float(v @ np.linalg.solve(cs.AAt, v))
        op_norm = np.sqrt(lam_max)

        y = rng.standard_normal(30) * 4
        for eta in (1e-2, 1e-4, 1e-6):
            result = inexact_project(cs, y, eta=eta)
            err = np.linalg.norm(exact_project(cs, y) - result.point)
            assert err <= op_norm * result.residual_norm * (1 + 1e-6) + 1e-12

    def test_invalid_eta_rejected(self):
        cs = random_system(2, 5, seed=42)
        with pytest.raises(ValueError):
            inexact_project(cs, np.zeros(5), eta=0.0)
        with pytest.raises(ValueError):
            inexact_project(cs, np.zeros(5), eta=-1e-3)
        # NaN fails every comparison; it must not run CG to its cap.
        with pytest.raises(ValueError, match="eta must be positive, got nan"):
            inexact_project(cs, np.ones(5), eta=float("nan"))

    @pytest.mark.parametrize("shape", [(4,), (5, 1), ()])
    def test_wrong_shape_rejected(self, shape):
        cs = random_system(2, 5, seed=42)
        with pytest.raises(DimensionMismatch, match=r"y must have shape \(5,\)"):
            inexact_project(cs, np.zeros(shape), eta=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_stops_cg_at_iteration_zero(self, bad):
        # A non-finite y makes A y - b non-finite: CG names the right-hand
        # side before it applies the operator, and nothing warns.
        cs = random_system(3, 7, seed=43)
        y = np.zeros(7)
        y[2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CgStalled, match="right-hand side norm .* is not finite") as err:
                inexact_project(cs, y, eta=1e-3)
        assert err.value.iterations == 0
        M = _CountingMatrix(cs.AAt)
        with pytest.raises(CgStalled, match="right-hand side"):
            cg_solve(M, cs.A @ y - cs.b, 1e-3, 30)
        assert M.calls == 0

    def test_stall_on_extreme_conditioning(self):
        # Rows nearly parallel: Gram matrix nearly singular, CG cannot hit a
        # tiny absolute tolerance within 10*m iterations.
        A = np.vstack([np.ones(400), np.ones(400) + 1e-9 * np.arange(400)])
        b = np.array([1.0, 1.0])
        cs = build_constraint_set(A, b)
        y = np.full(400, 17.3)
        with pytest.raises(CgStalled):
            inexact_project(cs, y, eta=1e-15)


class TestProjectedDirection:
    def test_hand_example(self):
        # Pin x_0 = 0; gradient step leaves the plane, projection re-pins it.
        A = np.array([[1.0, 0.0]])
        b = np.array([0.0])
        cs = build_constraint_set(A, b)
        x = np.array([0.0, 0.0])
        g = np.array([1.0, 1.0])
        d = projected_direction(cs, x, g)
        np.testing.assert_allclose(d, [0.0, -1.0], rtol=0, atol=1e-14)

    def test_zero_gradient_gives_zero_direction(self):
        cs = random_system(3, 7, seed=50)
        x = exact_project(cs, np.zeros(7))
        d = projected_direction(cs, x, np.zeros(7))
        assert np.linalg.norm(d) <= 1e-12

    def test_direction_stays_in_nullspace(self):
        cs = random_system(4, 11, seed=51)
        rng = np.random.default_rng(52)
        x = exact_project(cs, rng.standard_normal(11))
        g = rng.standard_normal(11)
        d = projected_direction(cs, x, g)
        assert np.linalg.norm(cs.A @ d) <= 1e-10

    def test_columns_match_one_point_at_a_time(self):
        # K points as columns share one solve; it sums in another order
        # than the one-point path, so the two agree to rounding.
        cs = random_system(4, 11, seed=54)
        rng = np.random.default_rng(55)
        X = rng.standard_normal((11, 5))
        G = rng.standard_normal((11, 5))
        D = projected_direction(cs, X, G)
        assert D.shape == (11, 5)
        for j in range(5):
            np.testing.assert_allclose(
                D[:, j], projected_direction(cs, X[:, j], G[:, j]), rtol=0, atol=1e-12
            )
        with pytest.raises(DimensionMismatch):
            projected_direction(cs, X, G[:, :4])
        with pytest.raises(DimensionMismatch):
            exact_project(cs, X[:, :, None])

    def test_descent_inequality(self):
        # g . d <= -||d||^2 holds for projections onto affine sets.
        rng = np.random.default_rng(53)
        for seed in range(10):
            cs = random_system(3, 9, seed=60 + seed)
            x = exact_project(cs, rng.standard_normal(9))
            g = rng.standard_normal(9) * 5
            d = projected_direction(cs, x, g)
            assert float(g @ d) <= -float(d @ d) + 1e-10


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class _CountingMatrix:
    """An SPD matrix that counts the products cg_solve takes with it."""

    def __init__(self, S):
        self.S = S
        self.calls = 0

    def dot(self, v, out=None):
        self.calls += 1
        return self.S.dot(v, out)


class TestMatchesReference:
    """The lean cg_solve and the direct LAPACK exact_project against their
    reference forms in tests/reference.py, bit for bit."""

    @staticmethod
    def _outcome(solve, *args):
        try:
            x, res, iters = solve(*args)
        except CgStalled as exc:
            return ("stalled", str(exc), exc.residual_norm, exc.iterations)
        return ("solved", x.tobytes(), res, iters)

    @pytest.mark.parametrize("m", [4, 10, 100])
    def test_cg_solve_bits(self, m):
        # Gram matrices of random wide matrices, like A A^T in the solver.
        # Right-hand sides span 1e-8 to 1e3; the relative tolerances run down
        # to roundoff, where the recurrence residual passes the test but the
        # true residual does not and CG restarts from it, or stalls.  The
        # unit draws are also scaled to 1e-150, where the squared residual
        # norms fall below the normal range, and to 1e150, where they near
        # its top and the tightest tolerances stall.
        rng = np.random.default_rng(m)
        restarts = 0
        stalls = {}
        for _ in range(3 if m == 100 else 12):
            A = rng.standard_normal((m, m + 3))
            S = A @ A.T
            for scale in (1e-8, 1e-3, 1.0, 1e3):
                draw = rng.standard_normal(m)
                for size in (scale, 1e-150, 1e150) if scale == 1.0 else (scale,):
                    rhs = size * draw
                    rhs_norm = float(np.linalg.norm(rhs))
                    for rel in (1e-2, 1e-8, 1e-13, 1e-15):
                        tol = rel * rhs_norm
                        ref_calls = [0]

                        def counted(v):
                            ref_calls[0] += 1
                            return S @ v

                        expected = self._outcome(reference.cg_solve, counted, rhs, tol, 10 * m)
                        M = _CountingMatrix(S)
                        outcome = self._outcome(cg_solve, M, rhs, tol, 10 * m)
                        assert outcome == expected, (size, rel)
                        assert M.calls == ref_calls[0]
                        if expected[0] == "solved":
                            # One apply per iteration plus one per true-residual check.
                            restarts += ref_calls[0] - expected[3] - 1
                        else:
                            stalls[size] = stalls.get(size, 0) + 1
        assert restarts > 0
        assert stalls.get(1e150, 0) > 0, stalls

    @pytest.mark.parametrize("m", [4, 10, 100])
    def test_inexact_project_bits(self, m):
        cs = random_system(m, m + 10, seed=80 + m)
        rng = np.random.default_rng(81)
        for scale in (1e-8, 1.0, 1e3):
            y = scale * rng.standard_normal(m + 10)
            for eta in (1e-1, 1e-6, 1e-10):
                rhs = cs.A @ y - cs.b
                try:
                    lam, _, iters = reference.cg_solve(cs.AAt.__matmul__, rhs, eta, 10 * m)
                except CgStalled:
                    with pytest.raises(CgStalled):
                        inexact_project(cs, y, eta)
                    continue
                point = y - cs.A.T @ lam
                result = inexact_project(cs, y, eta)
                assert same_bits(result.point, point)
                assert result.residual_norm == float(np.linalg.norm(cs.A @ point - cs.b))
                assert result.cg_iterations == iters
                assert feasibility_gap(cs, point) == result.residual_norm

    @pytest.mark.parametrize("m", [4, 10, 100])
    @pytest.mark.parametrize("K", [None, 1, 7, 64])
    def test_exact_project_bits(self, m, K):
        cs = random_system(m, m + 10, seed=90 + m)
        rng = np.random.default_rng(91)
        shape = (m + 10,) if K is None else (m + 10, K)
        for scale in (1e-8, 1e-3, 1.0, 1e3):
            y = scale * rng.standard_normal(shape)
            assert same_bits(exact_project(cs, y), reference.exact_project(cs, y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("K", [None, 3])
    def test_exact_project_rejects_non_finite_input(self, bad, K):
        cs = random_system(3, 7, seed=95)
        y = np.zeros(7) if K is None else np.zeros((7, K))
        y[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            reference.exact_project(cs, y)
        with pytest.raises(ValueError, match="infs or NaNs"):
            exact_project(cs, y)
