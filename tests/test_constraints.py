import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import reference
from conftest import kkt_project, random_system

from ipas import (
    BudgetMeter,
    DimensionMismatch,
    InvariantViolation,
    NonFiniteValue,
    RankDeficient,
    SolverState,
    build_constraint_set,
    exact_project,
    feasibility_gap,
    inexact_project,
    projected_direction,
)
from ipas.constraints import _solve
from ipas.solver import _project


class TestBuildConstraintSet:
    def test_shapes_and_metadata(self):
        cs = random_system(3, 7, seed=0)
        assert cs.m == 3
        assert cs.n == 7
        assert cs.A.shape == (3, 7)
        assert cs.b.shape == (3,)

    def test_cholesky_factor_reconstructs_gram(self):
        cs = random_system(5, 11, seed=2)
        L = np.tril(cs.chol[0])
        np.testing.assert_allclose(L @ L.T, cs.A @ cs.A.T, rtol=1e-10, atol=1e-10)

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


class TestFactoredSolve:
    """The one solve of A A^T lam = rhs with the cached factor (_solve) that
    both projections make, and the projection at scales where the squared
    gap leaves the float range."""

    @staticmethod
    def padded(rows):
        # A = [diag(rows) | 0]: A A^T = diag(rows^2), factored exactly.
        m = len(rows)
        A = np.hstack([np.diag(rows), np.zeros((m, 2))])
        return build_constraint_set(A, np.zeros(m))

    def test_identity_system(self):
        cs = self.padded([1.0, 1.0, 1.0])
        rhs = np.array([1.0, -2.0, 3.0])
        assert same_bits(_solve(cs, rhs.copy()), rhs)

    def test_zero_rhs_gives_zero(self):
        cs = random_system(4, 9, seed=20)
        assert same_bits(_solve(cs, np.zeros(4)), np.zeros(4))

    def test_diagonal_system(self):
        cs = self.padded([1.0, 2.0, 3.0, 4.0])
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(
            _solve(cs, rhs.copy()), rhs / np.array([1.0, 4.0, 9.0, 16.0]), rtol=1e-15, atol=0
        )

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(21)
        for k in range(5):
            m = 6 + k
            cs = random_system(m, m + 4, seed=21 + k)
            rhs = rng.standard_normal(m)
            np.testing.assert_allclose(
                _solve(cs, rhs.copy()), np.linalg.solve(cs.A @ cs.A.T, rhs), rtol=1e-9, atol=1e-12
            )

    def test_residual_is_at_roundoff(self):
        rng = np.random.default_rng(22)
        cs = random_system(8, 12, seed=22)
        rhs = rng.standard_normal(8)
        lam = _solve(cs, rhs.copy())
        assert np.linalg.norm(cs.A @ cs.A.T @ lam - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_caller_arrays_and_factor_are_untouched(self):
        # _solve may overwrite its right-hand side; the projections pass it
        # one of their own, so y, A, b and the cached factor keep their bits.
        cs = random_system(5, 11, seed=23)
        rng = np.random.default_rng(23)
        factor, A, b = cs.chol[0].copy(), cs.A.copy(), cs.b.copy()
        for _ in range(5):
            y = 10.0 * rng.standard_normal(11)
            kept = y.copy()
            inexact_project(cs, y, eta=1e-12)
            exact_project(cs, y)
            assert same_bits(y, kept)
        assert same_bits(cs.chol[0], factor)
        assert same_bits(cs.A, A) and same_bits(cs.b, b)

    @pytest.mark.parametrize("e", [-565, -510, 510])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_power_of_two_scaling_is_exact(self, e):
        # At 2^510 the squared gap overflows (with a RuntimeWarning) and at
        # 2^-565 it underflows; the gap is taken at a power-of-two scaling,
        # and the projection at 2^e y is 2^e times the one at y, bit for bit.
        rng = np.random.default_rng(25)
        A = rng.standard_normal((10, 13))
        cs = build_constraint_set(A, np.zeros(10))
        y = rng.standard_normal(13)
        one = inexact_project(cs, y, eta=1e-10)
        scaled = inexact_project(cs, np.ldexp(y, e), eta=math.ldexp(1e-10, e))
        assert one.cg_iterations == scaled.cg_iterations == 1
        assert same_bits(scaled.point, np.ldexp(one.point, e))
        assert scaled.residual_norm == math.ldexp(one.residual_norm, e) > 0.0
        assert same_bits(_solve(cs, np.ldexp(A @ y, e)), np.ldexp(_solve(cs, A @ y), e))

    @pytest.mark.parametrize("size", [1e153, 1e154])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_finite_point_is_projected(self, size):
        # The gap of size * y squares past the float range; it is still read
        # as a finite number, and the projection solves.
        rng = np.random.default_rng(26)
        cs = build_constraint_set(rng.standard_normal((10, 13)), np.zeros(10))
        y = rng.standard_normal(13)
        result = inexact_project(cs, size * y, eta=1e-10 * size)
        assert result.cg_iterations == 1
        assert np.isfinite(result.point).all()
        assert 0.0 < result.residual_norm <= 1e-10 * size
        assert result.residual_norm == feasibility_gap(cs, result.point)
        assert np.linalg.norm(cs.A @ (result.point / size)) <= 1e-13

    def test_tiny_gap_is_not_read_as_zero(self):
        # ||1e-170 r||^2 underflows to 0: read unscaled, the point would pass
        # for one within any eta and come back unprojected.
        rng = np.random.default_rng(27)
        cs = build_constraint_set(rng.standard_normal((10, 13)), np.zeros(10))
        y = 1e-170 * rng.standard_normal(13)
        assert float((cs.A @ y).dot(cs.A @ y)) == 0.0
        result = inexact_project(cs, y, eta=1e-200)
        assert result.cg_iterations == 1
        assert same_bits(result.point, exact_project(cs, y))
        assert 0.0 < result.residual_norm < 1e-180

    def test_eta_just_below_the_gap_solves(self):
        cs = random_system(6, 14, seed=28)
        y = np.random.default_rng(28).standard_normal(14)
        gap = feasibility_gap(cs, y)
        assert inexact_project(cs, y, eta=gap).cg_iterations == 0
        below = inexact_project(cs, y, eta=math.nextafter(gap, 0.0))
        assert below.cg_iterations == 1
        assert same_bits(below.point, exact_project(cs, y))


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

    @pytest.mark.parametrize("m", [4, 10, 100])
    def test_a_point_within_eta_is_returned_itself(self, m):
        # Infeasible, but by less than eta: no solve, and the very array y
        # comes back with its own gap.
        cs = random_system(m, m + 10, seed=36)
        rng = np.random.default_rng(37)
        x = exact_project(cs, rng.standard_normal(m + 10))
        y = x + 1e-3 * rng.standard_normal(m + 10)
        gap = feasibility_gap(cs, y)
        assert gap > 1e-6
        for eta in (gap, 2.0 * gap, 1.0):
            result = inexact_project(cs, y, eta=eta)
            assert result.point is y
            assert (result.residual_norm, result.cg_iterations) == (gap, 0)

    def test_error_bounded_by_conditioning(self):
        # || exact - inexact || <= ||A^T (A A^T)^{-1}||_2 * residual, with the
        # operator norm estimated by power iteration on (A A^T)^{-1}.
        cs = random_system(8, 30, seed=40)
        rng = np.random.default_rng(41)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        gram = cs.A @ cs.A.T
        for _ in range(300):
            w = np.linalg.solve(gram, v)
            v = w / np.linalg.norm(w)
        lam_max = float(v @ np.linalg.solve(gram, v))
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
        # NaN fails every comparison; it must not pass for a tolerance.
        with pytest.raises(ValueError, match="eta must be positive, got nan"):
            inexact_project(cs, np.ones(5), eta=float("nan"))

    @pytest.mark.parametrize("shape", [(4,), (5, 1), ()])
    def test_wrong_shape_rejected(self, shape):
        cs = random_system(2, 5, seed=42)
        with pytest.raises(DimensionMismatch, match=r"y must have shape \(5,\)"):
            inexact_project(cs, np.zeros(shape), eta=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises_before_any_solve(self, bad, monkeypatch):
        # A non-finite y makes its gap non-finite, whatever eta is: the
        # projection names the gap before it solves, and nothing warns.
        cs = random_system(3, 7, seed=43)
        y = np.zeros(7)
        y[2] = bad

        def no_solve(*args):
            raise AssertionError("solved a non-finite right-hand side")

        monkeypatch.setattr("ipas.constraints._POTRS", no_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta in (1e-3, float("inf")):
                with pytest.raises(NonFiniteValue, match=r"gap (nan|inf) .* not finite"):
                    inexact_project(cs, y, eta=eta)

    def test_extreme_conditioning_reports_the_true_gap(self):
        # Rows nearly parallel: A A^T is nearly singular, and the exactly
        # projected point misses a tiny absolute tolerance by its rounding.
        # The projection reports the gap it reached, and _project, which
        # holds every projection of a run to eta_k, raises.
        A = np.vstack([np.ones(400), np.ones(400) + 1e-9 * np.arange(400)])
        b = np.array([1.0, 1.0])
        cs = build_constraint_set(A, b)
        y = np.full(400, 17.3)
        result = inexact_project(cs, y, eta=1e-15)
        assert result.cg_iterations == 1
        assert result.residual_norm == feasibility_gap(cs, result.point) > 1e-15
        assert same_bits(result.point, exact_project(cs, y))
        state = SolverState(
            x=y, k=0, Nk=1, rng=np.random.default_rng(0), meter=BudgetMeter(), e_x=0.0
        )
        with pytest.raises(InvariantViolation, match="projection residual .* exceeds"):
            _project(state, cs, y, 1e-15)
        assert (state.projections_checked, state.meter.scalar_products) == (0, 0)


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


class TestMatchesReference:
    """The factored inexact projection against exact_project, and the direct
    LAPACK exact_project against its reference form in tests/reference.py,
    bit for bit."""

    @pytest.mark.parametrize("m", [4, 10, 100])
    def test_inexact_project_bits(self, m):
        # Every gap here exceeds eta, so each call makes its one solve.
        cs = random_system(m, m + 10, seed=80 + m)
        rng = np.random.default_rng(81)
        for scale in (1e-8, 1.0, 1e3):
            y = scale * rng.standard_normal(m + 10)
            for eta in (1e-1, 1e-6, 1e-10):
                assert feasibility_gap(cs, y) > eta
                point = exact_project(cs, y)
                result = inexact_project(cs, y, eta)
                assert same_bits(result.point, point)
                assert result.cg_iterations == 1
                assert result.residual_norm == feasibility_gap(cs, point)

    @pytest.mark.parametrize("m", [4, 10, 100])
    @pytest.mark.parametrize("K", [None, 7])
    def test_solve_bits(self, m, K):
        # The direct potrs call against scipy.linalg.cho_solve with the same
        # factor, for right-hand sides from 1e-150 to 1e150.
        cs = random_system(m, m + 3, seed=70 + m)
        rng = np.random.default_rng(71)
        shape = (m,) if K is None else (m, K)
        for size in (1e-150, 1e-8, 1e-3, 1.0, 1e3, 1e150):
            rhs = size * rng.standard_normal(shape)
            expected = scipy.linalg.cho_solve(cs.chol, rhs)
            assert same_bits(_solve(cs, rhs.copy()), expected), size

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
