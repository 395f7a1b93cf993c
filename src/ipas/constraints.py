"""Linear equality constraints and projections onto them.

A constraint set is the affine subspace {x : A x = b} for a full row rank
A of shape (m, n), m <= n.  Both projections solve the normal system
A A^T lam = A y - b with a Cholesky factor of A A^T, cached when the set is
built.  The exact one always solves; the inexact one, the workhorse of the
solver, returns y itself when its gap ||A y - b|| is already within the
tolerance, so its iterates may stay infeasible by that much.  The exact
projection doubles as the solver's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonFiniteValue, RankDeficient

# Relative pivot threshold below which A A^T is treated as rank deficient.
_PIVOT_RTOL = 1e-12

# Norms whose squares stay normal with room to spare on either side.  A
# vector norm outside this range is taken at a power-of-two scaling.
_NORM_MIN = 2.0**-500
_NORM_MAX = 2.0**500

# LAPACK's float64 triangular solve with a Cholesky factor, the routine
# scipy.linalg.cho_solve dispatches to, fetched once: on the m x m systems
# here cho_solve's argument checks and lookup cost about ten times the solve.
_POTRS = scipy.linalg.get_lapack_funcs("potrs", (np.empty((1, 1)),))


@dataclass(frozen=True)
class ConstraintSet:
    """Validated constraint data with cached factorisations.

    Attributes
    ----------
    A : (m, n) constraint matrix, full row rank.
    b : (m,) right-hand side.
    chol : Cholesky factorisation of A A^T as returned by scipy's cho_factor.
    """

    A: np.ndarray
    b: np.ndarray
    chol: tuple

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of an inexact projection.

    ``residual_norm`` is the feasibility gap ||A point - b|| of the returned
    point, computed by the same expression as feasibility_gap, so the two
    agree bit for bit and callers need not recompute it.  ``cg_iterations``
    counts the projection's solves, 0 or 1 (see BudgetMeter for the name).
    """

    point: np.ndarray
    residual_norm: float
    cg_iterations: int


def build_constraint_set(A: np.ndarray, b: np.ndarray) -> ConstraintSet:
    """Validate (A, b) and cache the Cholesky factorisation of A A^T.

    Raises DimensionMismatch for inconsistent shapes and RankDeficient when
    the factorisation breaks down or its smallest pivot falls below
    1e-12 times the largest.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"A must be 2-D, got ndim={A.ndim}")
    m, n = A.shape
    if m < 1 or n < m:
        raise DimensionMismatch(f"need 1 <= m <= n, got m={m}, n={n}")
    if b.shape != (m,):
        raise DimensionMismatch(f"b must have shape ({m},), got {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise DimensionMismatch("A and b must be finite")

    try:
        chol = scipy.linalg.cho_factor(A @ A.T, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficient(f"Cholesky of A A^T failed: {exc}") from exc
    pivots = np.diag(chol[0])
    if pivots.min() < _PIVOT_RTOL * pivots.max():
        raise RankDeficient(
            "A A^T is numerically rank deficient "
            f"(pivot ratio {pivots.min() / pivots.max():.3e})"
        )

    A.setflags(write=False)
    b.setflags(write=False)
    return ConstraintSet(A=A, b=b, chol=chol)


def feasibility_gap(cs: ConstraintSet, x: np.ndarray) -> float:
    """Euclidean norm of the constraint violation, ||A x - b||."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cs.n,):
        raise DimensionMismatch(f"x must have shape ({cs.n},), got {x.shape}")
    return _gap(cs, x)


def _gap(cs: ConstraintSet, x: np.ndarray) -> float:
    """||A x - b|| for a validated float x; the one expression of the gap."""
    return _norm(cs.A.dot(x) - cs.b)


def _norm(r: np.ndarray) -> float:
    """sqrt(r.r), taken at r / 2^e when it lies outside [_NORM_MIN, _NORM_MAX].

    2^e is the binary exponent of r's largest entry, so the squares neither
    overflow nor leave the normal range, and the scaling is exact; a zero or
    non-finite r is left unscaled, and a norm past the float range is inf.
    """
    norm = math.sqrt(float(r.dot(r)))
    if _NORM_MIN <= norm <= _NORM_MAX:
        return norm
    big = float(np.abs(r).max(initial=0.0))
    if not 0.0 < big < math.inf:
        return norm
    e = math.frexp(big)[1]
    r = np.ldexp(r, -e)
    try:
        return math.ldexp(math.sqrt(float(r.dot(r))), e)
    except OverflowError:
        return math.inf


def exact_project(cs: ConstraintSet, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection of y onto {x : A x = b} via the cached factorisation.

    y is one point of shape (n,) or K points as the columns of an (n, K)
    array, which share one solve with K right-hand sides.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[:1] != (cs.n,) or y.ndim > 2:
        raise DimensionMismatch(f"y must have shape ({cs.n},) or ({cs.n}, K), got {y.shape}")
    rhs = cs.A.dot(y) - (cs.b if y.ndim == 1 else cs.b[:, None])
    # What cho_solve checks of the right-hand side; the factor was checked
    # when the constraint set was built.
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    return y - cs.A.T.dot(_solve(cs, rhs))


def _solve(cs: ConstraintSet, rhs: np.ndarray) -> np.ndarray:
    """lam with A A^T lam = rhs by the cached factor, in one LAPACK call that may overwrite rhs."""
    c, lower = cs.chol
    lam, info = _POTRS(c, rhs, lower=lower, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return lam


def min_norm_feasible(cs: ConstraintSet) -> np.ndarray:
    """The minimum-norm point of {x : A x = b}: the projection of the origin."""
    return exact_project(cs, np.zeros(cs.n))


def inexact_project(cs: ConstraintSet, y: np.ndarray, eta: float) -> ProjectionResult:
    """Projection of y to within eta of the constraints: y itself, or y projected exactly.

    The gap r = A y - b is computed once.  When ||r|| <= eta, y itself is
    returned with 0 solves.  Otherwise A A^T lam = r is solved with the
    cached factor, as exact_project solves it, and y - A^T lam is returned,
    the bits of exact_project(cs, y), with 1 solve.  The reported residual
    norm is the feasibility gap of the returned point.  A non-finite gap
    raises NonFiniteValue before any solve.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cs.n,):
        raise DimensionMismatch(f"y must have shape ({cs.n},), got {y.shape}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    r = cs.A.dot(y) - cs.b
    gap = _norm(r)
    if not gap < math.inf:
        raise NonFiniteValue(f"feasibility gap {gap!r} of the point to project is not finite")
    if gap <= eta:
        return ProjectionResult(point=y, residual_norm=gap, cg_iterations=0)
    point = y - cs.A.T.dot(_solve(cs, r))
    return ProjectionResult(point=point, residual_norm=_gap(cs, point), cg_iterations=1)


def projected_direction(cs: ConstraintSet, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exact projected-gradient direction: project(x - g) - x.

    At a feasible x this equals minus the orthogonal projection of g onto
    the null space of A, so its inner product with g is -||d||^2.  A zero
    direction certifies first-order stationarity of x for any objective
    with gradient g.  This uses the exact projection and serves as the
    reference metric; the solver's own steps use the inexact variant.
    x and g may also hold K points and their gradients as the columns of
    (n, K) arrays; the result then has one direction per column.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape != x.shape or g.shape[:1] != (cs.n,):
        raise DimensionMismatch(
            f"g must have the shape of x, ({cs.n},) or ({cs.n}, K), got {g.shape}"
        )
    return exact_project(cs, x - g) - x

