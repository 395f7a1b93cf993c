"""Linear equality constraints and projections onto them.

A constraint set is the affine subspace {x : A x = b} for a full row rank
A of shape (m, n), m <= n.  Projections come in two flavours: an exact one
through a cached Cholesky factorisation of A A^T, and an inexact one that
solves the same normal system with conjugate gradients stopped at an
absolute residual tolerance.  The inexact projection is the workhorse of
the solver; the exact one doubles as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CgStalled, DimensionMismatch, RankDeficient

# Relative pivot threshold below which A A^T is treated as rank deficient.
_PIVOT_RTOL = 1e-12

# CG iteration cap, as a multiple of the system size m.
_CG_MAX_ITER_FACTOR = 10

# Norms whose squares stay normal with a factor 2^22 to spare on either
# side, room for the curvature p^T M p of an SPD M of moderate scale.  A
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
    AAt : (m, m) cached Gram matrix A A^T.
    chol : Cholesky factorisation of AAt as returned by scipy's cho_factor.
    """

    A: np.ndarray
    b: np.ndarray
    AAt: np.ndarray
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
    agree bit for bit and callers need not recompute it.
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

    AAt = A @ A.T
    try:
        chol = scipy.linalg.cho_factor(AAt, lower=True)
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
    AAt.setflags(write=False)
    return ConstraintSet(A=A, b=b, AAt=AAt, chol=chol)


def feasibility_gap(cs: ConstraintSet, x: np.ndarray) -> float:
    """Euclidean norm of the constraint violation, ||A x - b||."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cs.n,):
        raise DimensionMismatch(f"x must have shape ({cs.n},), got {x.shape}")
    return _gap(cs, x)


def _gap(cs: ConstraintSet, x: np.ndarray) -> float:
    """||A x - b|| for a validated float x; the one expression of the gap.

    sqrt(r.r), taken at r / 2^e as cg_solve takes a right-hand side whose
    norm lies outside [_NORM_MIN, _NORM_MAX].
    """
    r = cs.A.dot(x) - cs.b
    norm = math.sqrt(float(r.dot(r)))
    if not _NORM_MIN <= norm <= _NORM_MAX and (e := _exponent(r)):
        r = np.ldexp(r, -e)
        norm = _ldexp(math.sqrt(float(r.dot(r))), e)
    return norm


def _exponent(v: np.ndarray) -> int:
    """e with 0.5 <= max|v| / 2^e < 1; 0 for a zero or non-finite v, left unscaled."""
    big = float(np.abs(v).max(initial=0.0))
    return math.frexp(big)[1] if 0.0 < big < math.inf else 0


def _ldexp(v: float, e: int) -> float:
    """v * 2^e, exact in the normal range; inf where it overflows."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


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
    c, lower = cs.chol
    lam, info = _POTRS(c, rhs, lower=lower, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return y - cs.A.T.dot(lam)


def min_norm_feasible(cs: ConstraintSet) -> np.ndarray:
    """The minimum-norm point of {x : A x = b}: the projection of the origin."""
    return exact_project(cs, np.zeros(cs.n))


def cg_solve(
    M: np.ndarray,
    rhs: np.ndarray,
    tol_abs: float,
    max_iter: int,
) -> tuple[np.ndarray, float, int]:
    """Conjugate gradients on an SPD matrix M, cold started from zero.

    M is a float (m, m) array and rhs an (m,) vector.  Terminates on the
    absolute residual norm ||rhs - M x|| <= tol_abs; the returned norm is
    recomputed from the candidate solution rather than the recurrence, so
    callers can rely on it.  Raises CgStalled when the tolerance is not met
    within max_iter iterations, at iteration 0 when rhs is not finite, and
    when a curvature p^T M p is not positive and finite.

    A nonzero finite rhs whose norm lies outside [_NORM_MIN, _NORM_MAX],
    where r.r or p^T M p could overflow or underflow, is solved at
    rhs / 2^e with tolerance tol_abs / 2^e, e the binary exponent of its
    largest entry, and x and the residual are scaled back by 2^e.  Scaling
    by a power of two is exact, so CG takes the steps it takes at any
    in-range scale; an in-range rhs is solved as it is.
    """
    rhs = np.asarray(rhs, dtype=float)
    m = rhs.size
    # On the small systems here numpy's per-call dispatch, not arithmetic,
    # sets the cost of an iteration, so the loop makes seven calls: the
    # matvec into Ap, two scalar products, one multiply and one add that
    # move x and r together, and the in-place update of p.  One workspace
    # holds [x | -r], [p | Ap] and the step.  Negation is exact and rounding
    # symmetric, so fl(-r + alpha*Ap) = -fl(r - alpha*Ap), (-r).(-r) = r.r
    # and p - (-r) = p + r bit for bit.  The step factors reach the
    # multiplies as a 0-d float64 array, which numpy need not convert as it
    # does a Python float; the float64 product is the same, bit for bit.
    w = np.zeros((6, m))
    xr, pa, step = w[0:2], w[2:4], w[4:6]
    x, neg_r, p, Ap = w[:4]
    np.negative(rhs, neg_r)
    rnorm = math.sqrt(float(neg_r.dot(neg_r)))
    e = 0 if _NORM_MIN <= rnorm <= _NORM_MAX else _exponent(rhs)
    tol = tol_abs
    if e:
        rhs = np.ldexp(rhs, -e)
        tol = _ldexp(tol_abs, -e)
        np.negative(rhs, neg_r)
        rnorm = math.sqrt(float(neg_r.dot(neg_r)))
    if rnorm <= tol:
        return x, math.ldexp(rnorm, e), 0
    if not rnorm < math.inf:
        raise CgStalled(f"CG right-hand side norm {rnorm:.3e} is not finite", rnorm, 0)

    np.copyto(p, rhs)
    factor = np.empty(())
    matvec, p_dot, r_dot = M.dot, p.dot, neg_r.dot
    add, multiply, subtract = np.add, np.multiply, np.subtract
    rs = rnorm * rnorm
    best_norm = rnorm
    for it in range(1, max_iter + 1):
        matvec(p, Ap)
        pAp = float(p_dot(Ap))
        if not 0.0 < pAp < math.inf:
            raise CgStalled(
                f"CG curvature p^T A p = {_ldexp(pAp, 2 * e):.3e} is not positive; "
                "operator is not SPD",
                residual_norm=_ldexp(best_norm, e),
                iterations=it,
            )
        factor[()] = rs / pAp
        multiply(pa, factor, step)
        add(xr, step, xr)
        rs_new = float(r_dot(neg_r))
        rnorm = math.sqrt(rs_new)
        if rnorm <= tol:
            # Recurrence residuals drift from the truth; confirm before exiting.
            true_neg_r = matvec(x) - rhs
            true_norm = math.sqrt(float(true_neg_r.dot(true_neg_r)))
            if true_norm <= tol:
                return (np.ldexp(x, e) if e else x), math.ldexp(true_norm, e), it
            np.copyto(neg_r, true_neg_r)
            np.negative(true_neg_r, p)
            rs = true_norm * true_norm
            best_norm = min(best_norm, true_norm)
            continue
        factor[()] = rs_new / rs
        multiply(p, factor, p)
        subtract(p, neg_r, p)
        rs = rs_new
        if rnorm < best_norm:
            best_norm = rnorm

    best_norm = _ldexp(best_norm, e)
    raise CgStalled(
        f"CG did not reach tolerance {tol_abs:.3e} in {max_iter} iterations "
        f"(best residual {best_norm:.3e})",
        residual_norm=best_norm,
        iterations=max_iter,
    )


def inexact_project(cs: ConstraintSet, y: np.ndarray, eta: float) -> ProjectionResult:
    """Approximate projection of y with normal-system residual at most eta.

    Solves A A^T lam = A y - b by CG (cold start, absolute tolerance eta,
    at most 10*m iterations) and returns y - A^T lam.  The reported
    residual norm is the feasibility gap of the returned point.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cs.n,):
        raise DimensionMismatch(f"y must have shape ({cs.n},), got {y.shape}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    rhs = cs.A.dot(y) - cs.b
    lam, _, iters = cg_solve(cs.AAt, rhs, eta, _CG_MAX_ITER_FACTOR * cs.m)
    point = y - cs.A.T.dot(lam)
    # Report the feasibility gap itself rather than the CG residual: CG
    # certified the normal-system form <= eta, and the two differ only at
    # the roundoff scale of ||y||.
    return ProjectionResult(point=point, residual_norm=_gap(cs, point), cg_iterations=iters)


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

