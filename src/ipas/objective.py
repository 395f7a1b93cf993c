"""Weighted finite-sum objectives, subsampled estimators, and cost metering.

The objective is f(x) = sum_i w_i f_i(x) with nonnegative weights summing
to one.  Mini-batch estimates average the sampled components without
weights; the weights enter only through the sampling distribution, which
keeps the estimators unbiased for f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple, Protocol, runtime_checkable

import numpy as np

from .errors import NonFiniteValue, WeightError

# How far the weight sum may stray from one before construction fails.
_WEIGHT_SUM_ATOL = 1e-8

# Draws of at least this many keys from uniform weights guess each index as
# floor(u*N) before searching; smaller ones, and every draw from other
# weights, search the CDF directly.  Timed in alternating processes (minimum
# of 7x3000 draw_sample calls), the guess first won at 64 keys on N = 1000
# and at 32 on N = 100000; CHANGES.md has the numbers.
_GUESS_MIN_DRAW = 64


@runtime_checkable
class ComponentKernel(Protocol):
    """Vectorised evaluation backend for the components of a finite sum.

    Implementations must be pure: repeated calls with the same arguments
    return the same values, bit for bit, and nothing here may mutate shared
    state.  A kernel may memoise results, such as the value and gradient
    at the last point evaluated, provided a call returns the same bits with
    or without the memo.  A value-only call may also compute and hold the
    gradient at its point, where reading the data once for both costs less
    than reading it again when the gradient is asked for.

    A method that returns both values and a gradient must compute them in
    one pass over the data, sharing the work the two have in common (the
    margins Z x of logistic regression, the product Q x of a quadratic).
    Its values must equal those of the value-only method at the same point
    bit for bit, so that a caller may use either.

    weighted_value_grad_many evaluates many points in one pass, for the
    unmetered oracle; it may sum in another order than the single-point
    method and use other, equivalent elementwise formulas, so its results
    agree with it to rounding, not bit for bit.  LogisticKernel's
    one-point methods are its case of one point, so there the two agree
    bit for bit.
    """

    weights: np.ndarray
    """The float weights w_i, one per component, fixed for the kernel's life."""

    def gather(self, idx: np.ndarray) -> object:
        """The data of the components in idx (duplicates allowed), in the form
        values() and value_grad_mean() read.  A sample is gathered once and
        then evaluated at as many points as its caller needs."""
        ...

    def values(self, rows: object, x: np.ndarray) -> np.ndarray:
        """Component values f_i(x) for each component gathered in rows."""
        ...

    def mean_along(self, rows: object, x: np.ndarray, p: np.ndarray) -> Callable[[float], float]:
        """t -> the mean of values(rows, x + t p): bit for bit where the kernel evaluates
        there, within a few ulps of the largest term where it is a polynomial in t (the
        noisy quadratic)."""

    def value_grad_mean(self, rows: object, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Component values over rows, as values() returns them, and the
        unweighted mean of their gradients."""
        ...

    def weighted_value(self, x: np.ndarray) -> float:
        """sum_i w_i f_i(x) over all components, for the kernel's weights w."""
        ...

    def weighted_value_along(
        self, x: np.ndarray, p: np.ndarray, f0: float, slope: float
    ) -> Callable[[float], float]:
        """t -> weighted_value(x + t p), as mean_along is to values: bit for bit where the
        kernel evaluates there.  f0 and slope are the caller's weighted_value_grad(x) value
        and its g.p, which a kernel may take as given: the noisy quadratic's polynomial
        reads f0 at t = 0 and has slope as its slope, so only its curvature is computed."""

    def weighted_value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """sum_i w_i f_i(x), as weighted_value() returns it, and sum_i w_i grad f_i(x)."""
        ...

    def weighted_value_grad_many(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """weighted_value_grad at every column of X (n, K): values (K,) and gradients (n, K)."""
        ...


def component_weights(weights, n_components: int) -> np.ndarray:
    """A float copy of weights for a kernel of n_components components to own."""
    w = np.array(weights, dtype=float)
    if w.shape != (n_components,):
        raise WeightError(f"expected {n_components} weights, one per component, got {w.shape}")
    return w


@dataclass
class BudgetMeter:
    """Running count of work in scalar products.

    A component value or gradient evaluation costs one scalar product; a
    projection's solve with the cached m x m Cholesky factor costs m + 4,
    about the arithmetic of its two triangular solves, in both methods.
    Only solves that ran are charged: a control-sample test that its values
    decided charges its values and gradient but no solve.  cg_iterations
    (a name kept from an earlier CG projection) counts the solves, so a
    trace row's cg_iters is its change over the step.

    A charge is for the evaluation a step stands on, not for the work done
    to get it.  A trial along a ray (subsample_value_along,
    full_value_along) is charged as a direct evaluation at its point.  An
    evaluation reused rather than recomputed is charged as the one it
    stands for: the control gradient of a test that its values decided,
    which is never computed, and the full gradient of an unsuccessful
    row's iterate, which the next row reads again.  The oracle metrics go
    through weighted_value_grad_many, never through a meter.
    """

    scalar_products: int = 0
    component_value_evals: int = 0
    component_grad_evals: int = 0
    cg_scalar_products: int = 0
    cg_iterations: int = 0

    def charge_values(self, count: int) -> None:
        self.component_value_evals += count
        self.scalar_products += count

    def charge_grads(self, count: int) -> None:
        self.component_grad_evals += count
        self.scalar_products += count

    def charge_cg(self, iterations: int, m: int) -> None:
        cost = (m + 4) * iterations
        self.cg_iterations += iterations
        self.cg_scalar_products += cost
        self.scalar_products += cost


@dataclass(frozen=True)
class FiniteSumObjective:
    """A weighted finite sum with a vectorised evaluation kernel.

    value_cost and grad_cost are the scalar products BudgetMeter charges
    per component value and gradient evaluation.  weights is the kernel's
    own array, checked here and made read-only.  cdf is the cumulative
    sampling distribution that draw_sample searches, built once from the
    weights.  uniform says whether all weights are equal: only then does
    draw_sample's guess floor(u*N) find the index without a search.
    """

    dim: int
    kernel: ComponentKernel
    value_cost: ClassVar[int] = 1
    grad_cost: ClassVar[int] = 1
    weights: np.ndarray = field(init=False)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)
    uniform: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = self.kernel.weights
        if w.ndim != 1 or w.size < 1:
            raise WeightError(f"weights must be a nonempty 1-D array, got shape {w.shape}")
        # A NaN weight would pass both checks below, since NaN compares false.
        if not np.isfinite(w).all():
            raise WeightError("weights must be finite")
        if (w < 0).any():
            raise WeightError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_ATOL:
            raise WeightError(f"weights must sum to 1 (got {total!r}); no silent renormalisation")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        # The same CDF Generator.choice(p=w / w.sum()) builds on every call.
        # Renormalising guards only against the <=1e-8 drift allowed above.
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "uniform", bool((w == w[0]).all()))

    @property
    def n_components(self) -> int:
        return int(self.weights.size)


def uniform_weights(n: int) -> np.ndarray:
    """Weight vector (1/n, ..., 1/n) that sums to one exactly enough."""
    return np.full(n, 1.0 / n)


def draw_sample(obj: FiniteSumObjective, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `size` int64 indices i.i.d. with replacement, P(i) = obj.weights[i].

    Indices may repeat; the estimators below average over the multiset.

    The draw consumes exactly one block of the generator stream, one
    uniform per index, so a fixed seed reproduces the full sequence of
    samples across a run, and a draw of a + b indices equals a draw of a
    followed by a draw of b: a step draws its sample and its control
    sample in one block.  It returns the indices rng.choice(N, size,
    p=weights) would return and leaves rng in the same state, without
    rebuilding the CDF per call.
    """
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    u = rng.random(size)
    if size < _GUESS_MIN_DRAW or not obj.uniform:
        idx = obj.cdf.searchsorted(u, side="right")
    else:
        idx = _guessed_search(obj.cdf, u)
    return np.asarray(idx, dtype=np.int64)


def _guessed_search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, side="right"), guessed as floor(u*N).

    The guess i is the search's answer exactly when cdf[i-1] <= u < cdf[i];
    with uniform weights it nearly always is, with others mostly not, so
    draw_sample guesses only for uniform weights.  The keys that fail this
    check go to the search; so do all keys guessed i = 0, since the wrapped
    cdf[-1] is 1.0 and every key lies below it.  No guess reaches N: for
    every u < 1 and N < 2^53, u*N rounds to below N.
    """
    i = (u * cdf.size).astype(np.intp)
    hit = cdf.take(i - 1) <= u
    hit &= u < cdf.take(i)
    if not hit.all():
        miss = np.flatnonzero(~hit)
        i[miss] = cdf.searchsorted(u.take(miss), side="right")
    return i


class Sample(NamedTuple):
    """A drawn sample's component rows, gathered once, and its size.

    Every evaluation on the sample reads rows, so the fancy indexing of the
    kernel's data happens once per draw, not once per trial point of the
    line search and the control test.  It lives as long as the step that
    drew it.
    """

    rows: object
    size: int

    @classmethod
    def of(cls, obj: FiniteSumObjective, idx: np.ndarray) -> Sample:
        """The sample of indices idx, as drawn by draw_sample."""
        return cls(obj.kernel.gather(idx), idx.size)


def _mean(vals: np.ndarray) -> float:
    """float(vals.mean()) from the same pairwise sum and division, without mean's dispatch.

    An empty vals gives NaN, as mean does.
    """
    n = vals.size
    return float(np.add.reduce(vals)) / n if n else math.nan


def _check_finite_scalar(v: float, what: str) -> float:
    if not math.isfinite(v):
        raise NonFiniteValue(f"{what} evaluated to {v!r}")
    return float(v)


def _check_finite_vector(v: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(v).all():
        raise NonFiniteValue(f"{what} contains non-finite entries")
    return v


@dataclass(frozen=True)
class ValueGrad:
    """Objective value and gradient at one point, from one kernel pass.

    The gradient was charged and checked when it was computed.  The value
    is charged and checked only when a caller takes it with value(), so a
    step that discards it, such as an unsuccessful full-sample step, pays
    nothing for it.
    """

    grad: np.ndarray
    raw_value: float
    count: int
    what: str

    def value(self, meter: BudgetMeter) -> float:
        """The checked value; charges `count` component values."""
        meter.charge_values(self.count)
        return _check_finite_scalar(self.raw_value, self.what)


def subsample_value(
    obj: FiniteSumObjective, s: Sample, x: np.ndarray, meter: BudgetMeter
) -> float:
    """Unweighted average of the sampled component values at x; charges s.size values."""
    vals = obj.kernel.values(s.rows, x)
    meter.charge_values(s.size)
    return _check_finite_scalar(_mean(vals), "subsampled objective value")


def subsample_value_along(
    obj: FiniteSumObjective, s: Sample, x: np.ndarray, p: np.ndarray, meter: BudgetMeter
) -> Callable[[float], float]:
    """t -> subsample_value(obj, s, x + t*p, meter), from one mean_along call.

    Each trial charges s.size values and is checked, as subsample_value is."""
    along = obj.kernel.mean_along(s.rows, x, p)

    def value(t: float) -> float:
        meter.charge_values(s.size)
        return _check_finite_scalar(along(t), "subsampled objective value")

    return value


def subsample_value_grad(
    obj: FiniteSumObjective, s: Sample, x: np.ndarray, meter: BudgetMeter
) -> ValueGrad:
    """Unweighted averages of the sampled component values and gradients at x.

    Charges and checks the gradient now; the value waits for ValueGrad.value.
    """
    vals, g = obj.kernel.value_grad_mean(s.rows, x)
    meter.charge_grads(s.size)
    g = _check_finite_vector(g, "subsampled gradient")
    return ValueGrad(g, _mean(vals), s.size, "subsampled objective value")


def full_value(obj: FiniteSumObjective, x: np.ndarray, meter: BudgetMeter) -> float:
    """The true weighted objective sum_i w_i f_i(x); charges all N components."""
    v = obj.kernel.weighted_value(x)
    meter.charge_values(obj.n_components)
    return _check_finite_scalar(float(v), "objective value")


def full_value_along(
    obj: FiniteSumObjective,
    x: np.ndarray,
    p: np.ndarray,
    f0: float,
    slope: float,
    meter: BudgetMeter,
) -> Callable[[float], float]:
    """t -> full_value(obj, x + t*p, meter), from one weighted_value_along call.

    f0 and slope are the value and g.p at x of full_value_grad(obj, x, ...),
    which the kernel may reuse.  Each trial charges all N values and is
    checked, as full_value is."""
    along = obj.kernel.weighted_value_along(x, p, f0, slope)
    n = obj.n_components

    def value(t: float) -> float:
        meter.charge_values(n)
        return _check_finite_scalar(along(t), "objective value")

    return value


def full_value_grad(obj: FiniteSumObjective, x: np.ndarray, meter: BudgetMeter) -> ValueGrad:
    """The true weighted objective and gradient at x from one kernel pass.

    Charges all N component gradients and checks the gradient now; the
    value waits for ValueGrad.value.
    """
    v, g = obj.kernel.weighted_value_grad(x)
    meter.charge_grads(obj.n_components)
    g = _check_finite_vector(g, "objective gradient")
    return ValueGrad(g, float(v), obj.n_components, "objective value")
