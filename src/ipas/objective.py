"""Weighted finite-sum objectives, subsampled estimators, and cost metering.

The objective is f(x) = sum_i w_i f_i(x) with nonnegative weights summing
to one.  Mini-batch estimates average the sampled components without
weights; the weights enter only through the sampling distribution, which
keeps the estimators unbiased for f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .errors import NonFiniteValue, WeightError

# How far the weight sum may stray from one before construction fails.
_WEIGHT_SUM_ATOL = 1e-8


class ComponentKernel(Protocol):
    """Vectorised evaluation backend for the components of a finite sum.

    Implementations must be pure: repeated calls with the same arguments
    return the same values, and nothing here may mutate shared state.
    """

    def values(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Component values f_i(x) for each index in idx (duplicates allowed)."""
        ...

    def grad_mean(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Unweighted mean of the component gradients over idx."""
        ...

    def weighted_value(self, w: np.ndarray, x: np.ndarray) -> float:
        """sum_i w_i f_i(x) over all components."""
        ...

    def weighted_grad(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum_i w_i grad f_i(x) over all components."""
        ...


class CallableKernel:
    """Kernel built from a single (i, x) -> (value, gradient) callable.

    Convenient for tests and small synthetic problems; evaluation loops in
    Python, so large component counts should implement ComponentKernel
    directly with vectorised operations.
    """

    def __init__(self, fn: Callable[[int, np.ndarray], tuple[float, np.ndarray]], n_components: int):
        self._fn = fn
        self.n_components = n_components

    def values(self, idx, x):
        return np.array([self._fn(int(i), x)[0] for i in idx], dtype=float)

    def grad_mean(self, idx, x):
        total = np.zeros_like(np.asarray(x, dtype=float))
        for i in idx:
            total += self._fn(int(i), x)[1]
        return total / len(idx)

    def weighted_value(self, w, x):
        return float(sum(w[i] * self._fn(i, x)[0] for i in range(self.n_components)))

    def weighted_grad(self, w, x):
        total = np.zeros_like(np.asarray(x, dtype=float))
        for i in range(self.n_components):
            total += w[i] * self._fn(i, x)[1]
        return total


@dataclass
class BudgetMeter:
    """Running count of work in scalar products.

    Component evaluations are charged at the problem-declared unit cost;
    each CG iteration on an m-dimensional system costs m + 4 scalar
    products.  Passing meter=None to the evaluation helpers leaves all
    counters untouched, which is how oracle metrics stay free.
    """

    scalar_products: int = 0
    component_value_evals: int = 0
    component_grad_evals: int = 0
    cg_scalar_products: int = 0

    def charge_values(self, count: int, unit_cost: int = 1) -> None:
        self.component_value_evals += count
        self.scalar_products += count * unit_cost

    def charge_grads(self, count: int, unit_cost: int = 1) -> None:
        self.component_grad_evals += count
        self.scalar_products += count * unit_cost

    def charge_cg(self, iterations: int, m: int) -> None:
        cost = (m + 4) * iterations
        self.cg_scalar_products += cost
        self.scalar_products += cost


@dataclass(frozen=True)
class FiniteSumObjective:
    """A weighted finite sum with a vectorised evaluation kernel.

    value_cost and grad_cost are the scalar products charged per component
    value and gradient evaluation; they are declared by the problem that
    builds the objective.
    """

    weights: np.ndarray
    dim: int
    kernel: ComponentKernel
    value_cost: int = 1
    grad_cost: int = 1

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise WeightError(f"weights must be a nonempty 1-D array, got shape {w.shape}")
        if (w < 0).any():
            raise WeightError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_ATOL:
            raise WeightError(f"weights must sum to 1 (got {total!r}); no silent renormalisation")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_components(self) -> int:
        return int(self.weights.size)


def uniform_weights(n: int) -> np.ndarray:
    """Weight vector (1/n, ..., 1/n) that sums to one exactly enough."""
    return np.full(n, 1.0 / n)


def draw_sample(weights: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `size` int64 indices i.i.d. with replacement, P(i) = weights[i].

    Indices may repeat; the estimators below average over the multiset.

    The draw consumes exactly one block of the generator stream, so a
    fixed seed reproduces the full sequence of samples across a run.
    """
    weights = np.asarray(weights, dtype=float)
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    # Weights were validated at objective construction; renormalising here
    # only guards against <=1e-8 float drift that rng.choice would reject.
    p = weights / weights.sum()
    idx = rng.choice(weights.size, size=size, replace=True, p=p)
    return np.asarray(idx, dtype=np.int64)


def _check_finite_scalar(v: float, what: str) -> float:
    if not np.isfinite(v):
        raise NonFiniteValue(f"{what} evaluated to {v!r}")
    return float(v)


def _check_finite_vector(v: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(v).all():
        raise NonFiniteValue(f"{what} contains non-finite entries")
    return v


def subsample_value(
    obj: FiniteSumObjective,
    s: np.ndarray,
    x: np.ndarray,
    meter: BudgetMeter | None,
) -> float:
    """Unweighted average of the sampled component values at x."""
    vals = obj.kernel.values(s, x)
    if meter is not None:
        meter.charge_values(s.size, obj.value_cost)
    return _check_finite_scalar(float(vals.mean()), "subsampled objective value")


def subsample_grad(
    obj: FiniteSumObjective,
    s: np.ndarray,
    x: np.ndarray,
    meter: BudgetMeter | None,
) -> np.ndarray:
    """Unweighted average of the sampled component gradients at x."""
    g = obj.kernel.grad_mean(s, x)
    if meter is not None:
        meter.charge_grads(s.size, obj.grad_cost)
    return _check_finite_vector(g, "subsampled gradient")


def full_value(obj: FiniteSumObjective, x: np.ndarray, meter: BudgetMeter | None) -> float:
    """The true weighted objective sum_i w_i f_i(x); charges all N components."""
    v = obj.kernel.weighted_value(obj.weights, x)
    if meter is not None:
        meter.charge_values(obj.n_components, obj.value_cost)
    return _check_finite_scalar(float(v), "objective value")


def full_grad(obj: FiniteSumObjective, x: np.ndarray, meter: BudgetMeter | None) -> np.ndarray:
    """The true weighted gradient sum_i w_i grad f_i(x); charges all N components."""
    g = obj.kernel.weighted_grad(obj.weights, x)
    if meter is not None:
        meter.charge_grads(obj.n_components, obj.grad_cost)
    return _check_finite_vector(g, "objective gradient")
