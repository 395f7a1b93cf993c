"""Benchmark problem families and their data plumbing.

Two families: binary logistic regression over a dense feature matrix
(loaded from LIBSVM-format text), and a convex quadratic whose components
carry frozen multiplicative noise in a ridge term.  Both declare a cost of
one scalar product per component value and per component gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

from .constraints import ConstraintSet, build_constraint_set
from .errors import LabelError, ParseError, RankDeficient
from .objective import FiniteSumObjective, uniform_weights

# ---------------------------------------------------------------------------
# logistic regression


@dataclass(frozen=True)
class LogisticDataset:
    """Dense features Z (N, n) with labels y in {-1, +1}."""

    Z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] < 1:
            raise ValueError(f"Z must be a nonempty 2-D array, got shape {Z.shape}")
        if y.shape != (Z.shape[0],):
            raise ValueError(f"y must have shape ({Z.shape[0]},), got {y.shape}")
        if not np.isfinite(Z).all():
            raise ValueError("Z must be finite")
        if not np.isin(y, (-1.0, 1.0)).all():
            raise LabelError("labels must be -1 or +1 after mapping")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return self.Z.shape[0]

    @property
    def dim(self) -> int:
        return self.Z.shape[1]


def logistic_component(ds: LogisticDataset, i: int, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Log-loss of sample i at x: log(1 + exp(-y_i <x, z_i>)), with gradient.

    Uses logaddexp/expit so large margins neither overflow nor lose the
    asymptote: a strongly violated margin returns the linear excess, a
    strongly satisfied one returns essentially zero.
    """
    z = ds.Z[i]
    margin = -ds.y[i] * float(z @ x)
    value = float(np.logaddexp(0.0, margin))
    grad = (-ds.y[i] * float(expit(margin))) * z
    return value, grad


class LogisticKernel:
    """Vectorised evaluation of the logistic components."""

    def __init__(self, ds: LogisticDataset):
        self.ds = ds

    def values(self, idx, x):
        margins = -self.ds.y[idx] * (self.ds.Z[idx] @ x)
        return np.logaddexp(0.0, margins)

    def grad_mean(self, idx, x):
        margins = -self.ds.y[idx] * (self.ds.Z[idx] @ x)
        coef = -self.ds.y[idx] * expit(margins)
        return (self.ds.Z[idx].T @ coef) / len(idx)

    def weighted_value(self, w, x):
        margins = -self.ds.y * (self.ds.Z @ x)
        return float(w @ np.logaddexp(0.0, margins))

    def weighted_grad(self, w, x):
        margins = -self.ds.y * (self.ds.Z @ x)
        coef = w * (-self.ds.y * expit(margins))
        return self.ds.Z.T @ coef


def logistic_objective(ds: LogisticDataset, weights: np.ndarray | None = None) -> FiniteSumObjective:
    """Finite-sum objective over the dataset, uniform weights by default."""
    if weights is None:
        weights = uniform_weights(ds.n_samples)
    return FiniteSumObjective(
        weights=weights, dim=ds.dim, kernel=LogisticKernel(ds), value_cost=1, grad_cost=1
    )


# ---------------------------------------------------------------------------
# LIBSVM-format text files


def _map_labels(raw: np.ndarray) -> np.ndarray:
    """Map raw labels onto {-1, +1}.

    {0, 1} maps 0 to -1; {1, 2} maps 1 to -1; {-1, +1} stays; any other
    pair maps the smaller value to -1.  More than two distinct values (or
    a single value outside the known binary conventions) is an error.
    """
    distinct = np.unique(raw)
    if distinct.size > 2:
        raise LabelError(f"expected two classes, found {distinct.size}: {distinct.tolist()}")
    as_set = set(distinct.tolist())
    if as_set <= {0.0, 1.0}:
        return np.where(raw == 0.0, -1.0, 1.0)
    if as_set <= {-1.0, 1.0}:
        return raw.astype(float)
    if distinct.size == 2:
        return np.where(raw == distinct[0], -1.0, 1.0)
    raise LabelError(f"single label value {distinct[0]!r} does not define two classes")


def load_libsvm(path) -> LogisticDataset:
    """Parse 'label idx:val idx:val ...' lines into a dense dataset.

    Indices are 1-based; the feature width is the largest index seen.
    Unmentioned entries are zero.
    """
    labels: list[float] = []
    rows: list[dict[int, float]] = []
    width = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad label {tokens[0]!r}") from exc
            entries: dict[int, float] = {}
            for tok in tokens[1:]:
                idx_str, _, val_str = tok.partition(":")
                if not _:
                    raise ParseError(f"{path}:{lineno}: expected idx:val, got {tok!r}")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad entry {tok!r}") from exc
                if idx < 1:
                    raise ParseError(f"{path}:{lineno}: indices are 1-based, got {idx}")
                entries[idx] = val
                width = max(width, idx)
            labels.append(label)
            rows.append(entries)
    if not rows:
        raise ParseError(f"{path}: no samples found")

    y = _map_labels(np.array(labels))
    Z = np.zeros((len(rows), width))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            Z[r, idx - 1] = val
    return LogisticDataset(Z=Z, y=y)


def save_libsvm(ds: LogisticDataset, path) -> None:
    """Write the dataset in LIBSVM text form, dropping zero entries."""
    with open(path, "w", newline="\n") as fh:
        for i in range(ds.n_samples):
            parts = [str(int(ds.y[i]))]
            row = ds.Z[i]
            for j in np.nonzero(row)[0]:
                parts.append(f"{j + 1}:{float(row[j])!r}")
            fh.write(" ".join(parts) + "\n")


def make_synthetic_logistic(
    n_samples: int, dim: int, seed: int, flip_fraction: float = 0.1
) -> LogisticDataset:
    """Gaussian features with labels from a random hyperplane, partly flipped.

    The label noise keeps the problem from being exactly separable, which
    keeps the unconstrained optimum finite.
    """
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n_samples, dim))
    w_true = rng.standard_normal(dim)
    y = np.where(Z @ w_true >= 0.0, 1.0, -1.0)
    flips = rng.random(n_samples) < flip_fraction
    y[flips] *= -1.0
    return LogisticDataset(Z=Z, y=y)


# ---------------------------------------------------------------------------
# noisy quadratic


@dataclass(frozen=True)
class NoisyQuadraticSpec:
    """Convex base quadratic plus per-component ridge noise.

    Component i is f_base(x) + N * eps_i^2 * ||x||^2 where f_base(x) =
    0.5 x'Qx + q'x, so the uniform average over all N components is
    f_base(x) + (sum_i eps_i^2) ||x||^2.  The draws eps_i are frozen at
    construction; the randomness lives in which components get sampled,
    not in re-rolled noise.
    """

    base_Q: np.ndarray
    base_q: np.ndarray
    sigma: float
    eps: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.base_Q, dtype=float)
        q = np.asarray(self.base_q, dtype=float)
        eps = np.asarray(self.eps, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"base_Q must be square, got shape {Q.shape}")
        n = Q.shape[0]
        if q.shape != (n,):
            raise ValueError(f"base_q must have shape ({n},), got {q.shape}")
        if eps.ndim != 1 or eps.size < 1:
            raise ValueError("eps must be a nonempty vector")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        scale = max(1.0, float(np.abs(Q).max()))
        if np.abs(Q - Q.T).max() > 1e-10 * scale:
            raise ValueError("base_Q must be symmetric")
        if scipy.linalg.eigvalsh(Q).min() < -1e-10 * scale:
            raise ValueError("base_Q must be positive semidefinite")
        object.__setattr__(self, "base_Q", Q)
        object.__setattr__(self, "base_q", q)
        object.__setattr__(self, "eps", eps)

    @property
    def dim(self) -> int:
        return self.base_Q.shape[0]

    @property
    def n_components(self) -> int:
        return int(self.eps.size)


def noisy_quadratic_component(
    spec: NoisyQuadraticSpec, i: int, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Value and gradient of component i of the noisy quadratic."""
    x = np.asarray(x, dtype=float)
    Qx = spec.base_Q @ x
    base_value = 0.5 * float(x @ Qx) + float(spec.base_q @ x)
    ridge = spec.n_components * float(spec.eps[i] ** 2)
    value = base_value + ridge * float(x @ x)
    grad = Qx + spec.base_q + (2.0 * ridge) * x
    return value, grad


class NoisyQuadraticKernel:
    """Vectorised evaluation of the noisy quadratic components."""

    def __init__(self, spec: NoisyQuadraticSpec):
        self.spec = spec
        self._eps_sq = spec.eps**2

    def _base(self, x):
        Qx = self.spec.base_Q @ x
        return 0.5 * float(x @ Qx) + float(self.spec.base_q @ x), Qx

    def values(self, idx, x):
        base_value, _ = self._base(x)
        return base_value + (self.spec.n_components * float(x @ x)) * self._eps_sq[idx]

    def grad_mean(self, idx, x):
        Qx = self.spec.base_Q @ x
        ridge_mean = self.spec.n_components * float(self._eps_sq[idx].mean())
        return Qx + self.spec.base_q + (2.0 * ridge_mean) * x

    def weighted_value(self, w, x):
        base_value, _ = self._base(x)
        ridge = self.spec.n_components * float(w @ self._eps_sq)
        return base_value + ridge * float(x @ x)

    def weighted_grad(self, w, x):
        Qx = self.spec.base_Q @ x
        ridge = self.spec.n_components * float(w @ self._eps_sq)
        return Qx + self.spec.base_q + (2.0 * ridge) * x


def noisy_quadratic_objective(
    spec: NoisyQuadraticSpec, weights: np.ndarray | None = None
) -> FiniteSumObjective:
    if weights is None:
        weights = uniform_weights(spec.n_components)
    return FiniteSumObjective(
        weights=weights,
        dim=spec.dim,
        kernel=NoisyQuadraticKernel(spec),
        value_cost=1,
        grad_cost=1,
    )


def make_noisy_quadratic(
    n: int,
    n_components: int,
    sigma: float,
    seed: int,
    base_curvature: float = 1.0,
    q_scale: float = 1.0,
) -> NoisyQuadraticSpec:
    """Random SPD base quadratic with frozen noise draws.

    base_curvature scales the base Hessian M'M/n (spectrum roughly [0, 4]
    before scaling); q_scale scales the linear term.  Draw order: M, q,
    then eps, all from default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    Q = (base_curvature / n) * (M.T @ M)
    q = q_scale * rng.standard_normal(n)
    eps = rng.normal(0.0, sigma, size=n_components) if sigma > 0 else np.zeros(n_components)
    return NoisyQuadraticSpec(base_Q=Q, base_q=q, sigma=float(sigma), eps=eps)


# ---------------------------------------------------------------------------
# constraint generation


def generate_constraints(n: int, m: int, seed: int) -> ConstraintSet:
    """Random Gaussian constraints with a consistent right-hand side.

    Draw order from default_rng(seed): A of shape (m, n), then the
    generating point x_tilde of shape (n,); b = A @ x_tilde, so the system
    is feasible by construction.  Rank-deficient draws (measure zero) are
    resampled up to three times.
    """
    rng = np.random.default_rng(seed)
    last_error: RankDeficient | None = None
    for _ in range(4):
        A = rng.standard_normal((m, n))
        x_tilde = rng.standard_normal(n)
        try:
            return build_constraint_set(A, A @ x_tilde)
        except RankDeficient as exc:
            last_error = exc
    raise RankDeficient(f"no full-rank draw in 4 attempts for m={m}, n={n}") from last_error


def min_norm_feasible(cs: ConstraintSet) -> np.ndarray:
    """The minimum-norm point of {x : A x = b}: A^T (A A^T)^{-1} b."""
    return cs.A.T @ scipy.linalg.cho_solve(cs.chol, cs.b)
