"""Benchmark problem families and their data plumbing.

Two families: binary logistic regression over a dense feature matrix
(loaded from LIBSVM-format text), and a convex quadratic whose components
carry frozen multiplicative noise in a ridge term.  Both declare a cost of
one scalar product per component value and per component gradient.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

from .constraints import ConstraintSet, build_constraint_set, exact_project
from .errors import LabelError, ParseError, RankDeficient
from .objective import FiniteSumObjective, _mean, uniform_weights

# ---------------------------------------------------------------------------
# logistic regression

# Rows of Z per block of LogisticKernel.weighted_value_grad_many.  With the
# oracle's batches of up to 64 points, each (rows, points) block temporary
# holds at most 128 KB and stays in cache through the elementwise passes.  The
# blocks change the summation order, and the loss and sigmoid formulas differ
# from logaddexp/expit, so the method agrees with weighted_value_grad to
# rounding, not bit for bit.  One call on 100000x200 at one BLAS thread took
# 35/105/150 ms at K = 8/40/64 points with 256 rows, against 37/108/154 ms
# with 512, 52/115/161 ms with 1024 and 60/125/170 ms with 4096.
_ROW_BLOCK = 256


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
        # min and max propagate NaN and reach any infinity, so this rejects
        # what isfinite(Z).all() rejects without an N x n boolean temporary.
        if not (math.isfinite(Z.min()) and math.isfinite(Z.max())):
            raise ValueError("Z must be finite")
        if not np.isin(y, (-1.0, 1.0)).all():
            raise LabelError("labels must be -1 or +1 after mapping")
        # Read-only views: a dataset may be shared between problems, and
        # marking a view leaves the caller's array writable and uncopied.
        for name, arr in (("Z", Z), ("y", y)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n_samples(self) -> int:
        return self.Z.shape[0]

    @property
    def dim(self) -> int:
        return self.Z.shape[1]


class LogisticKernel:
    """Vectorised evaluation of the logistic components.

    The full-data methods read the margins -y * (Z x) and the losses through
    a one-entry memo of the last point they evaluated, keyed by the dtype,
    shape and bytes of x.  A line search evaluates the objective at the
    point it accepts, and the next iteration asks for value and gradient at
    the same bytes, so that gradient pays only for the sigmoid and Z' coef.
    A hit returns the arrays a miss would compute, so no result changes by a
    bit; an x mutated in place, or one differing only in the sign of a zero,
    misses.  The memo holds two N-vectors.
    """

    def __init__(self, ds: LogisticDataset):
        self.ds = ds
        self._memo: tuple[tuple, np.ndarray, np.ndarray] | None = None

    def _margins_losses(self, x):
        """Full-data margins and losses at x, read-only, from the memo when x's bytes match."""
        x = np.asarray(x)
        key = (x.dtype.str, x.shape, x.tobytes())
        if self._memo is None or self._memo[0] != key:
            margins = -self.ds.y * (self.ds.Z @ x)
            losses = np.logaddexp(0.0, margins)
            margins.flags.writeable = losses.flags.writeable = False
            self._memo = (key, margins, losses)
        return self._memo[1], self._memo[2]

    def gather(self, idx):
        return self.ds.Z[idx], self.ds.y[idx]

    def values(self, rows, x):
        Z, y = rows
        margins = -y * (Z @ x)
        return np.logaddexp(0.0, margins)

    def value_grad_mean(self, rows, x):
        Z, y = rows
        margins = -y * (Z @ x)
        coef = -y * expit(margins)
        return np.logaddexp(0.0, margins), (Z.T @ coef) / len(y)

    def weighted_value(self, w, x):
        _, losses = self._margins_losses(x)
        return float(w @ losses)

    def weighted_value_grad(self, w, x):
        margins, losses = self._margins_losses(x)
        coef = w * (-self.ds.y * expit(margins))
        return float(w @ losses), self.ds.Z.T @ coef

    def weighted_value_grad_many(self, w, X):
        # One GEMM pair per block of rows: each block of Z is read once for
        # all K points and again, while it is still cached, for the gradient.
        # Between the two, loss and sigmoid both come from e = exp(-|m|):
        # loss = max(m, 0) + log1p(e) and sigmoid = where(m > 0, 1, e) / (1 + e),
        # the formulas behind logaddexp(0, m) and expit(m) but in ufuncs that
        # numpy vectorises, so either may differ from them by an ulp.
        Z, y = self.ds.Z, self.ds.y
        values = np.zeros(X.shape[1])
        grads = np.zeros(X.shape)
        for lo in range(0, len(y), _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            Zb, wb = Z[rows], w[rows]
            m = (Zb @ X) * -y[rows, None]
            e = np.exp(-np.abs(m))
            values += wb @ (np.log1p(e) + np.maximum(m, 0.0))
            coef = np.where(m > 0.0, 1.0, e) / (e + 1.0)
            coef *= (-wb * y[rows])[:, None]
            grads += Zb.T @ coef
        return values, grads


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
    """Read a LIBSVM-format text file into a dense dataset (see parse_libsvm)."""
    with open(path, "rb") as fh:
        return parse_libsvm(fh.read(), path)


def parse_libsvm(data: bytes, path) -> LogisticDataset:
    """Parse 'label idx:val idx:val ...' lines, read from path, into a dense dataset.

    The bytes are decoded as open(path) would decode them.  Indices are
    1-based; the feature width is the largest index seen.  Unmentioned
    entries are zero.
    """
    labels: list[float] = []
    rows: list[dict[int, float]] = []
    width = 0
    with io.TextIOWrapper(io.BytesIO(data)) as fh:
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
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
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


class NoisyQuadraticKernel:
    """Vectorised evaluation of the noisy quadratic components.

    The full-data methods take the ridge weight N * w.eps^2 from a one-entry
    memo keyed on the identity of w, kept only for a read-only w, such as
    an objective's own weights, which is taken to be frozen.  The memo holds
    w itself, so its identity cannot pass to another array.
    """

    def __init__(self, spec: NoisyQuadraticSpec):
        self.spec = spec
        self._eps_sq = spec.eps**2
        self._N = spec.n_components
        self._ridge_memo: tuple[np.ndarray, float] | None = None

    def _base(self, x):
        Qx = self.spec.base_Q.dot(x)
        return 0.5 * float(x.dot(Qx)) + float(self.spec.base_q.dot(x)), Qx

    def _ridge(self, w):
        memo = self._ridge_memo
        if memo is not None and memo[0] is w:
            return memo[1]
        ridge = self._N * float(w.dot(self._eps_sq))
        if not w.flags.writeable:
            self._ridge_memo = (w, ridge)
        return ridge

    def gather(self, idx):
        return self._eps_sq[idx]

    def values(self, eps_sq, x):
        base_value, _ = self._base(x)
        return base_value + (self._N * float(x.dot(x))) * eps_sq

    def value_grad_mean(self, eps_sq, x):
        base_value, Qx = self._base(x)
        vals = base_value + (self._N * float(x.dot(x))) * eps_sq
        ridge_mean = self._N * _mean(eps_sq)
        return vals, Qx + self.spec.base_q + (2.0 * ridge_mean) * x

    def weighted_value(self, w, x):
        base_value, _ = self._base(x)
        return base_value + self._ridge(w) * float(x.dot(x))

    def weighted_value_grad(self, w, x):
        base_value, Qx = self._base(x)
        ridge = self._ridge(w)
        return base_value + ridge * float(x.dot(x)), Qx + self.spec.base_q + (2.0 * ridge) * x

    def weighted_value_grad_many(self, w, X):
        QX = self.spec.base_Q @ X
        ridge = self._ridge(w)
        quad = np.einsum("ik,ik->k", X, 0.5 * QX + ridge * X)
        return quad + self.spec.base_q @ X, QX + self.spec.base_q[:, None] + (2.0 * ridge) * X


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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    """The minimum-norm point of {x : A x = b}: the projection of the origin."""
    return exact_project(cs, np.zeros(cs.n))
