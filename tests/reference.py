"""Reference implementations that tests compare the package against.

The component oracles evaluate one summand at a time, the plain way, for
checking the vectorised kernels; logistic_block_sums is the logistic
kernel's full-data sums as a plain serial loop over its row blocks,
logistic_value_grad_many and BlockedLogisticKernel its batched and
one-point forms, and parse_libsvm_dicts the LIBSVM reader's earlier form,
which held one dict per row.  cg_solve and exact_project are the package's
earlier forms, written with the @ operator, a freshly allocated search
direction and scipy.linalg.cho_solve; the package's leaner forms must
reproduce them bit for bit.  additional_sampling_test is the control-sample
test that projects the control direction every time; the package's, which
skips the projection when the values alone reject the step, must decide
every step as it does.
"""

from __future__ import annotations

import io
import math
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.special import expit

from ipas import (
    CgStalled,
    ConstraintSet,
    DimensionMismatch,
    LogisticDataset,
    NoisyQuadraticSpec,
    NonFiniteValue,
    ParseError,
    Sample,
    draw_sample,
    subsample_value,
    subsample_value_grad,
)
from ipas.problems import LogisticKernel, _blocks, _map_labels
from ipas.solver import _project


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


def logistic_block_sums(
    ds: LogisticDataset, w: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The logistic kernel's full-data sums at the columns of X, as one serial loop.

    Point-major, over the row blocks of _blocks: the K points are the rows
    of X', so each block's margins and coefficients are (K, rows) arrays,
    its value term is losses . w_b and its gradient term coef . Z_b.  The
    terms are added in block order, each sum starting from the first
    block's term.  Returns the values (K,) and the gradients (K, n).  The
    package computes the same block terms, on helper threads for a large
    batch, and must sum them to these bits.  Unlike the package, the loop
    runs under the caller's error state, underflow included.
    """
    Z, y = ds.Z, ds.y
    XT = np.ascontiguousarray(X.T)
    values = grads = None
    for rows in _blocks(*Z.shape):
        Zb, wb = Z[rows], w[rows]
        m = XT.dot(Zb.T) * -y[rows]
        e = np.exp(-np.abs(m))
        value = (np.log1p(e) + np.maximum(m, 0.0)).dot(wb)
        values = value if values is None else values + value
        coef = np.where(m > 0.0, 1.0, e) / (e + 1.0)
        coef *= wb * -y[rows]
        grads = coef.dot(Zb) if grads is None else grads + coef.dot(Zb)
    return values, grads


def logistic_value_grad_many(
    ds: LogisticDataset, w: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """LogisticKernel.weighted_value_grad_many: the block sums, gradients as (n, K)."""
    values, grads = logistic_block_sums(ds, w, X)
    return values, np.ascontiguousarray(grads.T)


class BlockedLogisticKernel(LogisticKernel):
    """LogisticKernel whose one-point methods are the block sums at one point, memo-less.

    The package's one-point methods must return these bits, whether a call
    hits the memo or not.
    """

    def weighted_value(self, x):
        return self.weighted_value_grad(x)[0]

    def weighted_value_grad(self, x):
        values, grads = logistic_block_sums(self.ds, self.weights, x[:, None])
        return float(values[0]), grads[0]


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


def cg_solve(
    apply: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol_abs: float,
    max_iter: int,
) -> tuple[np.ndarray, float, int]:
    """Conjugate gradients on an SPD operator, cold started from zero (reference form)."""
    x = np.zeros_like(rhs, dtype=float)
    r = np.array(rhs, dtype=float)
    rnorm = math.sqrt(float(r @ r))
    if rnorm <= tol_abs:
        return x, rnorm, 0

    p = r.copy()
    rs = rnorm * rnorm
    best_norm = rnorm
    for it in range(1, max_iter + 1):
        Ap = apply(p)
        pAp = float(p @ Ap)
        if not math.isfinite(pAp) or pAp <= 0.0:
            raise CgStalled(
                f"CG curvature p^T A p = {pAp:.3e} is not positive; operator is not SPD",
                residual_norm=best_norm,
                iterations=it,
            )
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol_abs:
            # Recurrence residuals drift from the truth; confirm before exiting.
            true_r = rhs - apply(x)
            true_norm = math.sqrt(float(true_r @ true_r))
            if true_norm <= tol_abs:
                return x, true_norm, it
            r = true_r
            rs_new = true_norm * true_norm
            p = r.copy()
            rs = rs_new
            best_norm = min(best_norm, true_norm)
            continue
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new
        best_norm = min(best_norm, math.sqrt(rs_new))

    raise CgStalled(
        f"CG did not reach tolerance {tol_abs:.3e} in {max_iter} iterations "
        f"(best residual {best_norm:.3e})",
        residual_norm=best_norm,
        iterations=max_iter,
    )


def exact_project(cs: ConstraintSet, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection of y, shape (n,) or (n, K), through cho_solve (reference form)."""
    y = np.asarray(y, dtype=float)
    if y.shape[:1] != (cs.n,) or y.ndim > 2:
        raise DimensionMismatch(f"y must have shape ({cs.n},) or ({cs.n}, K), got {y.shape}")
    lam = scipy.linalg.cho_solve(cs.chol, cs.A @ y - (cs.b if y.ndim == 1 else cs.b[:, None]))
    return y - cs.A.T @ lam


def additional_sampling_test(state, cs, obj, x_trial, eta_k, slack, cfg) -> bool:
    """The control-sample test that always projects the control direction (reference form).

    Same draw, evaluations, charges and test as the package's, but the
    control direction is projected, through the solver's checked and
    charged _project, before the values are read, whatever they turn out
    to be.
    """
    x, meter = state.x, state.meter
    d_set = Sample.of(obj, draw_sample(obj, cfg.D_size, state.rng))
    control = subsample_value_grad(obj, d_set, x, meter)
    s = _project(state, cs, x - control.grad, eta_k).point - x
    f_x = control.value(meter)
    try:
        f_trial = subsample_value(obj, d_set, x_trial, meter)
    except NonFiniteValue:
        f_trial = math.inf
    s_sq = float(s.dot(s))
    return f_trial <= f_x - cfg.c * s_sq + slack


def parse_libsvm_dicts(data: bytes, path) -> LogisticDataset:
    """parse_libsvm as one {index: value} dict per row, filled into Z entry by entry."""
    labels: list[float] = []
    rows: list[dict[int, float]] = []
    width = 0
    try:
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
                if not math.isfinite(label):  # float() takes nan and inf
                    raise ParseError(f"{path}:{lineno}: bad label {tokens[0]!r}")
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
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot decode: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no samples found")

    y = _map_labels(np.array(labels))
    Z = np.zeros((len(rows), width))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            Z[r, idx - 1] = val
    return LogisticDataset(Z=Z, y=y)
