"""Reference implementations that tests compare the package against.

The component oracles evaluate one summand at a time, the plain way, for
checking the vectorised kernels; logistic_value_grad_many is the batched
logistic oracle's serial form, BlockedLogisticKernel the logistic
kernel's full-data methods as a plain loop over its row blocks, and
parse_libsvm_dicts the LIBSVM reader's earlier form, which held one dict
per row.  cg_solve and exact_project are the package's earlier forms,
written with the @ operator, a freshly allocated search direction and
scipy.linalg.cho_solve; the package's leaner forms must reproduce them bit
for bit.
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
    ParseError,
)
from ipas.problems import LogisticKernel, _blocks, _map_labels


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


def logistic_value_grad_many(
    ds: LogisticDataset, w: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """LogisticKernel.weighted_value_grad_many as one serial loop over 256-row blocks.

    Point-major: the K points are the rows of X', so each block's margins
    and coefficients are (K, rows) arrays, and its gradient term is
    coef @ Z_b.  The value term is w_b @ losses over the (rows, K) losses.
    The package computes the same block terms, on helper threads for a
    large Z, and must sum them to these bits.
    """
    Z, y = ds.Z, ds.y
    XT = np.ascontiguousarray(X.T)
    values = np.zeros(X.shape[1])
    grads = np.zeros(XT.shape)
    for lo in range(0, len(y), 256):
        rows = slice(lo, lo + 256)
        Zb, wb = Z[rows], w[rows]
        m = (XT @ Zb.T) * -y[rows]
        e = np.exp(-np.abs(m))
        values += wb @ np.ascontiguousarray((np.log1p(e) + np.maximum(m, 0.0)).T)
        coef = np.where(m > 0.0, 1.0, e) / (e + 1.0)
        coef *= -wb * y[rows]
        grads += coef @ Zb
    return values, np.ascontiguousarray(grads.T)


class BlockedLogisticKernel(LogisticKernel):
    """LogisticKernel whose full-data methods loop over its row blocks and memoise nothing.

    Each block of _blocks, in order, gives its margins -y_b * (Z_b x), its
    losses, its value w_b . losses_b and, for a gradient, Z_b' coef_b; the
    values and the gradients are added in block order, each sum starting
    from the first block's term.  Data of one block makes the plain calls,
    Z x, Z' coef and w . losses.  The package's full-data methods must
    return these bits, whichever path they take.
    """

    def _terms(self, x, want_grad: bool):
        """Per block: (margins, losses, value, gradient or None)."""
        Z, y, w = self.ds.Z, self.ds.y, self.weights
        for rows in _blocks(*Z.shape):
            margins = -y[rows] * (Z[rows] @ x)
            losses = np.logaddexp(0.0, margins)
            grad = Z[rows].T @ (w[rows] * (-y[rows] * expit(margins))) if want_grad else None
            yield margins, losses, float(w[rows] @ losses), grad

    def margins_and_losses(self, x):
        terms = list(self._terms(x, want_grad=False))
        return np.concatenate([t[0] for t in terms]), np.concatenate([t[1] for t in terms])

    def _sums(self, x, want_grad: bool):
        value = grad = None
        for _, _, block_value, block_grad in self._terms(x, want_grad):
            value = block_value if value is None else value + block_value
            if want_grad:
                grad = block_grad if grad is None else grad + block_grad
        return value, grad

    def weighted_value(self, x):
        return self._sums(x, want_grad=False)[0]

    def weighted_value_grad(self, x):
        return self._sums(x, want_grad=True)


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


def parse_libsvm_dicts(data: bytes, path) -> LogisticDataset:
    """parse_libsvm as one {index: value} dict per row, filled into Z entry by entry."""
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
