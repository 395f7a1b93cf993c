import locale
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest
from hypothesis import settings

from ipas import build_constraint_set
from ipas.objective import _mean
from ipas.problems import NoisyQuadraticKernel

# Every @given test draws the same examples on every machine and run: the
# draws come from a fixed seed, no example database replays earlier
# failures, and no per-example deadline depends on the host's speed.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Tests of bytes that are not UTF-8: open() and the LIBSVM reader decode
# with the preferred encoding, under which such bytes may decode fine.
utf8_only = pytest.mark.skipif(
    locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
    reason="needs UTF-8 as the preferred encoding",
)


def random_system(m: int, n: int, seed: int):
    """Random full-rank constraint set with a consistent right-hand side."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = A @ rng.standard_normal(n)
    return build_constraint_set(A, b)


def kkt_project(A: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Oracle projection via the dense KKT system, no Gram factorisation.

    Solves [[I, A^T], [A, 0]] [z; lam] = [y; b] and returns z.
    """
    m, n = A.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n] = np.eye(n)
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([y, b])
    sol = np.linalg.solve(K, rhs)
    return sol[:n]


class CallableKernel:
    """Kernel of one component per weight, from a single (i, x) -> (value, gradient) callable.

    A ComponentKernel for small test problems; evaluation loops in Python
    over the components.
    """

    def __init__(self, fn: Callable[[int, np.ndarray], tuple[float, np.ndarray]], weights):
        self._fn = fn
        self.weights = np.array(weights, dtype=float)

    def gather(self, idx):
        return idx

    def values(self, rows, x):
        return np.array([self._fn(int(i), x)[0] for i in rows], dtype=float)

    def mean_along(self, rows, x, p, f0, slope):
        return lambda t: _mean(self.values(rows, x + t * p))

    def value_grad_mean(self, rows, x):
        vals = np.empty(len(rows))
        total = np.zeros_like(np.asarray(x, dtype=float))
        for j, i in enumerate(rows):
            vals[j], g = self._fn(int(i), x)
            total += g
        return vals, total / len(rows)

    def weighted_value(self, x):
        return float(sum(w * self._fn(i, x)[0] for i, w in enumerate(self.weights)))

    def weighted_value_along(self, x, p, f0, slope):
        return lambda t: self.weighted_value(x + t * p)

    def weighted_value_grad(self, x):
        value = 0
        total = np.zeros_like(np.asarray(x, dtype=float))
        for i, w in enumerate(self.weights):
            v, g = self._fn(i, x)
            value += w * v
            total += w * g
        return float(value), total

    def weighted_value_grad_many(self, X):
        pairs = [self.weighted_value_grad(x) for x in X.T]
        return np.array([v for v, _ in pairs]), np.column_stack([g for _, g in pairs])


class PointwiseQuadraticKernel(NoisyQuadraticKernel):
    """The noisy quadratic with each trial along a ray evaluated at its point x + t p."""

    def mean_along(self, rows, x, p, f0, slope):
        return lambda t: _mean(self.values(rows, x + t * p))

    def weighted_value_along(self, x, p, f0, slope):
        return lambda t: self.weighted_value(x + t * p)


def count_passes(kernel, monkeypatch) -> SimpleNamespace:
    """Count a LogisticKernel's blocked passes over Z, each at its first block's terms.

    passes counts every pass and one_point those of a single point; a memo
    hit computes none.
    """
    counts = SimpleNamespace(passes=0, one_point=0)
    real = kernel._block_terms
    first = kernel._row_blocks[0]

    def spy(XT, block):
        if block is first:
            counts.passes += 1
            counts.one_point += len(XT) == 1
        return real(XT, block)

    monkeypatch.setattr(kernel, "_block_terms", spy)
    return counts
