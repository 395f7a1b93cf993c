import locale

import numpy as np
import pytest
from hypothesis import settings

from ipas import build_constraint_set

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
