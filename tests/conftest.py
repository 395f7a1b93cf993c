import numpy as np
from hypothesis import settings

from ipas import build_constraint_set

# Every @given test draws the same examples on every machine and run: the
# draws come from a fixed seed, no example database replays earlier
# failures, and no per-example deadline depends on the host's speed.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


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
