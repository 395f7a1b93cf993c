"""Benchmark problem families and their data plumbing.

Two families: binary logistic regression over a dense feature matrix
(loaded from LIBSVM-format text), and a convex quadratic whose components
carry frozen multiplicative noise in a ridge term.  Both declare a cost of
one scalar product per component value and per component gradient.
"""

from __future__ import annotations

import collections
import contextvars
import io
import math
import os
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

from .constraints import ConstraintSet, build_constraint_set
from .errors import LabelError, ParseError, RankDeficient
from .objective import FiniteSumObjective, _mean, component_weights, uniform_weights

# ---------------------------------------------------------------------------
# logistic regression

# Row blocks of LogisticKernel's full-data methods (_blocks): about
# _BLOCK_BYTES of whole rows, rounded down to a multiple of 8 rows, at least
# 8 and at most _BLOCK_ROWS.  The rows left over make one block of a multiple
# of 8 rows and one last block of fewer than 8.  The rule keeps every GEMM's
# bits independent of the BLAS thread count: on x86 OpenBLAS the margins
# GEMM changed its bits between 1 and 2 threads on row counts that are not a
# multiple of 8, and the gradient GEMM on more than 384 rows, the depth (kc)
# of its inner panel.
_BLOCK_BYTES = 512 << 10
_BLOCK_ROWS = 384

# A mini-batch gradient sums Z_b' coef_b over blocks of this many gathered
# rows: Z' coef over 8000 rows of 100 columns changed its bits between 1 and
# 2 threads, over 4096 rows it did not.
_BATCH_ROWS = 4096

# The threaded form of the full-data sums hands each helper thread tasks of
# this many consecutive row blocks and keeps this many tasks per thread in
# flight, so only a few blocks' terms wait for the caller at a time.  It runs
# for batches of at least _MIN_THREADED_POINTS points: each block makes about
# a dozen numpy calls, each of which takes and drops the interpreter lock,
# and on a block of few points the threads mostly wait for it.  Two threads
# took about 0.7x the serial time at K = 33 on 100000x200 (CHANGES.md has the
# measurement).
#
# The helper threads share the usable CPUs with BLAS's own threads, so there
# are usable CPUs // BLAS threads of them.  A BLAS library takes its thread
# count from these variables, OpenBLAS's first, and runs one thread per CPU
# when none is set: then the kernel stays serial.
_BLOCKS_PER_TASK = 4
_TASKS_PER_THREAD = 2
_MIN_THREADED_POINTS = 24
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
)


def _usable_cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int | None:
    """The BLAS thread count the environment sets, or None where it sets none."""
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


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


def _blocks(n_rows: int, dim: int) -> list[slice]:
    """The row blocks of LogisticKernel's full-data methods, in order."""
    rows = min(_BLOCK_ROWS, max(8, _BLOCK_BYTES // (8 * dim) // 8 * 8))
    edges = sorted({*range(0, n_rows, rows), n_rows // 8 * 8, n_rows})
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


class LogisticKernel:
    """Vectorised evaluation of the logistic components.

    Every full-data method sums block terms over the row blocks of _blocks,
    in block order, each sum starting from the first block's term.  A block
    takes the K points as the rows of a C-contiguous X' and gives its values
    w_b . losses_b and its gradient term coef_b Z_b while Z_b is still in
    cache, w being the kernel's weights.  weighted_value and
    weighted_value_grad are the K = 1 case of weighted_value_grad_many: the
    same calls on the same blocks, so the three return the same bits at a
    point.  The results kept their bytes at 1 and 2 OpenBLAS threads on a
    2-vCPU x86 host for the shapes checked (tests/test_baseline.py checks
    some); other BLAS builds and hosts are unchecked.

    Every pass over Z computes the values and the gradients together, so
    the gradient at an accepted trial point costs no second read; a
    rejected trial costs the gradient's share of a block's work.  A pass
    ignores underflow, whatever numpy's error state: the gradient's
    products can underflow where the losses do not, and underflow only
    rounds a term to a subnormal number or to zero.  So the caller's
    setting for underflow changes no work, and a value never raises or
    warns because of its gradient.  Overflow, invalid and divide follow the
    caller's error state.

    A call at one point, the one-point batch included, goes through _sums'
    one-entry memo of the last point, keyed by its dtype, shape and bytes: a
    line search returns the very array it accepts, and the next iteration
    evaluates there.  A hit returns what a miss would compute, so no result
    changes by a bit; a point mutated in place, or one differing only in the
    sign of a zero, misses.  weighted_value_grad returns the held gradient
    read-only; weighted_value_grad_many returns writable copies.
    """

    def __init__(self, ds: LogisticDataset, weights):
        self.ds = ds
        self.weights = component_weights(weights, ds.n_samples)
        # (key, values, gradients) of _sums' last one-point call.  A plain
        # tuple: a NamedTuple cost 0.3 us more per miss on small data.
        self._memo: tuple | None = None
        self._neg_y = neg_y = -ds.y
        neg_wy = self.weights * neg_y
        self._row_blocks = [
            (ds.Z[rows], neg_y[rows], self.weights[rows], neg_wy[rows])
            for rows in _blocks(*ds.Z.shape)
        ]

    def gather(self, idx):
        """The sampled rows of Z and their negated labels."""
        return self.ds.Z[idx], self._neg_y[idx]

    def values(self, rows, x):
        Z, neg_y = rows
        margins = neg_y * (Z @ x)
        return np.logaddexp(0.0, margins)

    def mean_along(self, rows, x, p, f0, slope):
        return lambda t: _mean(self.values(rows, x + t * p))

    def value_grad_mean(self, rows, x):
        # The gradient sums Z_b' coef_b over blocks of _BATCH_ROWS gathered
        # rows, in order; a batch of one block makes the plain call Z' coef.
        Z, neg_y = rows
        margins = neg_y * (Z @ x)
        coef = neg_y * expit(margins)
        grad = Z[:_BATCH_ROWS].T @ coef[:_BATCH_ROWS]
        for lo in range(_BATCH_ROWS, len(neg_y), _BATCH_ROWS):
            grad += Z[lo : lo + _BATCH_ROWS].T @ coef[lo : lo + _BATCH_ROWS]
        return np.logaddexp(0.0, margins), grad / len(neg_y)

    def weighted_value(self, x):
        return float(self._sums(np.asarray(x)[None, :])[0][0])

    def weighted_value_along(self, x, p, f0, slope):
        return lambda t: self.weighted_value(x + t * p)

    def weighted_value_grad(self, x):
        values, grads = self._sums(np.asarray(x)[None, :])
        return float(values[0]), grads[0]

    def _block_terms(self, XT, block):
        """The (values, gradients) terms of one row block.

        XT holds the K points as rows.  The margins and the
        coefficients are (K, rows) arrays, so Z_b is the wide operand of
        both GEMMs, and the gradient term is a (K, n) array.
        """
        # Loss and sigmoid both come from e = exp(-|m|): loss = max(m, 0) +
        # log1p(e) and sigmoid = where(m > 0, 1, e) / (1 + e), the formulas
        # behind logaddexp(0, m) and expit(m) but in ufuncs that numpy
        # vectorises.  As 0 <= e <= 1, maximum(e, m > 0) is that where, bit
        # for bit.
        Zb, neg_yb, wb, neg_wyb = block
        m = XT.dot(Zb.T)
        m *= neg_yb
        e = np.abs(m)
        np.negative(e, out=e)
        np.exp(e, out=e)
        losses = np.log1p(e)
        positive = m > 0.0
        losses += np.maximum(m, 0.0, out=m)
        coef = np.maximum(e, positive, out=m)
        e += 1.0
        coef /= e
        coef *= neg_wyb
        return losses.dot(wb), coef.dot(Zb)

    def _threaded_block_terms(self, XT, tasks, threads):
        """Yield every block's terms in block order, computed on helper threads.

        Each task runs in its own copy of the caller's context, which holds
        numpy's errstate; an exception in a helper is raised here.  The pool
        lives for this call only, so no thread survives into a later fork.
        """

        def run(blocks):
            return [self._block_terms(XT, block) for block in blocks]

        in_flight = collections.deque()
        with ThreadPoolExecutor(threads) as pool:
            for blocks in tasks:
                if len(in_flight) == _TASKS_PER_THREAD * threads:
                    yield from in_flight.popleft().result()
                in_flight.append(pool.submit(contextvars.copy_context().run, run, blocks))
            while in_flight:
                yield from in_flight.popleft().result()

    def _sums(self, XT):
        """The values (K,) and the gradients (K, n) at the rows of XT.

        Block terms are summed on the calling thread in block order, so the
        threaded and the serial path return the same bits.  Threads engage
        only for at least _MIN_THREADED_POINTS points, when BLAS leaves CPUs
        free and each thread gets at least two tasks.  The helpers inherit
        the errstate that ignores underflow.  One-point calls go through the
        memo and return its read-only arrays.
        """
        key = None
        if len(XT) == 1:
            key = (XT.dtype.str, XT.shape, XT.tobytes())
            memo = self._memo
            if memo is not None and memo[0] == key:
                return memo[1], memo[2]
        blocks = self._row_blocks
        threads = 0
        if len(XT) >= _MIN_THREADED_POINTS:
            tasks = [blocks[i : i + _BLOCKS_PER_TASK] for i in range(0, len(blocks), _BLOCKS_PER_TASK)]
            cpus = _usable_cpu_count()
            threads = min(cpus // (_blas_threads() or cpus), len(tasks) // 2)
        with np.errstate(under="ignore"):
            if threads > 1:
                terms = self._threaded_block_terms(XT, tasks, threads)
            else:
                terms = (self._block_terms(XT, block) for block in blocks)
            values, grads = next(terms)
            for value, grad in terms:
                values += value
                grads += grad
        if key is not None:
            values.flags.writeable = False
            grads.flags.writeable = False
            self._memo = (key, values, grads)
        return values, grads

    def weighted_value_grad_many(self, X):
        values, grads = self._sums(np.ascontiguousarray(X.T))
        return values.copy(), grads.T.copy()


def logistic_objective(ds: LogisticDataset, weights: np.ndarray | None = None) -> FiniteSumObjective:
    """Finite-sum objective over the dataset, uniform weights by default."""
    if weights is None:
        weights = uniform_weights(ds.n_samples)
    return FiniteSumObjective(ds.dim, LogisticKernel(ds, weights))


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

    The bytes are decoded as open(path) would decode them, and bytes that
    do not decode raise ParseError naming the file, and the line and file
    offset of the first such byte.  Indices are 1-based; the feature width
    is the largest index seen.  Unmentioned entries are zero, and an index
    repeated on a line keeps its last value.
    The entries are collected in flat index and value arrays, 16 bytes an
    entry, and written into Z in one assignment.
    """
    labels: list[float] = []
    counts = array("q")  # entries per sample
    cols = array("q")  # 1-based feature indices, sample after sample
    vals = array("d")
    try:
        with io.TextIOWrapper(io.BytesIO(data)) as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = line.split()
                if not tokens:
                    continue
                try:
                    label = float(tokens[0])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad label {tokens[0]!r}") from exc
                if not math.isfinite(label):  # float() takes nan and inf
                    raise ParseError(f"{path}:{lineno}: bad label {tokens[0]!r}")
                for tok in tokens[1:]:
                    idx_str, colon, val_str = tok.partition(":")
                    if not colon:
                        raise ParseError(f"{path}:{lineno}: expected idx:val, got {tok!r}")
                    try:
                        idx = int(idx_str)
                        val = float(val_str)
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: bad entry {tok!r}") from exc
                    if idx < 1:
                        raise ParseError(f"{path}:{lineno}: indices are 1-based, got {idx}")
                    cols.append(idx)
                    vals.append(val)
                labels.append(label)
                counts.append(len(tokens) - 1)
    except UnicodeDecodeError:
        # The wrapper's error places the byte in the chunk it was decoding;
        # one decode of all of data places it in the file.  Lines are
        # counted as the loop counts them, with universal newlines.
        try:
            data.decode(fh.encoding)
        except UnicodeDecodeError as exc:
            head = data[: exc.start].decode(fh.encoding)
            line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
            raise ParseError(
                f"{path}:{line}: cannot decode the byte at offset {exc.start} "
                f"as {exc.encoding}: {exc.reason}"
            ) from None
        raise
    if not labels:
        raise ParseError(f"{path}: no samples found")

    y = _map_labels(np.array(labels))
    idx = np.frombuffer(cols, dtype=np.int64)
    width = int(idx.max(initial=0))
    # Each entry's position in the flattened Z, ascending unless a line
    # repeats or reorders its indices.  The indices are freed before Z is
    # allocated: on an ordered file no more than three arrays of entry or Z
    # size are live at once.
    flat = np.repeat(np.arange(len(labels)) * width - 1, np.frombuffer(counts, dtype=np.int64))
    flat += idx
    del idx, cols
    values = np.frombuffer(vals)
    if not (flat[1:] > flat[:-1]).all():
        # numpy leaves unspecified which value a repeated position gets in
        # one assignment, so keep each one's last: its first occurrence in
        # the reversed order.
        flat, last = np.unique(flat[::-1], return_index=True)
        values = values[::-1][last]
    Z = np.zeros((len(labels), width))
    Z.reshape(-1)[flat] = values
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
        if not np.isfinite(q).all():
            raise ValueError("base_q must be finite")
        if eps.ndim != 1 or eps.size < 1:
            raise ValueError("eps must be a nonempty vector")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        with np.errstate(over="ignore"):
            if not np.isfinite(eps**2).all():
                raise ValueError(f"eps must have finite squares, got sigma={self.sigma:g}")
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

    The full-data methods share the ridge weight N * w.eps^2, computed once
    from the kernel's weights w.
    """

    def __init__(self, spec: NoisyQuadraticSpec, weights):
        self.spec = spec
        self.weights = component_weights(weights, spec.n_components)
        self._eps_sq = spec.eps**2
        self._N = spec.n_components
        self._ridge = self._N * float(self.weights.dot(self._eps_sq))

    def _base(self, x):
        Qx = self.spec.base_Q.dot(x)
        return 0.5 * float(x.dot(Qx)) + float(self.spec.base_q.dot(x)), Qx

    def gather(self, idx):
        return self._eps_sq[idx]

    def values(self, eps_sq, x):
        base_value, _ = self._base(x)
        return base_value + (self._N * float(x.dot(x))) * eps_sq

    def mean_along(self, eps_sq, x, p, f0, slope):
        at_point = lambda z: _mean(self.values(eps_sq, z))
        return self._ray(x, p, f0, slope, self._N * _mean(eps_sq), at_point)

    def value_grad_mean(self, eps_sq, x):
        base_value, Qx = self._base(x)
        vals = base_value + (self._N * float(x.dot(x))) * eps_sq
        ridge_mean = self._N * _mean(eps_sq)
        return vals, Qx + self.spec.base_q + (2.0 * ridge_mean) * x

    def weighted_value(self, x):
        base_value, _ = self._base(x)
        return base_value + self._ridge * float(x.dot(x))

    def weighted_value_along(self, x, p, f0, slope):
        return self._ray(x, p, f0, slope, self._ridge, self.weighted_value)

    def _ray(self, x, p, a0, a1, ridge, at_point):
        # f(x + t p) = a0 + t (a1 + t a2), with the caller's value a0 and g.p a1 at x, bit for bit.
        # A coefficient past the float range would read inf at every t: trials then go to at_point.
        a2 = 0.5 * float(p.dot(self.spec.base_Q.dot(p))) + ridge * float(p.dot(p))
        if not (math.isfinite(a0) and math.isfinite(a1) and math.isfinite(a2)):
            return lambda t: at_point(x + t * p)
        return lambda t: a0 + t * (a1 + t * a2)

    def weighted_value_grad(self, x):
        base_value, Qx = self._base(x)
        ridge = self._ridge
        return base_value + ridge * float(x.dot(x)), Qx + self.spec.base_q + (2.0 * ridge) * x

    def weighted_value_grad_many(self, X):
        QX = self.spec.base_Q @ X
        ridge = self._ridge
        quad = np.einsum("ik,ik->k", X, 0.5 * QX + ridge * X)
        return quad + self.spec.base_q @ X, QX + self.spec.base_q[:, None] + (2.0 * ridge) * X


def noisy_quadratic_objective(
    spec: NoisyQuadraticSpec, weights: np.ndarray | None = None
) -> FiniteSumObjective:
    if weights is None:
        weights = uniform_weights(spec.n_components)
    return FiniteSumObjective(spec.dim, NoisyQuadraticKernel(spec, weights))


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
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
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
