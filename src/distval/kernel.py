"""RBF kernel evaluation, blocked Gram reductions, and bandwidth selection.

The O(m^2) kernel sums here are the hot path of every distance computation.
`weighted_gram_sum` streams the Gram matrix in row blocks of about 2 MB, so
a block stays in cache. The rows are lifted first (`_lifted`): centred on
the pooled mean, divided by sigma and given two extra columns, so that one
matrix product fills a block's buffer with the whole RBF exponent
-||x - y||^2 / (2 sigma^2). A block then takes three passes over its buffer
(the product, a clip at 0 and `exp`) before its weighted row sums. The
centring keeps the expanded quadratic from cancelling away the precision of
points far from the origin. A self-sum (both sides equal by content)
evaluates only the upper triangle, since K(X, X) is symmetric with a unit
diagonal; the same pass also gives the kernel mean embedding K(X, X) w from
the triangle's row and column sums. Results are identical for any worker
count: the blocks depend only on the input sizes, each row is reduced on its
own, the column sums are added in block order on the calling thread, and
the weighted per-row sums are combined exactly in index order.
"""
from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_same_dim
from .errors import InputError

# Rows per block are sized so a block of the Gram matrix stays ~2 MB.
_BLOCK_ENTRIES = 262_144

# The largest half squared norm a lifted row may have: it keeps every partial
# sum of a lifted product within 2^1023, half the float64 range.
_LIFT_MAX = 2.0**1021

# Rows the bandwidth heuristic subsamples (with seed 0) from a larger pool.
_MEDIAN_CAP = 1000


# The bound K on kernel values that the MMD concentration bounds take. For the
# RBF kernel k(x, x) = 1 and every other entry lies in (0, 1], so K = 1.
K_BOUND = 1.0

# One reused pool per worker count, created on first use. A fresh executor
# per sum starts its threads every time: that measured 5-41% slower on a
# 10,000-row self-sum and 13-52% on a 2,000-row one (2 threads, BLAS at 1
# thread).
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _drop_pools_in_child() -> None:
    # A forked child inherits the pools but not their threads, so a task
    # submitted there would never run; it starts its own pools instead.
    global _POOLS_LOCK
    _POOLS.clear()
    _POOLS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_drop_pools_in_child)


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth of the RBF kernel k(x, x') = exp(-||x - x'||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        # The kernel divides by 2 sigma^2, so that must be a finite, normal float.
        if not (self.sigma > 0 and sys.float_info.min <= 2.0 * self.sigma * self.sigma < math.inf):
            raise InputError(
                "kernel: sigma must be positive and finite, with 2 sigma^2 a normal float"
                f" (about 1.5e-154 to 9.4e153), got {self.sigma!r}"
            )


def _sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def _centered(X: np.ndarray, Y: np.ndarray):
    """X and Y less their pooled mean.

    The shift leaves every distance unchanged, and it keeps the expanded
    quadratic from cancelling away the precision of points far from the
    origin.
    """
    if Y is X:
        Xc = X - X.mean(axis=0)
        return Xc, Xc
    c = (X.sum(axis=0) + Y.sum(axis=0)) / (X.shape[0] + Y.shape[0])
    return X - c, Y - c


def _sq_dists(X, xx, Y, yy, out: np.ndarray) -> np.ndarray:
    # ||x - y||^2 via the expanded quadratic, in place in `out`; clipped,
    # since cancellation can produce tiny negatives for near-identical points.
    np.matmul(X, Y.T, out=out)
    out *= -2.0
    out += xx[:, None]
    out += yy
    return np.maximum(out, 0.0, out=out)


def _lifted(cfg: KernelConfig, X: np.ndarray, Y: np.ndarray):
    """Rows of X and Y lifted so that A @ B.T = -||x - y||^2 / (2 sigma^2).

    With x and y centred on the pooled mean and divided by sigma, the lifted
    row of x is a = [x, -|x|^2 / 2, 1] and that of y is b = [y, 1, -|y|^2 / 2],
    so one matrix product gives a block's whole exponent. Every partial sum
    of a . b is at most |x|^2 + |y|^2 in magnitude, so each row's |x|^2 / 2 is
    held to _LIFT_MAX, which keeps the product clear of overflow; a row
    further than 2^511 sigma from the mean raises InputError instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        Xc, Yc = _centered(X, Y)
        Xs = Xc / cfg.sigma
        Ys = Xs if Yc is Xc else Yc / cfg.sigma
        hx = -0.5 * _sq_norms(Xs)
        hy = hx if Ys is Xs else -0.5 * _sq_norms(Ys)
    # False for NaN, so an overflow anywhere above is caught here too.
    if not ((hx >= -_LIFT_MAX).all() and (hy >= -_LIFT_MAX).all()):
        raise InputError(
            "kernel: the data's spread overflows float64 at this bandwidth: a row lies"
            f" more than 2^511 sigma (about 6.7e153 sigma) from the pooled mean, with"
            f" sigma = {cfg.sigma!r}; rescale the data or pass a larger sigma"
        )
    A = np.column_stack((Xs, hx, np.ones_like(hx)))
    B = np.column_stack((Ys, np.ones_like(hy), hy))
    return A, B


def _gram_block(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The exponent in place in `out`, clipped at 0 since cancellation can
    # leave tiny positives for near-identical points, then the kernel values.
    np.matmul(A, B.T, out=out)
    np.minimum(out, 0.0, out=out)
    return np.exp(out, out=out)


def gram_matrix(cfg: KernelConfig, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Full kernel matrix between the rows of X and Y."""
    return _gram_block(*_lifted(cfg, X, Y), np.empty((X.shape[0], Y.shape[0])))


def kernel_eval(cfg: KernelConfig, x, y) -> float:
    """k(x, y) for a single pair of feature vectors; symmetric, in (0, 1]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.ndim != 1:
        raise InputError(f"kernel_eval: dimension mismatch ({x.shape} vs {y.shape})")
    d2 = float(((x - y) ** 2).sum())
    return math.exp(-d2 / (2.0 * cfg.sigma**2))


def _pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        if workers not in _POOLS:
            _POOLS[workers] = ThreadPoolExecutor(workers, thread_name_prefix="distval-gram")
        return _POOLS[workers]


def _reduce_blocks(cfg, X, Y, wy, threads: int, symmetric: bool):
    """Each row's weighted sum over the row blocks of K(X, Y).

    r_i = sum_j k(x_i, y_j) wy_j; when `symmetric` (Y is X) only j > i, and
    the second result is then c_j = sum_{i<j} wy_i k(x_i, x_j), each block's
    weighted column sums added in block order.
    """
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    A, B = _lifted(cfg, X, X if symmetric else Y)
    m, n = X.shape[0], Y.shape[0]
    rows = max(1, _BLOCK_ENTRIES // max(1, n))
    # Multiplying by 1.0 is exact, so skipping it changes no bit.
    unit_wy = bool((wy == 1.0).all())
    # Zeroes the diagonal and lower triangle of a block's leading square.
    lower = np.tri(min(rows, m), dtype=bool) if symmetric else None
    row_sums = np.empty(m)
    col_sums = np.zeros(n) if symmetric else None

    def block(lo: int, hi: int):
        c0 = lo if symmetric else 0
        buf = np.empty((hi - lo, n - c0))
        _gram_block(A[lo:hi], B[c0:], buf)
        cols = None
        if symmetric:
            buf[:, : hi - lo][lower[: hi - lo, : hi - lo]] = 0.0
            cols = wy[lo:hi] @ buf
        if not unit_wy:
            buf *= wy[c0:]
        buf.sum(axis=1, out=row_sums[lo:hi])
        return cols

    los = range(0, m, rows)
    his = [min(lo + rows, m) for lo in los]
    # At most one worker per block. Executor.map yields the results in block
    # order on the calling thread and drops each one once it is taken.
    workers = min(threads, len(los))
    results = map(block, los, his) if workers <= 1 else _pool(workers).map(block, los, his)
    for lo, cols in zip(los, results):
        if symmetric:
            col_sums[lo:] += cols
    return row_sums, col_sums


def _self_sum_and_embedding(
    cfg: KernelConfig, X: np.ndarray, w: np.ndarray, threads: int = 1
) -> tuple[float, np.ndarray]:
    """w^T K(X, X) w, and the kernel mean embedding g = K(X, X) w at the rows.

    One upper-triangle pass gives both. The sum is taken as
    sum_i w_i^2 + 2 sum_i w_i r_i with r_i = sum_{j>i} w_j k(x_i, x_j), and
    g = w + r + c, where c_j = sum_{i<j} w_i k(x_i, x_j) are the triangle's
    weighted column sums. Both are bit-identical for any worker count.
    """
    r, c = _reduce_blocks(cfg, X, X, w, threads, symmetric=True)
    # k(x, x) = 1 exactly, so the diagonal contributes w_i^2 to the sum and w_i to g.
    s = math.fsum(np.concatenate((w * w, 2.0 * w * r)).tolist())
    g = w + r
    g += c
    return s, g


def weighted_gram_sum(
    cfg: KernelConfig,
    X: np.ndarray,
    wx: np.ndarray,
    Y: np.ndarray,
    wy: np.ndarray,
    threads: int = 1,
) -> float:
    """wx^T K(X, Y) wy: the weighted sum of k(x_i, y_j) over all row pairs.

    When (X, wx) equals (Y, wy) by content the sum is taken as
    sum_i wx_i^2 + 2 sum_{i<j} wx_i wx_j k(x_i, x_j), half the kernel
    entries (`_self_sum_and_embedding`); a cross sum between equal inputs takes
    the same route, so it is bit-identical to the self-sum. Deterministic for
    any worker count: the row blocks depend only on the input sizes, each
    row's weighted sum is reduced on its own, and the rows are combined
    exactly (math.fsum).
    """
    if (X is Y or np.array_equal(X, Y)) and (wx is wy or np.array_equal(wx, wy)):
        return _self_sum_and_embedding(cfg, X, wx, threads)[0]
    row_sums = _reduce_blocks(cfg, X, Y, wy, threads, symmetric=False)[0]
    return math.fsum((wx * row_sums).tolist())


def gram_sum(cfg: KernelConfig, A: Dataset, B: Dataset, threads: int = 1) -> float:
    """Sum of k(x, w) over all pairs x in A, w in B.

    Computed over each dataset's distinct rows weighted by their counts: the
    same sum from fewer kernel entries. Nothing is cached, so every call does
    the whole reduction.
    """
    check_same_dim(A, B, "gram_sum")
    return weighted_gram_sum(cfg, *A.atoms, *B.atoms, threads)


def median_heuristic(pooled: Dataset) -> float:
    """Median pairwise Euclidean distance over a seeded subsample of the pool.

    Subsamples min(1000, m) points without replacement, so the bandwidth is
    reproducible and the O(m^2) distance scan stays bounded. Raises when the
    median is 0 (more than half the pairs coincide), or when the squared
    distances overflow float64; supply sigma explicitly, or rescale the data,
    in those cases.
    """
    pts = pooled.points
    n = pts.shape[0]
    if n < 2:
        raise InputError("median_heuristic: need at least 2 pooled points")
    if n > _MEDIAN_CAP:
        rng = np.random.default_rng(0)
        pts = pts[rng.permutation(n)[:_MEDIAN_CAP]]
        n = _MEDIAN_CAP
    with np.errstate(over="ignore", invalid="ignore"):
        c = _centered(pts, pts)[0]
        cc = _sq_norms(c)
        d2 = _sq_dists(c, cc, c, cc, np.empty((n, n)))
    # this loop beat a boolean triangle mask: faster per call, 1 MB less peak
    pairs = np.concatenate([d2[i, i + 1 :] for i in range(n - 1)])
    # An overflow above leaves an inf or a NaN among the pairs; max keeps NaN.
    if not pairs.max() < math.inf:
        raise InputError(
            "median_heuristic: the data's spread overflows float64 (squared pairwise"
            " distances above about 1.8e308); rescale the data"
        )
    # sqrt is monotone, so the median of the distances is the sqrt of the
    # middle squared distance (the mean of the two middle ones for an even count).
    half = len(pairs) // 2
    mid = [half] if len(pairs) % 2 else [half - 1, half]
    med = float(np.mean(np.sqrt(np.partition(pairs, mid)[mid])))
    if med <= 0.0:
        raise InputError(
            "median_heuristic: the median pairwise distance is 0 (more than half"
            " the pooled pairs coincide); pass sigma explicitly"
        )
    return med
