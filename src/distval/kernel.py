"""RBF kernel evaluation, blocked Gram reductions, and bandwidth selection.

The O(m^2) kernel sums here are the hot path of every distance computation.
`weighted_gram_sum` streams the Gram matrix in row blocks of about 2 MB, so
a block stays in cache: each block fills one buffer in place with the
squared distances, then the kernel values, then their weighted row sums.
A self-sum (both sides equal by content) evaluates only the upper triangle,
since K(X, X) is symmetric with a unit diagonal; the same pass also gives
the kernel mean embedding K(X, X) w from the triangle's row and column sums.
Coordinates are centred on the pooled mean first, so the expanded-quadratic
distances keep their precision far from the origin. Results are identical for any worker count:
the blocks depend only on the input sizes, each row is reduced on its own,
the column sums are added in block order on the calling thread, and the
weighted per-row sums are combined exactly in index order.
"""
from __future__ import annotations

import math
import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_same_dim
from .errors import InputError

# Rows per block are sized so a block of the Gram matrix stays ~2 MB.
_BLOCK_ENTRIES = 262_144

# Rows the bandwidth heuristic subsamples (with seed 0) from a larger pool.
_MEDIAN_CAP = 1000


# The bound K on kernel values that the MMD concentration bounds take. For the
# RBF kernel k(x, x) = 1 and every other entry lies in (0, 1], so K = 1.
K_BOUND = 1.0

# One reused pool per worker count, created on first use.
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
    """X and Y less their pooled mean, each with its rows' squared norms.

    The shift leaves every distance unchanged, and it keeps the expanded
    quadratic in _sq_dists from cancelling away the precision of points far
    from the origin.
    """
    if Y is X:
        Xc = X - X.mean(axis=0)
        xx = _sq_norms(Xc)
        return Xc, xx, Xc, xx
    c = (X.sum(axis=0) + Y.sum(axis=0)) / (X.shape[0] + Y.shape[0])
    Xc, Yc = X - c, Y - c
    return Xc, _sq_norms(Xc), Yc, _sq_norms(Yc)


def _sq_dists(X, xx, Y, yy, out: np.ndarray) -> np.ndarray:
    # ||x - y||^2 via the expanded quadratic, in place in `out`; clipped,
    # since cancellation can produce tiny negatives for near-identical points.
    np.matmul(X, Y.T, out=out)
    out *= -2.0
    out += xx[:, None]
    out += yy
    return np.maximum(out, 0.0, out=out)


def _gram_block(cfg: KernelConfig, X, xx, Y, yy, out: np.ndarray) -> np.ndarray:
    _sq_dists(X, xx, Y, yy, out)
    out *= -1.0 / (2.0 * cfg.sigma**2)
    return np.exp(out, out=out)


def gram_matrix(cfg: KernelConfig, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Full kernel matrix between the rows of X and Y."""
    return _gram_block(cfg, *_centered(X, Y), np.empty((X.shape[0], Y.shape[0])))


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


def _run_blocks(fn, spans: list[tuple[int, int]], threads: int, take=None) -> None:
    """fn(lo, hi) for every span, on at most one worker per span; `take`, if
    given, receives each span's lo and result on the calling thread, in span
    order, and no result is kept once it has been taken."""
    workers = min(threads, len(spans))
    if workers <= 1:
        results = (fn(lo, hi) for lo, hi in spans)
    else:
        pool = _pool(workers)
        futures = deque(pool.submit(fn, lo, hi) for lo, hi in spans)
        results = (futures.popleft().result() for _ in spans)
    for (lo, _), out in zip(spans, results):
        if take is not None:
            take(lo, out)


def _reduce_blocks(cfg, X, Y, wy, threads: int, symmetric: bool):
    """Each row's weighted sum over the row blocks of K(X, Y).

    r_i = sum_j k(x_i, y_j) wy_j; when `symmetric` (Y is X) only j > i, and
    the second result is then c_j = sum_{i<j} wy_i k(x_i, x_j), each block's
    weighted column sums added in block order.
    """
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    Xc, xx, Yc, yy = _centered(X, X if symmetric else Y)
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
        _gram_block(cfg, Xc[lo:hi], xx[lo:hi], Yc[c0:], yy[c0:], buf)
        cols = None
        if symmetric:
            buf[:, : hi - lo][lower[: hi - lo, : hi - lo]] = 0.0
            cols = wy[lo:hi] @ buf
        if not unit_wy:
            buf *= wy[c0:]
        buf.sum(axis=1, out=row_sums[lo:hi])
        return cols

    def add_cols(lo: int, cols) -> None:
        col_sums[lo:] += cols

    spans = [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]
    _run_blocks(block, spans, threads, add_cols if symmetric else None)
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
    median is 0 (more than half the pairs coincide); supply sigma explicitly
    in that case.
    """
    pts = pooled.points
    if pts.shape[0] < 2:
        raise InputError("median_heuristic: need at least 2 pooled points")
    if pts.shape[0] > _MEDIAN_CAP:
        rng = np.random.default_rng(0)
        pts = pts[rng.permutation(pts.shape[0])[:_MEDIAN_CAP]]
    c, cc = _centered(pts, pts)[:2]
    d2 = _sq_dists(c, cc, c, cc, np.empty((pts.shape[0], pts.shape[0])))
    iu = np.triu_indices(pts.shape[0], k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    if med <= 0.0:
        raise InputError(
            "median_heuristic: the median pairwise distance is 0 (more than half"
            " the pooled pairs coincide); pass sigma explicitly"
        )
    return med
