"""RBF kernel evaluation, blocked Gram reductions, and bandwidth selection.

The O(m^2) kernel sums here are the hot path of every distance computation.
`weighted_gram_sum` streams the Gram matrix in row blocks of about 2 MB, so
a block stays in cache. The rows are lifted first (`_lifted`): centred on
the pooled mean, divided by sigma and given two extra columns, so that one
matrix product fills a block's buffer with the whole RBF exponent
-||x - y||^2 / (2 sigma^2). A block then takes three passes over its buffer
(the product, a clip at 0 and `exp`), and one more product with the weights
gives its weighted row sums. The weights are a vector, or a matrix with one
column per weighting, so a group of weightings shares every block. The
centring keeps the expanded quadratic from cancelling away the precision of
points far from the origin. A self-sum (both sides equal by content)
evaluates only the upper triangle, since K(X, X) is symmetric with a unit
diagonal. Every pass forms row sums and nothing else; a pass given column
segments (a pooled sample's table, `mmd._Table`) keeps each row's sums per
segment, with one product per block and segment.
The calling thread and up to threads - 1 pool workers take the row blocks
one at a time, in row order, and each block allocates a buffer of its own
size. Results are identical for any worker count: the blocks depend only on
the input sizes, each row is reduced within its own block, and the weighted
per-row sums are combined exactly in index order.

The bandwidth heuristic (`median_heuristic`) lifts the rows at sigma 1 and
walks the same row blocks to fill one array with the n(n-1)/2 exponents
-||x - y||^2 / 2, so it never holds the n x n matrix; one in-place
partition of that array gives the middle exponents, and only they become
distances.
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
# per sum starts its threads every time: that measured level on a 10,000-row
# self-sum but 9% slower on a 2,000-row triangle and 26% on a 500 x 1,000
# cross sum (2 threads, BLAS at 1 thread).
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


def _lifted(cfg: KernelConfig, X: np.ndarray, Y: np.ndarray):
    """Rows of X and Y lifted so that A @ B.T = -||x - y||^2 / (2 sigma^2).

    With x and y centred on the pooled mean and divided by sigma, the lifted
    row of x is a = [x, -|x|^2 / 2, 1] and that of y is b = [y, 1, -|y|^2 / 2],
    so one matrix product gives a block's whole exponent. The centring leaves
    every distance unchanged and keeps the expanded quadratic from cancelling
    away the precision of points far from the origin. Every partial sum of
    a . b is at most |x|^2 + |y|^2 in magnitude, so each row's |x|^2 / 2 is
    held to _LIFT_MAX, which keeps the product clear of overflow; a row
    further than 2^511 sigma from the mean raises InputError instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if Y is X:
            Xs = Ys = (X - X.mean(axis=0)) / cfg.sigma
        else:
            c = (X.sum(axis=0) + Y.sum(axis=0)) / (X.shape[0] + Y.shape[0])
            Xs, Ys = (X - c) / cfg.sigma, (Y - c) / cfg.sigma
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


def _drain(work, starts, threads: int) -> None:
    """work(lo) for every lo in starts, taken in order by the calling thread
    and by up to threads - 1 pool workers alongside it; a single taker runs a
    plain loop, with no lock and no pool."""
    workers = min(threads, len(starts)) - 1
    if workers < 1:
        for lo in starts:
            work(lo)
        return
    todo = iter(starts)
    lock = threading.Lock()

    def take():
        while True:
            with lock:
                lo = next(todo, None)
            if lo is None:
                return
            work(lo)

    futures = [_pool(workers).submit(take) for _ in range(workers)]
    try:
        take()
    finally:
        # A task still queued behind other callers' work would find no block
        # left, so it is cancelled; one that started is waited for.
        for f in futures:
            if not f.cancel():
                f.result()


def _reduce_blocks(cfg, X, wy, Y=None, threads: int = 1, bounds=None):
    """Each row's weighted sum over the row blocks of K(X, Y), or, with Y left
    out, over the upper triangle of K(X, X).

    r_i = sum_j k(x_i, y_j) wy_j, over j > i only for the triangle. The
    weights wy are a vector (n,) or a matrix (n, k) with one weighting per
    column, and the results then have k columns too: each block meets the
    weights in one matrix product. `bounds`, when passed, are the column
    indices at which consecutive segments start, and the end: the result is
    then (segments, m) + wy.shape[1:], each row's sum over each segment's
    columns, and each block meets each segment's weights in a product of its
    own. Each block allocates a buffer of its own size, dropped when the
    block is reduced, so a taker of blocks (`_drain`) holds one at a time.
    """
    triangle = Y is None
    A, B = _lifted(cfg, X, X if triangle else Y)
    m, n = A.shape[0], B.shape[0]
    rows = max(1, _BLOCK_ENTRIES // max(1, n))
    # Zeroes the diagonal and lower triangle of a block's leading square.
    lower = np.tri(min(rows, m), dtype=bool) if triangle else None
    segments = list(zip(bounds, bounds[1:])) if bounds is not None else [(0, n)]
    row_sums = np.empty((len(segments), m) + wy.shape[1:])

    def block(lo: int) -> None:
        hi = min(lo + rows, m)
        c0 = lo if triangle else 0
        buf = _gram_block(A[lo:hi], B[c0:], np.empty((hi - lo, n - c0)))
        if triangle:
            buf[:, : hi - lo][lower[: hi - lo, : hi - lo]] = 0.0
        for out, (s0, s1) in zip(row_sums[:, lo:hi], segments):
            s0 = max(s0, c0)  # a triangle's block starts at column lo
            if s0 < s1:
                np.matmul(buf[:, s0 - c0 : s1 - c0], wy[s0:s1], out=out)
            else:
                out[...] = 0.0

    _drain(block, range(0, m, rows), threads)
    return row_sums if bounds is not None else row_sums[0]


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")


def _triangle_sum(w: np.ndarray, r: np.ndarray) -> float:
    """sum_i w_i^2 + 2 sum_i w_i r_i, exactly: the self-sum w^T K(X, X) w of
    rows whose weighted sums over the columns to their right are r, or, with
    one row of r per column segment, whose sums over each segment's columns
    to their right are; k(x, x) = 1 exactly, so the diagonal contributes w_i^2."""
    return math.fsum(np.concatenate((w * w, (2.0 * w * r).ravel())).tolist())


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
    sum_i wx_i^2 + 2 sum_{i<j} wx_i wx_j k(x_i, x_j), from the upper
    triangle's row sums alone (`_triangle_sum`); a cross sum between equal
    inputs takes the same route, so it is bit-identical to the self-sum.
    Deterministic for any worker count: the row blocks depend only on the
    input sizes, each row's weighted sum is reduced on its own, and the rows
    are combined exactly (math.fsum).
    """
    _check_threads(threads)
    if (X is Y or np.array_equal(X, Y)) and (wx is wy or np.array_equal(wx, wy)):
        return _triangle_sum(wx, _reduce_blocks(cfg, X, wx, threads=threads))
    row_sums = _reduce_blocks(cfg, X, wy, Y, threads)
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
    reproducible and the O(m^2) distance scan stays bounded. The rows are
    lifted at sigma 1 (`_lifted`), so a row block of A @ B.T holds the
    exponents -||x - y||^2 / 2, and the n(n-1)/2 exponents of the pairs are
    written straight into one array a block at a time (blocks of about 2 MB,
    as in the Gram sums), so no n x n matrix is held: at n = 1000 the call
    peaks at about 6.3 MB (the 4 MB of pairs and one 2 MB block), where the
    dense matrix took 16.1 MB. One in-place partition then finds the middle
    exponents, and only they are turned into distances. Raises when the
    median is 0 (more than half the pairs coincide), or when the spread
    overflows float64 (a row more than 2^511 from the pooled mean, or a
    middle squared distance above the float64 maximum); supply sigma
    explicitly, or rescale the data, in those cases.
    """
    pts = pooled.points
    n = pts.shape[0]
    if n < 2:
        raise InputError("median_heuristic: need at least 2 pooled points")
    if n > _MEDIAN_CAP:
        rng = np.random.default_rng(0)
        pts = pts[rng.permutation(n)[:_MEDIAN_CAP]]
        n = _MEDIAN_CAP
    overflow = (
        "median_heuristic: the data's spread overflows float64: a row lies more than"
        " 2^511 (about 6.7e153) from the pooled mean, or a middle squared distance"
        " exceeds about 1.8e308; rescale the data"
    )
    try:
        A, B = _lifted(KernelConfig(sigma=1.0), pts, pts)
    except InputError:
        raise InputError(overflow) from None
    rows = max(1, _BLOCK_ENTRIES // n)
    pairs = np.empty(n * (n - 1) // 2)
    buf = np.empty((min(rows, n), n))
    k = 0
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        b = np.matmul(A[lo:hi], B.T, out=buf[: hi - lo])
        # each row's pairs to its right, in row order: the upper triangle
        for i in range(lo, hi):
            pairs[k : k + n - 1 - i] = b[i - lo, i + 1 :]
            k += n - 1 - i
    # The squared distance max(-2 e, 0) falls as the exponent e rises, and
    # sqrt is monotone, so the middle distances come from the middle
    # exponents (the mean of the two for an even count). After the partition
    # every value below `half` is at most pairs[half], so the other middle
    # one is their max. Only these are scaled: -2 e overflows for rows at
    # the lifted bound.
    half = len(pairs) // 2
    pairs.partition(half)
    mid = pairs[half : half + 1] if len(pairs) % 2 else np.array([pairs[:half].max(), pairs[half]])
    with np.errstate(over="ignore"):
        med = float(np.mean(np.sqrt(np.maximum(-2.0 * mid, 0.0))))
    if not med < math.inf:
        raise InputError(overflow)
    if med <= 0.0:
        raise InputError(
            "median_heuristic: the median pairwise distance is 0 (more than half"
            " the pooled pairs coincide); pass sigma explicitly"
        )
    return med
