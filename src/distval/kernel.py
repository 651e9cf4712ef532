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
diagonal, and forms only its row sums. The kernel mean embedding's triangle
(`mmd._embedding`) is the one pass that also forms the triangle's column
sums, from which K(X, X) w follows, and, for rows made of consecutive
parts, each row's sum within its own part (one extra product per block and
part), from which each part's own self-sum follows.
The blocks are grouped into at most 8 chunks of about equal entries; each
chunk reuses one block buffer, and the calling thread takes chunks
alongside threads - 1 pool workers. Results are identical for any worker
count: the blocks and chunks depend only on the input sizes, each row is
reduced on its own, each chunk adds any column sums in block order, the
chunks' partials are added in chunk order on the calling thread, and the
weighted per-row sums are combined exactly in index order.

The bandwidth heuristic (`median_heuristic`) walks the same row blocks to
fill one array with the n(n-1)/2 squared pairwise distances, so it never
holds the n x n matrix, and one in-place partition of that array gives the
median.
"""
from __future__ import annotations

import bisect
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

# Row blocks are grouped into at most this many chunks of about equal kernel
# entries; each chunk allocates one block buffer and reuses it for every block.
# The count never depends on the thread count, so neither do the bits.
_CHUNKS = 8

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


def _chunk_plan(m: int, n: int, rows: int, triangle: bool) -> list[list[int]]:
    """The starts of the row blocks of K(X, Y) or its upper triangle, grouped
    into at most _CHUNKS runs of consecutive blocks of about equal entries.

    A block joins the chunk in which its first entry falls. The plan depends
    only on the input sizes, so neither the thread count nor the order in
    which workers take the chunks can change a bit.
    """
    if m <= rows:
        return [[0]]
    los = range(0, m, rows)
    entries = [(min(lo + rows, m) - lo) * (n - lo if triangle else n) for lo in los]
    total, before = max(1, sum(entries)), 0
    chunks: dict[int, list[int]] = {}
    for lo, e in zip(los, entries):
        chunks.setdefault(before * _CHUNKS // total, []).append(lo)
        before += e
    return list(chunks.values())


def _drain(work, count: int, threads: int) -> None:
    """work(k) for every k < count, taken in order by the calling thread and
    by up to threads - 1 pool workers alongside it; one chunk starts no pool."""
    workers = min(threads, count) - 1
    if workers < 1:
        for k in range(count):
            work(k)
        return
    todo = iter(range(count))
    lock = threading.Lock()

    def take():
        while True:
            with lock:
                k = next(todo, None)
            if k is None:
                return
            work(k)

    futures = [_pool(workers).submit(take) for _ in range(workers)]
    try:
        take()
    finally:
        # A task still queued behind other callers' work would find no chunk
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
    weights in one matrix product. The blocks are grouped into chunks
    (`_chunk_plan`), and each chunk reuses one block buffer. The second and
    third results are None unless `bounds` is passed, which only the kernel
    mean embedding's triangle does: the row indices at which consecutive
    parts start, and the end. Its second result is then the triangle's
    column sums c_j = sum_{i<j} wy_i k(x_i, x_j): each chunk adds its blocks'
    column sums, in block order, into its own partial, and the partials are
    added in chunk order. Its third result, for more than one part, is each
    row's sum over the columns to its right within its own part.
    """
    triangle = Y is None
    A, B = _lifted(cfg, X, X if triangle else Y)
    m, n = A.shape[0], B.shape[0]
    rows = max(1, _BLOCK_ENTRIES // max(1, n))
    # Zeroes the diagonal and lower triangle of a block's leading square.
    lower = np.tri(min(rows, m), dtype=bool) if triangle else None
    row_sums = np.empty((m,) + wy.shape[1:])
    own = np.empty_like(row_sums) if bounds is not None and len(bounds) > 2 else None
    chunks = _chunk_plan(m, n, rows, triangle)
    col_parts = [None] * len(chunks)

    def chunk(k: int):
        first = chunks[k][0]
        space = np.empty(min(rows, m - first) * (n - first if triangle else n))
        for lo in chunks[k]:
            hi = min(lo + rows, m)
            c0 = lo if triangle else 0
            buf = space[: (hi - lo) * (n - c0)].reshape(hi - lo, n - c0)
            _gram_block(A[lo:hi], B[c0:], buf)
            if triangle:
                buf[:, : hi - lo][lower[: hi - lo, : hi - lo]] = 0.0
            np.matmul(buf, wy[c0:], out=row_sums[lo:hi])
            if bounds is not None:
                cols = buf.T @ wy[lo:hi]
                if lo == first:
                    col_parts[k] = cols
                else:
                    col_parts[k][lo - first :] += cols
            if own is not None:
                # each part's rows in this block, over that part's columns
                p = bisect.bisect_right(bounds, lo) - 1
                while bounds[p] < hi:
                    r0, r1, end = max(bounds[p], lo), min(bounds[p + 1], hi), bounds[p + 1]
                    part = buf[r0 - lo : r1 - lo, r0 - lo : end - lo]
                    np.matmul(part, wy[r0:end], out=own[r0:r1])
                    p += 1

    _drain(chunk, len(chunks), threads)
    if bounds is None:
        return row_sums, None, None
    # the first chunk starts at row 0, so its partial spans every column
    col_sums = col_parts[0]
    for los, cols in zip(chunks[1:], col_parts[1:]):
        col_sums[los[0] :] += cols
    return row_sums, col_sums, own


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")


def _triangle_sum(w: np.ndarray, r: np.ndarray) -> float:
    """sum_i w_i^2 + 2 sum_i w_i r_i, exactly: the self-sum w^T K(X, X) w of
    rows whose weighted sums over the columns to their right are r; k(x, x) = 1
    exactly, so the diagonal contributes w_i^2."""
    return math.fsum(np.concatenate((w * w, 2.0 * w * r)).tolist())


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
        return _triangle_sum(wx, _reduce_blocks(cfg, X, wx, threads=threads)[0])
    row_sums = _reduce_blocks(cfg, X, wy, Y, threads)[0]
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
    reproducible and the O(m^2) distance scan stays bounded. The n(n-1)/2
    squared distances are written straight into one array, a row block of
    the distance matrix at a time (blocks of about 2 MB, as in the Gram
    sums), so no n x n matrix is held: at n = 1000 the call peaks at about
    6.3 MB (the 4 MB of pairs and one 2 MB block), where the dense matrix
    took 16.1 MB. One in-place partition then finds the middle value. Raises
    when the median is 0 (more than half the pairs coincide), or when the
    squared distances overflow float64; supply sigma explicitly, or rescale
    the data, in those cases.
    """
    pts = pooled.points
    n = pts.shape[0]
    if n < 2:
        raise InputError("median_heuristic: need at least 2 pooled points")
    if n > _MEDIAN_CAP:
        rng = np.random.default_rng(0)
        pts = pts[rng.permutation(n)[:_MEDIAN_CAP]]
        n = _MEDIAN_CAP
    rows = max(1, _BLOCK_ENTRIES // n)
    pairs = np.empty(n * (n - 1) // 2)
    buf = np.empty((min(rows, n), n))
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        c = _centered(pts, pts)[0]
        cc = _sq_norms(c)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            b = _sq_dists(c[lo:hi], cc[lo:hi], c, cc, buf[: hi - lo])
            # each row's pairs to its right, in row order: the upper triangle
            for i in range(lo, hi):
                pairs[k : k + n - 1 - i] = b[i - lo, i + 1 :]
                k += n - 1 - i
    # An overflow above leaves an inf or a NaN among the pairs; max keeps NaN.
    if not pairs.max() < math.inf:
        raise InputError(
            "median_heuristic: the data's spread overflows float64 (squared pairwise"
            " distances above about 1.8e308); rescale the data"
        )
    # sqrt is monotone, so the median of the distances is the sqrt of the
    # middle squared distance (the mean of the two middle ones for an even
    # count). After the partition every value below `half` is at most
    # pairs[half], so the lower middle one is their max.
    half = len(pairs) // 2
    pairs.partition(half)
    mid = [pairs[half]] if len(pairs) % 2 else [pairs[:half].max(), pairs[half]]
    med = float(np.mean(np.sqrt(mid)))
    if med <= 0.0:
        raise InputError(
            "median_heuristic: the median pairwise distance is 0 (more than half"
            " the pooled pairs coincide); pass sigma explicitly"
        )
    return med
