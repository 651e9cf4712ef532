"""RBF kernel evaluation, blocked Gram reductions, and bandwidth selection.

The O(m^2) kernel sums here are the hot path of every distance computation.
`weighted_gram_sum` streams the Gram matrix in fixed-size row blocks so
memory stays bounded and results are identical for any worker count: each
row is reduced on its own, and the weighted per-row sums are combined exactly
in index order.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_same_dim
from .errors import InputError

# Rows per block are sized so a block of the Gram matrix stays ~32 MB.
_BLOCK_ENTRIES = 4_194_304

THREADS_ENV_VAR = "DISTVAL_THREADS"


# The bound K on kernel values that the MMD concentration bounds take. For the
# RBF kernel k(x, x) = 1 and every other entry lies in (0, 1], so K = 1.
K_BOUND = 1.0


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth of the RBF kernel k(x, x') = exp(-||x - x'||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        if not (0 < self.sigma < math.inf):
            raise InputError(f"kernel: sigma must be positive and finite, got {self.sigma!r}")


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else DISTVAL_THREADS, else 1."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise InputError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    return threads


def _sq_dists(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # ||x - y||^2 via the expanded quadratic; clipped, since cancellation can
    # produce tiny negatives for near-identical points.
    xx = np.einsum("ij,ij->i", X, X)[:, None]
    yy = np.einsum("ij,ij->i", Y, Y)[None, :]
    return np.maximum(xx + yy - 2.0 * (X @ Y.T), 0.0)


def gram_matrix(cfg: KernelConfig, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Full kernel matrix between the rows of X and Y."""
    return np.exp(_sq_dists(X, Y) / (-2.0 * cfg.sigma**2))


def kernel_eval(cfg: KernelConfig, x, y) -> float:
    """k(x, y) for a single pair of feature vectors; symmetric, in (0, 1]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.ndim != 1:
        raise InputError(f"kernel_eval: dimension mismatch ({x.shape} vs {y.shape})")
    d2 = float(((x - y) ** 2).sum())
    return math.exp(-d2 / (2.0 * cfg.sigma**2))


def _row_sums(cfg: KernelConfig, X, Y, wy, unit_wy: bool, out: np.ndarray, lo: int, hi: int):
    k = gram_matrix(cfg, X[lo:hi], Y)
    if not unit_wy:
        k *= wy
    out[lo:hi] = k.sum(axis=1)


def weighted_gram_sum(
    cfg: KernelConfig,
    X: np.ndarray,
    wx: np.ndarray,
    Y: np.ndarray,
    wy: np.ndarray,
    threads: int | None = None,
) -> float:
    """wx^T K(X, Y) wy: the weighted sum of k(x_i, y_j) over all row pairs.

    Deterministic for any worker count: each row's weighted sum is reduced on
    its own, independent of block boundaries, and the rows are combined
    exactly (math.fsum) in index order.
    """
    nw = resolve_threads(threads)
    m = X.shape[0]
    block = max(1, _BLOCK_ENTRIES // max(1, Y.shape[0]))
    # Multiplying by 1.0 is exact, so skipping it changes no bit.
    unit_wy = bool((wy == 1.0).all())
    row_sums = np.empty(m)
    spans = [(lo, min(lo + block, m)) for lo in range(0, m, block)]
    args = (cfg, X, Y, wy, unit_wy, row_sums)
    if nw == 1 or len(spans) == 1:
        for lo, hi in spans:
            _row_sums(*args, lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=nw) as pool:
            futs = [pool.submit(_row_sums, *args, lo, hi) for lo, hi in spans]
            for f in futs:
                f.result()
    return math.fsum((wx * row_sums).tolist())


def gram_sum(cfg: KernelConfig, A: Dataset, B: Dataset, threads: int | None = None) -> float:
    """Sum of k(x, w) over all pairs x in A, w in B.

    Computed over each dataset's distinct rows weighted by their counts: the
    same sum from fewer kernel entries. Nothing is cached, so every call does
    the whole reduction.
    """
    check_same_dim(A, B, "gram_sum")
    return weighted_gram_sum(cfg, *A.atoms, *B.atoms, threads)


def median_heuristic(pooled: Dataset, cap: int = 1000, seed: int = 0) -> float:
    """Median pairwise Euclidean distance over a seeded subsample of the pool.

    Subsamples min(cap, m) points without replacement, so the bandwidth is
    reproducible and the O(m^2) distance scan stays bounded. Raises when all
    points coincide; supply sigma explicitly in that case.
    """
    if cap < 1:
        raise InputError("median_heuristic: cap must be >= 1")
    pts = pooled.points
    if pts.shape[0] < 2:
        raise InputError("median_heuristic: need at least 2 pooled points")
    if pts.shape[0] > cap:
        rng = np.random.default_rng(seed)
        pts = pts[rng.permutation(pts.shape[0])[:cap]]
    d2 = _sq_dists(pts, pts)
    iu = np.triu_indices(pts.shape[0], k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    if med <= 0.0:
        raise InputError(
            "median_heuristic: all pooled points coincide; pass sigma explicitly"
        )
    return med
