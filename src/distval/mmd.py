"""Maximum mean discrepancy: sample estimators and exact discrete form.

Three routes to the same metric:
  * mmd_biased   -- plug-in estimator on samples, sqrt of a V-statistic;
  * mmd2_unbiased -- U-statistic estimator of the squared MMD (may be negative);
  * mmd_discrete -- exact population MMD between finite-support distributions.

All of them are formulas over one weighted kernel sum. A Dataset enters as
its distinct rows weighted by their counts. Its self-sum and its kernel mean
embedding at those rows, g = K(U, U) w, come from one upper-triangle pass,
once per kernel, and are kept on it. A cross sum against a sample that holds
the other's rows then reads g there (MMD is the RKHS distance between mean
embeddings, Gretton et al. 2012, Lemma 6), and only rows it does not hold
cost kernel entries. A pooled sample (a uniform reference) whose parts
share no row runs that pass over its parts, each deduplicated on its own,
and also keeps each row's sum within its part. A sample equal to one of its
parts then needs no pass of its own: its self-sum comes from those row
sums, and its cross sum is the part's w^T g. Parts that share rows (lattice
data) are pooled into one run, so no row costs twice. Two pmfs enter as one
signed measure, p - q on the union of their supports, whose MMD is the
square root of one quadratic form (`signed_mmd`).
"""
from __future__ import annotations

import math

import numpy as np

from .data import Dataset, DiscretePmf, _find_rows, check_same_dim, on_union_support
from .errors import InputError
from . import kernel
from .kernel import (
    KernelConfig,
    _reduce_blocks,
    _self_sum_and_embedding,
    _triangle_sum,
    weighted_gram_sum,
)


def _embedding(
    cfg: KernelConfig, D: Dataset, threads: int
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The Gram self-sum w^T K(U, U) w of D's `_part_atoms` under kernel
    `cfg`, their kernel mean embedding g = K(U, U) w and, when the parts are
    separate runs, each atom's weighted row sum over the atoms after it in
    its own part (else None); computed on first use and kept read-only on D."""
    if cfg not in D._embeddings:
        x, w, bounds = D._part_atoms
        s, g, part_rows = _self_sum_and_embedding(cfg, x, w, threads, bounds)
        for kept in (g, part_rows):
            if kept is not None:
                kept.flags.writeable = False
        D._embeddings[cfg] = (s, g, part_rows)
    return D._embeddings[cfg]


def _equal_part(D: Dataset, S: Dataset) -> int | None:
    """The index of a part of pooled D whose atoms and weights equal S's,
    when D's parts are separate runs of its pass. A pass of one run keeps no
    part row sums, and a single part is all of D, which the equal-content
    route already took."""
    (xd, wd, b), (x, w) = D._part_atoms, S.atoms
    if len(b) > 2:
        for p, (lo, hi) in enumerate(zip(b, b[1:])):
            # equal weights sum to equal row counts, which rules most parts out
            if D.parts[p] != len(S):
                continue
            if np.array_equal(xd[lo:hi], x) and np.array_equal(wd[lo:hi], w):
                return p
    return None


def _sums(
    cfg: KernelConfig, A: Dataset, B: Dataset, threads: int = 1
) -> tuple[float, float, float]:
    """Self-sums of A and B and their cross sum.

    The cross sum works from the kept embedding g of the input with more
    atoms (B's on a tie). When the other input equals one of its parts, its
    self-sum is that part's and its cross sum adds up w_i g_i over the part:
    no kernel entries of its own. Otherwise its self-sum is kept on it, an
    atom of it that is also one of the larger input's atoms adds w_i g[idx],
    and only the atoms not found there go through a Gram sum against it, in
    the A-rows, B-columns orientation.
    """
    (xa, wa), (xb, wb) = A.atoms, B.atoms
    if A is B or (np.array_equal(xa, xb) and np.array_equal(wa, wb)):
        s_aa, s_bb = _embedding(cfg, A, threads)[0], _embedding(cfg, B, threads)[0]
        return s_aa, s_bb, s_aa  # the self route, as weighted_gram_sum takes it
    a_small = len(xa) <= len(xb)
    x, w, small, big = (xa, wa, A, B) if a_small else (xb, wb, B, A)
    s_big, g, part_rows = _embedding(cfg, big, threads)
    xp, _, bounds = big._part_atoms
    p = _equal_part(big, small)
    if p is not None:
        lo, hi = bounds[p : p + 2]
        s_small = _triangle_sum(w, part_rows[lo:hi])
        cross = math.fsum((w * g[lo:hi]).tolist())
    else:
        s_small = _embedding(cfg, small, threads)[0]
        idx = _find_rows(xp, x, bounds)
        found = idx >= 0
        terms = (w[found] * g[idx[found]]).tolist()
        if not found.all():
            xr, wr = x[~found], w[~found]
            if a_small:
                terms.append(weighted_gram_sum(cfg, xr, wr, xb, wb, threads))
            else:
                terms.append(weighted_gram_sum(cfg, xa, wa, xr, wr, threads))
        cross = math.fsum(terms)
    return (s_small, s_big, cross) if a_small else (s_big, s_small, cross)


def mmd_biased(cfg: KernelConfig, D: Dataset, Dp: Dataset, threads: int = 1) -> float:
    """Biased sample estimate of MMD(D, D'); nonnegative and symmetric."""
    check_same_dim(D, Dp, "mmd_biased")
    m, n = len(D), len(Dp)
    s_xx, s_yy, s_xy = _sums(cfg, D, Dp, threads)
    # Radicand is >= 0 in exact arithmetic; clamp float noise before the sqrt.
    v = s_xx / (m * m) + s_yy / (n * n) - 2.0 * s_xy / (m * n)
    return math.sqrt(max(v, 0.0))


def mmd2_unbiased(cfg: KernelConfig, D: Dataset, Dp: Dataset) -> float:
    """The two-sample U-statistic estimate of the squared MMD, for independent
    samples of any sizes (Gretton et al. 2012, eq. 3); may be negative.

    This is a genuinely different estimator from mmd_biased**2: the
    within-sample sums leave out their diagonals, while every cross pair is
    kept, since x_i and y_j are independent. Two identical non-constant
    samples therefore score slightly below 0.
    """
    check_same_dim(D, Dp, "mmd2_unbiased")
    m, n = len(D), len(Dp)
    if m < 2 or n < 2:
        raise InputError("mmd2_unbiased: both samples need at least 2 points")
    s_xx, s_yy, s_xy = _sums(cfg, D, Dp)
    # Within-sample sums exclude the diagonal (k(x, x) = 1 for the RBF family).
    within = (s_xx - m) / (m * (m - 1)) + (s_yy - n) / (n * (n - 1))
    return within - 2.0 * s_xy / (m * n)


def signed_mmd(cfg: KernelConfig, support: np.ndarray, rows) -> np.ndarray:
    """sqrt(max(w^T K(U, U) w, 0)) for each row w of `rows`, a signed measure on
    the points U = `support`: the exact MMD between two finite measures whose
    difference is w.

    The rows, as the columns of a weight matrix, share one upper-triangle
    pass over K(U, U) per group of at most _BLOCK_ENTRIES / |U| rows, so each
    group's arrays stay about one Gram block's size and no dense K is held.
    Each row's sum is `_triangle_sum` of its column: exactly 0 where w = 0.
    """
    rows = np.asarray(rows, dtype=float)
    # read at call time, as the kernel's own block plan reads it
    group = max(1, kernel._BLOCK_ENTRIES // len(support))
    sums = []
    for lo in range(0, len(rows), group):
        W = rows[lo : lo + group]
        r = _reduce_blocks(cfg, support, support, W.T, 1, symmetric=True)[0]
        sums += [_triangle_sum(w, s) for w, s in zip(W, r.T)]
    return np.sqrt(np.maximum(sums, 0.0))


def mmd_discrete(cfg: KernelConfig, P: DiscretePmf, Pp: DiscretePmf) -> float:
    """Exact population MMD between two finite-support distributions:
    d(P, P')^2 = (p - p')^T K (p - p') over the union of their supports."""
    check_same_dim(P, Pp, "mmd_discrete")
    support, w = on_union_support([P, Pp], [P.probs, -Pp.probs])
    return float(signed_mmd(cfg, support, [w])[0])
