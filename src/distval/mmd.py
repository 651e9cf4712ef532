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
cost kernel entries. Two pmfs enter as one signed measure, p - q on the
union of their supports, whose MMD is the square root of one quadratic
form (`signed_mmd`).
"""
from __future__ import annotations

import math

import numpy as np

from .data import Dataset, DiscretePmf, check_same_dim, on_union_support
from .errors import InputError
from .kernel import KernelConfig, _self_sum_and_embedding, weighted_gram_sum


def _embedding(cfg: KernelConfig, D: Dataset, threads: int) -> tuple[float, np.ndarray]:
    return D.embedding(cfg, lambda: _self_sum_and_embedding(cfg, *D.atoms, threads))


def _sums(
    cfg: KernelConfig, A: Dataset, B: Dataset, threads: int = 1
) -> tuple[float, float, float]:
    """Self-sums of A and B (each kept on its input) and their cross sum.

    The cross sum works from the kept embedding g of the input with more
    atoms (B's on a tie): an atom of the other input that is also one of its
    atoms adds w_i g[idx], and only the atoms not found there go through a
    Gram sum against it, in the A-rows, B-columns orientation.
    """
    s_aa, _ = _embedding(cfg, A, threads)
    s_bb, _ = _embedding(cfg, B, threads)
    (xa, wa), (xb, wb) = A.atoms, B.atoms
    if A is B or (np.array_equal(xa, xb) and np.array_equal(wa, wb)):
        return s_aa, s_bb, s_aa  # the self route, as weighted_gram_sum takes it
    a_small = len(xa) <= len(xb)
    x, w, big = (xa, wa, B) if a_small else (xb, wb, A)
    idx = big._find(x)
    found = idx >= 0
    g = _embedding(cfg, big, threads)[1]
    terms = (w[found] * g[idx[found]]).tolist()
    if not found.all():
        xr, wr = x[~found], w[~found]
        if a_small:
            terms.append(weighted_gram_sum(cfg, xr, wr, xb, wb, threads))
        else:
            terms.append(weighted_gram_sum(cfg, xa, wa, xr, wr, threads))
    return s_aa, s_bb, math.fsum(terms)


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
    difference is w. One symmetric Gram sum per row, exactly 0 where w = 0."""
    sums = [weighted_gram_sum(cfg, support, w, support, w) for w in rows]
    return np.sqrt(np.maximum(sums, 0.0))


def mmd_discrete(cfg: KernelConfig, P: DiscretePmf, Pp: DiscretePmf) -> float:
    """Exact population MMD between two finite-support distributions:
    d(P, P')^2 = (p - p')^T K (p - p') over the union of their supports."""
    check_same_dim(P, Pp, "mmd_discrete")
    support, w = on_union_support([P, Pp], [P.probs, -Pp.probs])
    return float(signed_mmd(cfg, support, [w])[0])
