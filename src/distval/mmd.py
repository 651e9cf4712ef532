"""Maximum mean discrepancy: sample estimators and exact discrete form.

Three routes to the same metric:
  * mmd_biased   -- plug-in estimator on samples, sqrt of a V-statistic;
  * mmd2_unbiased -- U-statistic estimator of the squared MMD (may be negative);
  * mmd_discrete -- exact population MMD between finite-support distributions.

All of them are formulas over one primitive, `weighted_gram_sum`. A
Dataset enters as its distinct rows weighted by their counts, and its
self-sum is computed once per kernel and kept on it. Two pmfs enter as one
signed measure, p - q on the union of their supports, whose MMD is the
square root of one quadratic form (`signed_mmd`).
"""
from __future__ import annotations

import math

import numpy as np

from .data import Dataset, DiscretePmf, check_same_dim, on_union_support
from .errors import InputError
from .kernel import KernelConfig, weighted_gram_sum


def _sums(cfg: KernelConfig, A, B, threads: int = 1) -> tuple[float, float, float]:
    """Self-sums of A and B (each kept on its input) and their cross sum."""
    s_aa = A.self_sum(cfg, lambda: weighted_gram_sum(cfg, *A.atoms, *A.atoms, threads))
    s_bb = B.self_sum(cfg, lambda: weighted_gram_sum(cfg, *B.atoms, *B.atoms, threads))
    return s_aa, s_bb, weighted_gram_sum(cfg, *A.atoms, *B.atoms, threads)


def mmd_biased(cfg: KernelConfig, D: Dataset, Dp: Dataset, threads: int = 1) -> float:
    """Biased sample estimate of MMD(D, D'); nonnegative and symmetric."""
    check_same_dim(D, Dp, "mmd_biased")
    m, n = len(D), len(Dp)
    s_xx, s_yy, s_xy = _sums(cfg, D, Dp, threads)
    # Radicand is >= 0 in exact arithmetic; clamp float noise before the sqrt.
    v = s_xx / (m * m) + s_yy / (n * n) - 2.0 * s_xy / (m * n)
    return math.sqrt(max(v, 0.0))


def _u_statistic(cfg, D: Dataset, Dp: Dataset, paired: bool, what: str) -> float:
    check_same_dim(D, Dp, what)
    m, n = len(D), len(Dp)
    if m < 2 or n < 2:
        raise InputError(f"{what}: both samples need at least 2 points")
    s_xx, s_yy, s_xy = _sums(cfg, D, Dp)
    # Within-sample sums exclude the diagonal (k(x, x) = 1 for the RBF family).
    within = (s_xx - m) / (m * (m - 1)) + (s_yy - n) / (n * (n - 1))
    if paired:
        diag = float(
            np.exp(((D.points - Dp.points) ** 2).sum(axis=1) / (-2.0 * cfg.sigma**2)).sum()
        )
        return within - 2.0 * (s_xy - diag) / (m * (m - 1))
    return within - 2.0 * s_xy / (m * n)


def mmd2_unbiased(cfg: KernelConfig, D: Dataset, Dp: Dataset) -> float:
    """Unbiased U-statistic estimate of the squared MMD; may be negative.

    This is a genuinely different estimator from mmd_biased**2: squaring the
    biased estimator does not remove the diagonal terms. For equal sample
    sizes the paired one-sample form is used (the i-th cross pair excluded as
    well), so identical samples score exactly 0.
    """
    return _u_statistic(cfg, D, Dp, len(D) == len(Dp), "mmd2_unbiased")


def mmd2_unpaired(cfg: KernelConfig, D: Dataset, Dp: Dataset) -> float:
    """The two-sample U-statistic for independent samples, for any sizes.

    Every cross pair is kept, since x_i and y_j are independent; this is
    mmd2_unbiased whenever the sample sizes differ.
    """
    return _u_statistic(cfg, D, Dp, False, "mmd2_unpaired")


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
