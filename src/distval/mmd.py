"""Maximum mean discrepancy: sample estimators and exact discrete form.

Three routes to the same metric:
  * mmd_biased   -- plug-in estimator on samples, sqrt of a V-statistic;
  * mmd2_unbiased -- U-statistic estimator of the squared MMD (may be negative);
  * mmd_discrete -- exact population MMD between finite-support distributions.

All of them are formulas over weighted kernel sums. A Dataset enters as its
distinct rows weighted by their counts. MMD^2 is a bilinear form in the
samples' weights (Gretton et al. 2012, Lemma 6), and a uniform or mixture
reference is pooled from the very vendor samples it values, so each sum
`mmd_biased` reads of a vendor against such a reference is an entry of one
table over the reference's sources (`_Table`), which one upper-triangle
pass fills once per kernel and which is kept on the sample. A plain sample
is its own single source, so its table is its self-sum. Two pmfs enter as
one signed measure, p - q on the union of their supports, whose MMD is the
square root of one quadratic form (`signed_mmd`).
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .data import Dataset, DiscretePmf, check_same_dim, on_union_support
from .errors import InputError
from . import kernel
from .kernel import (
    KernelConfig,
    _check_threads,
    _reduce_blocks,
    _triangle_sum,
    weighted_gram_sum,
)


class _Table:
    """The Gram sums of a sample's sources under one kernel: the sample's
    self-sum, and per source its self-sum and its cross sum with the sample.

    Source p gave the sample its atoms with weights u_p (how often each was
    taken) and has weights a_p of its own (its counts). One upper-triangle
    pass over the taken atoms, source by source, keeps each row's sums per
    source segment, for u and, where some source's a differs from u, for a:
    exact sums of those give every u_p^T K u_q, a_p^T K u_q and a_p^T K a_p.
    Atoms a source never gave the sample cost one cross pass against the
    taken atoms and one triangle of their own, on the first lookup.
    """

    def __init__(self, cfg: KernelConfig, D: Dataset, threads: int):
        # a plain sample is its own single source, all of whose atoms it took
        self.cfg, self.sources, self._kept = cfg, D._sources or ((D, D.atoms[1]),), {}
        segments = []
        for S, u in self.sources:
            x, a = S.atoms
            taken = u > 0
            segments.append((x, u, a) if taken.all() else (x[taken], u[taken], a[taken]))
        # one source's atoms go in as they are, not copied
        X, u, a = segments[0] if len(segments) == 1 else map(np.concatenate, zip(*segments))
        self.X, self.W = X, u[:, None] if np.array_equal(u, a) else np.column_stack((u, a))
        self.bounds = tuple(itertools.accumulate((len(x) for x, _, _ in segments), initial=0))
        # R[q, i]: row i's sums over segment q's columns to its right
        self.R = _reduce_blocks(cfg, X, self.W, threads=threads, bounds=self.bounds)
        self.self_sum = _triangle_sum(u, self.R[:, :, 0])

    def source(self, p: int, threads: int) -> tuple[float, float]:
        """Source p's self-sum and its cross sum with the sample."""
        if p not in self._kept:
            (S, u_p), (lo, hi) = self.sources[p], self.bounds[p : p + 2]
            R, u, ia = self.R, self.W[:, 0], self.W.shape[1] - 1
            a = self.W[lo:hi, ia]
            # a_p^T K a_p over the triangle, and a_p^T K u over every segment:
            # the diagonal, p's rows over segments p on, and rows up to p's
            # end over p's columns
            own = [a * a, 2.0 * a * R[p, lo:hi, ia]]
            cross = [a * u[lo:hi], (a * R[p:, lo:hi, 0]).ravel(), u[:hi] * R[p, :hi, ia]]
            untaken = u_p == 0
            if untaken.any():
                x, c = S.atoms
                x, c = x[untaken], c[untaken]
                W = np.zeros((len(u), 2))
                W[:, 0], W[lo:hi, 1] = u, a
                V = _reduce_blocks(self.cfg, x, W, self.X, threads)
                r = _reduce_blocks(self.cfg, x, c, threads=threads)
                own += [2.0 * c * V[:, 1], c * c, 2.0 * c * r]
                cross.append(c * V[:, 0])
            self._kept[p] = tuple(math.fsum(np.concatenate(t).tolist()) for t in (own, cross))
        return self._kept[p]


def _table(cfg: KernelConfig, D: Dataset, threads: int) -> _Table:
    """D's `_Table` under kernel `cfg`, computed on first use and kept on D."""
    if cfg not in D._tables:
        D._tables[cfg] = _Table(cfg, D, threads)
    return D._tables[cfg]


def _sums(
    cfg: KernelConfig, A: Dataset, B: Dataset, threads: int = 1
) -> tuple[float, float, float]:
    """Self-sums of A and B and their cross sum.

    Inputs equal by content share one self-sum, which is also their cross
    sum: one pass, over an input that already has its table if either does.
    When one input is a source of the other (by identity), all three are
    lookups in the other's table. Otherwise each self-sum comes from its own
    table, and the cross sum is one Gram sum in the A-rows, B-columns
    orientation.
    """
    _check_threads(threads)
    # equal counts sum to equal lengths, so unequal lengths need no atoms
    if A is B or len(A) == len(B) and all(map(np.array_equal, A.atoms, B.atoms)):
        s = _table(cfg, A if cfg in A._tables else B, threads).self_sum
        return s, s, s
    for src, pooled in ((A, B), (B, A)):
        p = next((p for p, (S, _) in enumerate(pooled._sources) if S is src), None)
        if p is not None:
            table = _table(cfg, pooled, threads)
            s_src, cross = table.source(p, threads)
            s_aa, s_bb = (s_src, table.self_sum) if src is A else (table.self_sum, s_src)
            return s_aa, s_bb, cross
    s_aa, s_bb = _table(cfg, A, threads).self_sum, _table(cfg, B, threads).self_sum
    return s_aa, s_bb, weighted_gram_sum(cfg, *A.atoms, *B.atoms, threads)


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
    pass over K(U, U) per group of at most 4 _BLOCK_ENTRIES / |U| rows, so a
    group's row sums take about four Gram blocks and no dense K is held. The
    pass forms those row sums and nothing else, and each group's are dropped
    before the next pass. Each row's sum is `_triangle_sum` of its column:
    exactly 0 where w = 0.
    """
    rows = np.asarray(rows, dtype=float)
    # read at call time, as the kernel's own block plan reads it
    group = max(1, 4 * kernel._BLOCK_ENTRIES // len(support))
    sums = []
    for lo in range(0, len(rows), group):
        W = rows[lo : lo + group]
        sums += map(_triangle_sum, W, _reduce_blocks(cfg, support, W.T).T)
    return np.sqrt(np.maximum(sums, 0.0))


def mmd_discrete(cfg: KernelConfig, P: DiscretePmf, Pp: DiscretePmf) -> float:
    """Exact population MMD between two finite-support distributions:
    d(P, P')^2 = (p - p')^T K (p - p') over the union of their supports."""
    check_same_dim(P, Pp, "mmd_discrete")
    support, w = on_union_support([P, Pp], [P.probs, -Pp.probs])
    return float(signed_mmd(cfg, support, [w])[0])
