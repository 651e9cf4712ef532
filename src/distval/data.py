"""Core data containers: vendor sample datasets and finite-support distributions."""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .kernel import KernelConfig

PMF_SUM_TOL = 1e-12


def _frozen_copy(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a nonempty (m, d) array in lexicographic order, the
    inverse (X equals rows[inverse]) and the counts, as np.unique(X, axis=0)
    gives them. Rows equal under == are one (-0.0 matches 0.0); each distinct
    row is represented by its first occurrence in X."""
    order = np.argsort(X[:, 0], kind="stable")
    if X.shape[1] > 1:
        lead = X[order, 0]
        # Continuous rows rarely tie in column 0, and then that sort is the
        # whole order; lexsort costs one stable sort per column.
        if not (lead[1:] > lead[:-1]).all():
            order = np.lexsort(X.T[::-1])  # stable, column 0 the primary key
    ordered = X[order]
    first = np.empty(len(X), dtype=bool)
    first[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    counts = np.diff(np.flatnonzero(np.append(first, True)))
    return ordered[first], inverse, counts


def _find_rows(atoms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each of `rows`, the index of the atom equal to it, or -1, where
    `atoms` is `_distinct_rows`'s first output. Rows match under ==, so -0.0
    matches 0.0."""
    # A record of float fields compares field by field as numbers: the atoms'
    # lexicographic order, in which a binary search finds each row.
    rec = np.dtype([("", float)] * atoms.shape[1])
    keys = atoms.view(rec).reshape(-1)
    at = np.searchsorted(keys, rows.view(rec).reshape(-1))
    at = np.minimum(at, len(keys) - 1)
    return np.where((atoms[at] == rows).all(axis=1), at, -1)


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of fixed-dimension feature vectors from one vendor.

    `points` is a read-only (m, d) float copy of the caller's finite array;
    row order is meaningful and preserved by every operation in this package.
    The Gram self-sum of its `atoms` and their kernel mean embedding are kept
    per kernel; the points are a read-only copy, so nothing kept can go stale.
    """

    id: str
    points: np.ndarray
    _embeddings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = _frozen_copy(self.points)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InputError(f"dataset {self.id!r}: points must be a nonempty (m, d) array")
        if not np.isfinite(pts).all():
            raise InputError(f"dataset {self.id!r}: points must be finite (no NaN or inf)")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def embedding(
        self, cfg: KernelConfig, compute: Callable[[], tuple[float, np.ndarray]]
    ) -> tuple[float, np.ndarray]:
        """The atoms' Gram self-sum w^T K(U, U) w under kernel `cfg` and their
        kernel mean embedding g = K(U, U) w, from `compute()` on first use only."""
        if cfg not in self._embeddings:
            s, g = compute()
            g.flags.writeable = False
            self._embeddings[cfg] = (s, g)
        return self._embeddings[cfg]

    # cached_property writes the instance __dict__, not through __setattr__,
    # so it works on a frozen dataclass.
    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rows (sorted) and their counts as float weights.

        The rows' empirical measure, scaled by m, is the counts-weighted
        measure of the atoms, so a sum over all row pairs equals the weighted
        sum over atom pairs.
        """
        rows, _, counts = _distinct_rows(self.points)
        rows.flags.writeable = False
        return rows, _frozen_copy(counts)


@dataclass(frozen=True)
class DiscretePmf:
    """Exact finite-support probability distribution over feature vectors.

    support: (k, d) array of pairwise-distinct finite points; probs: (k,)
    nonnegative, summing to 1 within 1e-12. Both are kept as read-only copies.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        supp = _frozen_copy(self.support)
        if supp.ndim == 1:
            supp = supp[:, None]
        probs = _frozen_copy(self.probs)
        if supp.ndim != 2 or probs.ndim != 1 or supp.shape[0] != probs.shape[0]:
            raise InputError("pmf: support must be (k, d) with matching (k,) probs")
        if supp.shape[0] < 1:
            raise InputError("pmf: empty support")
        if not (np.isfinite(supp).all() and np.isfinite(probs).all()):
            raise InputError("pmf: support and probabilities must be finite")
        if np.any(probs < 0):
            raise InputError("pmf: negative probability")
        if abs(probs.sum() - 1.0) > PMF_SUM_TOL:
            raise InputError(f"pmf: probabilities sum to {float(probs.sum())}, not 1")
        if len(_distinct_rows(supp)[0]) != len(supp):
            raise InputError("pmf: support points must be pairwise distinct")
        object.__setattr__(self, "support", supp)
        object.__setattr__(self, "probs", probs)

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def __len__(self) -> int:
        return self.support.shape[0]


def check_same_dim(a, b, what: str = "inputs"):
    if a.dim != b.dim:
        raise InputError(f"{what}: dimension mismatch ({a.dim} vs {b.dim})")


def on_union_support(pmfs: list[DiscretePmf], masses: list[np.ndarray]):
    """The sorted union U of the pmfs' supports (which share a dimension), and
    the masses, one array per pmf, added up per point of U in pmf order."""
    U, inv, _ = _distinct_rows(np.concatenate([p.support for p in pmfs]))
    return U, np.bincount(inv, weights=np.concatenate(masses), minlength=len(U))


def mix_pmfs(pmfs: list[DiscretePmf], weights: np.ndarray) -> DiscretePmf:
    """Weighted mixture of pmfs over the sorted union of their supports; each
    point's mass accumulates in pmf order."""
    if len(pmfs) != len(weights):
        raise InputError("mix_pmfs: one weight per pmf required")
    if len({p.dim for p in pmfs}) > 1:
        raise InputError("mix_pmfs: pmfs must share a dimension")
    support, probs = on_union_support(pmfs, [w * p.probs for p, w in zip(pmfs, weights)])
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise InputError(f"mix_pmfs: weights produce total mass {float(total)}")
    return DiscretePmf(support=support, probs=probs / total)
