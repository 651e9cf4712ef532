"""Core data containers: vendor sample datasets and finite-support distributions."""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of fixed-dimension feature vectors from one vendor.

    `points` is a read-only (m, d) float copy of the caller's finite array;
    row order is meaningful and preserved by every operation in this package.
    The Gram self-sum of its `atoms` is kept per kernel; the points are a
    read-only copy, so a kept sum cannot go stale.
    """

    id: str
    points: np.ndarray
    _atoms: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _self_sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def self_sum(self, cfg: KernelConfig, compute: Callable[[], float]) -> float:
        """The Gram self-sum under kernel `cfg`, from `compute()` on first use only."""
        if cfg not in self._self_sums:
            self._self_sums[cfg] = compute()
        return self._self_sums[cfg]

    @property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rows (sorted) and their counts as float weights.

        The rows' empirical measure, scaled by m, is the counts-weighted
        measure of the atoms, so a sum over all row pairs equals the weighted
        sum over atom pairs.
        """
        if self._atoms is None:
            rows, counts = np.unique(self.points, axis=0, return_counts=True)
            rows.flags.writeable = False
            object.__setattr__(self, "_atoms", (rows, _frozen_copy(counts)))
        return self._atoms


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
            raise InputError(f"pmf: probabilities sum to {probs.sum()!r}, not 1")
        if np.unique(supp, axis=0).shape[0] != supp.shape[0]:
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
    U, inv = np.unique(np.concatenate([p.support for p in pmfs]), axis=0, return_inverse=True)
    return U, np.bincount(inv.reshape(-1), weights=np.concatenate(masses), minlength=len(U))


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
        raise InputError(f"mix_pmfs: weights produce total mass {total!r}")
    return DiscretePmf(support=support, probs=probs / total)
