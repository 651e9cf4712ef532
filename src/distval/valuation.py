"""Dataset and distribution values against ground-truth or mixture references.

A dataset's value is the negated MMD estimate to a reference sample; a
distribution's exact value is the negated exact MMD to a reference pmf. With
an RBF kernel (K = 1) every value lies in [-sqrt(2), 0] and 0 means "equal to
the reference".
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, DiscretePmf, check_same_dim, mix_pmfs
from .errors import InputError
from .huber import HuberSpec, MixtureWeights, huber_mix, huber_value_exact, realized_pmf
from .kernel import KernelConfig
from .mmd import mmd_biased, mmd_discrete


class ReferenceKind(str, Enum):
    GROUND_TRUTH = "ground_truth"
    MIXTURE = "mixture"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class Reference:
    """A realized reference sample and the kind of population it stands for."""

    kind: ReferenceKind
    data: Dataset


def _common_dim(datasets: list[Dataset]) -> int:
    if not datasets:
        raise InputError("need at least one dataset")
    dim = datasets[0].dim
    for d in datasets[1:]:
        if d.dim != dim:
            raise InputError(f"dimension mismatch across vendors ({d.dim} vs {dim})")
    return dim


def build_uniform_reference(datasets: list[Dataset], seed: int) -> Reference:
    """Equal-weight reference: per-vendor subsamples of the minimum size, concatenated.

    Each vendor contributes a seeded uniform subsample (without replacement) of
    size m_min = min_i |D_i|; the reference is their union, size n * m_min.
    """
    _common_dim(datasets)
    m_min = min(len(d) for d in datasets)
    rng = np.random.default_rng(seed)
    parts = [d.points[rng.permutation(len(d))[:m_min]] for d in datasets]
    data = Dataset(id="uniform-reference", points=np.concatenate(parts, axis=0))
    return Reference(kind=ReferenceKind.UNIFORM, data=data)


def build_mixture_reference(
    datasets: list[Dataset], w: MixtureWeights, total: int, seed: int
) -> Reference:
    """Reference drawn point-by-point: vendor i with probability w_i, then a
    uniform row of that vendor (with replacement)."""
    _common_dim(datasets)
    if len(datasets) != len(w):
        raise InputError("build_mixture_reference: one weight per dataset required")
    if total < 1:
        raise InputError("build_mixture_reference: total must be >= 1")
    rng = np.random.default_rng(seed)
    vendor = rng.choice(len(datasets), size=total, p=w.weights)
    rows = np.empty((total, datasets[0].dim))
    for i, d in enumerate(datasets):
        take = vendor == i
        k = int(take.sum())
        if k:
            rows[take] = d.points[rng.integers(0, len(d), size=k)]
    data = Dataset(id="mixture-reference", points=rows)
    return Reference(kind=ReferenceKind.MIXTURE, data=data)


def value_dataset(cfg: KernelConfig, D: Dataset, ref: Reference, threads: int = 1) -> float:
    """Negated MMD estimate between the dataset and the reference sample."""
    check_same_dim(D, ref.data, "value_dataset")
    return -mmd_biased(cfg, D, ref.data, threads)


def value_distribution_exact(cfg: KernelConfig, P: DiscretePmf, ref: DiscretePmf) -> float:
    """Negated exact MMD between a distribution and a reference distribution."""
    return -mmd_discrete(cfg, P, ref)


def mixture_pmf(specs: list[HuberSpec], w: MixtureWeights) -> DiscretePmf:
    """Exact pmf of the weighted mixture of the vendors' realized distributions."""
    return mix_pmfs([realized_pmf(s) for s in specs], w.weights)


def approximation_error_bound(
    specs: list[HuberSpec], w: MixtureWeights, cfg: KernelConfig
) -> float:
    """Worst-case valuation error from using the mixture reference in place of
    the base: eps_mix * d(outlier_mix, base), the magnitude of the mixture's
    exact value. +0.0 when eps_mix == 0."""
    return abs(huber_value_exact(cfg, huber_mix(specs, w)))
