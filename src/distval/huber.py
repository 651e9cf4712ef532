"""Contamination mixtures: algebra, exact valuation identity, and samplers.

A vendor's sampling law is modelled as P = (1 - eps) * base + eps * outlier.
Mixtures of such models stay in the family, which is what makes an exact
error analysis of mixture references possible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DiscretePmf, mix_pmfs
from .errors import InputError
from .kernel import KernelConfig
from .mmd import mmd_discrete

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class MixtureWeights:
    """A probability vector over vendors."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] < 1:
            raise InputError("weights must be a nonempty vector")
        if not np.all(w >= 0):  # false for NaN too
            raise InputError("weights must be nonnegative numbers")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InputError(f"weights sum to {float(w.sum())}, not 1")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "MixtureWeights":
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class HuberSpec:
    """(eps, base, outlier) describing one vendor's sampling law.

    base and outlier are finite-support pmfs; to resample a Dataset, pass the
    pmf of its `atoms`. outlier may be None only when eps == 0.
    """

    epsilon: float
    base: DiscretePmf
    outlier: DiscretePmf | None

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0):
            raise InputError(f"huber: epsilon must be in [0, 1), got {self.epsilon!r}")
        if not isinstance(self.base, DiscretePmf):
            raise InputError("huber: base must be a DiscretePmf")
        if self.outlier is None:
            if self.epsilon != 0.0:
                raise InputError("huber: outlier may be omitted only when epsilon == 0")
            return
        if not isinstance(self.outlier, DiscretePmf):
            raise InputError("huber: outlier must be a DiscretePmf")
        if self.base.dim != self.outlier.dim:
            raise InputError("huber: base and outlier must share a dimension")


def realized_pmf(spec: HuberSpec) -> DiscretePmf:
    """The mixture (1 - eps) * base + eps * outlier as an explicit pmf."""
    if spec.epsilon == 0.0 or spec.outlier is None:
        return spec.base
    return mix_pmfs([spec.base, spec.outlier], np.array([1.0 - spec.epsilon, spec.epsilon]))


def _same_base(a: DiscretePmf, b: DiscretePmf) -> bool:
    return a is b or (np.array_equal(a.support, b.support) and np.array_equal(a.probs, b.probs))


def huber_mix(specs: list[HuberSpec], w: MixtureWeights) -> HuberSpec:
    """Mixture of contamination models over a shared base.

    With eps_mix = sum_i w_i eps_i, the mixture is again a contamination model
    with outlier sum_i (w_i eps_i / eps_mix) * outlier_i. When eps_mix == 0 the
    outlier is undefined (division by zero) and the mixture is exactly the
    base, returned with a null outlier.
    """
    if len(specs) != len(w):
        raise InputError("huber_mix: one weight per spec required")
    base = specs[0].base
    for s in specs[1:]:
        if not _same_base(s.base, base):
            raise InputError("huber_mix: all specs must share the same base distribution")
    eps = np.array([s.epsilon for s in specs])
    eps_mix = float(w.weights @ eps)
    if eps_mix == 0.0:
        return HuberSpec(epsilon=0.0, base=base, outlier=None)
    active = [(s, wi * s.epsilon / eps_mix) for s, wi in zip(specs, w.weights) if wi * s.epsilon > 0]
    outlier = mix_pmfs([s.outlier for s, _ in active], np.array([c for _, c in active]))
    return HuberSpec(epsilon=eps_mix, base=base, outlier=outlier)


def huber_value_exact(cfg: KernelConfig, spec: HuberSpec) -> float:
    """Exact value -eps * d(base, outlier) of a contamination model.

    Equals -d(realized mixture, base): mixing eps of the outlier in moves the
    distribution away from the base linearly in eps.
    """
    if spec.epsilon == 0.0 or spec.outlier is None:
        return 0.0
    return -spec.epsilon * mmd_discrete(cfg, spec.base, spec.outlier)


def _draw(source: DiscretePmf, rng: np.random.Generator, count: int) -> np.ndarray:
    idx = rng.choice(len(source), size=count, p=source.probs)
    return source.support[idx]


def sample_huber(spec: HuberSpec, m: int, seed: int, dataset_id: str = "sample") -> Dataset:
    """Draw m i.i.d. points: each from the outlier w.p. eps, else from the base.

    Deterministic given the seed.
    """
    if m < 1:
        raise InputError("sample_huber: m must be >= 1")
    rng = np.random.default_rng(seed)
    from_outlier = rng.random(m) < spec.epsilon
    pts = _draw(spec.base, rng, m)
    if spec.outlier is not None and from_outlier.any():
        pts[from_outlier] = _draw(spec.outlier, rng, m)[from_outlier]
    return Dataset(id=dataset_id, points=pts)


def random_pmf(rng: np.random.Generator, support: np.ndarray) -> DiscretePmf:
    # Normalized uniform draws; documented generation law for synthetic studies.
    w = rng.uniform(size=support.shape[0])
    return DiscretePmf(support=support, probs=w / w.sum())


def random_huber_population(
    n: int, support_max: int, eps_max: float, seed: int
) -> tuple[DiscretePmf, list[HuberSpec]]:
    """Random 1-D population on the integer lattice {0..support_max}.

    The base and every outlier are independent random pmfs (normalized uniform
    draws); eps_i ~ Uniform(0, eps_max). Deterministic given the seed.
    """
    if n < 1:
        raise InputError("random_huber_population: n must be >= 1")
    if not (0.0 < eps_max < 1.0):
        raise InputError("random_huber_population: eps_max must be in (0, 1)")
    rng = np.random.default_rng(seed)
    support = np.arange(support_max + 1, dtype=float)[:, None]
    base = random_pmf(rng, support)
    eps = rng.uniform(0.0, eps_max, size=n)
    specs = [
        HuberSpec(epsilon=float(eps[i]), base=base, outlier=random_pmf(rng, support))
        for i in range(n)
    ]
    return base, specs
