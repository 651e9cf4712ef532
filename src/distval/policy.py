"""Actionable pairwise comparison decisions with explicit margins and confidence.

A comparison concludes "P beats P' by at least eps_upsilon" only when the
observed value gap clears a criterion margin built from the estimator's
uniform-convergence bound; the reported confidence 1 - 2*delta quantifies the
failure probability of that conclusion.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum

from .data import Dataset
from .errors import InputError
from .kernel import K_BOUND, KernelConfig
from .valuation import Reference, ReferenceKind, value_dataset


@dataclass(frozen=True)
class PolicyParams:
    """Buyer-chosen decision margin and bias requirement."""

    eps_upsilon: float
    eps_bias: float

    def __post_init__(self):
        for name in ("eps_upsilon", "eps_bias"):
            value = float(getattr(self, name))
            if not 0 <= value < math.inf:
                raise InputError(f"policy: {name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)


class Verdict(str, Enum):
    CONCLUDE = "Conclude"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of one pairwise comparison.

    Conclude means: the first distribution's value exceeds the second's by more
    than eps_upsilon, with probability at least `confidence` = max(0, 1 - 2*delta).
    extra_term is the 2 * eps_mix * d(outlier_mix, base) surcharge a mixture
    reference adds to the margin; bound_unavailable marks comparisons where
    that surcharge was not supplied.
    """

    margin: float
    observed_gap: float
    delta: float
    confidence: float
    verdict: Verdict
    extra_term: float
    bound_unavailable: bool = False

    def to_json(self) -> str:
        d = asdict(self)
        d["verdict"] = self.verdict.value
        return json.dumps(d, allow_nan=False)


def criterion_margin_gt(p: PolicyParams, m: int, m_prime: int, m_star: int) -> float:
    """Margin for a ground-truth reference of size m_star.

    eps_upsilon + 2 * [eps_bias + sqrt(K/m) + sqrt(K/m') + 2 sqrt(K/m_star)].
    """
    if min(m, m_prime, m_star) < 1:
        raise InputError("criterion margin: sample sizes must be >= 1")
    k = K_BOUND
    margin = p.eps_upsilon + 2.0 * (
        p.eps_bias + math.sqrt(k / m) + math.sqrt(k / m_prime) + 2.0 * math.sqrt(k / m_star)
    )
    return _finite(margin)


def criterion_margin_mix(
    p: PolicyParams, m: int, m_prime: int, m_n: int, huber_gap: float
) -> float:
    """Margin for a mixture reference of size m_n: the ground-truth margin plus
    2 * huber_gap, where huber_gap = eps_mix * d(outlier_mix, base) (or any
    upper bound on it)."""
    if not 0 <= huber_gap < math.inf:
        raise InputError(f"criterion margin: huber_gap must be finite and >= 0, got {huber_gap!r}")
    return _finite(criterion_margin_gt(p, m, m_prime, m_n) + 2.0 * huber_gap)


def _finite(margin: float) -> float:
    # Finite terms near the float maximum can still sum to inf, which no gap
    # can clear and no JSON report can hold.
    if not math.isfinite(margin):
        raise InputError(f"criterion margin is {margin!r}: its eps or huber_gap term is too large")
    return margin


def confidence_delta(p: PolicyParams, m: int, m_prime: int, m_ref: int) -> float:
    """delta = 2 exp(-eps_bias^2 * mbar * m_ref / (2K (mbar + m_ref))), mbar = max(m, m').

    The reported confidence is max(0, 1 - 2*delta); with eps_bias = 0 the bound
    is vacuous (delta = 2, confidence 0).
    """
    if min(m, m_prime, m_ref) < 1:
        raise InputError("confidence_delta: sample sizes must be >= 1")
    mbar = max(m, m_prime)
    # A product, not **, so a huge eps_bias saturates to delta 0 instead of
    # raising OverflowError.
    expo = -(p.eps_bias * p.eps_bias) * mbar * m_ref / (2.0 * K_BOUND * (mbar + m_ref))
    return 2.0 * math.exp(expo)


def _confidence(delta: float) -> float:
    return min(1.0, max(0.0, 1.0 - 2.0 * delta))


def compare(
    cfg: KernelConfig,
    p: PolicyParams,
    D: Dataset,
    Dp: Dataset,
    ref: Reference,
    huber_gap: float | None = None,
    threads: int = 1,
) -> DecisionReport:
    """Compare two vendors' datasets against a common reference.

    For a non-ground-truth reference the margin needs huber_gap; pass the exact
    bound from approximation_error_bound, a user-supplied upper bound, or 0 to
    explicitly assert the reference is unbiased. With huber_gap=None the report
    is flagged bound_unavailable and the verdict is forced Inconclusive.
    """
    m, m_prime, m_ref = len(D), len(Dp), len(ref.data)
    gap_known = ref.kind is ReferenceKind.GROUND_TRUTH or huber_gap is not None
    # A ground-truth reference is the mixture case with huber_gap 0, and
    # x + 0.0 == x, so one margin formula serves both.
    hg = 0.0 if ref.kind is ReferenceKind.GROUND_TRUTH or huber_gap is None else float(huber_gap)
    margin = criterion_margin_mix(p, m, m_prime, m_ref, hg)
    observed_gap = value_dataset(cfg, D, ref, threads) - value_dataset(cfg, Dp, ref, threads)
    delta = confidence_delta(p, m, m_prime, m_ref)
    concluded = gap_known and observed_gap > margin
    return DecisionReport(
        margin=margin,
        observed_gap=observed_gap,
        delta=delta,
        confidence=_confidence(delta),
        verdict=Verdict.CONCLUDE if concluded else Verdict.INCONCLUSIVE,
        extra_term=2.0 * hg,
        bound_unavailable=not gap_known,
    )


def rank_vendors(
    cfg: KernelConfig, datasets: list[Dataset], ref: Reference, threads: int = 1
) -> list[tuple[str, float]]:
    """Vendors sorted by dataset value, descending; ties broken by id ascending."""
    ids = [d.id for d in datasets]
    if len(set(ids)) != len(ids):
        raise InputError("rank_vendors: vendor ids must be unique")
    scored = [(d.id, value_dataset(cfg, d, ref, threads)) for d in datasets]
    return sorted(scored, key=lambda t: (-t[1], t[0]))
