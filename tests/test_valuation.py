import math

import numpy as np
import pytest

from distval import (
    Dataset,
    DiscretePmf,
    HuberSpec,
    InputError,
    KernelConfig,
    MixtureWeights,
    Reference,
    ReferenceKind,
    approximation_error_bound,
    build_mixture_reference,
    build_uniform_reference,
    mixture_pmf,
    random_huber_population,
    realized_pmf,
    value_dataset,
    value_distribution_exact,
)
from distval.huber import random_pmf

CFG = KernelConfig(sigma=1.0)
D01 = math.sqrt(2.0 - 2.0 * math.exp(-0.5))


def ds(name, *points):
    return Dataset(name, np.asarray(points, dtype=float))


def pmf(support, probs):
    return DiscretePmf(np.asarray(support, dtype=float), np.asarray(probs, dtype=float))


def test_uniform_reference_equal_sizes():
    a = ds("a", [0.0], [1.0], [2.0])
    b = ds("b", [5.0], [6.0], [7.0])
    ref = build_uniform_reference([a, b], seed=0)
    assert ref.kind is ReferenceKind.UNIFORM
    assert len(ref.data) == 6
    # equal sizes: every point appears exactly once, per-vendor permutation
    assert sorted(ref.data.points[:3, 0]) == [0.0, 1.0, 2.0]
    assert sorted(ref.data.points[3:, 0]) == [5.0, 6.0, 7.0]


def test_uniform_reference_min_size():
    a = ds("a", [0.0], [1.0], [2.0])
    b = Dataset("b", np.arange(10.0)[:, None])
    ref = build_uniform_reference([a, b], seed=1)
    assert len(ref.data) == 6  # 2 * min(3, 10)


def test_uniform_reference_single_vendor():
    a = ds("a", [0.0], [1.0])
    ref = build_uniform_reference([a], seed=2)
    assert sorted(ref.data.points[:, 0]) == [0.0, 1.0]


def test_uniform_reference_dimension_mismatch():
    with pytest.raises(InputError):
        build_uniform_reference([ds("a", [0.0]), Dataset("b", np.zeros((2, 2)))], seed=0)


def test_mixture_reference_one_hot():
    a, b = ds("a", [0.0], [1.0]), ds("b", [9.0], [8.0])
    w = MixtureWeights(np.array([0.0, 1.0]))
    ref = build_mixture_reference([a, b], w, total=50, seed=3)
    assert ref.kind is ReferenceKind.MIXTURE
    assert set(np.unique(ref.data.points)) <= {8.0, 9.0}


def test_mixture_reference_counts_near_uniform():
    a, b = ds("a", [0.0]), ds("b", [1.0])
    total = 4000
    ref = build_mixture_reference([a, b], MixtureWeights.uniform(2), total, seed=4)
    count_b = float((ref.data.points == 1.0).sum())
    # 3 sigma of a fair binomial
    assert abs(count_b - total / 2) <= 3 * math.sqrt(total * 0.25)


def test_mixture_reference_single_point():
    ref = build_mixture_reference([ds("a", [0.0])], MixtureWeights.uniform(1), 1, seed=5)
    assert len(ref.data) == 1


def test_value_of_reference_data_is_zero():
    a = ds("a", [0.0], [1.0], [3.0])
    ref = Reference(kind=ReferenceKind.GROUND_TRUTH, data=a)
    assert value_dataset(CFG, a, ref) == 0.0


def test_value_known_pair():
    ref = Reference(kind=ReferenceKind.GROUND_TRUTH, data=ds("r", [1.0]))
    assert value_dataset(CFG, ds("a", [0.0]), ref) == pytest.approx(-D01, rel=1e-13)


def test_value_nonpositive():
    rng = np.random.default_rng(9)
    ref = Reference(kind=ReferenceKind.GROUND_TRUTH, data=Dataset("r", rng.normal(size=(20, 2))))
    for _ in range(10):
        d = Dataset("d", rng.normal(size=(15, 2)))
        assert value_dataset(CFG, d, ref) <= 0.0


def test_value_distribution_exact_examples():
    d0, d1 = pmf([[0.0]], [1.0]), pmf([[1.0]], [1.0])
    assert value_distribution_exact(CFG, d0, d0) == 0.0
    assert value_distribution_exact(CFG, d0, d1) == pytest.approx(-D01, rel=1e-13)
    # value of a contaminated model against its own base reproduces the
    # exact identity -eps * d(base, outlier)
    spec = HuberSpec(0.3, d0, d1)
    got = value_distribution_exact(CFG, realized_pmf(spec), d0)
    assert got == pytest.approx(-0.3 * D01, rel=1e-12)


def test_error_bound_zero_cases():
    d0 = pmf([[0.0]], [1.0])
    specs = [HuberSpec(0.0, d0, None), HuberSpec(0.0, d0, None)]
    bound = approximation_error_bound(specs, MixtureWeights.uniform(2), CFG)
    assert bound == 0.0 and math.copysign(1.0, bound) == 1.0  # +0.0, not -0.0
    specs = [HuberSpec(0.4, d0, d0), HuberSpec(0.2, d0, d0)]
    bound = approximation_error_bound(specs, MixtureWeights.uniform(2), CFG)
    assert bound == pytest.approx(0.0, abs=1e-12) and math.copysign(1.0, bound) == 1.0


def test_error_bound_known_product():
    d0, d1 = pmf([[0.0]], [1.0]), pmf([[1.0]], [1.0])
    specs = [HuberSpec(0.3, d0, d1)]
    got = approximation_error_bound(specs, MixtureWeights.uniform(1), CFG)
    assert got == pytest.approx(0.3 * D01, rel=1e-13)


def test_mixture_error_bound_holds_for_probes():
    # |value(P, base) - value(P, mixture)| <= bound, for random populations,
    # random weights, and random probe models over the same base
    rng = np.random.default_rng(1234)
    support = np.arange(11, dtype=float)[:, None]
    for _ in range(200):
        n = int(rng.integers(1, 6))
        base, specs = random_huber_population(n, 10, 0.5, seed=int(rng.integers(2**31)))
        w = rng.uniform(size=n)
        w = MixtureWeights(w / w.sum())
        bound = approximation_error_bound(specs, w, CFG)
        p_mix = mixture_pmf(specs, w)
        worst = 0.0
        for _ in range(20):
            probe = HuberSpec(float(rng.uniform(0, 0.9)), base, random_pmf(rng, support))
            p = realized_pmf(probe)
            exact = value_distribution_exact(CFG, p, base)
            approx = value_distribution_exact(CFG, p, p_mix)
            worst = max(worst, abs(exact - approx))
        assert worst <= bound + 1e-9


def test_uniform_mixture_error_bound_special_case():
    rng = np.random.default_rng(4321)
    support = np.arange(11, dtype=float)[:, None]
    for _ in range(50):
        n = int(rng.integers(2, 6))
        base, specs = random_huber_population(n, 10, 0.5, seed=int(rng.integers(2**31)))
        w = MixtureWeights.uniform(n)
        bound = approximation_error_bound(specs, w, CFG)
        p_mix = mixture_pmf(specs, w)
        for _ in range(10):
            probe = HuberSpec(float(rng.uniform(0, 0.9)), base, random_pmf(rng, support))
            p = realized_pmf(probe)
            gap = abs(
                value_distribution_exact(CFG, p, base) - value_distribution_exact(CFG, p, p_mix)
            )
            assert gap <= bound + 1e-9


def test_sampled_value_converges_to_exact():
    from distval import sample_huber

    base, specs = random_huber_population(1, 10, 0.5, seed=2)
    spec = specs[0]
    exact = value_distribution_exact(CFG, realized_pmf(spec), base)
    errs = []
    for m in (100, 2000):
        d = sample_huber(spec, m, seed=3)
        ref_pts = sample_huber(HuberSpec(0.0, base, None), m, seed=4)
        ref = Reference(kind=ReferenceKind.GROUND_TRUTH, data=ref_pts)
        errs.append(abs(value_dataset(CFG, d, ref) - exact))
    assert errs[1] < errs[0] + 0.02
    assert errs[1] < 0.1
