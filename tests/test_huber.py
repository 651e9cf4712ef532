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
    huber_mix,
    huber_value_exact,
    mmd_discrete,
    random_huber_population,
    realized_pmf,
    sample_huber,
)
from distval.huber import _lattice_draw

CFG = KernelConfig(sigma=1.0)
D01 = math.sqrt(2.0 - 2.0 * math.exp(-0.5))


def pmf(support, probs):
    return DiscretePmf(np.asarray(support, dtype=float), np.asarray(probs, dtype=float))


DELTA0 = pmf([[0.0]], [1.0])
DELTA1 = pmf([[1.0]], [1.0])


def test_spec_validation():
    with pytest.raises(InputError):
        HuberSpec(epsilon=1.0, base=DELTA0, outlier=DELTA1)
    with pytest.raises(InputError):
        HuberSpec(epsilon=-0.1, base=DELTA0, outlier=DELTA1)
    with pytest.raises(InputError):
        HuberSpec(epsilon=0.2, base=DELTA0, outlier=None)
    # mixed handle kinds
    with pytest.raises(InputError):
        HuberSpec(epsilon=0.2, base=DELTA0, outlier=Dataset("d", np.zeros((1, 1))))


def test_weights_validation():
    with pytest.raises(InputError):
        MixtureWeights(np.array([0.5, 0.6]))
    with pytest.raises(InputError):
        MixtureWeights(np.array([-0.5, 1.5]))
    with pytest.raises(InputError):
        MixtureWeights(np.array([np.nan, 1.0]))
    assert len(MixtureWeights.uniform(4)) == 4


def test_mix_epsilon_formula():
    q2 = pmf([[2.0]], [1.0])
    specs = [
        HuberSpec(0.2, DELTA0, DELTA1),
        HuberSpec(0.4, DELTA0, q2),
    ]
    mixed = huber_mix(specs, MixtureWeights(np.array([0.5, 0.5])))
    assert mixed.epsilon == pytest.approx(0.3)


def test_mix_no_contamination():
    specs = [HuberSpec(0.0, DELTA0, None), HuberSpec(0.0, DELTA0, None)]
    mixed = huber_mix(specs, MixtureWeights.uniform(2))
    assert mixed.epsilon == 0.0
    assert mixed.outlier is None
    assert realized_pmf(mixed) is DELTA0


def test_mix_degenerate_weight():
    specs = [HuberSpec(0.2, DELTA0, DELTA1), HuberSpec(0.4, DELTA0, pmf([[2.0]], [1.0]))]
    mixed = huber_mix(specs, MixtureWeights(np.array([1.0, 0.0])))
    assert mixed.epsilon == pytest.approx(0.2)
    assert np.array_equal(mixed.outlier.support, specs[0].outlier.support)


def test_mix_rejects_mismatched_bases():
    specs = [HuberSpec(0.2, DELTA0, DELTA1), HuberSpec(0.2, DELTA1, DELTA0)]
    with pytest.raises(InputError):
        huber_mix(specs, MixtureWeights.uniform(2))


def test_mix_closure_matches_realized_mixture():
    # the realized pmf of the mixed model equals the weighted mixture of the
    # vendors' realized pmfs, pointwise
    rng = np.random.default_rng(21)
    support = np.arange(11, dtype=float)[:, None]
    for _ in range(200):
        n = int(rng.integers(1, 7))
        base, specs = random_huber_population(n, 10, 0.5, seed=int(rng.integers(2**31)))
        w = rng.uniform(size=n)
        w /= w.sum()
        mixed = huber_mix(specs, MixtureWeights(w))
        direct = np.zeros(11)
        for wi, s in zip(w, specs):
            direct += wi * realized_pmf(s).probs
        assert np.allclose(realized_pmf(mixed).probs, direct, atol=1e-12, rtol=0)


def test_value_exact_zero_eps():
    assert huber_value_exact(CFG, HuberSpec(0.0, DELTA0, None)) == 0.0


def test_value_exact_known_product():
    spec = HuberSpec(0.3, DELTA0, DELTA1)
    assert huber_value_exact(CFG, spec) == pytest.approx(-0.3 * D01, rel=1e-13)


def test_value_exact_outlier_equals_base():
    spec = HuberSpec(0.7, DELTA0, DELTA0)
    assert huber_value_exact(CFG, spec) == 0.0


def test_value_exact_equals_mixture_distance():
    rng = np.random.default_rng(31)
    for _ in range(200):
        base, specs = random_huber_population(1, 10, 0.5, seed=int(rng.integers(2**31)))
        spec = specs[0]
        lhs = -huber_value_exact(CFG, spec)
        rhs = mmd_discrete(CFG, realized_pmf(spec), base)
        assert abs(lhs - rhs) <= 1e-9


def test_value_exact_linear_in_eps():
    qs = pmf([[3.0], [7.0]], [0.4, 0.6])
    vals = [-huber_value_exact(CFG, HuberSpec(e, DELTA0, qs)) for e in (0.1, 0.2, 0.4)]
    assert vals[1] == pytest.approx(2 * vals[0], rel=1e-12)
    assert vals[2] == pytest.approx(4 * vals[0], rel=1e-12)


def test_value_exact_rejects_empirical():
    emp = Dataset("e", np.zeros((3, 1)))
    with pytest.raises(InputError):
        HuberSpec(0.1, emp, emp)


def test_sample_pure_base():
    spec = HuberSpec(0.0, DELTA0, None)
    got = sample_huber(spec, 50, seed=4)
    assert np.all(got.points == 0.0)


def test_sample_contamination_rate():
    spec = HuberSpec(0.5, DELTA0, DELTA1)
    got = sample_huber(spec, 100_000, seed=8)
    frac = float((got.points == 1.0).mean())
    assert abs(frac - 0.5) <= 0.01


def test_sample_deterministic():
    base, specs = random_huber_population(1, 10, 0.5, seed=5)
    a = sample_huber(specs[0], 200, seed=17)
    b = sample_huber(specs[0], 200, seed=17)
    assert np.array_equal(a.points, b.points)


def test_sample_empirical_source():
    emp_base = Dataset("b", np.array([[0.0], [2.0]]))
    emp_out = Dataset("o", np.array([[9.0]]))

    def empirical(D):  # resampling a dataset is sampling this pmf
        rows, counts = D.atoms
        return DiscretePmf(rows, counts / len(D))

    spec = HuberSpec(0.5, empirical(emp_base), empirical(emp_out))
    got = sample_huber(spec, 2000, seed=12)
    assert set(np.unique(got.points)) <= {0.0, 2.0, 9.0}


def test_population_invariants():
    base, specs = random_huber_population(1, 10, 0.5, seed=0)
    assert base.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert specs[0].outlier.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_population_reproducible():
    _, a = random_huber_population(5, 10, 0.5, seed=77)
    _, b = random_huber_population(5, 10, 0.5, seed=77)
    assert [s.epsilon for s in a] == [s.epsilon for s in b]


def test_population_support_is_integer_lattice():
    base, specs = random_huber_population(3, 10, 0.5, seed=1)
    assert base.support.shape == (11, 1)
    assert np.array_equal(base.support[:, 0], np.arange(11.0))


def _one_pmf_at_a_time(n, support_max, eps_max, seed, spaced=False, shared_outlier=False):
    # The population's documented law, drawn the long way: the base, then the
    # eps, then one uniform vector per outlier, each divided by its sum.
    rng = np.random.default_rng(seed)
    k = support_max + 1
    w = rng.uniform(size=k)
    base = w / w.sum()
    eps = np.arange(n) / n if spaced else rng.uniform(0.0, eps_max, size=n)
    outliers = []
    for _ in range(1 if shared_outlier else n):
        w = rng.uniform(size=k)
        outliers.append(w / w.sum())
    return base, eps, np.array(outliers * n if shared_outlier else outliers)


@pytest.mark.parametrize("n", [1, 2, 5, 40])
@pytest.mark.parametrize("support_max", [0, 1, 10, 30])
def test_population_is_bit_equal_to_one_pmf_at_a_time(n, support_max):
    lattice = np.arange(support_max + 1, dtype=float)[:, None]
    for seed in range(3):
        base, specs = random_huber_population(n, support_max, 0.3, seed)
        ref_base, ref_eps, ref_outliers = _one_pmf_at_a_time(n, support_max, 0.3, seed)
        assert np.array_equal(base.support, lattice)
        assert np.array_equal(base.probs, ref_base)
        assert np.array_equal([s.epsilon for s in specs], ref_eps)
        assert all(s.base is base and np.array_equal(s.outlier.support, lattice) for s in specs)
        assert np.array_equal([s.outlier.probs for s in specs], ref_outliers)
        for spaced, shared in ((True, False), (False, True), (True, True)):
            got = _lattice_draw(seed, n, support_max, 0.3, spaced, shared)
            ref = _one_pmf_at_a_time(n, support_max, 0.3, seed, spaced, shared)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref)), (seed, spaced, shared)
