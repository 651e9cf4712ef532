import math

import numpy as np
import pytest

from distval import Dataset, DiscretePmf, InputError, KernelConfig, mix_pmfs, mmd_biased

CFG = KernelConfig(sigma=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dataset_rejects_non_finite_points(bad):
    with pytest.raises(InputError, match="finite"):
        Dataset("d", np.array([[0.0], [bad]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pmf_rejects_non_finite_probs_and_support(bad):
    with pytest.raises(InputError, match="finite"):
        DiscretePmf(np.array([[0.0], [1.0]]), np.array([bad, 0.5]))
    with pytest.raises(InputError, match="finite"):
        DiscretePmf(np.array([[0.0], [bad]]), np.array([0.5, 0.5]))


def test_dataset_keeps_a_read_only_copy():
    arr = np.array([[0.0], [1.0], [1.0]])
    d = Dataset("d", arr)
    assert d.points is not arr
    with pytest.raises(ValueError):
        d.points[0, 0] = 7.0
    rows, counts = d.atoms
    with pytest.raises(ValueError):
        counts[0] = 5.0


def test_writing_the_callers_array_does_not_change_the_value():
    arr = np.array([[0.0], [1.0], [1.0], [3.0]])
    ref_arr = np.array([[0.0], [2.0]])
    d, ref = Dataset("d", arr), Dataset("r", ref_arr)
    before = mmd_biased(CFG, d, ref)
    arr[:] = 9.0
    ref_arr[:] = -4.0
    assert mmd_biased(CFG, d, ref) == before
    # and a fresh dataset over the same original rows agrees exactly
    fresh = Dataset("d", [[0.0], [1.0], [1.0], [3.0]])
    assert mmd_biased(CFG, fresh, Dataset("r", [[0.0], [2.0]])) == before


def test_atoms_are_distinct_rows_with_counts():
    d = Dataset("d", [[2.0, 0.0], [1.0, 5.0], [2.0, 0.0], [2.0, 0.0]])
    rows, counts = d.atoms
    assert rows.tolist() == [[1.0, 5.0], [2.0, 0.0]]
    assert counts.tolist() == [1.0, 3.0]
    assert counts.sum() == len(d)


def _in_order_mix(pmfs, weights):
    # Reference: accumulate w * p per support point in pmf order, as a dict.
    acc = {}
    for pmf, w in zip(pmfs, weights):
        for row, p in zip(pmf.support.tolist(), pmf.probs):
            acc[tuple(row)] = acc.get(tuple(row), 0.0) + w * p
    keys = sorted(acc)
    probs = np.array([acc[k] for k in keys])
    return keys, probs / probs.sum()


@pytest.mark.parametrize(
    "supports",
    [
        [[[2.0], [0.0]], [[1.0], [2.0], [5.0]], [[0.0]]],
        [
            [[1.0, 5.0], [0.0, 2.0]],
            [[1.0, -1.0], [0.0, 2.0]],
            [[1.0, 5.0], [-3.0, 9.0], [1.0, 0.0]],
        ],
    ],
)
def test_mix_pmfs_sorted_union_support_and_in_order_probs(supports):
    rng = np.random.default_rng(len(supports[0][0]))
    pmfs = []
    for s in supports:
        w = rng.uniform(size=len(s))
        pmfs.append(DiscretePmf(np.array(s), w / w.sum()))
    weights = rng.uniform(size=len(pmfs))
    weights /= weights.sum()
    mixed = mix_pmfs(pmfs, weights)
    keys, probs = _in_order_mix(pmfs, weights)
    assert [tuple(r) for r in mixed.support.tolist()] == keys
    assert mixed.probs.tolist() == probs.tolist()


def test_mix_pmfs_probs_bit_equal_to_in_order_accumulation_on_many_pmfs():
    # many pmfs on overlapping lattice points, so the order of the additions
    # shows in the last bits
    rng = np.random.default_rng(8)
    pmfs = []
    for _ in range(40):
        support = np.unique(rng.integers(0, 6, size=(5, 1)), axis=0).astype(float)
        w = rng.uniform(size=support.shape[0])
        pmfs.append(DiscretePmf(support, w / w.sum()))
    weights = rng.uniform(size=len(pmfs))
    weights /= weights.sum()
    mixed = mix_pmfs(pmfs, weights)
    keys, probs = _in_order_mix(pmfs, weights)
    assert [tuple(r) for r in mixed.support.tolist()] == keys
    assert mixed.probs.tolist() == probs.tolist()


def test_mix_pmfs_merges_signed_zeros():
    # -0.0 == 0.0, so both pmfs put their mass on one support point
    mixed = mix_pmfs([DiscretePmf([[0.0]], [1.0]), DiscretePmf([[-0.0]], [1.0])], [0.5, 0.5])
    assert mixed.support.tolist() == [[0.0]] and mixed.probs.tolist() == [1.0]


def test_mix_pmfs_rejects_dimension_mismatch_and_weight_count():
    p1 = DiscretePmf([[0.0]], [1.0])
    p2 = DiscretePmf([[0.0, 1.0]], [1.0])
    with pytest.raises(InputError, match="share a dimension"):
        mix_pmfs([p1, p2], [0.5, 0.5])
    with pytest.raises(InputError, match="one weight per pmf"):
        mix_pmfs([p1, p1], [1.0])


def test_pmf_rejects_signed_zero_duplicates():
    with pytest.raises(InputError, match="distinct"):
        DiscretePmf([[0.0], [-0.0]], [0.5, 0.5])
