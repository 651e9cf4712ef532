import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distval import (
    Dataset,
    DiscretePmf,
    InputError,
    KernelConfig,
    MixtureWeights,
    build_uniform_reference,
    mix_pmfs,
    mmd_biased,
)
from distval.data import _distinct_rows

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


def test_a_pooled_sample_records_how_often_it_took_each_source_atom():
    a = Dataset("a", [[1.0], [0.0], [1.0], [2.0]])  # atoms 0, 1, 2
    b = Dataset("b", [[5.0], [-0.0]])  # atoms -0.0, 5 (sorted)
    pooled = Dataset._pooled("p", [a, b], [np.array([0, 2, 2]), np.array([], dtype=int)])
    # the rows in source order, each source's in take order
    assert pooled.points.ravel().tolist() == [1.0, 1.0, 1.0]
    (sa, ua), (sb, ub) = pooled._sources
    assert sa is a and sb is b
    assert ua.tolist() == [0.0, 3.0, 0.0] and ub.tolist() == [0.0, 0.0]
    assert not ua.flags.writeable
    # a plain sample records none: it is its own single source
    assert a._sources == () and Dataset("c", pooled.points)._sources == ()


def test_pooled_uniform_reference_resamples_through_its_atoms():
    # lattice vendors share rows; the reference's atoms are still pairwise
    # distinct, so its empirical pmf is a valid DiscretePmf
    rng = np.random.default_rng(3)
    vendors = [Dataset(f"v{i}", rng.integers(0, 5, size=(30, 2))) for i in range(3)]
    ref = build_uniform_reference(vendors, seed=1).data
    rows, counts = ref.atoms
    pmf = DiscretePmf(rows, counts / len(ref))
    assert len(pmf.support) == len(np.unique(ref.points, axis=0)) < len(ref)
    assert np.array_equal(rows, Dataset("plain", ref.points).atoms[0])


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 7.0]), min_size=d, max_size=d),
            min_size=1, max_size=30,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_distinct_rows_match_np_unique(rows):
    X = np.array(rows)
    got, inverse, counts = _distinct_rows(X)
    want, want_inverse, want_counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)
    # == ignores the sign of a zero, the one thing allowed to differ
    assert got.shape == want.shape and (got == want).all()
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()
    assert counts.tolist() == want_counts.tolist()
    assert (got[inverse] == X).all()


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


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: DiscretePmf([[0.0], [1.0]], [0.5, 0.6]), "pmf: probabilities sum to 1.1, not 1"),
        (
            lambda: mix_pmfs([DiscretePmf([[0.0]], [1.0])] * 2, [0.25, 0.25]),
            "mix_pmfs: weights produce total mass 0.5",
        ),
        (lambda: MixtureWeights([0.5, 0.6]), "weights sum to 1.1, not 1"),
    ],
    ids=["pmf", "mix_pmfs", "weights"],
)
def test_sum_errors_print_python_floats(build, text):
    # numpy 2 reprs a scalar as np.float64(1.1); the text is the same on 1.x
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == text
