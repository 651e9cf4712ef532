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
    mix_pmfs,
    mmd_biased,
)
from distval.data import _distinct_rows, _find_rows

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


_LATTICE = [0.0, -0.0, 1.0, -2.5, 7.0]


def _lattice_rows(d, values, min_size):
    return st.lists(
        st.lists(st.sampled_from(values), min_size=d, max_size=d), min_size=min_size, max_size=30
    )


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            _lattice_rows(d, _LATTICE, 1),
            # -9.0 and 9.0 lie below and above every lattice value
            _lattice_rows(d, _LATTICE + [-9.0, 9.0], 0),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_find_rows_matches_brute_force(case):
    rows, others = case
    X = np.array(rows)
    d = X.shape[1]
    atoms = _distinct_rows(X)[0]
    queries = np.concatenate(
        [X, np.array(others).reshape(-1, d), np.full((1, d), -9.0), np.full((1, d), 9.0)]
    )
    want = []
    for r in queries:
        hits = np.flatnonzero((atoms == r).all(1))
        want.append(int(hits[0]) if len(hits) else -1)
    assert _find_rows(atoms, queries).tolist() == want


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
