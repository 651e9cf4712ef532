import math

import numpy as np
import pytest

from distval import Dataset, DiscretePmf, InputError, KernelConfig, mmd_biased

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
