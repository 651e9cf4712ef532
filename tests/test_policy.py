import math

import numpy as np
import pytest

from distval import (
    Dataset,
    DecisionReport,
    HuberSpec,
    InputError,
    KernelConfig,
    PolicyParams,
    Reference,
    ReferenceKind,
    MixtureWeights,
    Verdict,
    build_mixture_reference,
    build_uniform_reference,
    compare,
    confidence_delta,
    criterion_margin_gt,
    criterion_margin_mix,
    rank_vendors,
    sample_huber,
)
from distval import kernel
from distval.data import DiscretePmf

CFG = KernelConfig(sigma=1.0)


def ds(name, *points):
    return Dataset(name, np.asarray(points, dtype=float))


def test_params_validation():
    with pytest.raises(InputError):
        PolicyParams(eps_upsilon=-0.1, eps_bias=0.0)
    with pytest.raises(InputError):
        PolicyParams(eps_upsilon=0.0, eps_bias=-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_policy_values_are_input_errors(bad):
    with pytest.raises(InputError, match="eps_upsilon"):
        PolicyParams(eps_upsilon=bad, eps_bias=0.1)
    with pytest.raises(InputError, match="eps_bias"):
        PolicyParams(eps_upsilon=0.0, eps_bias=bad)
    with pytest.raises(InputError, match="huber_gap"):
        criterion_margin_mix(PolicyParams(0.0, 0.1), 10, 10, 10, bad)


def test_margin_overflowing_to_inf_is_an_input_error():
    # every term is finite, but their sum is not
    with pytest.raises(InputError, match="criterion margin is inf"):
        criterion_margin_gt(PolicyParams(0.0, 1e308), 10, 10, 10)
    with pytest.raises(InputError, match="criterion margin is inf"):
        criterion_margin_gt(PolicyParams(1e308, 5e307), 10, 10, 10)
    with pytest.raises(InputError, match="criterion margin is inf"):
        criterion_margin_mix(PolicyParams(0.0, 0.1), 10, 10, 10, 1e308)


def test_params_are_floats():
    p = PolicyParams(eps_upsilon=0, eps_bias=1)
    assert type(p.eps_upsilon) is float and type(p.eps_bias) is float


def test_params_have_no_kernel_bound():
    # K is fixed by the RBF kernel; a caller-supplied bound could void the guarantee
    with pytest.raises(TypeError):
        PolicyParams(eps_upsilon=0, eps_bias=0.1, k_bound=0.01)


def test_margin_gt_hand_arithmetic():
    p = PolicyParams(eps_upsilon=0.0, eps_bias=0.1)
    # 2 * (0.1 + 0.01 + 0.01 + 2 * 0.01) = 0.28
    assert criterion_margin_gt(p, 10_000, 10_000, 10_000) == pytest.approx(0.28, rel=1e-13)


def test_margin_gt_limit_is_eps_upsilon():
    p = PolicyParams(eps_upsilon=0.25, eps_bias=0.0)
    big = 10**12
    assert criterion_margin_gt(p, big, big, big) == pytest.approx(0.25, abs=1e-4)


def test_margin_gt_linear_in_eps_bias():
    p1 = PolicyParams(eps_upsilon=0.0, eps_bias=0.1)
    p2 = PolicyParams(eps_upsilon=0.0, eps_bias=0.2)
    d = criterion_margin_gt(p2, 100, 200, 300) - criterion_margin_gt(p1, 100, 200, 300)
    assert d == pytest.approx(0.2, rel=1e-12)


def test_margin_mix_recovers_gt_at_zero_gap():
    p = PolicyParams(eps_upsilon=0.0, eps_bias=0.1)
    assert criterion_margin_mix(p, 100, 100, 100, 0.0) == criterion_margin_gt(p, 100, 100, 100)


def test_margin_mix_known_value():
    p = PolicyParams(eps_upsilon=0.0, eps_bias=0.1)
    gap = 0.3 * math.sqrt(2.0 - 2.0 * math.exp(-0.5))
    got = criterion_margin_mix(p, 10_000, 10_000, 10_000, gap)
    assert got == pytest.approx(0.28 + 2.0 * gap, rel=1e-13)


def test_margin_mix_additive_in_eps_upsilon():
    p0 = PolicyParams(eps_upsilon=0.0, eps_bias=0.1)
    p1 = PolicyParams(eps_upsilon=0.1, eps_bias=0.1)
    d = criterion_margin_mix(p1, 50, 50, 50, 0.2) - criterion_margin_mix(p0, 50, 50, 50, 0.2)
    assert d == pytest.approx(0.1, rel=1e-12)


def test_delta_formula():
    p = PolicyParams(eps_upsilon=0.0, eps_bias=0.1)
    # eps^2 * mbar * m_ref / (2K (mbar + m_ref)) = 0.01 * 1e6 / 4000 = 2.5
    assert confidence_delta(p, 1000, 1000, 1000) == pytest.approx(2.0 * math.exp(-2.5), rel=1e-13)
    # same arithmetic at 10^4 gives exponent 25
    assert confidence_delta(p, 10_000, 10_000, 10_000) == pytest.approx(
        2.0 * math.exp(-25.0), rel=1e-12
    )


def test_delta_vacuous_without_bias_budget():
    p = PolicyParams(eps_upsilon=0.0, eps_bias=0.0)
    assert confidence_delta(p, 100, 100, 100) == 2.0


def test_delta_decreases_in_m():
    p = PolicyParams(eps_upsilon=0.0, eps_bias=0.1)
    deltas = [confidence_delta(p, m, 50, 200) for m in (50, 100, 400, 1600)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_margin_monotonicity():
    p = PolicyParams(eps_upsilon=0.0, eps_bias=0.1)
    base = criterion_margin_gt(p, 100, 100, 100)
    assert criterion_margin_gt(p, 200, 100, 100) <= base
    assert criterion_margin_gt(p, 100, 200, 100) <= base
    assert criterion_margin_gt(p, 100, 100, 200) <= base
    assert criterion_margin_mix(p, 100, 100, 100, 0.2) >= criterion_margin_mix(p, 100, 100, 100, 0.1)


def _gt_ref(points):
    return Reference(kind=ReferenceKind.GROUND_TRUTH, data=points)


def test_compare_identical_datasets_inconclusive():
    a = ds("a", [0.0], [1.0])
    rep = compare(CFG, PolicyParams(0.0, 0.1), a, a, _gt_ref(ds("r", [0.0], [1.0])))
    assert rep.observed_gap == 0.0
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_compare_well_separated_concludes():
    # base at 0 vs a model pushing half its mass to 5; huge samples
    d0 = DiscretePmf(np.array([[0.0]]), np.array([1.0]))
    d5 = DiscretePmf(np.array([[5.0]]), np.array([1.0]))
    good = sample_huber(HuberSpec(0.0, d0, None), 10_000, seed=1, dataset_id="good")
    bad = sample_huber(HuberSpec(0.5, d0, d5), 10_000, seed=2, dataset_id="bad")
    ref = _gt_ref(sample_huber(HuberSpec(0.0, d0, None), 10_000, seed=3, dataset_id="ref"))
    rep = compare(CFG, PolicyParams(0.0, 0.05), good, bad, ref)
    assert rep.verdict is Verdict.CONCLUDE
    assert rep.observed_gap > rep.margin
    assert rep.confidence > 0.99


def test_compare_swapped_arguments_flip_gap():
    a, b = ds("a", [0.0], [0.5]), ds("b", [3.0], [4.0])
    ref = _gt_ref(ds("r", [0.0], [1.0]))
    r1 = compare(CFG, PolicyParams(0.0, 0.1), a, b, ref)
    r2 = compare(CFG, PolicyParams(0.0, 0.1), b, a, ref)
    assert r1.observed_gap == pytest.approx(-r2.observed_gap, rel=1e-12)


def test_compare_unknown_gap_forces_inconclusive():
    a, b = ds("a", [0.0]), ds("b", [5.0])
    ref = Reference(kind=ReferenceKind.UNIFORM, data=ds("u", [0.0], [5.0]))
    rep = compare(CFG, PolicyParams(0.0, 0.1), a, b, ref, huber_gap=None)
    assert rep.bound_unavailable
    assert rep.verdict is Verdict.INCONCLUSIVE
    # explicit zero override restores a computable verdict
    rep0 = compare(CFG, PolicyParams(0.0, 0.1), a, b, ref, huber_gap=0.0)
    assert not rep0.bound_unavailable


def test_compare_confidence_clamped():
    a = ds("a", [0.0], [1.0])
    rep = compare(CFG, PolicyParams(0.0, 0.0), a, a, _gt_ref(a))
    assert rep.delta == 2.0
    assert rep.confidence == 0.0


def test_report_serializes_to_json():
    import json

    a = ds("a", [0.0])
    rep = compare(CFG, PolicyParams(0.0, 0.1), a, a, _gt_ref(a))
    decoded = json.loads(rep.to_json())
    assert set(decoded) == {
        "margin",
        "observed_gap",
        "delta",
        "confidence",
        "verdict",
        "extra_term",
        "bound_unavailable",
    }
    assert decoded["verdict"] == "Inconclusive"


def test_rank_single_vendor():
    a = ds("a", [0.0])
    got = rank_vendors(CFG, [a], _gt_ref(a))
    assert got == [("a", 0.0)]


def test_rank_orders_by_contamination():
    d0 = DiscretePmf(np.array([[0.0]]), np.array([1.0]))
    d5 = DiscretePmf(np.array([[5.0]]), np.array([1.0]))
    clean = sample_huber(HuberSpec(0.0, d0, None), 2000, seed=5, dataset_id="clean")
    dirty = sample_huber(HuberSpec(0.5, d0, d5), 2000, seed=6, dataset_id="dirty")
    ref = _gt_ref(sample_huber(HuberSpec(0.0, d0, None), 2000, seed=7, dataset_id="r"))
    got = rank_vendors(CFG, [dirty, clean], ref)
    assert [vid for vid, _ in got] == ["clean", "dirty"]


def test_rank_ties_break_by_id():
    a, b = ds("b", [1.0]), ds("a", [1.0])
    ref = _gt_ref(ds("r", [0.0]))
    got = rank_vendors(CFG, [a, b], ref)
    assert [vid for vid, _ in got] == ["a", "b"]


def test_report_json_is_strict():
    rep = DecisionReport(
        margin=math.nan, observed_gap=0.0, delta=1.0, confidence=0.0,
        verdict=Verdict.INCONCLUSIVE, extra_term=0.0,
    )
    with pytest.raises(ValueError):
        rep.to_json()


def _count_self_sums(monkeypatch, data):
    """Counts self-sum passes over `data`'s atoms: the embedding's triangles."""
    import distval.mmd

    rows = data.atoms[0]
    calls = []
    real = distval.mmd._reduce_blocks

    def counting(cfg, X, wy, Y=None, threads=1, bounds=None):
        if X is rows and Y is None and bounds is not None:
            calls.append(1)
        return real(cfg, X, wy, Y, threads, bounds)

    monkeypatch.setattr(distval.mmd, "_reduce_blocks", counting)
    return calls


def test_rank_computes_reference_self_sum_once(monkeypatch):
    rng = np.random.default_rng(21)
    ref = _gt_ref(Dataset("r", rng.normal(size=(30, 2))))
    vendors = [Dataset(f"v{i}", rng.normal(i, 1.0, size=(12, 2))) for i in range(5)]
    calls = _count_self_sums(monkeypatch, ref.data)
    ranked = rank_vendors(CFG, vendors, ref)
    assert len(ranked) == 5
    assert len(calls) == 1


def test_compare_computes_reference_self_sum_once(monkeypatch):
    rng = np.random.default_rng(22)
    ref = _gt_ref(Dataset("r", rng.integers(0, 4, size=(40, 1))))
    a, b = Dataset("a", rng.integers(0, 4, size=(20, 1))), Dataset("b", rng.normal(size=(25, 1)))
    calls = _count_self_sums(monkeypatch, ref.data)
    compare(CFG, PolicyParams(0.0, 0.1), a, b, ref)
    compare(CFG, PolicyParams(0.0, 0.1), b, a, ref)
    assert len(calls) == 1


def _triangle_entries(m, block_entries):
    # the symmetric block plan: row blocks of block_entries // m rows, each
    # evaluated from its first row to the last column
    rows = max(1, block_entries // m)
    return sum((min(lo + rows, m) - lo) * (m - lo) for lo in range(0, m, rows))


@pytest.mark.parametrize(
    "reference",
    ["uniform", "ground_truth", "uniform-compare", "uniform-larger", "mixture", "skewed"],
)
def test_rank_kernel_entries_match_the_block_plan(monkeypatch, reference):
    rng = np.random.default_rng(23)
    vendors = [Dataset(f"v{i}", rng.normal(i, 1.0, size=(40, 2))) for i in range(5)]
    if reference == "uniform-larger":
        vendors[0] = Dataset("v0", rng.normal(size=(60, 2)))
    if reference == "skewed":
        vendors[0] = Dataset("v0", rng.normal(size=(10, 2)))
    if reference.startswith("uniform"):
        # each vendor is a source of the reference: its self-sum and cross
        # sum come from the one 200-row triangle
        ref = build_uniform_reference(vendors, seed=5)
        expected = _triangle_entries(200, 1000)
        if reference == "uniform-larger":
            # the 20 rows the 60-row vendor did not give the reference are
            # summed against it, and make one triangle of their own
            expected += 20 * 200 + _triangle_entries(20, 1000)
    elif reference == "skewed":
        # m_min = 10: the 50-row triangle, and the 30 rows each 40-row vendor
        # did not give are summed against it and make a triangle of their own
        ref = build_uniform_reference(vendors, seed=5)
        expected = _triangle_entries(50, 1000) + 4 * (30 * 50 + _triangle_entries(30, 1000))
    elif reference == "mixture":
        # 200 rows drawn with replacement: the triangle over the distinct rows
        # drawn, and each vendor's rows never drawn against them and alone
        ref = build_mixture_reference(vendors, MixtureWeights.uniform(5), 200, seed=5)
        taken = [int((u > 0).sum()) for _, u in ref.data._sources]
        assert taken == [28, 29, 26, 27, 27]
        n = sum(taken)
        expected = _triangle_entries(n, 1000) + sum(
            (40 - t) * n + _triangle_entries(40 - t, 1000) for t in taken
        )
    else:
        # no vendor row is in the reference: five full 40 x 150 cross sums
        ref = _gt_ref(Dataset("gt", rng.normal(size=(150, 2))))
        expected = _triangle_entries(150, 1000) + 5 * (_triangle_entries(40, 1000) + 40 * 150)
    entries = []
    real = kernel._gram_block

    def counting(A, B, out):
        entries.append(out.size)
        return real(A, B, out)

    monkeypatch.setattr(kernel, "_BLOCK_ENTRIES", 1000)
    monkeypatch.setattr(kernel, "_gram_block", counting)
    if reference == "uniform-compare":
        compare(CFG, PolicyParams(0.0, 0.1), vendors[0], vendors[1], ref)
    else:
        rank_vendors(CFG, vendors, ref)
    assert sum(entries) == expected
