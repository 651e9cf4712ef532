import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distval import kernel
from distval import (
    Dataset,
    DiscretePmf,
    InputError,
    KernelConfig,
    MixtureWeights,
    build_mixture_reference,
    build_uniform_reference,
    median_heuristic,
    mmd2_unbiased,
    mmd_biased,
    mmd_discrete,
    random_huber_population,
    realized_pmf,
    sample_huber,
    value_dataset,
)
from distval.data import _find_rows
from distval.kernel import weighted_gram_sum
from distval.mmd import _embedding, _equal_part, _sums, signed_mmd

CFG = KernelConfig(sigma=1.0)

# sqrt(2 - 2 exp(-0.5)): the point-mass-at-0 vs point-mass-at-1 distance,
# reused all over this suite.
D01 = math.sqrt(2.0 - 2.0 * math.exp(-0.5))


def ds(*points):
    return Dataset("d", np.asarray(points, dtype=float))


def pmf(support, probs):
    return DiscretePmf(np.asarray(support, dtype=float), np.asarray(probs, dtype=float))


def test_biased_identical_datasets():
    a = ds([0.0], [2.0], [5.0])
    assert mmd_biased(CFG, a, a) == 0.0


def test_biased_identical_duplicate_heavy_dataset():
    a = ds(*([[0.0]] * 7 + [[2.0]] * 3 + [[5.0]] * 11))
    assert mmd_biased(CFG, a, a) == 0.0
    assert mmd_biased(CFG, a, Dataset("copy", a.points)) == 0.0


def test_biased_copy_of_continuous_rows_is_zero():
    # equal content takes the self-sum's route, so the cross sum matches it bit for bit
    D = Dataset("d", np.random.default_rng(4).normal(size=(700, 4)))
    assert mmd_biased(CFG, D, Dataset("copy", D.points.copy())) == 0.0


def test_biased_two_singletons():
    assert mmd_biased(CFG, ds([0.0]), ds([1.0])) == pytest.approx(D01, rel=1e-13)


def test_biased_equal_empirical_measures():
    # {0,0} and {0} are the same empirical distribution
    assert mmd_biased(CFG, ds([0.0], [0.0]), ds([0.0])) == pytest.approx(0.0, abs=1e-12)


def test_biased_symmetry():
    rng = np.random.default_rng(5)
    a, b = Dataset("a", rng.normal(size=(9, 2))), Dataset("b", rng.normal(size=(4, 2)))
    assert mmd_biased(CFG, a, b) == pytest.approx(mmd_biased(CFG, b, a), rel=1e-14)


def test_biased_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        mmd_biased(CFG, ds([0.0]), Dataset("b", np.zeros((2, 2))))


def _lookup_case(case):
    """Vendors and a reference sample that holds all, some or none of their rows."""
    rng = np.random.default_rng(31)
    if case == "signed-zero":
        v = rng.normal(size=(40, 2))
        v[:10, 0] = -0.0
        v[5:15, 1] = -0.0
        # the reference holds the same rows with +0.0, plus rows of its own
        ref = Dataset("r", np.concatenate([v + 0.0, rng.normal(size=(30, 2))]))
        return [Dataset("v", v)], ref
    vendors = [Dataset(f"v{i}", rng.normal(i, 1.0, size=(40, 2))) for i in range(3)]
    if case == "mixture":
        # rows drawn with replacement: some of each vendor's rows are absent
        ref = build_mixture_reference(vendors, MixtureWeights([0.5, 0.3, 0.2]), 60, seed=4)
        return vendors, ref.data
    return vendors, Dataset("gt", rng.normal(size=(90, 2)))


@pytest.mark.parametrize("case", ["mixture", "ground-truth", "signed-zero"])
def test_lookup_cross_sum_agrees_with_the_direct_sum(case):
    vendors, ref = _lookup_case(case)
    found = np.concatenate([_find_rows(ref.atoms[0], d.atoms[0]) >= 0 for d in vendors])
    share = {"mixture": (0.2, 0.8), "ground-truth": (0.0, 0.0), "signed-zero": (1.0, 1.0)}[case]
    assert share[0] <= found.mean() <= share[1]
    for d in vendors:
        for A, B in ((d, ref), (ref, d)):
            direct = weighted_gram_sum(CFG, *A.atoms, *B.atoms)
            got = _sums(CFG, A, B)[2]
            assert got == pytest.approx(direct, rel=1e-13)
            if case == "ground-truth":
                assert got == direct  # no row found: the direct sum itself


def test_equal_inputs_and_a_one_vendor_uniform_reference_give_exactly_zero():
    rng = np.random.default_rng(32)
    for pts in (rng.normal(size=(50, 3)), rng.integers(0, 3, size=(50, 2))):
        v = Dataset("v", pts)
        assert mmd_biased(CFG, v, Dataset("w", pts[::-1])) == 0.0
        ref = build_uniform_reference([v], seed=3)
        assert value_dataset(CFG, v, ref) == 0.0
        assert mmd_biased(CFG, ref.data, v) == 0.0


def test_u_stat_identical_constant_samples():
    assert mmd2_unbiased(CFG, ds([0.0], [0.0]), ds([0.0], [0.0])) == pytest.approx(0.0, abs=1e-15)


def test_u_stat_far_clusters():
    # hand computation: 1 + 1 - 2 exp(-12.5)
    got = mmd2_unbiased(CFG, ds([0.0], [0.0]), ds([5.0], [5.0]))
    assert got == pytest.approx(2.0 - 2.0 * math.exp(-12.5), rel=1e-13)


def test_u_stat_needs_two_points():
    with pytest.raises(InputError):
        mmd2_unbiased(CFG, ds([0.0]), ds([0.0], [1.0]))


def test_u_stat_can_be_negative():
    rng = np.random.default_rng(0)
    vals = []
    for t in range(200):
        a = Dataset("a", rng.normal(size=(5, 1)))
        b = Dataset("b", rng.normal(size=(5, 1)))
        vals.append(mmd2_unbiased(CFG, a, b))
    assert min(vals) < 0.0  # unbiasedness around 0 forces negative excursions


def test_unpaired_u_stat_keeps_every_cross_pair():
    a, b = ds([0.0], [1.0]), ds([0.0], [1.0])
    # within terms 2 * exp(-0.5) / 2 each, cross term 2 * (2 + 2 exp(-0.5)) / 4
    # identical non-constant samples of equal size score below 0
    assert mmd2_unbiased(CFG, a, b) == pytest.approx(-1.0 + math.exp(-0.5), rel=1e-13)


def test_discrete_identical():
    p = pmf([[0.0], [1.0]], [0.3, 0.7])
    assert mmd_discrete(CFG, p, p) == 0.0


def test_discrete_point_masses():
    p, q = pmf([[0.0]], [1.0]), pmf([[1.0]], [1.0])
    assert mmd_discrete(CFG, p, q) == pytest.approx(D01, rel=1e-13)


def test_discrete_half_mixture():
    # hand-expanded weighted sums; equals half the point-mass distance by
    # bilinearity of the squared form
    p = pmf([[0.0]], [1.0])
    q = pmf([[0.0], [1.0]], [0.5, 0.5])
    assert mmd_discrete(CFG, p, q) == pytest.approx(D01 / 2.0, rel=1e-13)


def test_discrete_rejects_bad_pmf():
    with pytest.raises(InputError):
        pmf([[0.0], [1.0]], [0.6, 0.6])
    with pytest.raises(InputError):
        pmf([[0.0], [0.0]], [0.5, 0.5])
    with pytest.raises(InputError):
        pmf([[0.0], [1.0]], [-0.1, 1.1])


def _random_pmf(rng, k=6):
    support = rng.choice(20, size=k, replace=False).astype(float)[:, None]
    w = rng.uniform(size=k)
    return DiscretePmf(support, w / w.sum())


def test_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p, q, r = (_random_pmf(rng) for _ in range(3))
        d_pr = mmd_discrete(CFG, p, r)
        d_pq = mmd_discrete(CFG, p, q)
        d_qr = mmd_discrete(CFG, q, r)
        assert d_pr <= d_pq + d_qr + 1e-9


def test_identity_of_indiscernibles_random():
    rng = np.random.default_rng(43)
    for _ in range(50):
        p = _random_pmf(rng)
        q = _random_pmf(rng)
        assert mmd_discrete(CFG, p, p) <= 1e-12
        if not (np.array_equal(p.support, q.support) and np.allclose(p.probs, q.probs)):
            assert mmd_discrete(CFG, p, q) > 0.0


def test_estimator_consistency_shrinks_with_m():
    base, specs = random_huber_population(2, 10, 0.5, seed=99)
    p1, p2 = realized_pmf(specs[0]), realized_pmf(specs[1])
    exact = mmd_discrete(CFG, p1, p2)
    errs = []
    for m in (50, 500, 5000):
        d1 = sample_huber(specs[0], m, seed=1)
        d2 = sample_huber(specs[1], m, seed=2)
        errs.append(abs(mmd_biased(CFG, d1, d2) - exact))
    assert errs[2] < errs[0] + 0.05
    assert errs[2] < 0.05


def test_u_stat_mean_matches_exact_squared():
    # average over resamples vs the exact squared distance, within 3 SEs
    base, specs = random_huber_population(2, 10, 0.5, seed=7)
    p1, p2 = realized_pmf(specs[0]), realized_pmf(specs[1])
    target = mmd_discrete(CFG, p1, p2) ** 2
    rng = np.random.default_rng(123)
    vals = []
    for _ in range(1000):
        s1, s2 = rng.integers(0, 2**63, size=2)
        d1 = sample_huber(specs[0], 40, seed=int(s1))
        d2 = sample_huber(specs[1], 40, seed=int(s2))
        vals.append(mmd2_unbiased(CFG, d1, d2))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3.0 * se


# Property tests. Samples are 1-D or 2-D rows: "lattice" rows take a few
# integer values, so most rows repeat; the other rows are all distinct.

def _samples(dim, lattice):
    coord = st.integers(0, 3).map(float) if lattice else st.floats(-4, 4)
    row = st.lists(coord, min_size=dim, max_size=dim)
    rows = st.lists(row, min_size=1, max_size=30, unique_by=None if lattice else tuple)
    return rows.map(np.array)


def _pair():
    return st.tuples(st.integers(1, 2), st.booleans()).flatmap(
        lambda dl: st.tuples(_samples(*dl), _samples(*dl))
    )


def _empirical_pmf(x):
    support, counts = np.unique(x, axis=0, return_counts=True)
    return DiscretePmf(support, counts / counts.sum())


# Squared values are compared: near MMD = 0 the square root turns 1e-17
# rounding noise in the radicand into 1e-9 noise in the distance.


@given(_pair(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_biased_invariant_under_row_permutation(pair, rnd):
    x, y = pair
    perm = list(range(len(x)))
    rnd.shuffle(perm)
    assert mmd_biased(CFG, Dataset("x", x[perm]), Dataset("y", y)) == mmd_biased(
        CFG, Dataset("x", x), Dataset("y", y)
    )


@given(_pair(), st.integers(2, 5))
@settings(max_examples=80, deadline=None)
def test_biased_invariant_under_duplicating_every_row(pair, k):
    x, y = pair
    base = mmd_biased(CFG, Dataset("x", x), Dataset("y", y))
    dup = mmd_biased(CFG, Dataset("x", np.repeat(x, k, axis=0)), Dataset("y", y))
    assert dup**2 == pytest.approx(base**2, abs=1e-12)


@given(_pair())
@settings(max_examples=80, deadline=None)
def test_biased_equals_discrete_on_empirical_pmfs(pair):
    x, y = pair
    sampled = mmd_biased(CFG, Dataset("x", x), Dataset("y", y))
    exact = mmd_discrete(CFG, _empirical_pmf(x), _empirical_pmf(y))
    assert sampled**2 == pytest.approx(exact**2, abs=1e-12)


@pytest.mark.parametrize("lattice", [True, False])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_biased_bit_identical_across_threads(lattice, data):
    dim = data.draw(st.integers(1, 2))
    x, y = data.draw(_samples(dim, lattice)), data.draw(_samples(dim, lattice))
    got = []
    # a tiny block size splits even these inputs into many row blocks
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 8):
        for t in (1, 2, 4):
            got.append(mmd_biased(CFG, Dataset("x", x), Dataset("y", y), threads=t))
    assert got[0] == got[1] == got[2]


# Quarter-integer coordinates stay exact when shifted by 1e6 or 1e8, so the
# shifted samples are exact translates and only rounding inside the kernel
# layer can tell them apart.
@pytest.mark.parametrize("shift", [1e6, 1e8])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_biased_and_bandwidth_invariant_under_translation(shift, data):
    coord = st.integers(-16, 16).map(lambda k: k / 4.0)
    rows = st.lists(st.lists(coord, min_size=2, max_size=2), min_size=1, max_size=30).map(np.array)
    x, y = data.draw(rows), data.draw(rows)
    pooled = np.vstack([x, y])
    iu = np.triu_indices(pooled.shape[0], k=1)
    dists = np.sqrt(((pooled[:, None] - pooled[None]) ** 2).sum(-1))[iu]
    if np.median(dists) == 0.0:
        # More than half the pooled pairs coincide, so there is no bandwidth
        # at any offset.
        for offset in (0.0, shift):
            with pytest.raises(InputError, match="median pairwise distance is 0"):
                median_heuristic(Dataset("pool", pooled + offset))
        return

    def scored(offset):
        sigma = median_heuristic(Dataset("pool", pooled + offset))
        cfg = KernelConfig(sigma=sigma)
        return sigma, mmd_biased(cfg, Dataset("x", x + offset), Dataset("y", y + offset))

    (sigma0, base), (sigma, moved) = scored(0.0), scored(shift)
    assert sigma == pytest.approx(sigma0, rel=1e-12)
    assert moved**2 == pytest.approx(base**2, abs=1e-12)


# A uniform reference keeps its vendors' subsamples as parts. When they share
# no row, a vendor whose atoms equal a part's reads its self-sum and cross sum
# from the reference's one triangle pass; the same rows as a plain sample take
# the lookup route. Parts that share rows are one run and take that route too.


def _market(seed, dim, kind, sizes):
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        draw = [rng.normal(i, 1.0, size=(m, dim)) for i, m in enumerate(sizes)]
    else:  # a few values each, repeated within a vendor; shared across them or not
        shift = 0 if kind == "lattice-shared" else 10
        draw = [rng.integers(0, 4, size=(m, dim)) + shift * i for i, m in enumerate(sizes)]
    return [Dataset(f"v{i}", x) for i, x in enumerate(draw)]


@pytest.mark.parametrize("kind", ["continuous", "lattice-own", "lattice-shared"])
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    sizes=st.lists(st.integers(1, 25), min_size=2, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_part_route_matches_the_lookup_route_across_threads(kind, seed, dim, sizes):
    got = []
    # a tiny block size splits the reference into many blocks and chunks
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 16):
        for threads in (1, 2, 4):
            # fresh datasets, so that no thread count reads another's kept sums
            vendors = _market(seed, dim, kind, sizes)
            ref = build_uniform_reference(vendors, seed=5).data
            plain = Dataset("plain", ref.points)
            assert ref.parts == (min(sizes),) * len(sizes)
            runs = len(ref._part_atoms[2]) - 1
            shared = len(np.unique(ref.points, axis=0)) < sum(
                len(np.unique(ref.points[lo : lo + min(sizes)], axis=0))
                for lo in range(0, len(ref), min(sizes))
            )
            assert runs == (1 if shared else len(sizes))
            if kind != "lattice-shared":
                assert not shared
            sums = []
            for v in vendors:
                part_route = not shared and len(v) == min(sizes)
                assert (_equal_part(ref, v) is not None) == part_route
                part = _sums(CFG, v, ref, threads)
                lookup = _sums(CFG, Dataset(v.id, v.points), plain, threads)
                np.testing.assert_allclose(part, lookup, rtol=1e-13, atol=0)
                # squared, and bounded by the sums' 1e-13: near MMD = 0 the
                # square root magnifies the radicand's rounding
                m, n = len(v), len(ref)
                terms = (lookup[0] / m**2, lookup[1] / n**2, 2 * abs(lookup[2]) / (m * n))
                value = mmd_biased(CFG, v, ref, threads)
                drift = abs(value**2 - mmd_biased(CFG, v, plain, threads) ** 2)
                assert drift <= 1e-13 * sum(terms) + 1e-15
                sums.append(part)
            got.append(sums)
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("kind", ["continuous", "lattice-own"])
def test_part_sums_bit_identical_across_threads(kind):
    # 5 parts of 37 rows in blocks of a few rows, grouped into 8 chunks: the
    # parts straddle block boundaries
    got = []
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 1000):
        for threads in (1, 2, 4):
            vendors = _market(31, 3, kind, [37] * 5)
            ref = build_uniform_reference(vendors, seed=5).data
            bounds = ref._part_atoms[2]
            n, rows = bounds[-1], 1000 // bounds[-1]
            assert len(bounds) == 6
            assert len(kernel._chunk_plan(n, n, rows, True)) == kernel._CHUNKS
            assert any(b % rows for b in bounds[1:-1])
            s, g, part_rows = _embedding(CFG, ref, threads)
            sums = [_sums(CFG, v, ref, threads) for v in vendors]
            got.append((s, g.tobytes(), part_rows.tobytes(), sums))
    assert got[0] == got[1] == got[2]
    # each part's self-sum is its vendor's own, within rounding
    for v, (s_v, _, _) in zip(vendors, got[0][3]):
        assert s_v == pytest.approx(weighted_gram_sum(CFG, *v.atoms, *v.atoms), rel=1e-13)


def test_signed_mmd_groups_of_rows_agree_with_one_row_calls():
    rng = np.random.default_rng(29)
    support = rng.normal(size=(40, 2))
    rows = rng.uniform(-1.0, 1.0, size=(12, 40))
    rows[7] = 0.0
    # 1 support row per block (40 blocks) and 5 rows per group (3 groups)
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 50):
        got = signed_mmd(CFG, support, rows)
        one = np.array([signed_mmd(CFG, support, [w])[0] for w in rows])
    assert got[7] == 0.0 and one[7] == 0.0
    np.testing.assert_allclose(got**2, one**2, rtol=0, atol=1e-12)
    dense = [w @ kernel.gram_matrix(CFG, support, support) @ w for w in rows]
    np.testing.assert_allclose(got**2, dense, rtol=1e-12, atol=1e-12)


def test_signed_mmd_memory_stays_within_one_group_of_blocks():
    # exact incentive's lattice at noise_var 1e6: 10 + 2 * 4,000 + 1 points
    n, k = 8011, 200
    support = np.arange(n, dtype=float)[:, None]
    rows = np.random.default_rng(31).uniform(-1.0, 1.0, size=(k, n)) / n
    g = 4 * kernel._BLOCK_ENTRIES // n  # rows per group
    # 8-byte values: the two lifted (n, 3) arrays, one block buffer and a
    # group's (n, g) row sums; and 1 MiB for numpy's and the interpreter's
    # small temporaries. A dense K would take 8 n^2 bytes (513 MB), and a
    # pass over all k rows at once 8 k n bytes (12.8 MB) of row sums.
    bound = 8 * (2 * 3 * n + kernel._BLOCK_ENTRIES + n * g) + 2**20
    tracemalloc.start()
    try:
        signed_mmd(CFG, support, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound < 12_000_000
