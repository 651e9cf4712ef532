import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distval import (
    Dataset,
    InputError,
    KernelConfig,
    build_uniform_reference,
    gram_sum,
    kernel_eval,
    median_heuristic,
    mmd_biased,
    rank_vendors,
    value_dataset,
)
from distval import kernel
from distval.kernel import weighted_gram_sum

CFG = KernelConfig(sigma=1.0)


def ds(*points):
    return Dataset("d", np.asarray(points, dtype=float))


def test_config_validation():
    with pytest.raises(InputError):
        KernelConfig(sigma=0.0)
    with pytest.raises(InputError):
        KernelConfig(sigma=-1.0)
    with pytest.raises(TypeError):
        KernelConfig(sigma=1.0, k_bound=2.0)  # K is fixed by the RBF kernel
    # 1e200 and 1e-200 are finite, but 2 sigma^2 overflows or underflows
    for bad in (math.inf, math.nan, 1e200, 1e-200):
        with pytest.raises(InputError, match="finite"):
            KernelConfig(sigma=bad)
    for edge in (1.5e-154, 9.4e153):
        assert kernel_eval(KernelConfig(sigma=edge), [0.0], [1.0]) <= 1.0


def test_eval_identical_points():
    assert kernel_eval(CFG, [0.0], [0.0]) == 1.0


def test_eval_unit_separation():
    # exp(-1 / (2 * 1^2)) evaluated directly
    assert kernel_eval(CFG, [0.0], [1.0]) == pytest.approx(math.exp(-0.5), rel=0, abs=1e-15)


def test_eval_sigma_two():
    # exp(-4 / (2 * 2^2)) = exp(-0.5)
    cfg = KernelConfig(sigma=2.0)
    got = kernel_eval(cfg, [0.0, 0.0], [2.0, 0.0])
    assert got == pytest.approx(math.exp(-0.5), rel=0, abs=1e-15)


def test_eval_dimension_mismatch():
    with pytest.raises(InputError):
        kernel_eval(CFG, [0.0], [0.0, 1.0])


def test_eval_symmetry_and_bounds_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        x, y = rng.normal(size=3), rng.normal(size=3)
        k_xy = kernel_eval(CFG, x, y)
        assert k_xy == kernel_eval(CFG, y, x)
        assert 0.0 < k_xy <= kernel.K_BOUND


# coordinate and bandwidth ranges keep the exponent above the float64
# underflow threshold, where strict positivity is representable
@given(
    st.lists(st.floats(-6, 6), min_size=2, max_size=4),
    st.lists(st.floats(-6, 6), min_size=2, max_size=4),
    st.floats(1.0, 10),
)
@settings(max_examples=300)
def test_eval_symmetry_property(xs, ys, sigma):
    n = min(len(xs), len(ys))
    cfg = KernelConfig(sigma=sigma)
    a, b = xs[:n], ys[:n]
    assert kernel_eval(cfg, a, b) == kernel_eval(cfg, b, a)
    assert 0.0 < kernel_eval(cfg, a, b) <= 1.0


def test_gram_sum_single_pair():
    assert gram_sum(CFG, ds([0.0]), ds([0.0])) == pytest.approx(1.0)


def test_gram_sum_two_by_two():
    # 4-term hand sum: k(0,0)+k(1,1)+k(0,1)+k(1,0) = 2 + 2 exp(-0.5)
    a = ds([0.0], [1.0])
    assert gram_sum(CFG, a, a) == pytest.approx(2.0 + 2.0 * math.exp(-0.5), rel=1e-14)


def test_gram_sum_repeated_points():
    assert gram_sum(CFG, ds([0.0]), ds([0.0], [0.0], [0.0])) == pytest.approx(3.0)


def test_gram_sum_empty_rejected():
    with pytest.raises(InputError):
        Dataset("e", np.empty((0, 1)))


def test_gram_sum_matches_naive_double_loop_any_worker_count():
    rng = np.random.default_rng(11)
    for m, n in [(1, 1), (3, 7), (50, 50), (13, 29)]:
        A = Dataset("a", rng.normal(size=(m, 2)))
        B = Dataset("b", rng.normal(size=(n, 2)))
        naive = math.fsum(
            kernel_eval(CFG, x, y) for x in A.points for y in B.points
        )
        results = [gram_sum(CFG, A, B, threads=t) for t in (1, 2, 4)]
        for got in results:
            assert got == pytest.approx(naive, rel=1e-12)
        # determinism contract: bit-identical across worker counts
        assert results[0] == results[1] == results[2]


def test_gram_sum_dimension_mismatch():
    with pytest.raises(InputError):
        gram_sum(CFG, ds([0.0]), Dataset("b", np.zeros((2, 2))))


def test_median_heuristic_single_pair():
    assert median_heuristic(ds([0.0], [2.0])) == pytest.approx(2.0)


def test_median_heuristic_three_points():
    # pairwise distances {1, 3, 2}; median 2
    assert median_heuristic(ds([0.0], [1.0], [3.0])) == pytest.approx(2.0)


def test_median_heuristic_degenerate():
    with pytest.raises(InputError):
        median_heuristic(ds([0.0], [0.0], [0.0]))


def test_median_heuristic_capped_and_deterministic():
    rng = np.random.default_rng(3)
    pool = Dataset("p", rng.normal(size=(5000, 2)))
    a = median_heuristic(pool)
    b = median_heuristic(pool)
    assert a == b > 0.0
    # the median over the 1000 rows a seed-0 permutation picks first
    sub = pool.points[np.random.default_rng(0).permutation(5000)[:1000]]
    dists = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=2)
    assert a == pytest.approx(np.median(dists[np.triu_indices(1000, k=1)]), rel=1e-12)


def _median_of_every_pair(pts):
    # the dense form of median_heuristic: one lifted product, every pair's
    # distance, then np.median
    if pts.shape[0] > kernel._MEDIAN_CAP:
        pts = pts[np.random.default_rng(0).permutation(pts.shape[0])[: kernel._MEDIAN_CAP]]
    A, B = kernel._lifted(KernelConfig(sigma=1.0), pts, pts)
    d2 = np.maximum(-2.0 * (A @ B.T), 0.0)
    return float(np.median(np.sqrt(d2[np.triu_indices(pts.shape[0], k=1)])))


@st.composite
def _pools(draw):
    # lattice pools are tie-heavy; sizes reach past the 1,000-row cap
    n = draw(st.one_of(st.integers(2, 60), st.integers(995, 1200)))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(0, draw(st.integers(1, 4)), size=(n, d)).astype(float)
    else:
        pts = rng.normal(size=(n, d)) * 10.0 ** draw(st.integers(-3, 3))
    return pts + draw(st.sampled_from([0.0, 1e8]))


@given(_pools())
@settings(max_examples=40, deadline=None)
def test_median_heuristic_is_bit_identical_to_the_median_of_every_pair(pts):
    expected = _median_of_every_pair(pts)
    if expected <= 0.0:
        with pytest.raises(InputError, match="median pairwise distance is 0"):
            median_heuristic(Dataset("p", pts))
    else:
        assert median_heuristic(Dataset("p", pts)) == expected


# 999 rows give an odd pair count (498,501) and 1,000 an even one (499,500).
@pytest.mark.parametrize("n", [999, 1000])
@pytest.mark.parametrize("lattice", [False, True], ids=["continuous", "lattice"])
def test_median_heuristic_row_blocks_are_bit_identical_to_the_median_of_every_pair(n, lattice):
    rng = np.random.default_rng(n)
    if lattice:
        pts = rng.integers(0, 4, size=(n, 2)).astype(float)
    else:
        pts = rng.normal(size=(n, 3))
    expected = _median_of_every_pair(pts)
    assert expected > 0.0
    # 7 rows per block: 142 full blocks and a partial last one of 5 or 6 rows
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 7 * n):
        assert median_heuristic(Dataset("p", pts)) == expected


def test_median_heuristic_lower_middle_is_the_max_below_the_partition():
    # A partition at the upper middle leaves the lower middle value at index
    # half - 1 for most inputs, but not for all; with numpy 2.4 it does not
    # for this pool's 780 pairs, so reading that index would be caught here.
    pts = np.random.default_rng(61).normal(size=(40, 2))
    assert median_heuristic(Dataset("p", pts)) == _median_of_every_pair(pts)


def test_median_heuristic_memory_stays_within_its_pairs_and_one_block():
    m, d = 10_000, 8
    pool = Dataset("p", np.random.default_rng(4).normal(size=(m, d)))
    n = kernel._MEDIAN_CAP
    # 8-byte values: the n(n-1)/2 exponents, one row block of them, the
    # subsample's rows and their lifted copies, the pool's permutation, and
    # 1 MiB for numpy's and the interpreter's small temporaries.
    bound = 8 * (n * (n - 1) // 2 + kernel._BLOCK_ENTRIES + 2 * n * d + m) + 2**20
    tracemalloc.start()
    try:
        median_heuristic(pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound < 8_000_000


def test_self_sum_memory_stays_within_one_buffer_per_worker():
    m, d, threads = 10_000, 8, 2
    X, w = np.random.default_rng(5).normal(size=(m, d)), np.ones(m)
    # 8-byte values: the two lifted (m, d + 2) arrays, one block buffer per
    # worker in flight (the calling thread and threads - 1 pool workers), and
    # 1 MiB for the row sums and numpy's and the interpreter's small temporaries.
    bound = 8 * (2 * m * (d + 2) + threads * kernel._BLOCK_ENTRIES) + 2**20
    # a sample's own table pass: the triangle's row sums per segment
    kernel._reduce_blocks(CFG, X, w, threads=threads, bounds=(0, m))
    tracemalloc.start()
    try:
        kernel._reduce_blocks(CFG, X, w, threads=threads, bounds=(0, m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_threads_below_one_are_an_input_error_on_every_call():
    with pytest.raises(InputError, match="threads must be >= 1"):
        gram_sum(CFG, ds([0.0]), ds([1.0]), threads=0)
    # a reference whose sums are already kept runs no pass, and still raises
    vendors = [Dataset(f"v{i}", np.arange(6.0) + 10 * i) for i in range(3)]
    ref = build_uniform_reference(vendors, seed=3)
    value = value_dataset(CFG, vendors[0], ref)
    assert value_dataset(CFG, vendors[0], ref) == value
    with pytest.raises(InputError, match="threads must be >= 1, got 0"):
        value_dataset(CFG, vendors[0], ref, threads=0)
    with pytest.raises(InputError, match="threads must be >= 1, got -4"):
        rank_vendors(CFG, vendors, ref, threads=-4)


def test_weighted_gram_sum_matches_dense_weighted_form():
    rng = np.random.default_rng(12)
    X, Y = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
    wx, wy = rng.uniform(size=7), rng.uniform(size=5)
    dense = float(wx @ kernel.gram_matrix(KernelConfig(sigma=1.5), X, Y) @ wy)
    got = weighted_gram_sum(KernelConfig(sigma=1.5), X, wx, Y, wy)
    assert got == pytest.approx(dense, rel=1e-13)


def _rows(distinct: bool):
    # duplicate-heavy: a few lattice values; all-distinct: continuous rows
    if distinct:
        return st.lists(st.floats(-3, 3), min_size=1, max_size=40, unique=True)
    return st.lists(st.integers(0, 3).map(float), min_size=1, max_size=40)


@pytest.mark.parametrize("distinct", [False, True])
def test_gram_sum_bit_identical_across_threads_property(distinct):
    @given(_rows(distinct), _rows(distinct))
    @settings(max_examples=60, deadline=None)
    def check(xs, ys):
        a, b = Dataset("a", np.array(xs)), Dataset("b", np.array(ys))
        # a tiny block size splits even these inputs into many row blocks
        with mock.patch.object(kernel, "_BLOCK_ENTRIES", 8):
            got = [gram_sum(CFG, a, b, threads=t) for t in (1, 2, 4)]
        assert got[0] == got[1] == got[2]

    check()


def test_weighted_self_sum_matches_dense_weighted_form():
    # equal inputs take the symmetric route: sum w_i^2 + 2 sum_{i<j} w_i w_j k_ij
    rng = np.random.default_rng(13)
    cfg = KernelConfig(sigma=1.5)
    X, w = rng.normal(size=(40, 3)), rng.uniform(0.1, 3.0, size=40)
    dense = float(w @ kernel.gram_matrix(cfg, X, X) @ w)
    assert weighted_gram_sum(cfg, X, w, X, w) == pytest.approx(dense, rel=1e-13)


def test_weight_matrix_reduction_matches_dense_and_is_bit_identical_across_threads():
    # five weightings share each block's products; three segments split each
    # row's sums, and the segment bounds straddle the 6-row blocks
    rng = np.random.default_rng(23)
    cfg = KernelConfig(sigma=1.5)
    X, W = rng.normal(size=(150, 3)), rng.uniform(-1.0, 2.0, size=(150, 5))
    bounds = [0, 40, 95, 150]
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 1000):
        got = [kernel._reduce_blocks(cfg, X, W, threads=t, bounds=bounds) for t in (1, 2, 4)]
        one = [kernel._reduce_blocks(cfg, X, w, bounds=bounds) for w in W.T]
        whole = kernel._reduce_blocks(cfg, X, W)
    upper = np.triu(kernel.gram_matrix(cfg, X, X), 1)
    R = got[0]
    assert R.shape == (3, 150, 5)
    for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.testing.assert_allclose(R[s], upper[:, lo:hi] @ W[lo:hi], rtol=1e-13, atol=1e-13)
    # the segments add up to the whole row sums, and each column is the sums
    # of a one-weighting pass
    np.testing.assert_allclose(R.sum(axis=0), whole, rtol=1e-13, atol=1e-13)
    for j, sums in enumerate(one):
        np.testing.assert_allclose(R[:, :, j], sums, rtol=1e-13, atol=1e-13)
    for r in got[1:]:
        assert r.tobytes() == R.tobytes()


@pytest.mark.parametrize("unit", [True, False])
def test_equal_content_cross_sum_is_bit_identical_to_self_sum(unit):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(300, 2))
    w = np.ones(300) if unit else rng.uniform(0.5, 2.0, size=300)
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 4096):
        self_sum = weighted_gram_sum(CFG, X, w, X, w)
        assert weighted_gram_sum(CFG, X, w, X.copy(), w.copy()) == self_sum


@pytest.mark.parametrize("same", [True, False])
def test_tiny_blocks_agree_with_default_block_size(same):
    rng = np.random.default_rng(15)
    X, wx = rng.normal(size=(120, 3)), rng.uniform(0.5, 2.0, size=120)
    Y, wy = (X, wx) if same else (rng.normal(size=(90, 3)), rng.uniform(0.5, 2.0, size=90))
    default = weighted_gram_sum(CFG, X, wx, Y, wy)
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 8):
        assert weighted_gram_sum(CFG, X, wx, Y, wy, threads=2) == pytest.approx(default, rel=1e-12)


def test_pool_never_larger_than_the_block_count():
    rng = np.random.default_rng(16)
    X, w = rng.normal(size=(3, 2)), np.ones(3)
    opened = []

    def executor(workers, **kwargs):
        opened.append(workers)
        return ThreadPoolExecutor(workers, **kwargs)

    # the calling thread takes blocks too: at most min(threads, blocks) - 1 pool workers
    with mock.patch.object(kernel, "ThreadPoolExecutor", executor), mock.patch.object(
        kernel, "_BLOCK_ENTRIES", 3
    ):
        weighted_gram_sum(CFG, X[:1], w[:1], X, w, threads=4)  # one block opens no pool
        assert opened == []
        weighted_gram_sum(CFG, X, w, X + 1.0, w, threads=4)  # 3 one-row blocks
        assert opened == [2]
        weighted_gram_sum(CFG, X, w, X + 1.0, w, threads=2)
        assert opened == [2, 1]


def test_a_block_error_reaches_the_caller_and_no_pool_thread_outlives_the_pass():
    rng = np.random.default_rng(19)
    X, Y = rng.normal(size=(30, 2)), rng.normal(size=(10, 2))
    gram_block, calls, lock = kernel._gram_block, [], threading.Lock()

    def failing_block(*args):
        with lock:
            calls.append(None)
            third = len(calls) == 3
        if third:
            raise MemoryError("block 3")
        return gram_block(*args)

    # 3 rows per block: 10 blocks shared by the calling thread and one worker
    with mock.patch.object(kernel, "_gram_block", failing_block), mock.patch.object(
        kernel, "_BLOCK_ENTRIES", 30
    ):
        with pytest.raises(MemoryError, match="block 3"):
            weighted_gram_sum(CFG, X, np.ones(30), Y, np.ones(10), threads=2)
    assert [t.name for t in threading.enumerate() if t.name.startswith("distval-gram")] == []


def test_concurrent_callers_share_the_pool_safely():
    # more calling threads than cores, each opening pools of its own
    rng = np.random.default_rng(17)
    X, Y = rng.normal(size=(60, 2)), rng.normal(size=(50, 2))
    wx, wy = np.ones(60), rng.uniform(0.5, 2.0, size=50)
    results, errors = [], []

    def call(t):
        try:
            results.append(weighted_gram_sum(CFG, X, wx, Y, wy, threads=t))
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(kernel, "_BLOCK_ENTRIES", 64):
            expected = weighted_gram_sum(CFG, X, wx, Y, wy, threads=1)
            workers = [threading.Thread(target=call, args=(1 + i % 4,)) for i in range(8)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    assert results == [expected] * len(workers)


_FORK_X = np.random.default_rng(18).normal(size=(50, 2))


def _threaded_sum(queue=None):
    w = np.ones(len(_FORK_X))
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 64):
        got = weighted_gram_sum(CFG, _FORK_X, w, _FORK_X + 1.0, w, threads=2)
    if queue is not None:
        queue.put(got)
    return got


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_forked_child_does_not_reuse_the_parents_pool():
    # a child forked after a threaded pass runs its own threaded pass
    expected = _threaded_sum()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_threaded_sum, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=60) == expected
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()


@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, 1e8]),
)
@settings(max_examples=200, deadline=None)
def test_gram_matrix_matches_kernel_eval_property(d, m, n, seed, log_sigma, shift):
    # unit-scale rows, one duplicate and one near-duplicate, shifted far from the origin
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(m, d))
    Y = rng.uniform(-1.0, 1.0, size=(n, d))
    Y[0] = X[-1]
    Y[-1] = X[0] + rng.normal(size=d) * 1e-3
    X, Y = X + shift, Y + shift
    cfg = KernelConfig(sigma=10.0**log_sigma)
    got = kernel.gram_matrix(cfg, X, Y)
    expected = np.array([[kernel_eval(cfg, x, y) for y in Y] for x in X])
    assert ((got >= 0.0) & (got <= 1.0)).all()
    # The exponent comes from an expanded quadratic, whose rounding grows with
    # the squared spread in bandwidths, (R / sigma)^2: about 1e-10 at sigma = R / 1000.
    c = (X.sum(axis=0) + Y.sum(axis=0)) / (m + n)
    r2 = max(kernel._sq_norms(X - c).max(), kernel._sq_norms(Y - c).max()) / cfg.sigma**2
    tol = 1e-13 + 2.0 * (d + 8) * np.finfo(float).eps * r2
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


@pytest.mark.parametrize("scale, sigma", [(1.0, 1e-150), (1e150, 1.0)])
def test_extreme_scale_ratios_give_no_runtime_warning(scale, sigma):
    # distinct rows 1e150 bandwidths apart: every off-diagonal kernel entry is 0
    rng = np.random.default_rng(20)
    a = Dataset("a", rng.normal(size=(30, 3)) * scale)
    b = Dataset("b", rng.normal(size=(20, 3)) * scale)
    cfg = KernelConfig(sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = kernel.gram_matrix(cfg, a.points, b.points)
        assert (G == 0.0).all()
        got = mmd_biased(cfg, a, b, threads=2)
        assert got == pytest.approx(math.sqrt(1 / 30 + 1 / 20), rel=1e-14)
        assert median_heuristic(a) > 0.0


@pytest.mark.parametrize("sigma", [1.0, 2.0**-300])
def test_overflow_boundary_of_the_lifted_rows(sigma):
    # A lifted row's |x_c / sigma|^2 / 2 may be at most 2^1021, that is,
    # |x_c| <= 2^511 sigma. Rows -a and a have pooled mean exactly 0, and
    # a / sigma is exact.
    cfg = KernelConfig(sigma=sigma)
    inside = 2.0**511 * sigma
    outside = np.nextafter(inside, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = kernel.gram_matrix(cfg, np.array([[-inside]]), np.array([[inside]]))
        assert G.tolist() == [[0.0]]
        got = mmd_biased(cfg, Dataset("a", [[-inside]]), Dataset("b", [[inside]]))
        assert got == math.sqrt(2.0)
        X, Y = np.array([[-outside]]), np.array([[outside]])
        with pytest.raises(InputError, match="spread overflows float64 at this bandwidth"):
            kernel.gram_matrix(cfg, X, Y)
        with pytest.raises(InputError, match="spread overflows float64 at this bandwidth"):
            weighted_gram_sum(cfg, X, np.ones(1), Y, np.ones(1))


def test_overflow_boundary_of_the_medians_lifted_rows():
    # The median lifts its rows at sigma 1: rows at -a and a have pooled mean
    # exactly 0 and squared distance 4 a^2. At a = 2^510 that is 2^1022; at
    # a = 2^511 the rows pass the lift but the squared distance is 2^1024,
    # and one float further they fail the lift.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert median_heuristic(ds([-(2.0**510)], [2.0**510])) == 2.0**511
        for a in (2.0**511, np.nextafter(2.0**511, math.inf)):
            with pytest.raises(InputError, match="^median_heuristic: "):
                median_heuristic(ds([-a], [a]))


def test_spread_overflow_is_an_input_error_not_a_nan():
    # finite points about 3e154 apart: their squared distances overflow float64
    rng = np.random.default_rng(21)
    a = Dataset("a", rng.uniform(-1.0, 1.0, size=(20, 8)) * 3e154)
    b = Dataset("b", rng.uniform(-1.0, 1.0, size=(20, 8)) * 3e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="spread overflows float64 at this bandwidth"):
            mmd_biased(CFG, a, b)
        with pytest.raises(InputError, match="^median_heuristic: "):
            median_heuristic(a)


@pytest.mark.parametrize("symmetric", [True, False])
def test_lifted_blocks_bit_identical_across_threads(symmetric):
    # far-off-origin rows, non-unit weights and many small blocks
    rng = np.random.default_rng(22)
    cfg = KernelConfig(sigma=0.7)
    X, wx = rng.normal(size=(200, 5)) + 1e8, rng.uniform(0.5, 2.0, size=200)
    Y, wy = X, wx
    if not symmetric:
        Y, wy = rng.normal(size=(170, 5)) + 1e8, rng.uniform(0.5, 2.0, size=170)
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", 2000):
        if symmetric:
            # a table's triangle: each row's sums per segment
            bounds = (0, 70, 200)
            got = [kernel._reduce_blocks(cfg, X, wx, None, t, bounds).tobytes() for t in (1, 2, 4)]
        else:
            got = [weighted_gram_sum(cfg, X, wx, Y, wy, threads=t) for t in (1, 2, 4)]
    assert got[0] == got[1] == got[2]
