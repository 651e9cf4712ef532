import math
import multiprocessing
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distval import Dataset, InputError, KernelConfig, gram_sum, kernel_eval, median_heuristic
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
    assert median_heuristic(ds([0.0], [2.0]), cap=10) == pytest.approx(2.0)


def test_median_heuristic_three_points():
    # pairwise distances {1, 3, 2}; median 2
    assert median_heuristic(ds([0.0], [1.0], [3.0]), cap=10) == pytest.approx(2.0)


def test_median_heuristic_degenerate():
    with pytest.raises(InputError):
        median_heuristic(ds([0.0], [0.0], [0.0]), cap=10)


def test_median_heuristic_capped_and_deterministic():
    rng = np.random.default_rng(3)
    pool = Dataset("p", rng.normal(size=(5000, 2)))
    a = median_heuristic(pool, cap=100)
    b = median_heuristic(pool, cap=100)
    assert a == b > 0.0


def test_threads_env_fallback(monkeypatch):
    from distval.kernel import THREADS_ENV_VAR, resolve_threads

    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert resolve_threads(None) == 1
    monkeypatch.setenv(THREADS_ENV_VAR, "3")
    assert resolve_threads(None) == 3
    assert resolve_threads(2) == 2  # explicit argument wins
    with pytest.raises(InputError):
        resolve_threads(0)
    monkeypatch.setenv(THREADS_ENV_VAR, "abc")
    with pytest.raises(InputError, match=THREADS_ENV_VAR):
        resolve_threads(None)


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
    with mock.patch.dict(kernel._POOLS, clear=True), mock.patch.object(kernel, "_BLOCK_ENTRIES", 3):
        weighted_gram_sum(CFG, X, w, X + 1.0, w, threads=4)  # 3 one-row blocks
        assert set(kernel._POOLS) == {3}
        weighted_gram_sum(CFG, X[:1], w[:1], X, w, threads=4)  # one block runs serially
        assert set(kernel._POOLS) == {3}


def test_concurrent_callers_share_the_pool_safely():
    # more calling threads than cores, each fanning out to the shared pools
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
    # the child inherits the pool object but none of its threads
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
