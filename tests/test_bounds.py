import numpy as np
import pytest

from dtwsearch import (
    WindowOrderViolated,
    WindowTooLarge,
    compute_bounds,
    dtw_batch,
    dtw_windowed,
    find_candidates,
    lower_bound_matrix,
    min_pool,
    upper_bound_matrix,
    upper_bound_matrix_banded,
)
from oracles import fixed_upper_path, naive_lower_bound, naive_min_pool, naive_upper_bound

WORKED = np.array([[0.0, 2.0], [1.0, 1.0], [3.0, 1.0]])


def test_min_pool_worked_example():
    assert min_pool(WORKED, 2).ravel().tolist() == [0.0, 1.0, 1.0]


def test_min_pool_window_one_is_identity():
    assert np.array_equal(min_pool(WORKED, 1), WORKED)


def test_min_pool_full_width():
    assert min_pool(WORKED, 2).shape == (3, 1)
    assert min_pool(WORKED, 2).ravel().tolist() == [0.0, 1.0, 1.0]
    full = min_pool(WORKED, WORKED.shape[1])
    assert full.ravel().tolist() == [0.0, 1.0, 1.0]


def test_min_pool_rejects_oversized_window():
    with pytest.raises(WindowTooLarge):
        min_pool(WORKED, 3)


def test_lower_bound_worked_example():
    pool = min_pool(WORKED, 2)
    assert lower_bound_matrix(pool, 2).ravel().tolist() == [1.0, 2.0]


def test_lower_bound_full_height_and_zero():
    pool = min_pool(WORKED, 2)
    assert lower_bound_matrix(pool, 3).ravel().tolist() == [2.0]
    assert np.all(lower_bound_matrix(np.zeros((4, 2)), 2) == 0.0)


def test_upper_bound_worked_example():
    assert upper_bound_matrix(WORKED, 2, 2).ravel().tolist() == [1.0, 2.0]


def test_upper_bound_window_one_equals_lower_bound():
    m = np.abs(np.random.default_rng(0).normal(size=(7, 5)))
    up = upper_bound_matrix(m, 3, 1)
    low = lower_bound_matrix(min_pool(m, 1), 3)
    assert np.allclose(up, low, atol=1e-12)


def test_upper_bound_zero_matrix():
    assert np.all(upper_bound_matrix(np.zeros((5, 4)), 3, 2) == 0.0)


def test_upper_bound_rejects_window_order():
    with pytest.raises(WindowOrderViolated):
        upper_bound_matrix(WORKED, 1, 2)


def test_bounds_match_naive_oracles(rng):
    for _ in range(20):
        n, m = rng.integers(4, 25, size=2)
        wu = int(rng.integers(1, n + 1))
        ww = int(rng.integers(1, m + 1))
        if wu < ww:
            wu, ww = ww, wu
        if wu > n or ww > m:
            continue
        mat = np.abs(rng.normal(size=(n, m)))
        pool = min_pool(mat, ww)
        assert np.array_equal(pool, naive_min_pool(mat, ww))
        assert np.allclose(lower_bound_matrix(pool, wu), naive_lower_bound(pool, wu), rtol=1e-9, atol=1e-9)
        assert np.allclose(upper_bound_matrix(mat, wu, ww), naive_upper_bound(mat, wu, ww), rtol=1e-9, atol=1e-9)


def test_sandwich_property(rng):
    # lower bound <= exact windowed DTW <= upper bound, everywhere
    for _ in range(10):
        n, m = rng.integers(10, 40, size=2)
        wu = int(rng.integers(2, min(12, n) + 1))
        ww = int(rng.integers(2, min(12, m) + 1))
        if wu < ww:
            wu, ww = ww, wu
        if wu > n:
            continue
        mat = np.abs(rng.normal(size=(n, m)))
        bm = compute_bounds(mat, wu, ww)
        pa, pb = bm.min_path.shape
        ii, jj = np.meshgrid(np.arange(pa), np.arange(pb), indexing="ij")
        exact = dtw_batch(mat, wu, ww, ii.ravel(), jj.ravel())[0].reshape(pa, pb)
        assert np.all(bm.min_path <= exact * (1 + 1e-9) + 1e-9)
        assert np.all(exact <= bm.max_path * (1 + 1e-9) + 1e-9)


def test_window_one_collapses_bounds_to_exact(rng):
    mat = np.abs(rng.normal(size=(12, 9)))
    wu = 5
    bm = compute_bounds(mat, wu, 1)
    pa, pb = bm.min_path.shape
    exact = np.array([[dtw_windowed(mat, wu, 1, (i + 1, j + 1)) for j in range(pb)] for i in range(pa)])
    assert np.allclose(bm.min_path, exact, atol=1e-9)
    assert np.allclose(bm.max_path, exact, atol=1e-9)


def test_fixed_upper_path_is_valid_for_all_window_orders():
    for wu in range(1, 9):
        for ww in range(1, wu + 1):
            path = fixed_upper_path(3, 4, wu, ww)
            assert path.start == (3, 4)
            assert path.end == (3 + wu - 1, 4 + ww - 1)
            assert len(path.steps) == wu


def test_fixed_upper_path_rejects_window_order():
    with pytest.raises(WindowOrderViolated):
        fixed_upper_path(1, 1, 2, 3)


def test_upper_bound_equals_path_cost(rng):
    mat = np.abs(rng.normal(size=(10, 8)))
    wu, ww = 5, 3
    up = upper_bound_matrix(mat, wu, ww)
    for i in range(up.shape[0]):
        for j in range(up.shape[1]):
            path = fixed_upper_path(i + 1, j + 1, wu, ww)
            cost = sum(mat[a - 1, b - 1] for a, b in path.steps)
            assert abs(up[i, j] - cost) < 1e-9


def test_banded_upper_bound_is_valid_upper_bound(rng):
    mat = np.abs(rng.normal(size=(14, 12)))
    wu, ww = 6, 4
    up = upper_bound_matrix_banded(mat, wu, ww)
    pa, pb = up.shape
    ii, jj = np.meshgrid(np.arange(pa), np.arange(pb), indexing="ij")
    banded = dtw_batch(mat, wu, ww, ii.ravel(), jj.ravel(), radius=1)[0].reshape(pa, pb)
    assert np.all(banded <= up + 1e-9)


def kept(bm):
    """1-based placements that survive the prune."""
    cands = find_candidates(bm)
    return set(zip(cands.a.tolist(), cands.b.tolist()))


def test_prune_predicate_worked_example():
    bm = compute_bounds(WORKED, 2, 2)
    assert (2, 1) not in kept(bm)
    assert (1, 1) in kept(bm)  # ties survive: the prune is strict


def test_prune_predicate_zero_matrix():
    bm = compute_bounds(np.zeros((5, 4)), 2, 2)
    pa, pb = bm.min_path.shape
    assert kept(bm) == {(i, j) for i in range(1, pa + 1) for j in range(1, pb + 1)}


def test_prune_soundness_against_brute_force(rng):
    # No pruned placement may attain the global minimum exact DTW.
    for _ in range(15):
        n, m = rng.integers(8, 25, size=2)
        wu = int(rng.integers(2, 7))
        ww = int(rng.integers(2, wu + 1))
        if wu > n or ww > m:
            continue
        mat = np.abs(rng.normal(size=(n, m)))
        bm = compute_bounds(mat, wu, ww)
        pa, pb = bm.min_path.shape
        ii, jj = np.meshgrid(np.arange(pa), np.arange(pb), indexing="ij")
        exact = dtw_batch(mat, wu, ww, ii.ravel(), jj.ravel())[0].reshape(pa, pb)
        best = exact.min()
        survivors = kept(bm)
        for i in range(pa):
            for j in range(pb):
                if (i + 1, j + 1) not in survivors:
                    assert exact[i, j] > best + 1e-12
