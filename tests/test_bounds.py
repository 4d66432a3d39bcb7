import numpy as np
import pytest

from dtwsearch import (
    CoarseBounds,
    TimeSeries,
    WindowOrderViolated,
    WindowTooLarge,
    compute_bounds,
    distance_matrix,
    dtw_batch,
    dtw_matrix_full,
    dtw_windowed,
    find_candidates,
    lower_bound_matrix,
    min_pool,
    upper_bound_matrix,
    upper_bound_path,
)
from dtwsearch.bounds import COARSE, _STRIP, _add_window_sums
from oracles import (
    block_path_sums,
    coarse_lower_bound,
    block_window_sums,
    doubling_min_pool,
    fixed_upper_path,
    fsum_path_sums,
    in_band,
    naive_lower_bound,
    naive_min_pool,
    naive_upper_bound,
)

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


@pytest.mark.parametrize("omega_w", [1, 2, 3, 4, 7, 8, 9, 16, 17, 37])
def test_min_pool_matches_naive_at_doubling_edges(rng, omega_w):
    # Powers of two and their neighbours, up to the full width (37 columns),
    # are where the doubling passes and the last overlapping pass meet;
    # 35 rows end in a partial block of rows.
    mat = np.abs(rng.normal(size=(35, 37)))
    pool = min_pool(mat, omega_w)
    assert np.array_equal(pool, naive_min_pool(mat, omega_w))
    assert not np.shares_memory(pool, mat)


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
        assert np.all(exact <= upper_bound_matrix(mat, wu, ww) * (1 + 1e-9) + 1e-9)


def test_window_one_collapses_bounds_to_exact(rng):
    mat = np.abs(rng.normal(size=(12, 9)))
    wu = 5
    bm = compute_bounds(mat, wu, 1)
    pa, pb = bm.min_path.shape
    exact = np.array([[dtw_windowed(mat, wu, 1, (i + 1, j + 1)) for j in range(pb)] for i in range(pa)])
    assert np.allclose(bm.min_path, exact, atol=1e-9)
    assert np.allclose(upper_bound_matrix(mat, wu, 1), exact, atol=1e-9)


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
    for radius in (1, 2, 3, 4):
        up = upper_bound_matrix(mat, wu, ww, radius=radius)
        pa, pb = up.shape
        ii, jj = np.meshgrid(np.arange(pa), np.arange(pb), indexing="ij")
        banded = dtw_batch(mat, wu, ww, ii.ravel(), jj.ravel(), radius=radius)[0].reshape(pa, pb)
        assert np.all(banded <= up + 1e-9)


SHAPES = [(wu, ww) for wu in range(1, 13) for ww in range(1, wu + 1)]


@pytest.mark.parametrize("radius", [None, 1, 2, 3, 4, 5, 6])
def test_upper_bound_path_is_an_in_band_warping_path(radius):
    for wu, ww in SHAPES:
        path = upper_bound_path(wu, ww, radius).tolist()
        assert len(path) == wu
        assert path[0] == 0 and path[-1] == ww - 1
        assert all(q - prev in (0, 1) for prev, q in zip(path, path[1:])), (wu, ww, radius, path)
        assert all(in_band(p, q, wu, ww, radius) for p, q in enumerate(path)), (wu, ww, radius, path)


def test_unbanded_upper_bound_path_is_fixed_upper_path():
    for wu, ww in SHAPES:
        columns = [b - 1 for _, b in fixed_upper_path(1, 1, wu, ww).steps]
        assert upper_bound_path(wu, ww).tolist() == columns


def test_upper_bound_path_rejects_window_order():
    with pytest.raises(WindowOrderViolated):
        upper_bound_path(2, 3)


def test_upper_bound_is_path_sum_and_bounds_banded_dtw(rng):
    for _ in range(40):
        wu = int(rng.integers(1, 13))
        ww = int(rng.integers(1, wu + 1))
        n, m = wu + int(rng.integers(0, 6)), ww + int(rng.integers(0, 6))
        radius = [None, 1, 2, 3, 4, 5, 6][int(rng.integers(0, 7))]
        mat = np.abs(rng.normal(size=(n, m)))
        up = upper_bound_matrix(mat, wu, ww, radius=radius)
        path = upper_bound_path(wu, ww, radius).tolist()
        naive = np.array(
            [[sum(mat[i + p, j + q] for p, q in enumerate(path)) for j in range(m - ww + 1)] for i in range(n - wu + 1)]
        )
        assert np.allclose(up, naive, rtol=1e-12, atol=1e-12)
        assert np.all(dtw_matrix_full(mat, wu, ww, radius=radius) <= up * (1 + 1e-12) + 1e-12)


@pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e6, 1e9])
def test_window_sums_are_accurate_to_the_window_at_any_magnitude(magnitude):
    # Tall grids: a difference of whole-series prefix sums would carry
    # rounding of order rows * magnitude into every window. 1607 rows leave
    # 1600 placement rows, a multiple of omega_u; 1601 leave 1594, which is
    # not. The (8, 3) path runs in segments of 3 and 5 rows, unbanded and at
    # radius 2, and of 2, 5 and 1 (one cell) at radius 1.
    wu, ww = 8, 3
    tol = wu * np.finfo(np.float64).eps
    rng = np.random.default_rng(5)
    for n in (1607, 1601):
        mat = rng.uniform(0, magnitude, size=(n, 6))
        pool = min_pool(mat, ww)
        low = lower_bound_matrix(pool, wu)
        checks = [(low, fsum_path_sums(pool, [0] * wu, low.shape))]
        for radius in (None, 1, 2):
            up = upper_bound_matrix(mat, wu, ww, radius=radius)
            checks.append((up, fsum_path_sums(mat, upper_bound_path(wu, ww, radius).tolist(), up.shape)))
        for got, exact in checks:
            assert np.all(np.abs(got - exact) <= tol * exact)


# (rows, cols, length): rows below, at and past the window and not a multiple
# of it; one-row windows; out narrower than a strip and several strips wide.
WINDOW_SUM_SHAPES = [
    (1, 1, 1),
    (5, 3, 1),
    (3, 7, 8),
    (17, 40, 4),
    (16, 9, 4),
    (40, _STRIP + 37, 13),
    (9, 2 * _STRIP + 5, 30),
]


@pytest.mark.parametrize("magnitude", [1.0, 1e3, 1e7])
@pytest.mark.parametrize("step", [0, 1])
@pytest.mark.parametrize("rows, cols, length", WINDOW_SUM_SHAPES)
def test_window_sums_equal_the_numpy_blocks_bitwise(rows, cols, length, step, magnitude):
    # g is a view into a wider grid, so rows are read through a stride that
    # is not the row's width; out is added to, and written fresh.
    rng = np.random.default_rng(rows * 1000 + cols + length)
    width = cols + step * (length - 1)
    grid = rng.uniform(0, magnitude, size=(rows + length + 2, width + 11))
    g = grid[1:, 5 : 5 + width + 3]
    before = rng.uniform(0, magnitude, size=(rows, cols))
    for fresh in (False, True):
        got = np.empty((rows, cols)) if fresh else before.copy()
        expected = np.zeros((rows, cols)) if fresh else before.copy()
        _add_window_sums(got, g, length, step, fresh)
        block_window_sums(expected, g, length, step)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("magnitude", [1.0, 1e4, 1e7])
def test_bound_grids_equal_the_numpy_references_bitwise(rng, magnitude):
    # Grids of 1 to 3 strips, every window shape from one cell up, banded or not.
    for _ in range(30):
        wu = int(rng.integers(1, 40))
        ww = int(rng.integers(1, wu + 1))
        n, m = wu + int(rng.integers(0, 50)), ww + int(rng.integers(0, 3 * _STRIP))
        mat = rng.uniform(0, magnitude, size=(n, m))
        pool = min_pool(mat, ww)
        assert pool.tobytes() == doubling_min_pool(mat, ww).tobytes()
        low = np.zeros((n - wu + 1, pool.shape[1]))
        block_window_sums(low, pool, wu, 0)
        assert lower_bound_matrix(pool, wu).tobytes() == low.tobytes()
        for radius in (None, 1, 2, 5):
            path = upper_bound_path(wu, ww, radius).tolist()
            expected = block_path_sums(mat, path, (n - wu + 1, m - ww + 1))
            assert upper_bound_matrix(mat, wu, ww, radius).tobytes() == expected.tobytes()


def test_window_sums_refuse_grids_they_do_not_fit():
    g = np.zeros((10, 10))
    with pytest.raises(ValueError):
        _add_window_sums(np.empty((4, 4)), g, 8, 0, True)  # needs 11 rows of g
    with pytest.raises(ValueError):
        _add_window_sums(np.empty((4, 4)), g[:, :6], 4, 1, True)  # a diagonal of 4 needs 7 columns
    with pytest.raises(ValueError):
        _add_window_sums(np.empty((4, 4)), g[:, ::2], 4, 0, True)  # columns are not adjacent
    with pytest.raises(ValueError):
        _add_window_sums(np.empty((4, 4)), g, 4, 0, True, np.empty(3))  # a row minimum per row of out


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_row_minima_equal_the_grid_row_minima_at_any_split(parts, rng, scale):
    # Window lengths that do not divide the rows, so a part's last block of
    # rows is short; grids of fewer rows than parts; rows wider than a strip
    # of the window sums; and rounded costs, so that a row's minimum ties.
    for n, m, wu, ww in ((203, 150, 40, 30), (97, 61, 17, 5), (9, 9, 8, 3), (30, 40, 1, 1), (7, 80, 7, 7), (60, 700, 13, 9)):
        for mat in (np.abs(rng.normal(size=(n, m))) * scale, np.round(rng.uniform(0, 3, size=(n, m))) * scale):
            lower = compute_bounds(mat, wu, ww).min_path
            row_min = np.empty(n - wu + 1)
            assert lower_bound_matrix(min_pool(mat, ww), wu, row_min).tobytes() == lower.tobytes()
            assert row_min.tobytes() == np.array(lower).min(axis=1).tobytes()


# (n, m, omega_u, omega_w): omega_u dividing the placement rows or not, one
# row block or many; column counts below, at and past a multiple of 32
# placement columns; omega_w below, at and above 32, and the whole width.
COARSE_SHAPES = [
    (203, 150, 40, 30), (97, 61, 17, 5), (9, 40, 8, 8), (120, 160, 40, 33),
    (100, 95, 70, 64), (60, 700, 13, 9), (31, 33, 1, 1), (90, 44, 50, 44),
]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_coarse_bound_is_at_most_every_exact_bound_of_its_block(parts, rng, scale):
    # Compared exactly: each coarse term is at most the exact bound's term,
    # and both sum in the same blocks and order, so rounding keeps the order.
    for n, m, wu, ww in COARSE_SHAPES:
        for mat in (rng.uniform(size=(n, m)) * scale, np.round(rng.uniform(0, 3, size=(n, m))) * scale):
            lower = compute_bounds(mat, wu, ww).min_path
            cb = CoarseBounds(mat, wu, ww)
            assert cb.coarse.tobytes() == coarse_lower_bound(mat, wu, ww, COARSE).tobytes()
            assert np.all(np.repeat(cb.coarse, COARSE, axis=1)[:, : lower.shape[1]] <= lower)
            assert cb.coarse_min.tobytes() == np.array(cb.coarse).min(axis=1).tobytes()
            assert np.all(cb.coarse_min <= np.array(lower).min(axis=1))
            for block in range(len(cb.block_min)):
                r0, r1 = cb.rows(block)
                assert cb.block_min[block] == cb.coarse_min[r0:r1].min()


def test_coarse_bound_from_the_distance_pass_minima_is_the_same(parts, rng):
    # The search's span minima read the minima of 8 columns that the
    # distance pass keeps; read from every entry instead, they are bitwise the same.
    for n, m, wu, ww in COARSE_SHAPES:
        for dims in (1, 3):
            u, w = TimeSeries(values=rng.normal(size=(n, dims))), TimeSeries(values=rng.normal(size=(m, dims)))
            dm = distance_matrix(u, w)
            assert CoarseBounds(dm, wu, ww).coarse.tobytes() == CoarseBounds(dm.entries, wu, ww).coarse.tobytes()


def test_refined_row_blocks_equal_the_lower_bound_grid_bitwise(parts, rng):
    # Blocks refined one at a time in a shuffled order, over spans that
    # grow, so that a block's pool rows are partly built by its neighbours
    # and a span is widened by a later call. The last block may be short.
    for n, m, wu, ww in COARSE_SHAPES:
        mat = rng.uniform(size=(n, m)) * 1e3
        bm = compute_bounds(mat, wu, ww)
        cb = CoarseBounds(mat, wu, ww)
        cols = bm.shape[1]
        for block in rng.permutation(len(cb.block_min)).tolist():
            r0, r1 = cb.rows(block)
            c0 = int(rng.integers(0, cols))
            c1 = int(rng.integers(c0 + 1, cols + 1))
            for start, stop in ((c0, c1), (max(0, c0 - 3), c1), (0, cols)):
                cb.refine({block: (start, stop)})
                assert cb.block(block)[:, start:stop].tobytes() == bm.min_path[r0:r1, start:stop].tobytes()
            assert cb.min_pool[r0 : r1 + wu - 1].tobytes() == bm.min_pool[r0 : r1 + wu - 1].tobytes()
            assert cb.row_min[r0:r1].tobytes() == np.array(bm.min_path[r0:r1]).min(axis=1).tobytes()
        assert np.concatenate(cb.refine_all()).tobytes() == bm.min_path.tobytes()
        assert cb.min_pool.tobytes() == bm.min_pool.tobytes()
        # Every other block in one call, then the rest: the pool rows are built in runs.
        cb = CoarseBounds(mat, wu, ww)
        cb.refine({block: (0, cols) for block in range(0, len(cb.block_min), 2)})
        assert np.concatenate(cb.refine_all()).tobytes() == bm.min_path.tobytes()
        assert cb.min_pool.tobytes() == bm.min_pool.tobytes()


def kept(mat, wu, ww):
    """1-based placements that survive the paper's prune, by the smallest upper bound."""
    cands = find_candidates(CoarseBounds(mat, wu, ww), threshold=upper_bound_matrix(mat, wu, ww).min())
    return set(zip(cands.a.tolist(), cands.b.tolist()))


def test_prune_predicate_worked_example():
    assert (2, 1) not in kept(WORKED, 2, 2)
    assert (1, 1) in kept(WORKED, 2, 2)  # ties survive: the prune is strict


def test_prune_predicate_zero_matrix():
    bm = compute_bounds(np.zeros((5, 4)), 2, 2)
    pa, pb = bm.min_path.shape
    assert kept(np.zeros((5, 4)), 2, 2) == {(i, j) for i in range(1, pa + 1) for j in range(1, pb + 1)}


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
        survivors = kept(mat, wu, ww)
        for i in range(pa):
            for j in range(pb):
                if (i + 1, j + 1) not in survivors:
                    assert exact[i, j] > best + 1e-12
