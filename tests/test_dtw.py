import numpy as np
import pytest

from dtwsearch import (
    BandInfeasible,
    IndexOutOfRange,
    InstanceTooLarge,
    band_column_ranges,
    default_band_radius,
    dtw_batch,
    dtw_matrix_full,
    dtw_path_oracle,
    dtw_windowed,
)
from dtwsearch.dtw import _FULL_CHUNK
from oracles import naive_dtw

WORKED = np.array([[0.0, 2.0], [1.0, 1.0], [3.0, 1.0]])


def test_dtw_windowed_worked_examples():
    assert dtw_windowed(WORKED, 2, 2, (1, 1)) == 1.0
    assert dtw_windowed(WORKED, 2, 2, (2, 1)) == 2.0


def test_dtw_windowed_identical_subsequences_zero(rng):
    x = rng.normal(size=(9, 2))
    m = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    assert dtw_windowed(m, 4, 4, (3, 3)) == 0.0


def test_dtw_windowed_rejects_bad_start():
    with pytest.raises(IndexOutOfRange):
        dtw_windowed(WORKED, 2, 2, (3, 1))
    with pytest.raises(IndexOutOfRange):
        dtw_windowed(WORKED, 2, 2, (1, 0))


def test_oracle_tiny_examples():
    val, path = dtw_path_oracle(np.array([[3.5]]), 1, 1, (1, 1))
    assert val == 3.5 and path.steps == ((1, 1),)
    val, path = dtw_path_oracle(np.array([[0.0, 2.0], [1.0, 1.0]]), 2, 2, (1, 1))
    assert val == 1.0 and path.steps == ((1, 1), (2, 2))
    m = WORKED
    val, path = dtw_path_oracle(m, 2, 1, (1, 1))
    assert val == m[0, 0] + m[1, 0] and path.steps == ((1, 1), (2, 1))


def test_oracle_guard():
    with pytest.raises(InstanceTooLarge):
        dtw_path_oracle(np.zeros((20, 20)), 9, 3, (1, 1))


def test_recurrence_agrees_with_path_oracle(rng):
    # light version of the acceptance sweep
    for _ in range(40):
        n, m = rng.integers(6, 11, size=2)
        mat = np.abs(rng.normal(size=(n, m)))
        wu = int(rng.integers(1, 7))
        ww = int(rng.integers(1, 7))
        a = int(rng.integers(1, n - wu + 2))
        b = int(rng.integers(1, m - ww + 2))
        val, path = dtw_path_oracle(mat, wu, ww, (a, b))
        assert abs(dtw_batch(mat, wu, ww, [a - 1], [b - 1])[0][0] - val) <= 1e-12
        assert path.start == (a, b) and path.end == (a + wu - 1, b + ww - 1)


def test_transpose_symmetry(rng):
    mat = np.abs(rng.normal(size=(15, 11)))
    for (wu, ww, a, b) in [(4, 6, 2, 3), (5, 5, 1, 1), (7, 2, 9, 10)]:
        assert dtw_windowed(mat, wu, ww, (a, b)) == dtw_windowed(mat.T, ww, wu, (b, a))


def test_banded_equals_unbanded_once_radius_covers():
    for (wu, ww) in [(2, 2), (5, 3), (6, 6)]:
        mat = np.abs(np.random.default_rng(3).normal(size=(10, 10)))
        full = dtw_windowed(mat, wu, ww, (2, 2))
        assert dtw_windowed(mat, wu, ww, (2, 2), radius=max(wu, ww)) == full


def test_banded_worked_example():
    assert dtw_windowed(WORKED, 2, 2, (1, 1), radius=1) == 1.0


def test_banded_monotone_and_above_unbanded(rng):
    mat = np.abs(rng.normal(size=(20, 20)))
    wu = ww = 6
    base = dtw_windowed(mat, wu, ww, (4, 7))
    prev = np.inf
    for radius in range(1, 8):
        v = dtw_windowed(mat, wu, ww, (4, 7), radius=radius)
        assert v >= base - 1e-12
        assert v <= prev + 1e-12
        prev = v


def test_band_geometry_connected_for_slope_leq_one():
    for wu in range(1, 12):
        for ww in range(1, wu + 1):
            lo, hi = band_column_ranges(wu, ww, 1)
            assert lo[0] == 0 and hi[-1] == ww - 1
            assert np.all(lo <= hi)


def test_band_infeasible_when_shorter_side_first():
    # omega_w >> omega_u with a tiny radius cannot connect the corners
    mat = np.zeros((4, 30))
    with pytest.raises(BandInfeasible):
        dtw_windowed(mat, 2, 25, (1, 1), radius=1)
    # the batch kernel decides from the shape, even when every placement is abandoned
    mat = np.zeros((10, 30))
    for threshold in (None, -1.0):
        with pytest.raises(BandInfeasible):
            dtw_batch(mat, 8, 25, [0, 2], [0, 5], radius=1, threshold=threshold, pool=np.zeros((10, 6)))


def test_default_band_radius():
    assert default_band_radius(60, 80) == 20
    assert default_band_radius(10, 10) == 1
    assert default_band_radius(200, 200) == 20


def test_batch_matches_scalar_bitwise(rng):
    mat = np.abs(rng.normal(size=(30, 25)))
    wu, ww = 7, 5
    a0 = rng.integers(0, 30 - wu + 1, size=100)
    b0 = rng.integers(0, 25 - ww + 1, size=100)
    batch, _ = dtw_batch(mat, wu, ww, a0, b0)
    scalar = np.array([naive_dtw(mat, wu, ww, (a + 1, b + 1)) for a, b in zip(a0, b0)])
    assert np.array_equal(batch, scalar)


def test_full_matrix_matches_scalar_bitwise(rng):
    mat = np.abs(rng.normal(size=(18, 14)))
    wu, ww = 5, 4
    full = dtw_matrix_full(mat, wu, ww)
    pa, pb = 18 - wu + 1, 14 - ww + 1
    cells = np.array([[naive_dtw(mat, wu, ww, (i + 1, j + 1)) for j in range(pb)] for i in range(pa)])
    assert np.array_equal(full, cells)


def test_full_matrix_banded_matches_scalar(rng):
    mat = np.abs(rng.normal(size=(16, 16)))
    wu, ww = 6, 4
    radius = 2
    full = dtw_matrix_full(mat, wu, ww, radius=radius)
    for i in range(full.shape[0]):
        for j in range(full.shape[1]):
            assert full[i, j] == naive_dtw(mat, wu, ww, (i + 1, j + 1), radius)


def test_batch_banded_matches_scalar(rng):
    mat = np.abs(rng.normal(size=(20, 18)))
    wu, ww = 8, 6
    radius = 2
    a0 = rng.integers(0, 20 - wu + 1, size=60)
    b0 = rng.integers(0, 18 - ww + 1, size=60)
    batch, _ = dtw_batch(mat, wu, ww, a0, b0, radius=radius)
    scalar = np.array([naive_dtw(mat, wu, ww, (a + 1, b + 1), radius) for a, b in zip(a0, b0)])
    assert np.array_equal(batch, scalar)


def test_full_matrix_across_chunk_edges(rng):
    # 137 x 138 placements span two chunks of the brute-force table
    mat = np.abs(rng.normal(size=(140, 140)))
    wu, ww = 4, 3
    pb = 140 - ww + 1
    total = (140 - wu + 1) * pb
    assert total > _FULL_CHUNK
    edges = range(_FULL_CHUNK, total, _FULL_CHUNK)
    flat = sorted({0, total - 1} | {e + k for e in edges for k in (-2, -1, 0, 1)})
    for radius in (None, 1):
        full = dtw_matrix_full(mat, wu, ww, radius=radius).ravel()
        for f in flat:
            i, j = divmod(f, pb)
            assert full[f] == naive_dtw(mat, wu, ww, (i + 1, j + 1), radius)
