import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dtwsearch
from dtwsearch import (
    DimensionMismatch,
    DistanceMatrix,
    SeriesTooShort,
    TimeSeries,
    distance_matrix,
    min_pool,
    z_normalize,
)
from oracles import blocked_distance_matrix, naive_distance_matrix, point_distance

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def test_point_distance_examples():
    assert point_distance([0.0], [2.0]) == 2.0
    assert point_distance([0.0, 0.0], [3.0, 4.0]) == 5.0
    assert point_distance([1.0, 1.0], [1.0, 1.0]) == 0.0


def test_point_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        point_distance([0.0], [1.0, 2.0])


def test_distance_matrix_worked_example():
    m = distance_matrix(TimeSeries(values=[0.0, 1.0, 3.0]), TimeSeries(values=[0.0, 2.0]))
    assert m.entries.tolist() == [[0.0, 2.0], [1.0, 1.0], [3.0, 1.0]]


def test_distance_matrix_constant_and_degenerate():
    m = distance_matrix(TimeSeries(values=[5.0, 5.0]), TimeSeries(values=[5.0, 5.0]))
    assert np.all(m.entries == 0.0) and m.entries.shape == (2, 2)
    m1 = distance_matrix(TimeSeries(values=[[1.0, 2.0]]), TimeSeries(values=[[4.0, 6.0]]))
    assert m1.entries.shape == (1, 1) and m1.entries[0, 0] == 5.0


def test_distance_matrix_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        distance_matrix(TimeSeries(values=np.zeros((3, 2))), TimeSeries(values=np.zeros((3, 3))))


@given(
    hnp.arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 3)), elements=finite),
    hnp.arrays(np.float64, st.integers(2, 12), elements=finite),
)
def test_distance_matrix_matches_naive_and_is_symmetric(uv, wcol):
    wv = np.repeat(wcol[:, None], uv.shape[1], axis=1)
    u, w = TimeSeries(values=uv), TimeSeries(values=wv)
    m_uw = distance_matrix(u, w).entries
    m_wu = distance_matrix(w, u).entries
    assert np.allclose(m_uw, naive_distance_matrix(uv, wv), atol=1e-12)
    assert np.array_equal(m_uw, m_wu.T)


@pytest.mark.parametrize("dims", [1, 2, 3, 5])
@pytest.mark.parametrize("n, m", [(1, 1), (17, 3), (65, 40), (130, 97)])
def test_distance_matrix_is_the_sum_of_squares_bitwise(dims, n, m):
    # Squares summed in dimension order from 0.0, then one square root,
    # one row at a time; row counts straddle the blocks the matrix is built in.
    rng = np.random.default_rng(dims * 1000 + n)
    uv = rng.normal(scale=10.0, size=(n, dims))
    wv = rng.normal(scale=10.0, size=(m, dims))
    expected = np.empty((n, m))
    for i in range(n):
        acc = np.zeros(m)
        for k in range(dims):
            diff = uv[i, k] - wv[:, k]
            acc = acc + diff * diff
        expected[i] = np.sqrt(acc)
    got = distance_matrix(TimeSeries(values=uv), TimeSeries(values=wv)).entries
    assert np.array_equal(got, expected)
    assert not got.flags.writeable


@pytest.mark.parametrize("magnitude", [1.0, 1e3, 1e5, 1e7])
@pytest.mark.parametrize("dims", [1, 2, 3, 4])
def test_distance_matrix_equals_the_numpy_blocks_bitwise(dims, magnitude):
    rng = np.random.default_rng(dims)
    for n, m in ((1, 1), (1, 9), (17, 3), (40, 301)):
        uv = rng.normal(scale=magnitude, size=(n, dims))
        wv = rng.normal(scale=magnitude, size=(m, dims))
        got = distance_matrix(TimeSeries(values=uv), TimeSeries(values=wv)).entries
        assert got.tobytes() == blocked_distance_matrix(uv, wv).tobytes()


@pytest.mark.parametrize("dims", [1, 2, 5])
def test_distance_matrix_keeps_the_minimum_of_every_8_columns(parts, dims):
    # Widths below, at and past a multiple of 8, so a row may end in a short group.
    rng = np.random.default_rng(dims)
    for n, m in ((1, 1), (3, 7), (17, 8), (40, 301), (9, 64)):
        uv, wv = rng.normal(size=(n, dims)), rng.normal(size=(m, dims))
        dm = distance_matrix(TimeSeries(values=uv), TimeSeries(values=wv))
        assert dm.entries.tobytes() == blocked_distance_matrix(uv, wv).tobytes()
        padded = np.full((n, -(-m // 8) * 8), np.inf)
        padded[:, :m] = dm.entries
        assert dm.group_min.tobytes() == padded.reshape(n, -1, 8).min(axis=2).tobytes()
        assert not dm.group_min.flags.writeable
    assert DistanceMatrix(entries=dm.entries).group_min is None


def test_distance_matrix_copies_a_borrowed_grid():
    grid = np.arange(6.0).reshape(2, 3)
    m = DistanceMatrix(entries=grid)
    grid[0, 0] = 99.0
    assert m.entries[0, 0] == 0.0 and not m.entries.flags.writeable and grid.flags.writeable
    view = grid[:, :2]
    view.setflags(write=False)
    assert not np.shares_memory(DistanceMatrix(entries=view).entries, grid)


def test_distance_matrix_keeps_a_sealed_grid_and_copies_a_writable_one():
    u, w = TimeSeries(values=np.arange(5.0)), TimeSeries(values=np.arange(4.0))
    entries = distance_matrix(u, w).entries
    # Built read-only by the library: no array can write it, so it is not copied.
    with pytest.raises(ValueError):
        entries.setflags(write=True)
    assert DistanceMatrix(entries=entries).entries is entries
    assert np.shares_memory(DistanceMatrix(entries=entries[1:, 1:]).entries, entries)
    # A min-pool grid is the caller's to write, and so is a read-only view of it.
    pool = min_pool(entries, 2)
    assert not np.shares_memory(DistanceMatrix(entries=pool).entries, pool)
    view = pool[:, 1:]
    view.setflags(write=False)
    assert not np.shares_memory(DistanceMatrix(entries=view).entries, pool)


def test_import_loads_no_scipy():
    src = str(Path(dtwsearch.__file__).resolve().parents[1])
    code = "import sys, dtwsearch; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "[]"


def test_import_builds_and_loads_no_library():
    # Start-up time is part of every command: the library is built or loaded on first use only.
    src = str(Path(dtwsearch.__file__).resolve().parents[1])
    code = "import dtwsearch, dtwsearch._native as n; print(n._kernel.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "0"


@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=3))
def test_point_distance_triangle_inequality(points):
    a, b, c = (np.array(p) for p in points)
    assert point_distance(a, c) <= point_distance(a, b) + point_distance(b, c) + 1e-12


def test_z_normalize_examples():
    out = z_normalize(TimeSeries(values=[0.0, 2.0]))
    assert np.allclose(out.values.ravel(), [-1.0, 1.0])
    const = z_normalize(TimeSeries(values=[7.0, 7.0, 7.0]))
    assert np.all(const.values == 0.0)
    # mean 2, population sd sqrt(2/3)
    out3 = z_normalize(TimeSeries(values=[1.0, 2.0, 3.0]))
    sd = math.sqrt(2.0 / 3.0)
    expected = [(1 - 2) / sd, 0.0, (3 - 2) / sd]
    assert np.allclose(out3.values.ravel(), expected, atol=1e-12)
    assert np.allclose(out3.values.ravel(), [-1.2247, 0.0, 1.2247], atol=1e-4)


def test_z_normalize_too_short():
    with pytest.raises(SeriesTooShort):
        z_normalize(TimeSeries(values=[1.0]))


@given(hnp.arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 3)), elements=finite))
def test_z_normalize_moments_and_idempotence(vals):
    out = z_normalize(TimeSeries(values=vals))
    for d in range(vals.shape[1]):
        col = out.values[:, d]
        if np.ptp(vals[:, d]) == 0:
            assert np.all(col == 0.0)
        elif np.any(col != 0.0):
            assert abs(col.mean()) < 1e-9
            assert abs(col.std() - 1.0) < 1e-9
    twice = z_normalize(out)
    assert np.allclose(twice.values, out.values, atol=1e-9)
