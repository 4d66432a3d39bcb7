import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtwsearch
from dtwsearch import (
    TIE_TOLERANCE,
    BandInfeasible,
    IndexOutOfRange,
    InstanceTooLarge,
    KernelCompileError,
    TimeSeries,
    WindowPair,
    band_column_ranges,
    default_band_radius,
    dtw_batch,
    dtw_matrix_full,
    dtw_path_oracle,
    dtw_windowed,
    infer_most_similar,
)
from dtwsearch.bounds import min_pool
from dtwsearch.core import prune_limit
from dtwsearch import _native
from dtwsearch._native import _kernel
from dtwsearch.dtw import _FULL_CHUNK, window_cells
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
    # and the full table raises through it, before computing a cell
    with pytest.raises(BandInfeasible):
        dtw_matrix_full(mat, 8, 25, radius=1)


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


def _kernel_case(rng):
    """A seeded random kernel case: matrix, window shape and radius."""
    shape = rng.integers(1, 13, size=2)
    wu, ww = int(shape[0]), int(shape[1])
    kind = rng.integers(4)
    if kind == 0:
        ww = 1
    elif kind == 1:
        ww = wu
    radius = None if rng.random() < 0.3 else int(rng.integers(1, 9))
    # Squared normals make some cells far cheaper than their neighbours, so
    # optimal paths often take diagonal steps between cheap cells.
    mat = rng.normal(size=(wu + int(rng.integers(0, 7)), ww + int(rng.integers(0, 7)))) ** 2
    return mat, wu, ww, radius


def test_kernel_abandoning_property(rng):
    """Finite outputs equal the pure-Python recurrence bitwise; +inf ones exceed the threshold.

    Each batch ends in a partial group of the kernel's lanes, so groups
    abandoned and groups computed to the end share batches with a group
    that has padding lanes, and the thresholds are true distances, so some
    placements sit exactly at the threshold.
    """
    lanes = _kernel()[1]
    checked = abandoned = 0
    while checked < 80:
        mat, wu, ww, radius = _kernel_case(rng)
        try:
            dtw_batch(mat, wu, ww, [0], [0], radius=radius)
        except BandInfeasible:
            continue
        checked += 1
        pa, pb = mat.shape[0] - wu + 1, mat.shape[1] - ww + 1
        truth = np.array([[naive_dtw(mat, wu, ww, (a + 1, b + 1), radius) for b in range(pb)] for a in range(pa)])
        size = lanes * int(rng.integers(1, 200)) + int(rng.integers(1, lanes))
        a0, b0 = rng.integers(0, pa, size=size), rng.integers(0, pb, size=size)
        full, cells = dtw_batch(mat, wu, ww, a0, b0, radius=radius)
        assert np.array_equal(full, truth[a0, b0])
        assert cells == size * window_cells(wu, ww, radius)
        threshold = float(rng.choice(truth.ravel()))
        out, _ = dtw_batch(mat, wu, ww, a0, b0, radius=radius, threshold=threshold, pool=min_pool(mat, ww))
        done = np.isfinite(out)
        assert np.array_equal(out[done], truth[a0, b0][done])
        assert np.all(truth[a0, b0][~done] > threshold - TIE_TOLERANCE)
        abandoned += int((~done).sum())
    assert abandoned > 0


def test_one_live_lane_keeps_its_group_exact():
    # Placement (0, 0) costs 0 and every other one at least 9, so with a
    # threshold of 0.5 the live placement keeps its group running in each
    # lane it is put in, and a group without it is abandoned.
    mat = np.ones((20, 20))
    mat[:9, :3] = 0.0
    wu, ww = 9, 3
    lanes = _kernel()[1]
    pool = min_pool(mat, ww)
    others_a = np.arange(1, lanes) % 8 + 1
    others_b = np.arange(1, lanes) + 2
    full = window_cells(wu, ww)
    for lane in range(lanes):
        a0 = np.concatenate((np.insert(others_a, lane, 0), others_a[:3] + 1))
        b0 = np.concatenate((np.insert(others_b, lane, 0), others_b[:3] + 5))
        truth = np.array([naive_dtw(mat, wu, ww, (a + 1, b + 1)) for a, b in zip(a0, b0)])
        out, cells = dtw_batch(mat, wu, ww, a0, b0, threshold=0.5, pool=pool)
        assert out[lane] == 0.0
        assert np.all((out[:lanes] == truth[:lanes]) | (np.isinf(out[:lanes]) & (truth[:lanes] > 0.5)))
        assert np.all(np.isinf(out[lanes:])) and np.all(truth[lanes:] > 0.5)
        # The live lane keeps every column of its group's rows live; the other
        # group stops at its first cell, which is dead in all its lanes.
        assert cells == lanes * full + (a0.size - lanes)


@pytest.mark.parametrize("radius, cells", [(None, 8 + 8 + 8 + 4 * 3 + 2), (2, 3 + 4 + 5 + 4 * 3 + 2)])
def test_rows_are_trimmed_to_their_live_columns(radius, cells):
    # The window's first two rows cost nothing, and after them only the
    # diagonal does. Under a threshold of (padded) zero, rows 0-2 run in
    # full; from then on each row's live columns are its diagonal cell
    # alone, so the next row runs from it to one past it, and on one more
    # cell, which is dead. The last row starts at the diagonal of the row
    # above.
    mat = 10.0 * (1.0 - np.eye(12))
    mat[2:4] = 0.0
    out, counted = dtw_batch(mat, 8, 8, [2], [2], radius=radius, threshold=prune_limit(0.0), pool=min_pool(mat, 8))
    assert out[0] == 0.0
    assert counted == cells < window_cells(8, 8, radius)


@pytest.mark.parametrize("magnitude", [1e4, 1e5, 1e6, 1e7])
@pytest.mark.parametrize("omega_u, omega_w, shape", [(200, 3, (215, 12)), (60, 40, (70, 50))])
def test_threshold_at_prune_limit_keeps_every_distance(omega_u, omega_w, shape, magnitude):
    # Each placement alone, with its own distance padded by prune_limit as the
    # threshold: its trimmed rows must keep every cell of its optimal path, so
    # the distance comes back bitwise. The row bounds and the path sum round
    # apart; at 1e5 and above an absolute 1e-9 pad loses some of the tall
    # window's placements.
    mat = magnitude * (1 + np.random.default_rng(0).uniform(size=shape))
    truth = dtw_matrix_full(mat, omega_u, omega_w)
    pool = min_pool(mat, omega_w)
    for (a, b), d in np.ndenumerate(truth):
        out, _ = dtw_batch(mat, omega_u, omega_w, [a], [b], threshold=prune_limit(d), pool=pool)
        assert out[0] == d


def test_band_wider_than_one_column_per_row_matches_scalar(rng):
    # With omega_u < omega_w the band's last column jumps by several columns
    # from one row to the next, onto cells the previous group wrote.
    feasible = 0
    for wu, ww in [(3, 12), (4, 11)]:
        mat = rng.normal(size=(wu + 6, ww + 7)) ** 2
        pa, pb = mat.shape[0] - wu + 1, mat.shape[1] - ww + 1
        a0, b0 = rng.integers(0, pa, size=29), rng.integers(0, pb, size=29)
        for radius in (1, 2, 3):
            truth = np.array([naive_dtw(mat, wu, ww, (a + 1, b + 1), radius) for a, b in zip(a0, b0)])
            if np.all(np.isinf(truth)):
                with pytest.raises(BandInfeasible):
                    dtw_batch(mat, wu, ww, a0, b0, radius=radius)
                continue
            feasible += 1
            out, cells = dtw_batch(mat, wu, ww, a0, b0, radius=radius)
            assert np.array_equal(out, truth)
            assert cells == a0.size * window_cells(wu, ww, radius)
            threshold = float(np.median(truth))
            out, _ = dtw_batch(mat, wu, ww, a0, b0, radius=radius, threshold=threshold, pool=min_pool(mat, ww))
            done = np.isfinite(out)
            assert np.array_equal(out[done], truth[done]) and np.all(truth[~done] > threshold)
    assert feasible >= 3


@pytest.fixture
def fresh_kernel():
    """Forget the loaded kernel before and after the test, so each loads its own."""
    _kernel.cache_clear()
    yield
    _kernel.cache_clear()


def test_missing_compiler_raises_and_names_the_command(monkeypatch, tmp_path, fresh_kernel):
    monkeypatch.setattr(_native, "_COMPILE", ("no-such-cc-for-dtwsearch", "-O3", "-shared", "-fPIC"))
    monkeypatch.setattr(_native, "_CACHE_DIR", tmp_path)
    with pytest.raises(KernelCompileError, match="no-such-cc-for-dtwsearch -O3 -shared -fPIC"):
        dtw_batch(WORKED, 2, 2, [0], [0])
    assert list(tmp_path.iterdir()) == []


def test_cached_kernel_is_loaded_without_compiling(monkeypatch, tmp_path, fresh_kernel):
    monkeypatch.setattr(_native, "_CACHE_DIR", tmp_path)
    assert dtw_batch(WORKED, 2, 2, [0], [0])[0][0] == 1.0
    built = list(tmp_path.iterdir())
    assert [p.suffix for p in built] == [".so"]
    _kernel.cache_clear()

    def no_compiler(*args, **kwargs):
        raise AssertionError("the cached kernel was compiled again")

    monkeypatch.setattr(_native.subprocess, "run", no_compiler)
    assert dtw_batch(WORKED, 2, 2, [1], [0])[0][0] == 2.0
    assert list(tmp_path.iterdir()) == built


def test_read_only_install_builds_the_library_elsewhere(tmp_path):
    # A file where the package's __pycache__ would go: as root a directory's
    # mode does not stop writes, but a file blocks the directory for anyone.
    # The package is a copy, so the checkout's own __pycache__ is never touched.
    package = tmp_path / "site" / "dtwsearch"
    shutil.copytree(Path(dtwsearch.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    (package / "__pycache__").write_text("")
    (tmp_path / "tmp").mkdir()
    code = (
        "import json, numpy as np, dtwsearch as d, dtwsearch._native as n\n"
        "u, w = (d.TimeSeries(values=np.sin(np.arange(k) * 0.3)) for k in (60, 45))\n"
        "r = d.infer_most_similar(u, w, d.WindowPair(12, 9))\n"
        "print(json.dumps([n._kernel()[0]._name, r.shortest_dist, sorted(r.solutions)]))"
    )

    def run(cache):
        env = {**os.environ, "PYTHONPATH": str(package.parent), "XDG_CACHE_HOME": str(cache)}
        env["TMPDIR"] = str(tmp_path / "tmp")
        proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    u, w = (TimeSeries(values=np.sin(np.arange(k) * 0.3)) for k in (60, 45))
    here = infer_most_similar(u, w, WindowPair(12, 9))
    answer = [here.shortest_dist, [list(s) for s in sorted(here.solutions)]]
    # The per-user cache, made if missing; then, with that blocked too, a private temporary directory.
    built, *got = run(tmp_path / "cache")
    assert Path(built).parent == tmp_path / "cache" / "dtwsearch" and got == answer
    (tmp_path / "blocked").write_text("")
    built, *got = run(tmp_path / "blocked")
    assert Path(built).parent.parent == tmp_path / "tmp" and got == answer
    assert not (package / "__pycache__").is_dir()


def test_kernel_file_name_keys_source_and_command(monkeypatch):
    source = _native._SOURCE.read_bytes()
    path = _native._library_path(source)
    assert path.parent == _native._CACHE_DIR
    assert _native._library_path(source) == path
    assert _native._library_path(source + b"\n") != path
    monkeypatch.setattr(_native, "_COMPILE", _native._COMPILE + ("-g",))
    assert _native._library_path(source) != path
