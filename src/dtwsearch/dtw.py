"""Exact windowed DTW, its band-constrained variant, and a path oracle.

One kernel serves every evaluation: ``dtw_batch`` calls a small C kernel
(``dtw_lockstep`` in ``_kernel.c``, the package's compiled library, which
also builds the search's grids) that runs eight placements in
lockstep, row by row over each window row's column range (the whole row,
or the slope-adjusted band around the straight line between window
corners), with every DP cell one eight-lane vector loop. The pruned search
calls it on its seed and then on chunks of candidates in start order;
given a threshold it trims each row to the columns where some
placement's value, plus the pool minima of the rows below, stays within
it, and abandons a group once no column does.
``dtw_windowed`` is the same kernel on one placement, and
``dtw_matrix_full`` (the brute-force table) is the same kernel on every
placement, in fixed chunks.

The library is compiled with ``cc`` on first use, not at import, and
loaded through ctypes (``_native``); a missing or failing compiler raises
``KernelCompileError``. A batch runs in parts of whole groups, one per
CPU the process may use (``_native.split``).

The independent checks share no code with the kernel:
``dtw_path_oracle`` literally enumerates every warping path of a tiny
instance and minimizes over them, and the tests compare the kernel
bitwise against a pure-Python rolling-row recurrence
(``tests/oracles.py``, ``naive_dtw``).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import (
    BandInfeasible,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidSpec,
    WarpingPath,
    WindowTooLarge,
    is_integer,
)
from ._native import _kernel, grid, split
from .metrics import _entries

_ORACLE_MAX_WINDOW = 8


def _check_window(arr: np.ndarray, omega_u: int, omega_w: int, a0, b0):
    """Raise unless the window has positive sides and fits at every 0-based start (a0, b0)."""
    n, cols = arr.shape
    if omega_u < 1 or omega_w < 1:
        raise InvalidSpec(f"window lengths must be positive, got ({omega_u},{omega_w})")
    a0, b0 = np.asarray(a0), np.asarray(b0)
    if a0.min() < 0 or b0.min() < 0 or a0.max() + omega_u > n or b0.max() + omega_w > cols:
        raise IndexOutOfRange(
            f"window ({omega_u},{omega_w}) at 1-based starts a in [{a0.min() + 1}, {a0.max() + 1}], "
            f"b in [{b0.min() + 1}, {b0.max() + 1}] does not fit matrix of shape {arr.shape}"
        )


def dtw_windowed(m, omega_u: int, omega_w: int, start, radius: int | None = None) -> float:
    """Exact windowed DTW at one placement, 1-based start (a, b).

    This is dtw_batch on a single placement. With a radius the warping
    cells are restricted to the slope-adjusted band (see
    band_column_ranges): the value can only be larger than the
    unconstrained one, and equals it once the radius covers the whole
    window. Raises BandInfeasible if no warping path survives the band.
    """
    return float(dtw_batch(m, omega_u, omega_w, [start[0] - 1], [start[1] - 1], radius=radius)[0][0])


def default_band_radius(omega_u: int, omega_w: int) -> int:
    """Radius that keeps the band connected and near 10% of the window."""
    return max(math.ceil(0.1 * max(omega_u, omega_w)), abs(omega_u - omega_w), 1)


def band_column_ranges(omega_u: int, omega_w: int, radius: int | None):
    """Inclusive 0-based column range [lo[p], hi[p]] of each window row.

    With radius None every row is whole. Otherwise the band is
    |q - p * (omega_w-1)/max(omega_u-1, 1)| <= radius in 0-based window
    coordinates: a corridor of the given radius around the straight line
    joining cell (0, 0) to cell (omega_u-1, omega_w-1). Computed in
    integer arithmetic so membership is exact.
    """
    if radius is None:
        return np.zeros(omega_u, dtype=np.int64), np.full(omega_u, omega_w - 1, dtype=np.int64)
    if not is_integer(radius) or radius < 1:
        raise InvalidSpec(f"band radius must be an integer >= 1, got {radius!r}")
    d = max(omega_u - 1, 1)
    p = np.arange(omega_u, dtype=np.int64)
    cnum = p * (omega_w - 1)
    lo = np.maximum(0, -((-(cnum - radius * d)) // d))
    hi = np.minimum(omega_w - 1, (cnum + radius * d) // d)
    return lo, hi


# The former name of the banded one-placement call; the benchmark's own tests import it.
dtw_banded = dtw_windowed


@lru_cache(maxsize=None)
def _enumerated_paths(omega_u: int, omega_w: int):
    """All warping paths of a window shape, as padded relative index arrays.

    Returns (i_idx, j_idx, mask, paths) where the arrays have one row per
    path, padded to the longest path; mask marks real steps. Path count is
    the Delannoy number of the shape, hence the small-window guard at the
    call sites.
    """
    paths = []
    step = [(0, 0)]

    def rec(i, j):
        if i == omega_u - 1 and j == omega_w - 1:
            paths.append(tuple(step))
            return
        if i + 1 < omega_u:
            step.append((i + 1, j))
            rec(i + 1, j)
            step.pop()
        if j + 1 < omega_w:
            step.append((i, j + 1))
            rec(i, j + 1)
            step.pop()
        if i + 1 < omega_u and j + 1 < omega_w:
            step.append((i + 1, j + 1))
            rec(i + 1, j + 1)
            step.pop()

    rec(0, 0)
    maxlen = max(len(p) for p in paths)
    i_idx = np.zeros((len(paths), maxlen), dtype=np.int64)
    j_idx = np.zeros((len(paths), maxlen), dtype=np.int64)
    mask = np.zeros((len(paths), maxlen), dtype=bool)
    for r, p in enumerate(paths):
        for c, (i, j) in enumerate(p):
            i_idx[r, c] = i
            j_idx[r, c] = j
            mask[r, c] = True
    return i_idx, j_idx, mask, paths


def dtw_path_oracle(m, omega_u: int, omega_w: int, start):
    """Minimum path cost by literal enumeration of every warping path.

    Independent of the DP recurrence; only usable on tiny windows (both
    sides <= 8). Returns (distance, one minimizing WarpingPath) with
    1-based absolute steps.
    """
    if omega_u > _ORACLE_MAX_WINDOW or omega_w > _ORACLE_MAX_WINDOW:
        raise InstanceTooLarge(
            f"path enumeration is limited to windows <= {_ORACLE_MAX_WINDOW}, "
            f"got ({omega_u},{omega_w})"
        )
    arr = _entries(m)
    a0, b0 = start[0] - 1, start[1] - 1
    _check_window(arr, omega_u, omega_w, a0, b0)
    i_idx, j_idx, mask, paths = _enumerated_paths(omega_u, omega_w)
    flat = arr.ravel()
    costs = flat[(a0 + i_idx) * arr.shape[1] + (b0 + j_idx)]
    sums = np.where(mask, costs, 0.0).sum(axis=1)
    k = int(np.argmin(sums))
    steps = tuple((a0 + i + 1, b0 + j + 1) for i, j in paths[k])
    return float(sums[k]), WarpingPath(steps=steps)


def window_cells(omega_u: int, omega_w: int, radius: int | None = None) -> int:
    """DP cells of one placement: the whole window, or the band's cells."""
    lo, hi = band_column_ranges(omega_u, omega_w, radius)
    return int((hi - lo + 1).sum())


# Placements per dtw_batch call in dtw_matrix_full; it bounds the memory of
# their start-index arrays.
_FULL_CHUNK = 16384


def dtw_batch(m, omega_u: int, omega_w: int, a0, b0, *, radius: int | None = None, threshold=None, pool=None):
    """Windowed DTW at many placements at once (0-based start arrays).

    Runs the C kernel in ``_kernel.c``: placements go in groups of eight
    that run the recurrence in lockstep, row by row over each row's column
    range. Cell (i, j) is the minimum of its three predecessors (i-1, j),
    (i-1, j-1) and (i, j-1), plus its cost; cell (0, 0) is its own cost. A
    value is one minimum and one rounding from its inputs, so it does not
    depend on the batch or group it runs in. With a radius only each row's
    band columns are computed; the others stay +inf. Returns the distances
    and the number of DP cells computed.

    With a threshold and the min-pool grid of the matrix (``pool[i, j]``,
    the minimum of row i over columns j .. j+omega_w-1), cells are pruned.
    Every warping path visits every window row, so a path through cell
    (i, j) costs at least the cell's value plus one cell of each later row,
    and each of those costs at least that row's pool minimum. A cell where
    that sum exceeds the threshold for every placement of its group is
    dead: each row is trimmed to the span between its first and last live
    columns, and a group with no live column left is abandoned. Every
    finite value returned is exact, and a distance above the threshold
    comes back +inf. The bound and the distance add the same costs in
    different orders, so they round apart: the caller pads the threshold
    with ``prune_limit``, and then every distance at or below the unpadded
    threshold comes back exact.

    The placements run in contiguous parts, one per CPU, whose boundaries
    are multiples of the lane count, under the one threshold of the call:
    every group, the padded last one included, is the group of one whole
    call, and the cell count is the sum of the parts'.
    """
    arr = np.ascontiguousarray(_entries(m))
    n, cols = arr.shape
    a0 = np.ascontiguousarray(a0, dtype=np.int64).ravel()
    b0 = np.ascontiguousarray(b0, dtype=np.int64).ravel()
    if a0.size != b0.size:
        raise InvalidSpec(f"start arrays differ in length: {a0.size} and {b0.size}")
    if a0.size == 0:
        return np.empty(0), 0
    _check_window(arr, omega_u, omega_w, a0, b0)
    lo, hi = band_column_ranges(omega_u, omega_w, radius)
    # Whether the band connects the corners depends on the shape alone: each
    # row's band must start at most one column past the previous row's end.
    if radius is not None and not (np.all(lo[1:] <= hi[:-1] + 1) and hi[-1] == omega_w - 1):
        raise BandInfeasible(
            f"radius {radius} band disconnects the corners of a ({omega_u},{omega_w}) window"
        )
    if threshold is None:
        pool_ptr, pcols, limit = None, 0, math.inf
    else:
        if pool is None:
            raise InvalidSpec("abandoning against a threshold needs the min-pool grid")
        pool = np.ascontiguousarray(pool, dtype=np.float64)
        if pool.shape != (n, cols - omega_w + 1):
            raise InvalidSpec(f"min-pool grid of shape {pool.shape} does not fit matrix {arr.shape}")
        pool_ptr, pcols, limit = pool.ctypes.data, pool.shape[1], float(threshold)
    lib, lanes = _kernel()
    out = np.empty(a0.size)

    def part(start, stop):
        work = np.empty((2 * (omega_w + 1) + omega_u) * lanes)
        return lib.dtw_lockstep(
            arr.ctypes.data, cols, omega_u, omega_w, lo.ctypes.data, hi.ctypes.data,
            a0.ctypes.data + start * a0.itemsize, b0.ctypes.data + start * b0.itemsize, stop - start, pool_ptr,
            pcols, limit, work.ctypes.data, out.ctypes.data + start * out.itemsize,
        )

    return out, sum(split(part, a0.size, unit=lanes, cost=int((hi - lo + 1).sum())))


def dtw_matrix_full(m, omega_u: int, omega_w: int, *, radius: int | None = None) -> np.ndarray:
    """The exact windowed-DTW value at every placement.

    This is the quadratic object the pruned search avoids materializing;
    it backs the brute-force baseline and the full top-k table. Placements
    go through dtw_batch in fixed chunks, with no threshold, so every
    value is exact and bitwise what the pruned search computes. A band that
    disconnects the window's corners raises BandInfeasible from dtw_batch,
    before any cell is computed.
    """
    arr = _entries(m)
    n, cols = arr.shape
    if omega_u > n or omega_w > cols:
        raise WindowTooLarge(f"windows ({omega_u},{omega_w}) do not fit matrix of shape {arr.shape}")
    pa = n - omega_u + 1
    pb = cols - omega_w + 1
    out = grid((pa * pb,))
    for s in range(0, out.size, _FULL_CHUNK):
        a0, b0 = np.divmod(np.arange(s, min(s + _FULL_CHUNK, out.size)), pb)
        out[s : s + a0.size] = dtw_batch(arr, omega_u, omega_w, a0, b0, radius=radius)[0]
    return out.reshape(pa, pb)
