"""Exact windowed DTW, its band-constrained variant, and a path oracle.

One kernel serves every evaluation. ``dtw_batch`` runs the rolling-row
recurrence vectorized across placements, over each row's column range:
the whole row, or the slope-adjusted band around the straight line
between window corners. The pruned search calls it on chunks of
candidates; given a threshold it also abandons each placement whose lower
bound passes it, part way through its rows. ``dtw_windowed`` is the same
kernel on one placement, and ``dtw_matrix_full`` (the brute-force table)
is the same kernel on every placement, in fixed chunks.

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
)
from .metrics import _entries

_ORACLE_MAX_WINDOW = 8


def _check_window(arr: np.ndarray, omega_u: int, omega_w: int, a0: int, b0: int):
    n, cols = arr.shape
    if omega_u < 1 or omega_w < 1:
        raise InvalidSpec(f"window lengths must be positive, got ({omega_u},{omega_w})")
    if a0 < 0 or b0 < 0 or a0 + omega_u > n or b0 + omega_w > cols:
        raise IndexOutOfRange(
            f"window ({omega_u},{omega_w}) at 1-based start ({a0 + 1},{b0 + 1}) "
            f"does not fit matrix of shape {arr.shape}"
        )


def dtw_windowed(m, omega_u: int, omega_w: int, start, radius: int | None = None) -> float:
    """Exact windowed DTW at one placement, 1-based start (a, b).

    This is dtw_batch on a single placement. With a radius the warping
    cells are restricted to the slope-adjusted band (see
    band_column_ranges): the value can only be larger than the
    unconstrained one, and equals it once the radius covers the whole
    window. Raises BandInfeasible if no warping path survives the band.
    """
    arr = _entries(m)
    a0, b0 = start[0] - 1, start[1] - 1
    _check_window(arr, omega_u, omega_w, a0, b0)
    return float(dtw_batch(arr, omega_u, omega_w, [a0], [b0], radius=radius)[0][0])


def default_band_radius(omega_u: int, omega_w: int) -> int:
    """Radius that keeps the band connected and near 10% of the window."""
    return max(math.ceil(0.1 * max(omega_u, omega_w)), abs(omega_u - omega_w), 1)


def band_column_ranges(omega_u: int, omega_w: int, radius: int):
    """Inclusive 0-based column range [lo[p], hi[p]] of each window row.

    The band is |q - p * (omega_w-1)/max(omega_u-1, 1)| <= radius in
    0-based window coordinates: a corridor of the given radius around the
    straight line joining cell (0, 0) to cell (omega_u-1, omega_w-1).
    Computed in integer arithmetic so membership is exact.
    """
    if not isinstance(radius, (int, np.integer)) or radius < 1:
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


def _resolve_ranges(omega_u, omega_w, radius):
    if radius is None:
        lo = np.zeros(omega_u, dtype=np.int64)
        hi = np.full(omega_u, omega_w - 1, dtype=np.int64)
        return lo, hi
    return band_column_ranges(omega_u, omega_w, radius)


def window_cells(omega_u: int, omega_w: int, radius: int | None = None) -> int:
    """DP cells of one placement: the whole window, or the band's cells."""
    lo, hi = _resolve_ranges(omega_u, omega_w, radius)
    return int((hi - lo + 1).sum())


_ABANDON_EVERY = 4
# Placements per dtw_batch call in dtw_matrix_full. One DP row of a chunk
# is 128 KB, so the rows a cell reads stay in a 2 MB L2 cache; on 80x60
# windows, chunks of 8,192 ran about as fast and chunks of 32,768 1.26x slower.
_FULL_CHUNK = 16384


def _front(buf: np.ndarray, width: int) -> np.ndarray:
    """The first rows*width elements of a contiguous buffer, as rows of the given width."""
    return buf.reshape(-1)[: buf.shape[0] * width].reshape(buf.shape[0], width)


def dtw_batch(m, omega_u: int, omega_w: int, a0, b0, *, radius: int | None = None, threshold=None, pool=None):
    """Windowed DTW at many placements at once (0-based start arrays).

    Runs the rolling-row recurrence with the placement axis vectorized:
    row 0 is a running sum, and every later cell is the minimum of its
    three predecessors plus its cost, so a placement's value does not
    depend on the batch it runs in. With a radius only each row's band
    columns are computed; the others stay +inf. Returns the distances and
    the number of DP cells computed.

    With a threshold and the min-pool grid of the matrix (``pool[i, j]``,
    the minimum of row i over columns j .. j+omega_w-1), placements are
    abandoned early: every few rows, a placement whose lower bound exceeds
    the threshold is dropped from the batch and returned as +inf. The bound
    is sound because a warping path leaves row p from some cell of it, so
    its cost is at least the smallest accumulated value in row p, and it
    then visits every later row at least once, each visit costing at least
    that row's pool minimum. An abandoned placement's true DTW therefore
    exceeds the threshold; every other value is exact. The caller pads the
    threshold by its tie tolerance.
    """
    arr = _entries(m)
    n, cols = arr.shape
    a0 = np.asarray(a0, dtype=np.int64)
    b0 = np.asarray(b0, dtype=np.int64)
    if a0.size == 0:
        return np.empty(0), 0
    if a0.min() < 0 or b0.min() < 0 or a0.max() + omega_u > n or b0.max() + omega_w > cols:
        raise IndexOutOfRange("some placements do not fit the distance matrix")
    lo, hi = _resolve_ranges(omega_u, omega_w, radius)
    # Whether the band connects the corners depends on the shape alone: each
    # row's band must start at most one column past the previous row's end.
    if radius is not None and not (np.all(lo[1:] <= hi[:-1] + 1) and hi[-1] == omega_w - 1):
        raise BandInfeasible(
            f"radius {radius} band disconnects the corners of a ({omega_u},{omega_w}) window"
        )
    flat = arr.ravel()
    base = a0 * cols + b0
    nb = a0.size
    inf = np.inf
    out = np.full(nb, inf)
    alive = np.arange(nb)

    if threshold is not None:
        if pool is None:
            raise InvalidSpec("abandoning against a threshold needs the min-pool grid")
        # rest[p // _ABANDON_EVERY] = sum of the pool minima of rows p .. omega_u-1,
        # kept only for the rows where placements are checked.
        pcols = pool.shape[1]
        pbase = a0 * pcols + b0
        pflat = pool.ravel()
        rest = np.empty((omega_u // _ABANDON_EVERY + 1, nb))
        tail = np.zeros(nb)
        for p in range(omega_u - 1, 0, -1):
            tail = tail + pflat[pbase + p * pcols]
            if p % _ABANDON_EVERY == 0:
                rest[p // _ABANDON_EVERY] = tail

    prev = np.full((omega_w, nb), inf)
    cur = np.full((omega_w, nb), inf)
    acc = flat[base].copy()
    prev[0] = acc
    for q in range(1, int(hi[0]) + 1):
        acc = acc + flat[base + q]
        prev[q] = acc
    cells = (int(hi[0]) + 1) * nb

    tmp = np.empty(nb)
    for p in range(1, omega_u):
        if threshold is not None and p % _ABANDON_EVERY == 0:
            bound = prev[int(lo[p - 1]) : int(hi[p - 1]) + 1].min(axis=0) + rest[p // _ABANDON_EVERY, alive]
            keep = np.flatnonzero(bound <= threshold)
            if keep.size < alive.size:
                alive, base = alive[keep], base[keep]
                if alive.size == 0:
                    return out, cells
                # Compact into the front of the existing buffers, which keeps
                # every row C-contiguous and allocates nothing (mode="clip"
                # writes straight into out; the default mode buffers it).
                n = alive.size
                prev, cur = np.take(prev, keep, axis=1, out=_front(cur, n), mode="clip"), _front(prev, n)
                tmp = tmp[:n]
        rowbase = base + p * cols
        plo, phi = int(lo[p]), int(hi[p])
        cells += (phi - plo + 1) * alive.size
        # Cells this row reads that the previous row never wrote must be inf.
        r0 = max(0, plo - 1)
        lo_prev, hi_prev = int(lo[p - 1]), int(hi[p - 1])
        if r0 < lo_prev:
            prev[r0 : min(phi + 1, lo_prev)] = inf
        if phi > hi_prev:
            prev[max(r0, hi_prev + 1) : phi + 1] = inf
        if plo >= 1:
            cur[plo - 1] = inf
        for q in range(plo, phi + 1):
            if q == 0:
                np.add(prev[0], flat[rowbase], out=cur[0])
                continue
            np.minimum(prev[q], prev[q - 1], out=tmp)
            np.minimum(tmp, cur[q - 1], out=tmp)
            np.add(tmp, flat[rowbase + q], out=cur[q])
        prev, cur = cur, prev
    out[alive] = prev[omega_w - 1]
    return out, cells


def dtw_matrix_full(m, omega_u: int, omega_w: int, *, radius: int | None = None) -> np.ndarray:
    """The exact windowed-DTW value at every placement.

    This is the quadratic object the pruned search avoids materializing;
    it backs the brute-force baseline and the full top-k table. Placements
    go through dtw_batch in fixed chunks, with no threshold, so every
    value is exact and bitwise what the pruned search computes.
    """
    arr = _entries(m)
    n, cols = arr.shape
    if omega_u > n or omega_w > cols:
        raise WindowTooLarge(f"windows ({omega_u},{omega_w}) do not fit matrix of shape {arr.shape}")
    pa = n - omega_u + 1
    pb = cols - omega_w + 1
    out = np.empty(pa * pb)
    for s in range(0, out.size, _FULL_CHUNK):
        a0, b0 = np.divmod(np.arange(s, min(s + _FULL_CHUNK, out.size)), pb)
        out[s : s + a0.size] = dtw_batch(arr, omega_u, omega_w, a0, b0, radius=radius)[0]
    if radius is not None and not np.all(np.isfinite(out)):
        raise BandInfeasible(
            f"radius {radius} band disconnects the corners of a ({omega_u},{omega_w}) window"
        )
    return out.reshape(pa, pb)
