"""Exact windowed DTW, its band-constrained variant, and a path oracle.

One kernel serves every evaluation. ``dtw_batch`` runs the recurrence as
a wavefront over the window's anti-diagonals i + j = k, vectorized across
placements: each diagonal is one range of rows within each row's column
range (the whole row, or the slope-adjusted band around the straight line
between window corners), so its costs come in one gather and its cells in
three array operations. The pruned search calls it on chunks of
candidates; given a threshold it also abandons, every few diagonals, each
placement whose lower bound over the last two diagonals passes it.
``dtw_windowed`` is the same kernel on one placement, and
``dtw_matrix_full`` (the brute-force table) is the same kernel on every
placement, in fixed chunks.

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


# Placements per wavefront pass, as a budget of cells of the longest
# diagonal. A pass's arrays are (window rows) x (placements), and each
# diagonal touches only its own rows of them, so sizing the pass by the
# longest diagonal bounds what one diagonal touches, whatever the band
# width: 256 KB per array, under 2 MB for the seven arrays it reads or
# writes, which fits a 2 MB L2. On 80x60 windows that is 546 placements
# unbanded and 3,276 with radius 8. On a 2-core Xeon, full 80x60 batches
# ran at about the same cells per second with budgets 2^14 and 2^15, and
# slower above: with radius 8 by 21% at 2^16, unbanded by up to 45% at 2^17.
_PASS_CELLS = 1 << 15
# Diagonals between abandoning checks. A check costs about as much as a
# diagonal's DP, and the two-diagonal bound never falls from one diagonal
# to the next, so a later check only costs the cells in between. On
# search-easy, checking every diagonal or every other one ran the kernel
# slower than every 4th; every 8th was no faster.
_ABANDON_EVERY = 4
# Placements per dtw_batch call in dtw_matrix_full. The kernel's passes set
# the cache footprint, so a chunk only bounds its start-index arrays: it is
# 30 passes on 80x60 windows, 5 with radius 8. At n=800 brute force ran
# within 7% of this from chunks of 4,096 to 65,536, banded or not.
_FULL_CHUNK = 16384


def _front(buf: np.ndarray, width: int) -> np.ndarray:
    """The first rows*width elements of a contiguous buffer, as rows of the given width."""
    return buf.reshape(-1)[: buf.shape[0] * width].reshape(buf.shape[0], width)


def _diagonal_rows(lo: np.ndarray, hi: np.ndarray, omega_w: int):
    """First and last window row of each anti-diagonal k = i + j, as lists.

    Row i holds columns lo[i] .. hi[i]. Both i + lo[i] and i + hi[i]
    increase strictly with the row, so the rows a diagonal crosses are one
    range; it is empty (last < first) where every path steps over it.
    """
    rows = np.arange(lo.size)
    ks = np.arange(lo.size + omega_w - 1)
    first = np.searchsorted(rows + hi, ks)
    last = np.searchsorted(rows + lo, ks, side="right") - 1
    return first.tolist(), last.tolist()


def dtw_batch(m, omega_u: int, omega_w: int, a0, b0, *, radius: int | None = None, threshold=None, pool=None):
    """Windowed DTW at many placements at once (0-based start arrays).

    Runs the recurrence as a wavefront over the anti-diagonals k = i + j of
    the window, vectorized across placements. Cell (i, j) is the minimum of
    its three predecessors, (i-1, j) and (i, j-1) on diagonal k-1 and
    (i-1, j-1) on diagonal k-2, plus its cost; cell (0, 0) is its own cost.
    A value is one minimum and one rounding from its inputs, so it does not
    depend on the batch it runs in or the order cells are computed in. With
    a radius only each row's band columns are computed; the others stay
    +inf. Placements run in passes of a fixed number of cells per diagonal.
    Returns the distances and the number of DP cells computed.

    With a threshold and the min-pool grid of the matrix (``pool[i, j]``,
    the minimum of row i over columns j .. j+omega_w-1), placements are
    abandoned early. A step adds 1 or 2 to i + j, so every warping path
    visits at least one of any two consecutive diagonals, at some cell
    (i, j). Its cost is at least the accumulated value there plus one cell
    of each later row, and each of those costs at least that row's pool
    minimum. So every few diagonals, a placement whose smallest such sum
    over diagonals k-1 and k exceeds the threshold has a DTW above it too,
    and is abandoned. Abandoned placements leave their pass once they are
    half of it and are returned as +inf; until then they are computed on,
    so a few of them come back exact. Every finite value is exact. The
    caller pads the threshold by its tie tolerance.
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
    if threshold is not None and pool is None:
        raise InvalidSpec("abandoning against a threshold needs the min-pool grid")
    first, last = _diagonal_rows(lo, hi, omega_w)
    longest = max(l - f for f, l in zip(first, last)) + 1
    step = max(1, _PASS_CELLS // longest)
    flat = arr.ravel()
    out = np.empty(a0.size)
    cells = 0
    for s in range(0, a0.size, step):
        pa, pb = a0[s : s + step], b0[s : s + step]
        rest = None if threshold is None else _remaining(pool, pa, pb, omega_u)
        cells += _wavefront(flat, cols, pa * cols + pb, first, last, longest, rest, threshold, out[s : s + step])
    return out, cells


def _remaining(pool: np.ndarray, a0: np.ndarray, b0: np.ndarray, omega_u: int) -> np.ndarray:
    """rest[i + 1] = the sum of the pool minima of window rows i+1 .. omega_u-1, per placement."""
    pcols = pool.shape[1]
    pflat = pool.ravel()
    pbase = a0 * pcols + b0
    rest = np.zeros((omega_u + 2, a0.size))
    for p in range(omega_u - 1, 0, -1):
        np.add(rest[p + 1], pflat[pbase + p * pcols], out=rest[p])
    return rest


def _lowest(d: np.ndarray, rest: np.ndarray, f: int, l: int, work: np.ndarray) -> np.ndarray:
    """Per placement, the smallest accumulated value plus rest over rows f .. l of one diagonal."""
    if l < f:
        return np.full(d.shape[1], np.inf)
    t = work[: l - f + 1]
    np.add(d[f + 1 : l + 2], rest[f + 1 : l + 2], out=t)
    return t.min(axis=0)


def _wavefront(flat, cols, base, first, last, longest, rest, threshold, out) -> int:
    """One pass of dtw_batch over the placements whose (0, 0) cell is flat[base].

    Writes each distance, or +inf for an abandoned placement, into out and
    returns the number of DP cells computed.
    """
    omega_u = last[-1] + 1  # the last diagonal is the corner cell alone
    n = base.size
    inf = np.inf
    out[:] = inf
    # Three buffers hold diagonals k-2, k-1 and k by window row, shifted
    # down by one: buffer row i + 1 is cell (i, k - i), so row 0 stands for
    # row -1. A diagonal's cells are rows first[k] .. last[k]; the row
    # below them is inf (set whenever a stale value could be there) and the
    # rows above them were never written, so edge cells of the window or
    # band read inf for their missing predecessors.
    d2, d1, d0 = (np.full((omega_u + 2, n), inf) for _ in range(3))
    d1[1] = flat[base]
    # The cost of cell (i, k - i) is flat[k + idx[i]]. Every index is in
    # range, and mode="clip" lets take write straight into its out array
    # (the default mode buffers it).
    idx = base + (np.arange(omega_u) * (cols - 1))[:, None]
    pos = np.arange(n)
    costs = np.empty((longest, n))
    work = np.empty((longest, n))
    cv = costs
    cells = n
    for k in range(1, len(first)):
        f, l = first[k], last[k]
        c = cv[: l - f + 1]
        flat[k:].take(idx[f : l + 1], out=c, mode="clip")
        new = d0[f + 1 : l + 2]
        np.minimum(d1[f : l + 1], d1[f + 1 : l + 2], out=new)
        np.minimum(new, d2[f : l + 1], out=new)
        np.add(new, c, out=new)
        if k >= 3 and f > first[k - 3]:
            d0[f] = inf  # held a cell of diagonal k-3
        cells += (l - f + 1) * n
        d2, d1, d0 = d1, d0, d2
        if threshold is None or k % _ABANDON_EVERY:
            continue
        wv = _front(work, n)
        lower = np.minimum(_lowest(d1, rest, f, l, wv), _lowest(d2, rest, first[k - 1], last[k - 1], wv))
        live = lower <= threshold
        count = np.count_nonzero(live)
        if count == 0:
            return cells
        if 2 * count <= n:
            # Drop the abandoned placements once they are half the pass or
            # more; until then they are computed on, exactly. The two live
            # diagonals go to the front of the free buffer and of the older
            # one; rows below f are not read again.
            keep = np.flatnonzero(live)
            n = keep.size
            nd1 = _front(d0, n)
            np.take(d1[f:], keep, axis=1, out=nd1[f:], mode="clip")
            nd2 = _front(d1, n)
            np.take(d2[f:], keep, axis=1, out=nd2[f:], mode="clip")
            d0 = _front(d2, n)
            d0[f:] = inf
            d1, d2 = nd1, nd2
            idx, rest, pos = idx[:, keep], rest[:, keep], pos[keep]
            cv = _front(costs, n)
    out[pos] = d1[omega_u]
    return cells


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
