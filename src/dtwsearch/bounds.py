"""Lower/upper DTW bound matrices over all window placements.

The lower bound sums, for each row the longer window passes through, the
minimum pointwise distance within the shorter window's column span. The
upper bound is the cost of one valid warping path inside the band the
search evaluates (upper_bound_path), so it can never undercut the DTW the
search computes. Any placement whose lower bound exceeds the k-th smallest
entry of the upper-bound matrix provably cannot be among the k best; at
k=1 that entry is the global minimum.

Both bound grids are built from cumulative sums, not by rescanning omega
cells per entry: the lower bound in O(nm log omega_w) with its min-pool
grid, the upper bound in O(nm) per straight segment of its path. That is
what makes pruning cheaper than the search it replaces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TIE_TOLERANCE, WindowOrderViolated, WindowTooLarge
from .dtw import _resolve_ranges
from .metrics import _BLOCK_ROWS, _entries


@dataclass(frozen=True)
class BoundMatrices:
    """Bound grids for one (series pair, window pair) search instance.

    min_pool:  n x (m - omega_w + 1), row-window minima of the distance matrix.
    min_path:  lower-bound grid over all placements.
    max_path:  upper-bound grid (cost of one in-band path) over all placements;
               its k-th smallest entry is the first prune threshold of top-k.
    """

    min_pool: np.ndarray
    min_path: np.ndarray
    max_path: np.ndarray

    def __post_init__(self):
        for name in ("min_pool", "min_path", "max_path"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.min_path.shape != self.max_path.shape:
            raise WindowTooLarge(
                f"bound grids disagree in shape: {self.min_path.shape} vs {self.max_path.shape}"
            )
        # Sandwich must hold up to summation rounding.
        slack = TIE_TOLERANCE + 1e-12 * np.abs(self.max_path)
        if not np.all(self.min_path <= self.max_path + slack):
            raise WindowOrderViolated("lower bound exceeds upper bound; window order was violated upstream")

    @property
    def shape(self):
        return self.min_path.shape


def min_pool(m, omega_w: int) -> np.ndarray:
    """Sliding minima over each row: out[i, j] = min(M[i, j:j+omega_w]).

    Doubling window widths up to the largest power of two p <= omega_w, then
    two overlapping p-windows offset by omega_w - p: floor(log2 omega_w) + 1
    passes of np.minimum over blocks of rows; only the result is grid-sized.
    """
    arr = _entries(m)
    n, cols = arr.shape
    if not 1 <= omega_w <= cols:
        raise WindowTooLarge(f"omega_w={omega_w} does not fit matrix with {cols} columns")
    keep = cols - omega_w + 1
    out = np.empty((n, keep))
    for lo in range(0, n, _BLOCK_ROWS):
        rows, width = arr[lo : lo + _BLOCK_ROWS], 1
        while 2 * width <= omega_w:
            rows = np.minimum(rows[:, :-width], rows[:, width:])
            width *= 2
        np.minimum(rows[:, :keep], rows[:, omega_w - width :], out=out[lo : lo + _BLOCK_ROWS])
    return out


def lower_bound_matrix(pool: np.ndarray, omega_u: int) -> np.ndarray:
    """Column-wise sliding sums of the min-pool grid.

    out[i, j] = sum(pool[i : i+omega_u, j]); equals the admissible lower
    bound of windowed DTW at placement (i, j). Uses per-column prefix sums.
    """
    pool = np.asarray(pool, dtype=np.float64)
    n = pool.shape[0]
    if not 1 <= omega_u <= n:
        raise WindowTooLarge(f"omega_u={omega_u} does not fit grid with {n} rows")
    cs = np.vstack([np.zeros((1, pool.shape[1])), np.cumsum(pool, axis=0)])
    return cs[omega_u:] - cs[:-omega_u]


def _check_window_order(arr: np.ndarray, omega_u: int, omega_w: int):
    n, m = arr.shape
    if omega_u < omega_w:
        raise WindowOrderViolated(
            f"upper bound requires omega_u >= omega_w, got ({omega_u}, {omega_w}); "
            "swap the series first"
        )
    if omega_u > n or omega_w > m:
        raise WindowTooLarge(f"windows ({omega_u},{omega_w}) do not fit matrix of shape {arr.shape}")


def upper_bound_path(omega_u: int, omega_w: int, radius: int | None = None) -> np.ndarray:
    """Column offset of each window row on the path the upper bound prices.

    Each row keeps to its column range (the whole row, or the band of the
    given radius, as the DTW kernel computes it), clipped to the columns
    from which both window corners can still be reached one row at a time.
    The path starts at column 0 and keeps its direction, diagonal or down,
    until a range forces a turn. Without a band it is the diagonal, then the
    last column. Requires omega_u >= omega_w.
    """
    if omega_u < omega_w:
        raise WindowOrderViolated(f"the upper-bound path requires omega_u >= omega_w, got ({omega_u}, {omega_w})")
    lo, hi = _resolve_ranges(omega_u, omega_w, radius)
    rows = np.arange(omega_u)
    low = np.maximum(lo, rows - (omega_u - omega_w)).tolist()
    high = np.minimum(hi, rows).tolist()
    path = []
    prev, step = -1, 1
    for p in range(omega_u):
        q = min(max(prev + step, low[p]), high[p])
        prev, step = q, q - prev
        path.append(q)
    return np.array(path, dtype=np.int64)


def upper_bound_matrix(m, omega_u: int, omega_w: int, radius: int | None = None) -> np.ndarray:
    """Cost of the upper-bound path (upper_bound_path) at every placement.

    The path is a valid warping path inside the band of the given radius
    (or unbanded), so the value can never be below the windowed DTW under
    that band. Each straight segment of the path is one difference of
    shifted prefix-sum grids, along the diagonal or down a column.
    """
    arr = _entries(m)
    _check_window_order(arr, omega_u, omega_w)
    n, cols = arr.shape
    pa = n - omega_u + 1
    pb = cols - omega_w + 1
    path = upper_bound_path(omega_u, omega_w, radius).tolist()
    steps = np.diff(path, prepend=-1)
    starts = np.flatnonzero(np.diff(steps, prepend=-1))
    segments = list(zip(starts.tolist(), np.diff(starts, append=omega_u).tolist(), steps[starts].tolist()))

    out = np.zeros((pa, pb))
    for p, length, _ in segments:
        if length == 1:
            q = path[p]
            out += arr[p : p + pa, q : q + pb]
    # One running-sum grid at a time, so the builder holds at most one n x m
    # grid beyond its output: sums[i+1, j+step] = M[i, j] + sums[i, j].
    for step in (1, 0):
        runs = [(p, length) for p, length, s in segments if length > 1 and s == step]
        if not runs:
            continue
        sums = np.zeros((n + 1, cols + step))
        if step:
            for i in range(n):
                np.add(arr[i], sums[i, :-1], out=sums[i + 1, 1:])
        else:
            np.cumsum(arr, axis=0, out=sums[1:])
        for p, length in runs:
            q = path[p]
            e, f = p + length, q + step * length
            out += sums[e : e + pa, f : f + pb] - sums[p : p + pa, q : q + pb]
        del sums
    return out


def compute_bounds(m, omega_u: int, omega_w: int, *, radius: int | None = None) -> BoundMatrices:
    """Build all bound grids for one search instance.

    radius is the band the search evaluates DTW under (None for no band);
    the upper bound prices a path inside it, so the prune threshold is
    valid for that distance.
    """
    arr = _entries(m)
    _check_window_order(arr, omega_u, omega_w)
    pool = min_pool(arr, omega_w)
    return BoundMatrices(
        min_pool=pool,
        min_path=lower_bound_matrix(pool, omega_u),
        max_path=upper_bound_matrix(arr, omega_u, omega_w, radius),
    )
