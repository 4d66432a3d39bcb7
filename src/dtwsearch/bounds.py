"""Lower- and upper-bound DTW grids over all window placements.

The lower bound sums, for each row the longer window passes through, the
minimum pointwise distance within the shorter window's column span; it
never exceeds the windowed DTW at its placement. The search builds only
the min-pool and this grid (compute_bounds) and takes its thresholds from
exact DTW, so a placement whose lower bound exceeds the k-th best
distance found is skipped. The upper bound is the cost of one valid
warping path inside the band (upper_bound_path), so it never undercuts
the DTW under that band; the paper prunes by its minimum. The search no
longer builds it: it is what ``--dump-bounds`` writes and what the
sandwich tests check.

Both grids sum their windows with one routine (_add_window_sums), not by
rescanning omega cells per entry: O(nm) per straight segment of a path,
plus O(nm) for the lower bound's min-pool grid. That is what makes
pruning cheaper than the search it replaces. The min-pool and the window
sums run in the compiled library (``_kernel.c``) and make no grid-sized
temporary; each output grid's memory comes from ``_native.grid``, which
reuses an earlier search's. Both split their rows over the CPUs the
process may use (``_native.split``), each entry computed as in one call.

The same pass that writes the lower-bound grid keeps each row's minimum
(``BoundMatrices.row_min``), folded in while the row is still in cache.
The search's seed and filter read these minima instead of sweeping the
grid: a row whose minimum exceeds the threshold holds no candidate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._native import _kernel, grid, split
from .core import WindowOrderViolated, WindowTooLarge
from .dtw import band_column_ranges
from .metrics import _entries

# Columns per strip of the window sums: a strip's prefix sums, one row of
# them per window row, stay in cache until its entries of out are written.
_STRIP = 256


@dataclass(frozen=True)
class BoundMatrices:
    """Bound grids for one (series pair, window pair) search instance.

    min_pool:  n x (m - omega_w + 1), row-window minima of the distance matrix.
    min_path:  lower-bound grid over all placements.
    row_min:   the minimum of each row of min_path, bitwise min_path.min(axis=1).
    """

    min_pool: np.ndarray
    min_path: np.ndarray
    row_min: np.ndarray

    def __post_init__(self):
        for name in ("min_pool", "min_path", "row_min"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def max_path(self) -> np.ndarray:
        """Always empty: no upper-bound grid is built. Its one reader is the benchmark tracer
        (``dtwbench/spans.py``), which adds its bytes to the grids' until it reads ``SearchStats``."""
        return np.empty((0, 0))

    @property
    def shape(self):
        return self.min_path.shape


def min_pool(m, omega_w: int) -> np.ndarray:
    """Sliding minima over each row: out[i, j] = min(M[i, j:j+omega_w]).

    One pass per row in the compiled library: running minima within blocks
    of omega_w columns, from each block's start and to its end (van Herk
    1992; Gil & Werman 1993), so each entry costs O(1) whatever the window.
    Rows are independent, so they run in parts, one per CPU.
    """
    arr = np.ascontiguousarray(_entries(m))
    n, cols = arr.shape
    if not 1 <= omega_w <= cols:
        raise WindowTooLarge(f"omega_w={omega_w} does not fit matrix with {cols} columns")
    out = grid((n, cols - omega_w + 1))
    lib = _kernel()[0]

    def part(start, stop):
        work = np.empty(2 * cols)
        lib.min_pool_rows(
            arr.ctypes.data + start * arr.strides[0], stop - start, cols, omega_w, work.ctypes.data,
            out.ctypes.data + start * out.strides[0],
        )

    split(part, n, cost=cols)
    return out


def _add_window_sums(out: np.ndarray, g: np.ndarray, length: int, step: int, fresh: bool, row_min=None):
    """out[i, j] += sum(g[i + t, j + step*t] for t < length): step 0 is a column, 1 a diagonal.

    In blocks of `length` rows, the window from row r is the suffix running
    sum of its block from r plus the prefix running sum of the next block's
    first r rows (van Herk 1992; Gil & Werman 1993). No sum has more than
    `length` terms, so its rounding scales with the window, not the series.
    Runs in the compiled library (``window_sums`` in ``_kernel.c``); g may
    be a view with any row stride. With ``fresh``, out holds nothing yet:
    each entry is written as 0.0 plus its sum, as if out were zeros. A
    ``row_min`` array, one float64 per row of out, receives each row's minimum.

    The rows run in parts, one per CPU, whose boundaries are multiples of
    ``length``: the blocks start where they start in one call, so every
    entry sums the same terms in the same order.
    """
    rows, cols = out.shape
    width = cols + step * (length - 1)
    if not (
        out.dtype == g.dtype == np.float64
        and out.flags.c_contiguous
        and g.strides[1] == g.itemsize
        and g.strides[0] % g.itemsize == 0
        and g.shape[0] >= rows + length - 1
        and g.shape[1] >= width
        and length >= 1
        and step >= 0
        and (row_min is None or (row_min.dtype == np.float64 and row_min.shape == (rows,) and row_min.flags.c_contiguous))
    ):
        raise ValueError(f"window sums of length {length}, step {step} do not fit grids {out.shape} and {g.shape}")
    lib = _kernel()[0]

    def part(start, stop):
        work = np.empty((length + 1) * _STRIP)
        lib.window_sums(
            out.ctypes.data + start * out.strides[0], stop - start, cols, g.ctypes.data + start * g.strides[0],
            g.strides[0] // g.itemsize, length, step, fresh, _STRIP, work.ctypes.data,
            None if row_min is None else row_min.ctypes.data + start * row_min.itemsize,
        )

    split(part, rows, unit=length, cost=cols)


def lower_bound_matrix(pool: np.ndarray, omega_u: int, row_min: np.ndarray | None = None) -> np.ndarray:
    """Column-wise sliding sums of the min-pool grid.

    out[i, j] = sum(pool[i : i+omega_u, j]); equals the admissible lower
    bound of windowed DTW at placement (i, j). A ``row_min`` array, one
    float64 per row of out, receives each row's minimum from the same pass.
    """
    pool = np.ascontiguousarray(pool, dtype=np.float64)
    n = pool.shape[0]
    if not 1 <= omega_u <= n:
        raise WindowTooLarge(f"omega_u={omega_u} does not fit grid with {n} rows")
    out = grid((n - omega_u + 1, pool.shape[1]))
    _add_window_sums(out, pool, omega_u, 0, True, row_min)
    return out


def _check_window_order(arr: np.ndarray, omega_u: int, omega_w: int):
    n, m = arr.shape
    if omega_u < omega_w:
        raise WindowOrderViolated(
            f"the bound grids require omega_u >= omega_w, got ({omega_u}, {omega_w}); "
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
    lo, hi = band_column_ranges(omega_u, omega_w, radius)
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
    that band. Each straight segment of the path adds its window sums,
    along the diagonal or down a column.
    """
    arr = np.ascontiguousarray(_entries(m))
    _check_window_order(arr, omega_u, omega_w)
    path = upper_bound_path(omega_u, omega_w, radius).tolist()
    steps = np.diff(path, prepend=-1)
    starts = np.flatnonzero(np.diff(steps, prepend=-1))
    out = grid((arr.shape[0] - omega_u + 1, arr.shape[1] - omega_w + 1))
    for p, length, step in zip(starts.tolist(), np.diff(starts, append=omega_u).tolist(), steps[starts].tolist()):
        _add_window_sums(out, arr[p:, path[p] :], length, step, p == 0)
    return out


def compute_bounds(m, omega_u: int, omega_w: int) -> BoundMatrices:
    """Build the min-pool, the lower-bound grid and its row minima for one search instance.

    The lower bound holds under any band, since a band only removes paths.
    """
    arr = _entries(m)
    _check_window_order(arr, omega_u, omega_w)
    pool = min_pool(arr, omega_w)
    row_min = np.empty(arr.shape[0] - omega_u + 1)
    return BoundMatrices(min_pool=pool, min_path=lower_bound_matrix(pool, omega_u, row_min), row_min=row_min)
