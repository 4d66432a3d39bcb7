"""Lower- and upper-bound DTW grids over all window placements.

The lower bound sums, for each row the longer window passes through, the
minimum pointwise distance within the shorter window's column span; it
never exceeds the windowed DTW at its placement. The upper bound is the
cost of one valid warping path inside the band (upper_bound_path), so it
never undercuts the DTW under that band; the paper prunes by its
minimum. The search builds neither whole grid: compute_bounds (the
min-pool and the whole lower-bound grid) and upper_bound_matrix are what
``--dump-bounds`` writes and what the tests compare with.

The search builds its bounds coarse-to-fine (CoarseBounds), as the UCR
suite puts a cheap bound in front of a costly one (Rakthanmanon et al.,
KDD 2012). The coarse bound takes, for each row and each block of COARSE
placement columns, the minimum over every distance column a window
starting in the block reaches, and sums these over omega_u rows. Each of
its terms is at most the exact bound's term, and the sums run in the same
blocks and order, so it is at most every exact bound of its block,
exactly in floating point. The search refines only the row blocks of
omega_u placement rows whose coarse bound the threshold admits: their
min-pool rows and their exact lower bounds, bitwise the whole grid's.

Every grid sums its windows with one routine (_add_window_sums), not by
rescanning omega cells per entry: O(nm) per straight segment of a path,
plus O(nm) for the lower bound's min-pool grid. The min-pool, the span
minima and the window sums run in the compiled library (``_kernel.c``)
and make no grid-sized temporary; each grid's memory comes from
``_native.grid``, which reuses an earlier search's. They split their work
over the CPUs the process may use (``_native.split``), each entry
computed as in one call. The same pass that writes a lower-bound grid
can keep each row's minimum, folded in while the row is still in cache.
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
# Placement columns per column block of the coarse lower bound (CoarseBounds), a multiple of 8.
COARSE = 32


@dataclass(frozen=True)
class BoundMatrices:
    """Bound grids for one (series pair, window pair) search instance.

    min_pool:  n x (m - omega_w + 1), row-window minima of the distance matrix.
    min_path:  lower-bound grid over all placements.
    """

    min_pool: np.ndarray
    min_path: np.ndarray

    def __post_init__(self):
        for name in ("min_pool", "min_path"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    _pool_rows(arr, out, omega_w, 0, n)
    return out


def _pool_rows(arr: np.ndarray, out: np.ndarray, omega_w: int, start: int, stop: int):
    """Rows start .. stop - 1 of the min-pool of arr, written into the same rows of out."""
    lib, cols = _kernel()[0], arr.shape[1]

    def part(lo, hi):
        work = np.empty(2 * cols)
        lib.min_pool_rows(
            arr.ctypes.data + (start + lo) * arr.strides[0], hi - lo, cols, omega_w, work.ctypes.data,
            out.ctypes.data + (start + lo) * out.strides[0],
        )

    split(part, stop - start, cost=cols)


def _add_window_sums(out: np.ndarray, g: np.ndarray, length: int, step: int, fresh: bool, row_min=None):
    """out[i, j] += sum(g[i + t, j + step*t] for t < length): step 0 is a column, 1 a diagonal.

    In blocks of `length` rows, the window from row r is the suffix running
    sum of its block from r plus the prefix running sum of the next block's
    first r rows (van Herk 1992; Gil & Werman 1993). No sum has more than
    `length` terms, so its rounding scales with the window, not the series.
    Runs in the compiled library (``window_sums`` in ``_kernel.c``); out
    and g may be views with any row stride. With ``fresh``, out holds nothing yet:
    each entry is written as 0.0 plus its sum, as if out were zeros. A
    ``row_min`` array, one float64 per row of out, receives each row's minimum.

    The columns run in parts, one per CPU: a column's sums read no other
    column of out, so every entry sums the same terms in the same order as
    in one call, and a single block of rows is split too. Each part keeps
    its own row minima; their minimum is the row's.
    """
    rows, cols = out.shape
    width = cols + step * (length - 1)
    if not (
        out.dtype == g.dtype == np.float64
        and all(a.strides[1] == a.itemsize and a.strides[0] % a.itemsize == 0 for a in (out, g))
        and g.shape[0] >= rows + length - 1
        and g.shape[1] >= width
        and length >= 1
        and step >= 0
        and (row_min is None or (row_min.dtype == np.float64 and row_min.shape == (rows,) and row_min.flags.c_contiguous))
    ):
        raise ValueError(f"window sums of length {length}, step {step} do not fit grids {out.shape} and {g.shape}")
    lib = _kernel()[0]

    def part(start, stop):
        work, least = np.empty((length + 1) * _STRIP), None if row_min is None else np.empty(rows)
        lib.window_sums(
            out.ctypes.data + start * out.itemsize, rows, stop - start, out.strides[0] // out.itemsize,
            g.ctypes.data + start * g.itemsize, g.strides[0] // g.itemsize, length, step, fresh, _STRIP,
            work.ctypes.data, None if least is None else least.ctypes.data,
        )
        return least

    least = split(part, cols, cost=rows)
    if row_min is not None:
        np.minimum.reduce(least, axis=0, out=row_min)


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
    """Build the min-pool and the whole lower-bound grid for one search instance.

    The lower bound holds under any band, since a band only removes paths.
    The search builds its bounds by row blocks instead (CoarseBounds);
    this is what ``--dump-bounds`` writes and what the tests compare with.
    """
    arr = _entries(m)
    _check_window_order(arr, omega_u, omega_w)
    pool = min_pool(arr, omega_w)
    return BoundMatrices(min_pool=pool, min_path=lower_bound_matrix(pool, omega_u))


class CoarseBounds:
    """The search's lower bounds: coarse at every placement, exact in the row blocks refined.

    coarse[a, c] is at most the exact lower bound (``lower_bound_matrix``)
    of every placement (a, b) with b // COARSE == c, and coarse_min[a] is
    the minimum of its row. A row block is the omega_u placement rows from
    block * omega_u. ``refine`` computes row blocks' exact lower bounds over
    spans of columns, each block's into a grid of its own (``block``), and
    the rows of ``min_pool`` their sums read, which are every row the DTW
    kernel reads for their placements. A block refined over every column has
    its rows' minima in ``row_min`` (+inf elsewhere). What is not refined
    holds arbitrary values. The span minima read a ``DistanceMatrix``'s
    minima of 8 columns (``group_min``), where it has them, instead of every
    entry.
    """

    def __init__(self, m, omega_u: int, omega_w: int):
        arr = _entries(m)
        _check_window_order(arr, omega_u, omega_w)
        n, cols = arr.shape
        self.omega_u, self.omega_w, self._arr = omega_u, omega_w, arr
        self.shape = (n - omega_u + 1, cols - omega_w + 1)
        self.size = self.shape[0] * self.shape[1]
        self.min_pool = grid((n, self.shape[1]), writeable=False)
        self.row_min = np.full(self.shape[0], np.inf)
        self._built = np.zeros(n, dtype=bool)  # pool rows
        self._span = np.zeros((-(-self.shape[0] // omega_u), 2), dtype=np.int64)  # each block's refined columns
        self._lower = [None] * len(self._span)  # each refined block's grid, omega_u x the placement columns
        blocks = -(-self.shape[1] // COARSE)
        self._spans = grid((n, blocks))
        least = getattr(m, "group_min", None)
        lib = _kernel()[0]

        def part(start, stop):
            lib.span_minima(
                arr.ctypes.data + start * arr.strides[0],
                None if least is None else least.ctypes.data + start * least.strides[0], stop - start, cols, omega_w,
                COARSE, self._spans.ctypes.data + start * self._spans.strides[0],
            )

        split(part, n, cost=blocks * (COARSE + omega_w) // 8)
        self.coarse = grid((self.shape[0], blocks), writeable=False)
        self.coarse_min = np.empty(self.shape[0])
        _add_window_sums(self.coarse, self._spans, omega_u, 0, True, self.coarse_min)
        self.block_min = np.minimum.reduceat(self.coarse_min, np.arange(0, self.shape[0], omega_u))

    @property
    def nbytes(self) -> int:
        """The bytes of every grid it holds: the min-pool, the coarse grids and the refined blocks'."""
        return sum(g.nbytes for g in (self.min_pool, self._spans, self.coarse, *self._lower) if g is not None)

    def rows(self, block: int) -> tuple:
        """The placement rows [start, stop) of a row block."""
        return block * self.omega_u, min((block + 1) * self.omega_u, self.shape[0])

    def block(self, block: int) -> np.ndarray:
        """A refined row block's exact lower bounds, one row per placement row, good over its refined columns."""
        r0, r1 = self.rows(block)
        return self._lower[block][: r1 - r0]

    def refine(self, spans: dict):
        """Make the exact lower bounds of each row block in spans over its columns [start, stop) at least.

        The pool rows that the blocks' sums read and that are not built yet
        are built together, in runs of consecutive rows.
        """
        todo, need = [], np.zeros(len(self._built) + 2, dtype=bool)  # need[1 + i]: build pool row i
        for block, (start, stop) in spans.items():
            have = self._span[block].tolist()
            if have[0] <= start and stop <= have[1]:
                continue
            if have[0] < have[1]:
                start, stop = min(start, have[0]), max(stop, have[1])
            else:  # every block's grid has the same shape, so that the memory of one search serves the next
                self._lower[block] = grid((self.omega_u, self.shape[1]), writeable=False)
            r0, r1 = self.rows(block)
            need[1 + r0 : r1 + self.omega_u] = True
            todo.append((block, start, stop))
        need[1:-1] &= ~self._built
        for lo, hi in np.flatnonzero(need[1:] != need[:-1]).reshape(-1, 2).tolist():  # [lo, hi) per run
            _pool_rows(self._arr, self.min_pool, self.omega_w, lo, hi)
        self._built |= need[1:-1]
        for block, start, stop in todo:
            r0, r1 = self.rows(block)
            whole = start == 0 and stop == self.shape[1]
            _add_window_sums(
                self.block(block)[:, start:stop], self.min_pool[r0:, start:stop], self.omega_u, 0, True,
                self.row_min[r0:r1] if whole else None,
            )
            self._span[block] = start, stop

    def refine_all(self) -> list:
        """Refine every row block over every column; returns each block's grid (``block``), in order."""
        self.refine({block: (0, self.shape[1]) for block in range(len(self._span))})
        return [self.block(block) for block in range(len(self._span))]

    def lower_at(self, flat: np.ndarray) -> np.ndarray:
        """The exact lower bounds at flat placement indices, each in a refined block and span."""
        row, col = np.divmod(flat, self.shape[1])
        out = np.empty(row.size)
        for block in np.unique(row // self.omega_u).tolist():
            at = np.flatnonzero(row // self.omega_u == block)
            out[at] = self.block(block)[row[at] - block * self.omega_u, col[at]]
        return out
