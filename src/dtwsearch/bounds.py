"""Lower/upper DTW bound matrices over all window placements.

The lower bound sums, for each row the longer window passes through, the
minimum pointwise distance within the shorter window's column span. The
upper bound is the cost of one fixed valid warping path, so it can never
undercut the true DTW. Any placement whose lower bound exceeds the global
minimum of the upper-bound matrix provably cannot be optimal.

Both bound grids are built in O(nm) from cumulative sums, not by
rescanning omega cells per entry; that is what makes pruning cheaper than
the search it replaces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import minimum_filter1d

from .core import TIE_TOLERANCE, WindowOrderViolated, WindowTooLarge
from .metrics import _entries


@dataclass(frozen=True)
class BoundMatrices:
    """Bound grids for one (series pair, window pair) search instance.

    min_pool:  n x (m - omega_w + 1), row-window minima of the distance matrix.
    min_path:  lower-bound grid over all placements.
    max_path:  upper-bound grid (fixed-path cost) over all placements.
    min_of_max_path: global minimum of max_path, the prune threshold.
    """

    min_pool: np.ndarray
    min_path: np.ndarray
    max_path: np.ndarray
    min_of_max_path: float

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

    Runs in O(nm) total via a 1-d minimum filter, independent of omega_w.
    """
    arr = _entries(m)
    n, cols = arr.shape
    if not 1 <= omega_w <= cols:
        raise WindowTooLarge(f"omega_w={omega_w} does not fit matrix with {cols} columns")
    if omega_w == 1:
        return arr.copy()
    # The centered filter output at column j + omega_w//2 covers
    # [j, j+omega_w); slicing keeps exactly the uncontaminated windows.
    filtered = minimum_filter1d(arr, size=omega_w, axis=1, mode="nearest")
    lo = omega_w // 2
    return filtered[:, lo : lo + (cols - omega_w + 1)].copy()


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


def upper_bound_matrix(m, omega_u: int, omega_w: int) -> np.ndarray:
    """Cost of the diagonal-then-last-column path at every placement.

    out[i, j] = sum_{k<omega_w-1} M[i+k, j+k]
              + sum_{omega_w-1<=k<omega_u} M[i+k, j+omega_w-1].

    The path is a valid warping path whenever omega_u >= omega_w, so the
    value can never be below the true windowed DTW.
    """
    arr = _entries(m)
    _check_window_order(arr, omega_u, omega_w)
    n, cols = arr.shape
    pa = n - omega_u + 1
    pb = cols - omega_w + 1

    # Diagonal running sums: dsp[i+1, j+1] = M[i, j] + dsp[i, j].
    dsp = np.zeros((n + 1, cols + 1))
    for i in range(n):
        dsp[i + 1, 1:] = arr[i] + dsp[i, :-1]
    ldiag = omega_w - 1
    diag_part = dsp[ldiag : ldiag + pa, ldiag : ldiag + pb] - dsp[:pa, :pb]

    # Last-column sums over rows i+omega_w-1 .. i+omega_u-1.
    vcp = np.vstack([np.zeros((1, cols)), np.cumsum(arr, axis=0)])
    col = slice(omega_w - 1, omega_w - 1 + pb)
    col_part = vcp[omega_u : omega_u + pa, col] - vcp[omega_w - 1 : omega_w - 1 + pa, col]

    return diag_part + col_part


def staircase_offsets(omega_u: int, omega_w: int) -> np.ndarray:
    """Column offsets of the path hugging the (1,1)-to-(wu,ww) line.

    offsets[p] = floor(p * (omega_w-1) / max(omega_u-1, 1)). Steps change
    by 0 or 1 when omega_u >= omega_w, the endpoints hit both corners, and
    every cell deviates from the straight line by less than one column, so
    the path lies inside any slope-adjusted band of radius >= 1.
    """
    p = np.arange(omega_u, dtype=np.int64)
    return (p * (omega_w - 1)) // max(omega_u - 1, 1)


def upper_bound_matrix_banded(m, omega_u: int, omega_w: int) -> np.ndarray:
    """Cost of the band-center staircase path at every placement.

    Unlike the diagonal-then-last-column path, this path stays inside any
    slope-adjusted band of radius >= 1, so the resulting grid upper-bounds
    the *banded* windowed DTW and keeps the prune sound when the search
    runs with a band constraint.
    """
    arr = _entries(m)
    _check_window_order(arr, omega_u, omega_w)
    n, cols = arr.shape
    pa = n - omega_u + 1
    pb = cols - omega_w + 1
    offsets = staircase_offsets(omega_u, omega_w)
    out = np.zeros((pa, pb))
    for p in range(omega_u):
        q = int(offsets[p])
        out += arr[p : p + pa, q : q + pb]
    return out


def compute_bounds(m, omega_u: int, omega_w: int, *, band_safe: bool = False) -> BoundMatrices:
    """Build all bound grids for one search instance.

    With band_safe=True the upper bound follows the staircase path so the
    prune threshold remains valid for band-constrained DTW.
    """
    arr = _entries(m)
    _check_window_order(arr, omega_u, omega_w)
    pool = min_pool(arr, omega_w)
    lower = lower_bound_matrix(pool, omega_u)
    if band_safe:
        upper = upper_bound_matrix_banded(arr, omega_u, omega_w)
    else:
        upper = upper_bound_matrix(arr, omega_u, omega_w)
    return BoundMatrices(
        min_pool=pool,
        min_path=lower,
        max_path=upper,
        min_of_max_path=float(upper.min()),
    )

