"""The pairwise Euclidean distance matrix, built in the compiled library, and z-normalization."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._native import _kernel, grid, sealed, split
from .core import DimensionMismatch, SeriesTooShort, TimeSeries


@dataclass(frozen=True)
class DistanceMatrix:
    """n x m grid of pointwise distances between every pair of time steps.

    ``entries`` is read-only. A read-only grid is kept as it is when it
    owns its memory, or when it lies on a read-only ``_native.grid`` (as
    ``distance_matrix`` builds), which no array can ever write. Any other
    buffer the caller may still write is copied, a read-only view of a
    writeable array included.

    ``group_min[i, g]`` is the minimum of entries[i, 8g : 8g + 8], kept by
    ``distance_matrix`` in the same pass (None for a grid given here). The
    search's coarse bound reads it.
    """

    entries: np.ndarray
    group_min: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionMismatch(f"entries must be a 2-D grid, got shape {arr.shape}")
        if arr.flags.writeable or not (arr.flags.owndata or sealed(arr)):
            arr = arr.copy()  # the caller may still write this buffer
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def _entries(m) -> np.ndarray:
    """The float64 grid of a DistanceMatrix or of any array-like."""
    if isinstance(m, DistanceMatrix):
        return m.entries
    return np.asarray(m, dtype=np.float64)


def distance_matrix(u: TimeSeries, w: TimeSeries) -> DistanceMatrix:
    """entries[i, j] = dist(u_i, w_j): squares summed in dimension order from 0.0, then one root.

    Rows are independent, so ``_native.split`` builds them in parts, one
    per CPU; each entry is the same at any thread count. The same pass
    keeps the minimum of each row's groups of 8 columns
    (``DistanceMatrix.group_min``).
    """
    if u.dims != w.dims:
        raise DimensionMismatch(f"series dims differ: {u.dims} vs {w.dims}")
    rows, cols = np.ascontiguousarray(u.values), np.ascontiguousarray(w.values.T)
    entries = grid((u.length, w.length), writeable=False)
    least = grid((u.length, -(-w.length // 8)), writeable=False)
    lib = _kernel()[0]

    def part(start, stop):
        lib.distance_rows(
            rows.ctypes.data + start * rows.strides[0], stop - start, cols.ctypes.data, w.length, u.dims,
            entries.ctypes.data + start * entries.strides[0],
            least.ctypes.data + start * least.strides[0],
        )

    split(part, u.length, cost=w.length * u.dims)
    out = DistanceMatrix(entries=entries)
    object.__setattr__(out, "group_min", least)
    return out


def z_normalize(x: TimeSeries) -> TimeSeries:
    """Shift each dimension to mean 0 and scale to population sd 1.

    Normalization is over the whole series (never per window), so it does
    not change which subsequence pair is optimal for a normalized query.
    Dimensions with zero variance map to all-zeros rather than erroring:
    real sensor data contains frozen channels and the search stays
    well-defined on them.
    """
    if x.length < 2:
        raise SeriesTooShort(f"z-normalization needs length >= 2, got {x.length}")
    vals = x.values
    mean = vals.mean(axis=0)
    sd = vals.std(axis=0)  # population sd (ddof=0)
    # A constant column can come out with sd ~ 1e-14 because the float mean
    # rounds off the constant; anything below the accumulation noise floor
    # is zero variance, not signal.
    floor = 4.0 * vals.shape[0] * np.finfo(np.float64).eps * np.abs(vals).max(axis=0)
    live = sd > floor
    out = np.where(live, (vals - mean) / np.where(live, sd, 1.0), 0.0)
    return TimeSeries(values=out)
