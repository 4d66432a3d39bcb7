"""Pointwise Euclidean distance and the full pairwise distance matrix."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import DimensionMismatch, NonFiniteValue, SeriesTooShort, TimeSeries


@dataclass(frozen=True)
class DistanceMatrix:
    """n x m grid of pointwise distances between every pair of time steps."""

    entries: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.shape != (self.n, self.m):
            raise DimensionMismatch(f"entries shape {arr.shape} does not match ({self.n},{self.m})")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def _entries(m) -> np.ndarray:
    """The float64 grid of a DistanceMatrix or of any array-like."""
    if isinstance(m, DistanceMatrix):
        return m.entries
    return np.asarray(m, dtype=np.float64)


def point_distance(u, w) -> float:
    """Euclidean distance between two points of the feature space.

    Symmetric, nonnegative, zero exactly when u == w elementwise.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    if u.shape != w.shape:
        raise DimensionMismatch(f"point dims differ: {u.shape} vs {w.shape}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(w))):
        raise NonFiniteValue("points must be finite")
    return float(np.sqrt(np.sum((u - w) ** 2)))


def distance_matrix(u: TimeSeries, w: TimeSeries) -> DistanceMatrix:
    """All pairwise point distances: entries[i, j] = dist(u_i, w_j)."""
    if u.dims != w.dims:
        raise DimensionMismatch(f"series dims differ: {u.dims} vs {w.dims}")
    entries = cdist(u.values, w.values, metric="euclidean")
    return DistanceMatrix(entries=entries, n=u.length, m=w.length)


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
