"""Shared domain types and validation for subsequence similarity search.

All user-facing indices (start positions, warping path steps, intervals)
are 1-based. Numpy grids are stored 0-based internally; the offset is a
storage detail and never leaks into results, JSON, or CSV output.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

# Absolute tolerance used to group tied distances and to pad bound
# comparisons. Floating-point summation order makes bit-equality between
# independently computed DTW values fragile; every distance comparison in
# the search (tie membership, candidate retention, early exit, early
# abandoning) uses this single constant so the pruned search and the
# brute-force search group ties identically.
TIE_TOLERANCE = 1e-9


class DtwSearchError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DtwSearchError):
    pass


class WindowTooLarge(DtwSearchError):
    pass


class NonFiniteValue(DtwSearchError):
    pass


class SeriesTooShort(DtwSearchError):
    pass


class WindowOrderViolated(DtwSearchError):
    pass


class IndexOutOfRange(DtwSearchError):
    pass


class InstanceTooLarge(DtwSearchError):
    pass


class BandInfeasible(DtwSearchError):
    pass


class InvalidSpec(DtwSearchError):
    pass


class InvalidGamma(DtwSearchError):
    pass


class IntervalOutOfBounds(DtwSearchError):
    pass


class ParseError(DtwSearchError):
    pass


class RaggedRows(ParseError):
    pass


class EmptyFile(ParseError):
    pass


def _as_float_grid(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InvalidSpec(f"time series values must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """A length x dims grid of finite real values.

    Rows are time steps, columns are feature dimensions. 1-D input is
    promoted to a single-column grid. Instances are immutable and safe to
    share across workers.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_grid(self.values)
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidSpec(f"time series must have length >= 1 and dims >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("time series contains NaN or infinite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(np.all(self.values == other.values))

    def __hash__(self):
        return hash((self.values.shape, self.values.tobytes()))


@dataclass(frozen=True)
class WindowPair:
    """Window lengths for the two series of one query."""

    omega_u: int
    omega_w: int

    def __post_init__(self):
        for name in ("omega_u", "omega_w"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise InvalidSpec(f"{name} must be a positive integer, got {v!r}")
        object.__setattr__(self, "omega_u", int(self.omega_u))
        object.__setattr__(self, "omega_w", int(self.omega_w))


@dataclass(frozen=True)
class WarpingPath:
    """Monotone, continuous alignment between two subsequences.

    Steps are 1-based (i, j) index pairs; each successive difference must
    be one of (0,1), (1,0), (1,1). The first and last steps define the
    aligned subsequence boundaries.
    """

    steps: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        steps = tuple((int(i), int(j)) for i, j in self.steps)
        if not steps:
            raise InvalidSpec("warping path must contain at least one step")
        for (i0, j0), (i1, j1) in zip(steps, steps[1:]):
            if (i1 - i0, j1 - j0) not in ((0, 1), (1, 0), (1, 1)):
                raise InvalidSpec(
                    f"invalid warping step from ({i0},{j0}) to ({i1},{j1}); "
                    "difference must be (0,1), (1,0) or (1,1)"
                )
        object.__setattr__(self, "steps", steps)

    @property
    def start(self) -> Tuple[int, int]:
        return self.steps[0]

    @property
    def end(self) -> Tuple[int, int]:
        return self.steps[-1]


@dataclass(frozen=True)
class SearchStats:
    """Instrumentation counters for one search run.

    pairs_total is the number of window placements, pairs_after_prune the
    number surviving the bound-based prune, dtw_evaluations the number of
    placements whose exact DTW was started, and dp_cells the number of DP
    cells computed for them (fewer than evaluations times window cells when
    placements are abandoned early).
    """

    pairs_total: int
    pairs_after_prune: int
    dtw_evaluations: int
    runtime_ms: float
    dp_cells: int = 0

    def __post_init__(self):
        if not (self.dtw_evaluations <= self.pairs_after_prune <= self.pairs_total):
            raise InvalidSpec(
                "counter ordering violated: expected dtw_evaluations <= "
                f"pairs_after_prune <= pairs_total, got {self}"
            )
        if self.dp_cells < 0:
            raise InvalidSpec(f"dp_cells must be nonnegative, got {self.dp_cells}")


@dataclass(frozen=True)
class SearchResult:
    """Tie-set of optimal start-index pairs plus the shortest distance.

    `solutions` holds 1-based (a, b) pairs in the caller's original
    orientation; `swapped` records whether the series were exchanged
    internally to enforce omega_u >= omega_w. A non-null `band_radius`
    means distances are constrained DTW: the optimum is exact for the
    banded distance, not the unconstrained one.
    """

    solutions: frozenset
    shortest_dist: float
    swapped: bool
    stats: SearchStats
    window_a: int
    window_b: int
    normalized: bool = False
    band_radius: int | None = None

    def __post_init__(self):
        if not self.solutions:
            raise InvalidSpec("search result must contain at least one solution")
        if self.shortest_dist < 0:
            raise InvalidSpec(f"shortest distance must be nonnegative, got {self.shortest_dist}")
        object.__setattr__(self, "solutions", frozenset((int(a), int(b)) for a, b in self.solutions))

    def sorted_solutions(self) -> list:
        return sorted(self.solutions)


def validate_query(u: TimeSeries, w: TimeSeries, wp: WindowPair) -> None:
    """Check that two series are comparable and the windows fit.

    Raises DimensionMismatch when the series have different feature
    dimensions and WindowTooLarge when a window exceeds its series length.
    """
    if u.dims != w.dims:
        raise DimensionMismatch(f"series dims differ: {u.dims} vs {w.dims}")
    if wp.omega_u > u.length:
        raise WindowTooLarge(f"omega_u={wp.omega_u} exceeds first series length {u.length}")
    if wp.omega_w > w.length:
        raise WindowTooLarge(f"omega_w={wp.omega_w} exceeds second series length {w.length}")
