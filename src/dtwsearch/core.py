"""Shared domain types and validation for subsequence similarity search.

All user-facing indices (start positions, warping path steps, intervals)
are 1-based. Numpy grids are stored 0-based internally; the offset is a
storage detail and never leaks into results, JSON, or CSV output.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

# Absolute tolerance that defines tie membership: every distance within it
# of the best is a tied optimum, in the pruned search, top-k and brute force
# alike. It is also the absolute part of prune_limit's pad.
TIE_TOLERANCE = 1e-9


def prune_limit(threshold):
    """The padded limit a bound is compared against when pruning by ``threshold``.

    A bound and the distance it bounds add the same costs in different
    orders, so their rounding grows with the size of the sums: the pad is
    the tie tolerance plus 1e-12 of the magnitude, which covers windows of
    a few thousand rows at double precision. Every prune, early exit and
    abandoning comparison uses it, so no placement within the tie
    tolerance of the threshold is ever dropped. Works on arrays too.
    """
    return threshold + TIE_TOLERANCE + 1e-12 * np.abs(threshold)


def is_integer(v) -> bool:
    """Whether v is a Python or numpy integer; a bool is not, though True == 1."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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


class KernelCompileError(DtwSearchError):
    """The C compiler for the compiled library (the DTW kernel and the grids) is missing or failed."""


def _as_float_grid(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InvalidSpec(f"time series values must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A length x dims grid of finite real values.

    Rows are time steps, columns are feature dimensions. 1-D input is
    promoted to a single-column grid. Instances are immutable and safe to
    share across workers. Equality and hashing are by identity; compare
    ``values`` to compare contents.
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


@dataclass(frozen=True)
class WindowPair:
    """Window lengths for the two series of one query."""

    omega_u: int
    omega_w: int

    def __post_init__(self):
        for name in ("omega_u", "omega_w"):
            v = getattr(self, name)
            if not is_integer(v) or v < 1:
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


# The per-stage timings of SearchStats, in pipeline order.
STAGE_FIELDS = ("normalize_ms", "distance_ms", "bounds_ms", "candidates_ms", "evaluate_ms")


@dataclass(frozen=True, kw_only=True)
class SearchStats:
    """Instrumentation counters for one search run.

    pairs_total is the number of window placements, pairs_after_prune the
    number surviving the bound-based prune (the last round's candidates,
    the seed among them), dtw_evaluations the number of placements whose
    exact DTW was started, the seed's included, and dp_cells the number of
    DP cells computed for them, each seed's once (fewer than evaluations
    times window cells when placements are abandoned early).

    lb_tightness is the lower bound at the winner (the smallest tied
    optimum, or the rank-1 match of top-k) divided by its DTW: near 1 the
    prune can keep few placements, near 0 it keeps most (1.0 when both are
    0, and 0.0 for brute force, which has no bounds). peak_grid_bytes is
    the size of the grids a search holds: the distance matrix with its
    minima of 8 columns, the min-pool (whose rows are built only where
    needed), the coarse grids and the exact lower bounds of the row blocks
    refined (for brute force, the distance matrix plus its table of every
    distance).

    The stage timings split runtime_ms: normalize_ms (validation, z-score
    and the orientation swap), distance_ms (the pointwise distance matrix),
    bounds_ms (the span minima and the coarse lower bound), candidates_ms
    (the filter with the row blocks it refines, and an exclusion round's
    threshold) and evaluate_ms (the seed's choice with the row blocks it
    refines, and its exact DTW, then exact DTW and ranking). A stage an
    entry point does not run stays 0.0.

    The field order is the order of the result JSON's stats and of the
    bench CSV's columns.
    """

    pairs_total: int
    pairs_after_prune: int
    dtw_evaluations: int
    dp_cells: int = 0
    lb_tightness: float = 0.0
    peak_grid_bytes: int = 0
    runtime_ms: float
    normalize_ms: float = 0.0
    distance_ms: float = 0.0
    bounds_ms: float = 0.0
    candidates_ms: float = 0.0
    evaluate_ms: float = 0.0

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
