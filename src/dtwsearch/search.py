"""Pruned search for the most similar subsequence pair, top-k, brute force.

The pruned search evaluates exact DTW only on placements whose lower
bound does not exceed a threshold, in ascending lower-bound order, and
stops at the first candidate whose lower bound exceeds it. For the single
optimum the threshold starts at the global minimum of the upper-bound grid
and falls to the best distance found; for top-k it starts at the k-th
smallest upper bound and falls to the k-th best distance found. Because
the lower bound never overshoots the true distance and the upper bound
never undershoots it, the result provably equals the brute-force answer,
tie-set included.

One evaluation loop serves both: candidates go in growing chunks through
the batch kernel, which abandons a group of placements once, for each of
them, the smallest accumulated value in a window row plus the pool minima
of the rows below it exceeds the threshold. That sum is a lower bound on
the placement's DTW, so an abandoned placement cannot be optimal (or among
the k best), and every placement that can is computed exactly. Every
threshold comparison is padded by the tie tolerance, so a placement tied
with the optimum is never pruned, skipped or abandoned; tie membership is
resolved against the final minimum with the same tolerance.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    STAGE_FIELDS,
    TIE_TOLERANCE,
    InvalidSpec,
    SearchResult,
    SearchStats,
    TimeSeries,
    WindowPair,
    validate_query,
)
from .bounds import BoundMatrices, compute_bounds
from .dtw import dtw_batch, dtw_matrix_full, window_cells
from .metrics import distance_matrix, z_normalize

_FIRST_CHUNK = 64
_MAX_CHUNK = 4096


@dataclass(frozen=True)
class SearchOptions:
    """Knobs shared by all search entry points.

    normalize: "none" or "zscore" (whole-series z-score per dimension).
    band_radius: None for exact DTW, or a radius >= 1 for the
        slope-adjusted band constraint. With a band, the returned optimum
        is exact for the banded distance, not the unconstrained one.
    exclusion: top-k only; suppress matches within this Chebyshev distance
        of an already-ranked match (0 keeps every placement competing).
    """

    normalize: str = "none"
    band_radius: int | None = None
    exclusion: int = 0

    def __post_init__(self):
        if self.normalize not in ("none", "zscore"):
            raise InvalidSpec(f"normalize must be 'none' or 'zscore', got {self.normalize!r}")
        if self.band_radius is not None and (
            not isinstance(self.band_radius, (int, np.integer)) or self.band_radius < 1
        ):
            raise InvalidSpec(f"band_radius must be None or an integer >= 1, got {self.band_radius!r}")
        if not isinstance(self.exclusion, (int, np.integer)) or self.exclusion < 0:
            raise InvalidSpec(f"exclusion must be an integer >= 0, got {self.exclusion!r}")


@dataclass(frozen=True)
class RankedMatch:
    """One entry of a top-k ranking; rank is 1-based, ascending distance."""

    a: int
    b: int
    distance: float
    rank: int


@dataclass(frozen=True)
class TopKResult:
    matches: tuple
    truncated: bool
    stats: SearchStats


class _Stages:
    """Milliseconds of each stage of one search, as SearchStats fields."""

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.ms = {}

    def lap(self, stage: str):
        """Charge the time since the previous lap to the named stage field."""
        now = time.perf_counter()
        self.ms[stage] = self.ms.get(stage, 0.0) + (now - self.last) * 1e3
        self.last = now

    def fields(self) -> dict:
        """The stage fields, and runtime_ms: the time since the clock started."""
        return dict(self.ms, runtime_ms=(time.perf_counter() - self.start) * 1e3)


class Candidates:
    """Placements surviving the bound prune, ascending by lower bound.

    Flat arrays of 1-based starts ``a``, ``b`` and their lower bounds.
    """

    __slots__ = ("a", "b", "lower_bounds")

    def __init__(self, a: np.ndarray, b: np.ndarray, lower_bounds: np.ndarray):
        self.a = np.ascontiguousarray(a, dtype=np.int64)
        self.b = np.ascontiguousarray(b, dtype=np.int64)
        self.lower_bounds = np.ascontiguousarray(lower_bounds, dtype=np.float64)
        for arr in (self.a, self.b, self.lower_bounds):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.a.size


def find_candidates(bm: BoundMatrices, *, threshold: float | None = None) -> Candidates:
    """Placements whose lower bound does not exceed the prune threshold.

    The default threshold is the minimum of the upper-bound grid. The
    comparison is padded by the tie tolerance so summation rounding can
    never drop a genuinely tied optimum. Sorted ascending by lower bound,
    ties by (a, b).
    """
    thr = bm.min_of_max_path if threshold is None else threshold
    mask = bm.min_path <= thr + TIE_TOLERANCE
    ii, jj = np.nonzero(mask)
    lbs = bm.min_path[ii, jj]
    order = np.lexsort((jj, ii, lbs))
    return Candidates(a=ii[order] + 1, b=jj[order] + 1, lower_bounds=lbs[order])


def _grid_bytes(m, bm: BoundMatrices) -> int:
    """Bytes of the distance matrix and the three bound grids."""
    return sum(g.nbytes for g in (np.asarray(m), bm.min_pool, bm.min_path, bm.max_path))


def _tightness(bm: BoundMatrices, a: int, b: int, distance: float) -> float:
    """The lower bound at 1-based placement (a, b) over its DTW distance (1.0 when that is 0)."""
    return float(bm.min_path[a - 1, b - 1]) / distance if distance > 0 else 1.0


def _evaluate(m, omega_u, omega_w, cands: Candidates, bm: BoundMatrices, k, bound, radius, d=None):
    """Exact DTW of candidates in lower-bound order, under a moving threshold.

    The threshold is the smaller of ``bound`` and the k-th smallest
    distance found so far; evaluation stops at the first candidate whose
    lower bound exceeds it. Returns (d, threshold, dp_cells), where d[i] is
    the distance of candidate i over the evaluated prefix of ``cands``, or
    +inf for a placement abandoned because its distance exceeds the
    threshold it was evaluated under.

    ``d`` continues an earlier call whose candidates are a prefix of these,
    found under a lower bound; placements it abandoned are evaluated again
    when the threshold now admits them.
    """
    lbs = cands.lower_bounds
    a0, b0 = cands.a - 1, cands.b - 1
    d = np.empty(0) if d is None else d
    cells = 0

    def batch(idx):
        nonlocal cells
        out, c = dtw_batch(
            m, omega_u, omega_w, a0[idx], b0[idx], radius=radius, threshold=thr + TIE_TOLERANCE, pool=bm.min_pool
        )
        cells += c
        return out

    def kth(values):
        return bound if values.size < k else min(bound, _kth_smallest(values, k))

    thr = kth(d)
    redo = np.flatnonzero(np.isinf(d) & (lbs[: d.size] <= thr + TIE_TOLERANCE))
    if redo.size:
        d = d.copy()
        d[redo] = batch(redo)
        thr = kth(d)
    chunk = _FIRST_CHUNK
    while (pos := d.size) < lbs.size and lbs[pos] <= thr + TIE_TOLERANCE:
        end = pos + int(np.searchsorted(lbs[pos : pos + chunk], thr + TIE_TOLERANCE, side="right"))
        d = np.concatenate((d, batch(slice(pos, end))))
        thr = kth(d)
        chunk = min(chunk * 4, _MAX_CHUNK)
    return d, thr, cells


def find_optimal_solutions(
    m,
    omega_u: int,
    omega_w: int,
    candidates: Candidates,
    bm: BoundMatrices,
    *,
    band_radius: int | None = None,
) -> SearchResult:
    """Evaluate candidates in lower-bound order, keeping the best tie-set.

    The threshold is the smaller of the upper-bound minimum and the
    incumbent distance; the answer is the tie-set closure of what the
    evaluation loop returns.
    """
    t0 = time.perf_counter()
    assert len(candidates), "candidate list cannot be empty: the argmin of the upper bound always survives"
    d, _, cells = _evaluate(m, omega_u, omega_w, candidates, bm, 1, bm.min_of_max_path, band_radius)
    shortest = float(d.min())
    final = np.flatnonzero(d <= shortest + TIE_TOLERANCE)
    solutions = frozenset(zip(candidates.a[final].tolist(), candidates.b[final].tolist()))
    stats = SearchStats(
        pairs_total=int(bm.min_path.size),
        pairs_after_prune=len(candidates),
        dtw_evaluations=d.size,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        dp_cells=cells,
        lb_tightness=_tightness(bm, *min(solutions), shortest),
        peak_grid_bytes=_grid_bytes(m, bm),
    )
    return SearchResult(
        solutions=solutions,
        shortest_dist=shortest,
        swapped=False,
        stats=stats,
        window_a=omega_u,
        window_b=omega_w,
        band_radius=band_radius,
    )


def _prepare(u: TimeSeries, w: TimeSeries, wp: WindowPair, opts: SearchOptions):
    """Validate, normalize, and apply the swap that enforces wu >= ww."""
    validate_query(u, w, wp)
    if opts.normalize == "zscore":
        u = z_normalize(u)
        w = z_normalize(w)
    swapped = wp.omega_w > wp.omega_u
    if swapped:
        return w, u, wp.omega_w, wp.omega_u, True
    return u, w, wp.omega_u, wp.omega_w, False


def infer_most_similar(
    u: TimeSeries, w: TimeSeries, wp: WindowPair, options: SearchOptions | None = None
) -> SearchResult:
    """Find every placement pair attaining the minimum windowed DTW.

    Runs the full pipeline: distance matrix, bound grids, candidate
    filter, ordered incumbent search. Solutions are reported in the
    caller's orientation even when the series were swapped internally.
    """
    opts = options or SearchOptions()
    clock = _Stages()
    su, sw, wu, ww, swapped = _prepare(u, w, wp, opts)
    clock.lap("normalize_ms")
    m = distance_matrix(su, sw)
    clock.lap("distance_ms")
    bm = compute_bounds(m, wu, ww, radius=opts.band_radius)
    clock.lap("bounds_ms")
    cands = find_candidates(bm)
    clock.lap("candidates_ms")
    res = find_optimal_solutions(m.entries, wu, ww, cands, bm, band_radius=opts.band_radius)
    solutions = res.solutions
    if swapped:
        solutions = frozenset((b, a) for a, b in solutions)
    clock.lap("evaluate_ms")
    stats = replace(res.stats, **clock.fields())
    return SearchResult(
        solutions=solutions,
        shortest_dist=res.shortest_dist,
        swapped=swapped,
        stats=stats,
        window_a=wp.omega_u,
        window_b=wp.omega_w,
        normalized=opts.normalize == "zscore",
        band_radius=opts.band_radius,
    )


def brute_force_search(
    u: TimeSeries,
    w: TimeSeries,
    wp: WindowPair,
    options: SearchOptions | None = None,
    *,
    return_table=False,
):
    """Evaluate every placement; the oracle the pruned search must match.

    With return_table=True also returns the full placement-by-placement
    distance grid, oriented as (start in u) x (start in w).
    """
    opts = options or SearchOptions()
    clock = _Stages()
    su, sw, wu, ww, swapped = _prepare(u, w, wp, opts)
    clock.lap("normalize_ms")
    m = distance_matrix(su, sw)
    clock.lap("distance_ms")
    table = dtw_matrix_full(m.entries, wu, ww, radius=opts.band_radius)
    shortest = float(table.min())
    ii, jj = np.nonzero(table <= shortest + TIE_TOLERANCE)
    if swapped:
        solutions = frozenset(zip((jj + 1).tolist(), (ii + 1).tolist()))
        table = table.T
    else:
        solutions = frozenset(zip((ii + 1).tolist(), (jj + 1).tolist()))
    total = int(table.size)
    clock.lap("evaluate_ms")
    stats = SearchStats(
        pairs_total=total,
        pairs_after_prune=total,
        dtw_evaluations=total,
        dp_cells=total * window_cells(wu, ww, opts.band_radius),
        peak_grid_bytes=m.entries.nbytes + table.nbytes,
        **clock.fields(),
    )
    result = SearchResult(
        solutions=solutions,
        shortest_dist=shortest,
        swapped=swapped,
        stats=stats,
        window_a=wp.omega_u,
        window_b=wp.omega_w,
        normalized=opts.normalize == "zscore",
        band_radius=opts.band_radius,
    )
    if return_table:
        return result, table
    return result


def _kth_smallest(values: np.ndarray, k: int) -> float:
    return float(np.partition(values.ravel(), k - 1)[k - 1])


def _spread(ranked: np.ndarray, a: np.ndarray, b: np.ndarray, shape, exclusion: int, k: int) -> np.ndarray:
    """The first k of ``ranked`` farther than ``exclusion`` (Chebyshev) from every earlier pick.

    ``ranked`` indexes the 1-based starts ``a``, ``b``. Each pick blocks
    its square on a placement grid, so every test is one lookup.
    """
    blocked = np.zeros(shape, dtype=bool)
    picked = []
    for i, x, y in zip(ranked.tolist(), (a[ranked] - 1).tolist(), (b[ranked] - 1).tolist()):
        if blocked[x, y]:
            continue
        picked.append(i)
        if len(picked) == k:
            break
        blocked[max(0, x - exclusion) : x + exclusion + 1, max(0, y - exclusion) : y + exclusion + 1] = True
    return np.array(picked, dtype=np.int64)


def top_k_search(
    u: TimeSeries, w: TimeSeries, wp: WindowPair, k: int, options: SearchOptions | None = None
) -> TopKResult:
    """Exact k smallest windowed-DTW placements, ascending.

    Generalizes the single-optimum prune: a placement is discarded only
    when its lower bound exceeds the current k-th smallest verified
    distance, initialized with the k-th smallest upper bound. Ties are
    ordered lexicographically by (a, b). Asking for more matches than
    placements is not an error: the result is truncated and flagged.

    With exclusion > 0, matches within the given Chebyshev distance of an
    already-accepted match are suppressed; the evaluated prefix is grown
    until k survivors exist or placements run out.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidSpec(f"k must be a positive integer, got {k!r}")
    opts = options or SearchOptions()
    clock = _Stages()
    su, sw, wu, ww, swapped = _prepare(u, w, wp, opts)
    clock.lap("normalize_ms")
    m = distance_matrix(su, sw)
    clock.lap("distance_ms")
    bm = compute_bounds(m, wu, ww, radius=opts.band_radius)
    clock.lap("bounds_ms")
    total = int(bm.min_path.size)
    k_eff = min(int(k), total)

    # The first round ranks the k_eff best placements, which is the answer
    # without exclusion. Where exclusion leaves fewer picks, each later round
    # raises the distance threshold to the kk-th smallest upper bound and
    # ranks every placement at or below it; kk reaching every placement
    # makes the threshold the largest upper bound, which ranks them all.
    kk = need = k_eff
    d = None
    cells = 0
    while True:
        bound = _kth_smallest(bm.max_path, kk)
        cands = find_candidates(bm, threshold=bound)
        clock.lap("candidates_ms")
        d, kth, c = _evaluate(m.entries, wu, ww, cands, bm, need, bound, opts.band_radius, d)
        cells += c
        a, b = cands.a[: d.size], cands.b[: d.size]
        ra, rb = (b, a) if swapped else (a, b)
        # Every placement with distance <= kth was evaluated exactly, so
        # ranking this prefix is exact.
        ranked = np.flatnonzero(d <= kth + TIE_TOLERANCE)
        ranked = ranked[np.lexsort((rb[ranked], ra[ranked], d[ranked]))]
        chosen = _spread(ranked, a, b, bm.shape, opts.exclusion, k_eff)
        clock.lap("evaluate_ms")
        if chosen.size == k_eff or kk == total:
            break
        # Picks grow about linearly with the placements ranked until the grid
        # fills up; aim at the threshold that estimate needs, at least
        # doubling kk so that the rounds stay few.
        kk = min(total, max(2 * kk, kk * k_eff // max(chosen.size, 1)))
        need = total

    matches = tuple(
        RankedMatch(a=int(ra[i]), b=int(rb[i]), distance=float(d[i]), rank=r + 1)
        for r, i in enumerate(chosen.tolist())
    )
    clock.lap("evaluate_ms")
    top = int(chosen[0])  # the first ranked placement is always chosen
    stats = SearchStats(
        pairs_total=total,
        pairs_after_prune=len(cands),
        dtw_evaluations=d.size,
        dp_cells=cells,
        lb_tightness=_tightness(bm, int(a[top]), int(b[top]), float(d[top])),
        peak_grid_bytes=_grid_bytes(m.entries, bm),
        **clock.fields(),
    )
    return TopKResult(matches=matches, truncated=len(matches) < k, stats=stats)


def result_to_json_dict(result: SearchResult) -> dict:
    """The documented JSON form of a search result."""
    return {
        "shortest_dist": result.shortest_dist,
        "solutions": [{"a": a, "b": b} for a, b in result.sorted_solutions()],
        "swapped": result.swapped,
        "window_a": result.window_a,
        "window_b": result.window_b,
        "normalized": result.normalized,
        "band_radius": result.band_radius,
        "stats": {
            "pairs_total": result.stats.pairs_total,
            "pairs_after_prune": result.stats.pairs_after_prune,
            "dtw_evaluations": result.stats.dtw_evaluations,
            "dp_cells": result.stats.dp_cells,
            "lb_tightness": result.stats.lb_tightness,
            "peak_grid_bytes": result.stats.peak_grid_bytes,
            "runtime_ms": result.stats.runtime_ms,
            **{name: getattr(result.stats, name) for name in STAGE_FIELDS},
        },
    }


def topk_to_json_list(result: TopKResult) -> list:
    """The documented JSON form of a top-k ranking."""
    return [
        {"rank": m.rank, "a": m.a, "b": m.b, "distance": m.distance} for m in result.matches
    ]
