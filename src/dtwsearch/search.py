"""Pruned top-k search for the most similar subsequence pairs, and brute force.

The pruned search builds the lower-bound grid only. It first runs exact
DTW on a seed, max(16, 4k) placements with small lower bounds taken a few
from each row, as the UCR suite seeds its best-so-far (Rakthanmanon et
al., KDD 2012). The filter keeps every placement whose lower bound does
not exceed the larger of the seed's k-th distance and its largest lower
bound, so every seed is a candidate. The walk then takes the other
candidates once in start order and skips each whose lower bound exceeds
the threshold, the k-th best distance found. The threshold never falls
below the final k-th distance and the lower bound never overshoots the
true distance, so every placement among the k best is evaluated exactly
and the ranking provably equals the brute-force one. The single optimum
is the case k=1: its tie set is every evaluated placement within the tie
tolerance of the smallest distance, again equal to brute force's. (The
paper prunes by the minimum of an upper-bound grid instead; the answers
are the same.)

The walk feeds the batch kernel fixed chunks, each in start order, and
lowers the threshold after each. The kernel skips a DP cell when, for
every placement in its group, the cell's value plus the pool minima of
the rows below exceeds the threshold, and returns +inf for a distance
above it. That sum is a lower bound on the cost of any path through the
cell, so a placement that can be among the k best is computed exactly.
Every threshold comparison is padded by ``prune_limit``: the tie
tolerance plus a share of the threshold's magnitude, since a bound and
its distance round differently once the sums grow large. So a placement
tied with the k-th best is never pruned, skipped or abandoned, at any
scale of the input.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    TIE_TOLERANCE,
    InvalidSpec,
    SearchResult,
    SearchStats,
    TimeSeries,
    WindowPair,
    is_integer,
    prune_limit,
    validate_query,
)
from .bounds import BoundMatrices, compute_bounds
from .dtw import dtw_batch, dtw_matrix_full, window_cells
from .metrics import distance_matrix, z_normalize

# The seed is max(_SEED_MIN, _SEED_PER_K * k) placements with small lower
# bounds; 4 per k computed the fewest DP cells on six k=1000 searches (see CHANGES.md).
_SEED_MIN, _SEED_PER_K = 16, 4
_CHUNK = 4096  # candidates per step of the start-order walk


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
        if self.band_radius is not None and (not is_integer(self.band_radius) or self.band_radius < 1):
            raise InvalidSpec(f"band_radius must be None or an integer >= 1, got {self.band_radius!r}")
        if not is_integer(self.exclusion) or self.exclusion < 0:
            raise InvalidSpec(f"exclusion must be an integer >= 0, got {self.exclusion!r}")
        if self.band_radius is not None:
            object.__setattr__(self, "band_radius", int(self.band_radius))
        object.__setattr__(self, "exclusion", int(self.exclusion))


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
    """Placements surviving the bound prune, in start order: (a, b) strictly increasing.

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


def find_candidates(bm: BoundMatrices, *, threshold: float) -> Candidates:
    """Placements whose lower bound does not exceed the prune threshold, in start order.

    The comparison is padded by ``prune_limit`` so summation rounding can
    never drop a placement tied at the threshold, whatever the magnitude of
    the distances.
    """
    flat = bm.min_path.ravel()
    idx = np.flatnonzero(flat <= prune_limit(threshold))  # row-major: ascending (a, b)
    lower = flat[idx]
    a, b = np.divmod(idx, bm.shape[1], out=(idx, np.empty_like(idx)))  # a reuses idx's memory
    a += 1
    b += 1
    return Candidates(a=a, b=b, lower_bounds=lower)


def _seed(lower: np.ndarray, count: int) -> np.ndarray:
    """Flat indices, ascending, of the ``count`` smallest of each row's q = ceil(count / rows) smallest lower bounds.

    Every placement if there are no more. At q = 1 that is one argmin pass,
    1.1 ms against 14.8 ms for a partition of a whole 1821x1881 grid (2-core Xeon VM).
    """
    rows, cols = lower.shape
    if count >= lower.size:
        return np.arange(lower.size)
    q = -(-count // rows)
    if q == 1:
        col = lower.argmin(axis=1)[:, None]
    else:
        # A few rows at a time, so that no index array of the whole grid is made.
        step = max(1, _CHUNK // cols)
        col = np.concatenate([np.argpartition(lower[r : r + step], q - 1, axis=1)[:, :q] for r in range(0, rows, step)])
    flat = (col + np.arange(0, lower.size, cols)[:, None]).ravel()
    if flat.size > count:
        flat = flat[np.argpartition(lower.ravel()[flat], count - 1)[:count]]
    return np.sort(flat)


def _evaluate(m, omega_u, omega_w, cands: Candidates, bm: BoundMatrices, k, bound, radius, d=None):
    """Exact DTW of the candidates that can rank, under a falling threshold.

    The threshold is the smaller of ``bound`` and the k-th smallest
    distance found so far. The walk takes the candidates in start order,
    ``_CHUNK`` at a time, skips each whose lower bound exceeds the
    threshold, and lowers it after each chunk. Returns (d, kth, dp_cells):
    d[i] is candidate i's distance, +inf where abandoned above the
    threshold it ran under, nan where skipped; kth is the k-th smallest
    distance found, or the threshold while fewer than k are found within
    its pad.

    ``d`` carries distances found before (the seed's, or an earlier
    round's), aligned with these candidates (nan where not evaluated); a
    carried +inf runs again when the threshold admits its lower bound.
    """
    lbs = cands.lower_bounds
    d = np.full(lbs.size, np.nan) if d is None else np.where(np.isinf(d), np.nan, d)
    thr, top, cells = bound, np.empty(0), 0

    def lower(found):
        # top holds the k smallest distances within the padded threshold (or
        # all of them while fewer). The k-th of them lowers the threshold, but
        # may sit above it, within the pad the kernel ran under.
        nonlocal thr, top
        top = np.concatenate((top, found[found <= prune_limit(thr)]))
        if top.size >= k:
            top = np.partition(top, k - 1)[:k]
            thr = min(thr, float(top[-1]))

    lower(d)
    for pos in range(0, lbs.size, _CHUNK):
        part = slice(pos, pos + _CHUNK)
        # Not yet evaluated, and the threshold admits the lower bound. idx
        # ascends, so neighbouring placements share a lane group and their
        # live columns, and the kernel trims more of each row.
        idx = pos + np.flatnonzero(np.isnan(d[part]) & (lbs[part] <= prune_limit(thr)))
        if idx.size:
            a0, b0, limit = cands.a[idx] - 1, cands.b[idx] - 1, prune_limit(thr)
            d[idx], c = dtw_batch(m, omega_u, omega_w, a0, b0, radius=radius, threshold=limit, pool=bm.min_pool)
            cells += c
            lower(d[idx])
    return d, (float(top[-1]) if top.size >= k else thr), cells


def _spread(ranked: np.ndarray, a: np.ndarray, b: np.ndarray, shape, exclusion: int, k: int) -> np.ndarray:
    """The first k of ``ranked`` farther than ``exclusion`` (Chebyshev) from every earlier pick.

    ``ranked`` indexes the 1-based starts ``a``, ``b``. Each pick blocks
    its square on a placement grid, so every test is one lookup. Without
    exclusion nothing is blocked, so the picks are the first k.
    """
    if exclusion == 0:
        return ranked[:k]
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


def _start(u: TimeSeries, w: TimeSeries, wp: WindowPair, opts: SearchOptions):
    """Every search's prologue: validate, normalize, swap so that wu >= ww, distance matrix.

    Returns (clock, m, wu, ww, swapped), with the clock charged for the
    normalize and distance stages.
    """
    clock = _Stages()
    validate_query(u, w, wp)
    if opts.normalize == "zscore":
        u = z_normalize(u)
        w = z_normalize(w)
    wu, ww = wp.omega_u, wp.omega_w
    swapped = ww > wu
    if swapped:
        u, w, wu, ww = w, u, ww, wu
    clock.lap("normalize_ms")
    m = distance_matrix(u, w)
    clock.lap("distance_ms")
    return clock, m, wu, ww, swapped


@dataclass
class _Ranking:
    """What one pruned search found.

    ``d`` holds the distances of the last round's candidates (+inf where
    abandoned, nan where never evaluated), ``a`` and ``b`` their internal
    1-based starts, ``ra`` and ``rb`` the same starts in the caller's
    orientation, and ``chosen`` the indices into ``d`` of the ranked picks.
    """

    clock: _Stages
    m: np.ndarray
    bm: BoundMatrices
    pairs_after_prune: int
    d: np.ndarray
    a: np.ndarray
    b: np.ndarray
    ra: np.ndarray
    rb: np.ndarray
    swapped: bool
    chosen: np.ndarray
    dp_cells: int

    def stats(self, top: int, distance: float) -> SearchStats:
        """Close the evaluate stage; lb_tightness is the lower bound at candidate ``top`` over ``distance``."""
        self.clock.lap("evaluate_ms")
        lower = float(self.bm.min_path[self.a[top] - 1, self.b[top] - 1])
        return SearchStats(
            pairs_total=int(self.bm.min_path.size),
            pairs_after_prune=self.pairs_after_prune,
            dtw_evaluations=self.d.size - int(np.count_nonzero(np.isnan(self.d))),
            dp_cells=self.dp_cells,
            lb_tightness=lower / distance if distance > 0 else 1.0,
            peak_grid_bytes=sum(g.nbytes for g in (self.m, self.bm.min_pool, self.bm.min_path)),
            **self.clock.fields(),
        )


def _rank(u: TimeSeries, w: TimeSeries, wp: WindowPair, k: int, opts: SearchOptions) -> _Ranking:
    """The pruned search: the k best placements (fewer if fewer exist), ranked and spread by exclusion."""
    clock, m, wu, ww, swapped = _start(u, w, wp, opts)
    bm = compute_bounds(m, wu, ww)
    clock.lap("bounds_ms")
    total, cols = int(bm.min_path.size), bm.shape[1]
    k = min(k, total)

    # The first threshold is the larger of the seed's k-th distance and its
    # largest lower bound, so every seed is a candidate. The first round
    # ranks the k best placements, the answer without exclusion. Where
    # exclusion leaves fewer picks, each later round raises the threshold
    # to the kk-th smallest lower bound (+inf once kk is every placement)
    # and ranks every placement at or below it: a distance there puts its
    # lower bound there too. Each round's candidates contain the previous
    # round's (the seed's first), in start order, so distances carry over
    # by flat index.
    flat = _seed(bm.min_path, max(_SEED_MIN, _SEED_PER_K * k))
    d, cells = dtw_batch(m.entries, wu, ww, flat // cols, flat % cols, radius=opts.band_radius)
    bound = max(float(np.partition(d, k - 1)[k - 1]), float(bm.min_path.ravel()[flat].max()))
    clock.lap("evaluate_ms")
    kk = need = k
    while True:
        cands = find_candidates(bm, threshold=bound)
        clock.lap("candidates_ms")
        a, b = cands.a, cands.b
        carried = np.full(len(cands), np.nan)
        carried[np.searchsorted((a - 1) * cols + b - 1, flat)] = d
        d, kth, c = _evaluate(m.entries, wu, ww, cands, bm, need, bound, opts.band_radius, carried)
        cells += c
        ra, rb = (b, a) if swapped else (a, b)
        # Every placement with distance <= kth was evaluated exactly, so
        # this ranking is exact.
        ranked = np.flatnonzero(d <= kth + TIE_TOLERANCE)
        ranked = ranked[np.lexsort((rb[ranked], ra[ranked], d[ranked]))]
        chosen = _spread(ranked, a, b, bm.shape, opts.exclusion, k)
        clock.lap("evaluate_ms")
        if chosen.size == k or kk == total:
            break
        # Picks grow about linearly with the placements ranked until the grid
        # fills up; aim at the threshold that estimate needs, at least
        # doubling kk so that the rounds stay few.
        kk = min(total, max(2 * kk, kk * k // max(chosen.size, 1)))
        need, flat = total, (a - 1) * cols + b - 1
        bound = np.inf if kk == total else max(bound, float(np.partition(bm.min_path.ravel(), kk - 1)[kk - 1]))
    return _Ranking(clock, m.entries, bm, len(cands), d, a, b, ra, rb, swapped, chosen, cells)


def _result(wp: WindowPair, opts: SearchOptions, solutions, shortest: float, swapped: bool, stats) -> SearchResult:
    """A SearchResult in the caller's terms: their windows, normalization and band."""
    return SearchResult(
        solutions=solutions,
        shortest_dist=shortest,
        swapped=swapped,
        stats=stats,
        window_a=wp.omega_u,
        window_b=wp.omega_w,
        normalized=opts.normalize == "zscore",
        band_radius=opts.band_radius,
    )


def infer_most_similar(
    u: TimeSeries, w: TimeSeries, wp: WindowPair, options: SearchOptions | None = None
) -> SearchResult:
    """Find every placement pair attaining the minimum windowed DTW.

    The pruned search at k=1; the solutions are every evaluated placement
    within the tie tolerance of the smallest distance, reported in the
    caller's orientation even when the series were swapped internally.
    """
    opts = options or SearchOptions()
    run = _rank(u, w, wp, 1, opts)
    shortest = float(run.d[run.chosen[0]])
    tied = np.flatnonzero(run.d <= shortest + TIE_TOLERANCE)
    solutions = frozenset(zip(run.ra[tied].tolist(), run.rb[tied].tolist()))
    first = int(tied[np.lexsort((run.b[tied], run.a[tied]))[0]])  # the smallest tied internal pair
    return _result(wp, opts, solutions, shortest, run.swapped, run.stats(first, shortest))


def brute_force_search(
    u: TimeSeries, w: TimeSeries, wp: WindowPair, options: SearchOptions | None = None
) -> SearchResult:
    """Evaluate every placement; the oracle the pruned search must match.

    It computes ``dtw_matrix_full`` in the search's own orientation (the
    series swapped when omega_w > omega_u) and reports every placement
    within the tie tolerance of its minimum, in the caller's orientation.
    """
    opts = options or SearchOptions()
    clock, m, wu, ww, swapped = _start(u, w, wp, opts)
    table = dtw_matrix_full(m.entries, wu, ww, radius=opts.band_radius)
    shortest = float(table.min())
    ii, jj = np.nonzero(table <= shortest + TIE_TOLERANCE)
    if swapped:
        ii, jj = jj, ii
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
    return _result(wp, opts, solutions, shortest, swapped, stats)


def top_k_search(
    u: TimeSeries, w: TimeSeries, wp: WindowPair, k: int, options: SearchOptions | None = None
) -> TopKResult:
    """Exact k smallest windowed-DTW placements, ascending.

    A placement is discarded only when its lower bound exceeds the current
    k-th smallest verified distance, initialized from the seed's exact
    distances. Ties are ordered lexicographically by (a, b). Asking for
    more matches than placements is not an error: the result is truncated
    and flagged.

    With exclusion > 0, matches within the given Chebyshev distance of an
    already-accepted match are suppressed; the ranked placements grow by
    rounds until k survivors exist or placements run out.
    """
    if not is_integer(k) or k < 1:
        raise InvalidSpec(f"k must be a positive integer, got {k!r}")
    run = _rank(u, w, wp, int(k), options or SearchOptions())
    picks = run.chosen
    columns = (run.ra[picks].tolist(), run.rb[picks].tolist(), run.d[picks].tolist(), range(1, picks.size + 1))
    matches = tuple(map(RankedMatch, *columns))
    top = int(picks[0])  # the first ranked placement is always chosen
    return TopKResult(matches=matches, truncated=len(matches) < k, stats=run.stats(top, float(run.d[top])))


def result_to_json_dict(result: SearchResult) -> dict:
    """The documented JSON form of a search result: its fields, with the solutions as sorted {a, b} objects."""
    return {**asdict(result), "solutions": [{"a": a, "b": b} for a, b in result.sorted_solutions()]}


def topk_to_json_list(result: TopKResult) -> list:
    """The documented JSON form of a top-k ranking: one object of RankedMatch's fields per match."""
    return [asdict(m) for m in result.matches]
