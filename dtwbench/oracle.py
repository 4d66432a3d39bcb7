"""The benchmark's own DTW, kept apart from the program it checks.

Nothing here imports ``dtwsearch``. The recurrence is the textbook one,

    D[0][0] = c(0, 0)
    D[p][q] = c(p, q) + min(D[p-1][q], D[p][q-1], D[p-1][q-1])

over the cells of one placement's window, where c is the Euclidean
distance between time steps. A cell outside the band, or one no path can
reach, holds no value at all (``None``), rather than an infinity that has
to be kept in step with the band's edges. The band is taken from its
definition: cell (p, q) of a wu x ww window lies in the band of radius r
when |q - p * (ww - 1) / max(wu - 1, 1)| <= r, tested in integers.

The recurrence runs vectorized over many placements at once: ``cost(p, q)``
returns the cell's cost for every placement of the batch.
"""
from __future__ import annotations

import numpy as np

# Two distances computed along different routes agree within this. The
# program and the oracle add the same cells in the same order, but they may
# take pointwise distances and z-scores by different formulas.
REL_TOL = 1e-9
ABS_TOL = 1e-9


def close(x: float, y: float) -> bool:
    return abs(x - y) <= ABS_TOL + REL_TOL * abs(y)


def zscore(x: np.ndarray) -> np.ndarray:
    """Per-dimension z-score over the whole series, population sd."""
    sd = x.std(axis=0)
    if np.any(sd == 0):
        raise ValueError("a dimension is constant; the benchmark's inputs never are")
    return (x - x.mean(axis=0)) / sd


def band_mask(wu: int, ww: int, radius: int | None) -> np.ndarray:
    """Boolean (wu, ww) grid of the cells a warping path may use."""
    if radius is None:
        return np.ones((wu, ww), dtype=bool)
    d = max(wu - 1, 1)
    p = np.arange(wu)[:, None]
    q = np.arange(ww)[None, :]
    return np.abs(q * d - p * (ww - 1)) <= radius * d


def recurrence(cost, wu: int, ww: int, mask: np.ndarray) -> np.ndarray:
    """DTW of every placement in a batch; cost(p, q) gives the batch's cell costs."""
    prev = [None] * ww
    for p in range(wu):
        cur = [None] * ww
        for q in range(ww):
            if not mask[p, q]:
                continue
            if p == 0 and q == 0:
                cur[q] = np.array(cost(0, 0), dtype=np.float64)
                continue
            reach = [
                x
                for x in (
                    prev[q] if p > 0 else None,
                    prev[q - 1] if p > 0 and q > 0 else None,
                    cur[q - 1] if q > 0 else None,
                )
                if x is not None
            ]
            if not reach:
                continue
            best = reach[0]
            for x in reach[1:]:
                best = np.minimum(best, x)
            cur[q] = best + cost(p, q)
        prev = cur
    if prev[ww - 1] is None:
        raise ValueError(f"the band of a ({wu},{ww}) window leaves no path between its corners")
    return prev[ww - 1]


def dtw_at(a: np.ndarray, b: np.ndarray, wu: int, ww: int, starts, radius=None, chunk=256):
    """DTW at each 0-based placement (i, j) in starts: a[i:i+wu] against b[j:j+ww]."""
    starts = np.asarray(starts, dtype=np.int64).reshape(-1, 2)
    mask = band_mask(wu, ww, radius)
    out = np.empty(len(starts))
    for lo in range(0, len(starts), chunk):
        part = starts[lo : lo + chunk]
        wa = a[part[:, 0, None] + np.arange(wu)]  # (batch, wu, dims)
        wb = b[part[:, 1, None] + np.arange(ww)]  # (batch, ww, dims)
        c = np.sqrt(((wa[:, :, None, :] - wb[:, None, :, :]) ** 2).sum(axis=3))
        out[lo : lo + len(part)] = recurrence(lambda p, q: c[:, p, q], wu, ww, mask)
    return out


def point_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """n x m Euclidean distances between the time steps of a and b."""
    sq = np.zeros((a.shape[0], b.shape[0]))
    for d in range(a.shape[1]):
        sq += (a[:, d, None] - b[None, :, d]) ** 2
    return np.sqrt(sq)


def dtw_table(a: np.ndarray, b: np.ndarray, wu: int, ww: int, radius=None, cells=2e5):
    """Brute force: the DTW of every placement, rows index a's start, columns b's."""
    dist = point_distances(a, b)
    pa, pb = a.shape[0] - wu + 1, b.shape[0] - ww + 1
    mask = band_mask(wu, ww, radius)
    block = max(1, int(cells // pb))
    out = np.empty((pa, pb))
    for i0 in range(0, pa, block):
        rows = min(block, pa - i0)
        out[i0 : i0 + rows] = recurrence(
            lambda p, q: dist[i0 + p : i0 + p + rows, q : q + pb], wu, ww, mask
        )
    return out
