"""Independent reference implementations used only by tests.

Most are literal loops over definitions. The blocked numpy versions of
the distance matrix, the min-pool and the window sums are the references
the compiled grids must equal bitwise: each adds the same terms in the
same order. Nothing here shares code with the package internals it checks.
"""
import math

import numpy as np

from dtwsearch import DimensionMismatch, NonFiniteValue, WarpingPath, WindowOrderViolated


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


def naive_distance_matrix(u_vals, w_vals):
    u = np.atleast_2d(np.asarray(u_vals, dtype=float))
    w = np.atleast_2d(np.asarray(w_vals, dtype=float))
    if u.shape[0] == 1 and u.shape[1] > 1 and np.asarray(u_vals).ndim == 1:
        u = u.T
    if w.shape[0] == 1 and w.shape[1] > 1 and np.asarray(w_vals).ndim == 1:
        w = w.T
    out = np.empty((u.shape[0], w.shape[0]))
    for i in range(u.shape[0]):
        for j in range(w.shape[0]):
            out[i, j] = math.sqrt(sum((a - b) ** 2 for a, b in zip(u[i], w[j])))
    return out


def blocked_distance_matrix(u_vals, w_vals):
    """The numpy distance matrix the compiled one must equal bitwise.

    In blocks of 16 rows: squares of u_ik - w_jk summed in dimension order
    from 0.0, then one square root, each a separately rounded numpy step.
    """
    u = np.asarray(u_vals, dtype=np.float64)
    cols = np.ascontiguousarray(np.asarray(w_vals, dtype=np.float64).T)
    entries = np.empty((u.shape[0], cols.shape[1]))
    for lo in range(0, u.shape[0], 16):
        rows = entries[lo : lo + 16]
        rows.fill(0.0)
        for k in range(u.shape[1]):
            diff = u[lo : lo + 16, k, None] - cols[k]
            rows += np.square(diff, out=diff)
        np.sqrt(rows, out=rows)
    return entries


def doubling_min_pool(m, omega_w):
    """The numpy min-pool the compiled one must equal bitwise.

    Doubling window widths up to the largest power of two p <= omega_w,
    then two overlapping p-windows offset by omega_w - p.
    """
    arr = np.asarray(m, dtype=np.float64)
    keep = arr.shape[1] - omega_w + 1
    rows, width = arr, 1
    while 2 * width <= omega_w:
        rows = np.minimum(rows[:, :-width], rows[:, width:])
        width *= 2
    return np.minimum(rows[:, :keep], rows[:, omega_w - width :])


def block_window_sums(out, g, length, step):
    """The numpy window sums the compiled ones must equal bitwise.

    out[i, j] += sum(g[i + t, j + step*t] for t < length). In blocks of
    `length` rows, the window from row r is the suffix running sum of its
    block from r plus the prefix running sum of the next block's first r
    rows (van Herk 1992; Gil & Werman 1993): out = (out + suffix) + prefix.
    """
    rows, cols = out.shape
    width = cols + step * (length - 1)
    suffix, prefix = np.zeros((2, length, width))
    g_head, suf_head, suf_tail = g[:, : width - step], suffix[:, : width - step], suffix[:, step:]
    g_tail, pre_head, pre_tail = g[:, step:width], prefix[:, : width - step], prefix[:, step:]
    for lo in range(0, rows, length):
        n, nxt = min(length, rows - lo), lo + length
        suffix[-1] = g[nxt - 1, :width]
        for r in range(length - 2, -1, -1):
            np.add(g_head[lo + r], suf_tail[r + 1], out=suf_head[r])
        out[lo : lo + n] += suffix[:n, :cols]
        if n > 1:
            prefix[0] = g[nxt, :width]
            for s in range(1, n - 1):
                np.add(pre_head[s - 1], g_tail[nxt + s], out=pre_tail[s])
            out[lo + 1 : lo + n] += prefix[: n - 1, width - cols :]


def block_path_sums(g, path, shape):
    """out[i, j] = sum of g[i + p, j + path[p]] over p, from zeros, by block_window_sums per straight segment.

    A segment is a maximal run of rows entered by the same column step, the
    first row by a step of 1, as upper_bound_matrix splits its path: this is
    the numpy upper bound the compiled one must equal bitwise.
    """
    g = np.asarray(g, dtype=np.float64)
    steps = [1] + [q - p for p, q in zip(path, path[1:])]
    out = np.zeros(shape)
    p = 0
    while p < len(path):
        end = p + 1
        while end < len(path) and steps[end] == steps[p]:
            end += 1
        block_window_sums(out, g[p:, path[p] :], end - p, steps[p])
        p = end
    return out


def coarse_lower_bound(m, omega_u, omega_w, width=32):
    """The numpy coarse lower bound the compiled one must equal bitwise.

    Each row's minimum over the distance columns that a window starting in
    each block of ``width`` placement columns reaches, summed over omega_u
    rows by block_window_sums, as the exact lower bound sums the min-pool.
    """
    m = np.asarray(m, dtype=np.float64)
    n, cols = m.shape
    starts = range(0, cols - omega_w + 1, width)
    spans = np.stack([m[:, s : min(s + width + omega_w - 1, cols)].min(axis=1) for s in starts], axis=1)
    out = np.zeros((n - omega_u + 1, spans.shape[1]))
    block_window_sums(out, spans, omega_u, 0)
    return out


def naive_min_pool(m, omega_w):
    m = np.asarray(m, dtype=float)
    n, cols = m.shape
    out = np.empty((n, cols - omega_w + 1))
    for i in range(n):
        for j in range(cols - omega_w + 1):
            out[i, j] = min(m[i, j : j + omega_w])
    return out


def naive_lower_bound(pool, omega_u):
    pool = np.asarray(pool, dtype=float)
    n, cols = pool.shape
    out = np.empty((n - omega_u + 1, cols))
    for i in range(n - omega_u + 1):
        for j in range(cols):
            acc = 0.0
            for k in range(i, i + omega_u):
                acc += pool[k, j]
            out[i, j] = acc
    return out


def naive_upper_bound(m, omega_u, omega_w):
    m = np.asarray(m, dtype=float)
    n, cols = m.shape
    out = np.empty((n - omega_u + 1, cols - omega_w + 1))
    for i in range(n - omega_u + 1):
        for j in range(cols - omega_w + 1):
            acc = 0.0
            for k in range(omega_w - 1):
                acc += m[i + k, j + k]
            for k in range(omega_w - 1, omega_u):
                acc += m[i + k, j + omega_w - 1]
            out[i, j] = acc
    return out


def whole_grid_candidates(lower, limit):
    """(a, b, lower bounds) of every placement whose lower bound is at most limit, 1-based, in start order.

    One mask over the whole grid: the reference for ``find_candidates``,
    which scans only the rows whose minimum is within the limit.
    """
    flat = np.asarray(lower, dtype=np.float64).ravel()
    idx = np.flatnonzero(flat <= limit)
    a, b = np.divmod(idx, lower.shape[1])
    return a + 1, b + 1, flat[idx]


def argmin_seed(lower, count):
    """Flat indices, ascending, of the search's seed at one placement per row (q = 1).

    Each row's first smallest lower bound by one argmin over the whole
    grid, then the ``count`` smallest of those, the lower row first among
    ties, by one stable sort: the reference for ``search._seed``, which
    reads only the chosen rows.
    """
    rows, cols = lower.shape
    assert count <= rows, "q = 1 needs at least one row per seed"
    flat = lower.argmin(axis=1) + np.arange(0, lower.size, cols)
    return np.sort(flat[np.argsort(lower.ravel()[flat], kind="stable")[:count]])


def fsum_path_sums(g, path, shape):
    """out[i, j] = the correctly rounded sum (math.fsum) of g[i + p, j + path[p]] over p."""
    g = np.asarray(g, dtype=float)
    cells = np.stack([g[p : p + shape[0], q : q + shape[1]] for p, q in enumerate(path)])
    out = np.empty(shape)
    for i in range(shape[0]):
        for j in range(shape[1]):
            out[i, j] = math.fsum(cells[:, i, j])
    return out


def in_band(p, q, omega_u, omega_w, radius):
    """Whether 0-based window cell (p, q) lies in the band of the given radius (None: no band).

    The band is |q - p * (omega_w-1)/max(omega_u-1, 1)| <= radius, tested
    with integers.
    """
    d = max(omega_u - 1, 1)
    return radius is None or abs(q * d - p * (omega_w - 1)) <= radius * d


def naive_dtw(m, omega_u, omega_w, start, radius=None):
    """Windowed DTW at one 1-based placement by the rolling-row recurrence.

    Row 0 is a running sum; every later cell is the minimum of its three
    predecessors plus its cost, in the same addition order as the package
    kernel, so the two agree bitwise. With a radius, only cells with
    |q - p * (omega_w-1)/max(omega_u-1, 1)| <= radius (0-based window
    coordinates) are reachable; the result is +inf when no path survives.
    """
    m = np.asarray(m, dtype=float)
    a0, b0 = start[0] - 1, start[1] - 1
    inf = math.inf
    prev = [inf] * omega_w
    acc = 0.0
    for q in range(omega_w):
        if not in_band(0, q, omega_u, omega_w, radius):
            break
        acc = acc + m[a0, b0 + q]
        prev[q] = acc
    for p in range(1, omega_u):
        cur = [inf] * omega_w
        for q in range(omega_w):
            if in_band(p, q, omega_u, omega_w, radius):
                best = prev[q]
                if q > 0:
                    best = min(best, prev[q - 1], cur[q - 1])
                cur[q] = best + m[a0 + p, b0 + q]
        prev = cur
    return prev[omega_w - 1]


def fixed_upper_path(a, b, omega_u, omega_w):
    """The diagonal-then-last-column warping path the upper bound prices.

    1-based absolute steps for the placement starting at (a, b).
    """
    if omega_u < omega_w:
        raise WindowOrderViolated(f"path requires omega_u >= omega_w, got ({omega_u}, {omega_w})")
    return WarpingPath(steps=tuple((a + p, b + min(p, omega_w - 1)) for p in range(omega_u)))
