"""Independent brute-force reference implementations used only by tests.

Everything here is a literal loop over definitions, deliberately sharing
no code with the package internals it checks.
"""
import math

import numpy as np

from dtwsearch import WarpingPath, WindowOrderViolated


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
    d = max(omega_u - 1, 1)

    def in_band(p, q):
        return radius is None or abs(q * d - p * (omega_w - 1)) <= radius * d

    inf = math.inf
    prev = [inf] * omega_w
    acc = 0.0
    for q in range(omega_w):
        if not in_band(0, q):
            break
        acc = acc + m[a0, b0 + q]
        prev[q] = acc
    for p in range(1, omega_u):
        cur = [inf] * omega_w
        for q in range(omega_w):
            if in_band(p, q):
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
