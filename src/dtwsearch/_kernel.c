/* The package's compiled library: windowed DTW at many placements, LANES
 * of them in lockstep, and the search's grids (the distance matrix, the
 * span minima of the coarse bound, the min-pool and the window sums of
 * the bound grids).
 *
 * _native.py compiles this file on first use; dtw.py, metrics.py and
 * bounds.py call it through ctypes, after checking every index, shape and
 * stride they pass. Build without -ffast-math, which would change how
 * infinities and minima behave, and with -ffp-contract=off, so that every
 * product and sum rounds on its own, as in numpy: each grid equals the
 * numpy one the tests keep (tests/oracles.py) bitwise.
 *
 * DTW: a group of LANES placements runs the recurrence row by row over
 * each window row's column range [lo[i], hi[i]]; every DP cell is one loop
 * over the lanes, which the compiler turns into vector instructions. A
 * cell is the minimum of its three predecessors plus its cost: one minimum
 * and one rounding, so its value does not depend on the lane or group it
 * runs in, and equals the pure-Python recurrence bitwise.
 *
 * Given a threshold, each row is trimmed to its live columns: those where
 * some lane's value, plus a lower bound on the rest of its path, is at
 * most the threshold. A cell on a path that costs at most the threshold
 * is live, and so is the predecessor its minimum comes from, so such cells
 * are computed bitwise as without a threshold. Live columns are found by
 * scanning in from both ends of a finished row: a check in the cell loop
 * cut as many cells but ran the kernel slower.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define LANES 8

const int dtw_lanes = LANES;

static inline double min2(double a, double b) { return a < b ? a : b; }

/* Column j of a DP row in every lane: v = min(up, diag, left) + cost, the
 * cost of lane l being m[off[l] + j]. Read through offsets, not per-lane
 * row pointers, the costs need one advancing index in the compiled loop,
 * not eight. */
static inline void cells(double *restrict v, const double *restrict up, const double *restrict diag,
                         const double *restrict left, const double *m, const int64_t *off, int64_t j)
{
    for (int l = 0; l < LANES; l++)
        v[l] = min2(min2(up[l], diag[l]), left[l]) + m[off[l] + j];
}

/* Whether some lane's value v plus its rest is at most threshold. */
static inline int live(const double *v, const double *rest, double threshold)
{
    int any = 0;
    for (int l = 0; l < LANES; l++)
        any |= v[l] + rest[l] <= threshold;
    return any;
}

/* DTW of the omega_u x omega_w window at each 0-based start (a0[p], b0[p])
 * of the row-major matrix m with cols columns, written to out[p]. Row i
 * holds columns lo[i] .. hi[i]; cells outside them are +inf.
 *
 * With a pool (the min-pool grid, pcols columns), rest[i] is the sum of the
 * pool minima of rows i+1 .. omega_u-1: every warping path visits every
 * row, so a cell whose value plus rest[i] exceeds threshold in every lane
 * is on no path under it. The next row starts at the first live column of
 * a row and runs to one past its last, then on while its own newest cell
 * is live; a row with no live column abandons the group. A distance above
 * threshold is written as +inf, and every finite value is exact.
 *
 * work holds (2 * (omega_w + 1) + omega_u) * LANES doubles. Returns the
 * number of DP cells computed for real lanes, not the padding lanes of a
 * partial last group.
 */
int64_t dtw_lockstep(const double *m, int64_t cols, int64_t omega_u, int64_t omega_w,
                     const int64_t *lo, const int64_t *hi, const int64_t *a0, const int64_t *b0,
                     int64_t count, const double *pool, int64_t pcols, double threshold,
                     double *work, double *out)
{
    /* Two row buffers: slot j + 1 holds column j, one double per lane, and
     * slot 0 stands for column -1. */
    const int64_t slots = (omega_w + 1) * LANES;
    double *prev = work, *cur = work + slots, *rest = work + 2 * slots;
    int64_t total = 0;
    for (int64_t g = 0; g < count; g += LANES) {
        const int real = count - g < LANES ? (int)(count - g) : LANES;
        int64_t a[LANES], b[LANES];
        for (int l = 0; l < LANES; l++) {
            /* Padding lanes repeat the group's first placement. */
            const int64_t p = g + (l < real ? l : 0);
            a[l] = a0[p];
            b[l] = b0[p];
        }
        for (int64_t s = 0; s < slots; s++)
            prev[s] = cur[s] = INFINITY;
        /* A zero above-left of cell (0, 0) makes that cell its own cost. */
        for (int l = 0; l < LANES; l++)
            prev[l] = 0.0;
        if (pool) {
            for (int l = 0; l < LANES; l++)
                rest[(omega_u - 1) * LANES + l] = 0.0;
            for (int64_t i = omega_u - 2; i >= 0; i--)
                for (int l = 0; l < LANES; l++)
                    rest[i * LANES + l] = rest[(i + 1) * LANES + l] + pool[(a[l] + i + 1) * pcols + b[l]];
        }
        /* from .. to are the live columns of the row above: for row 0 the
         * zero at column -1, and with no pool every column. above and twoup
         * are the last columns written in the rows above and two up; past
         * them each buffer holds +inf. */
        int64_t from = -1, to = pool ? -1 : omega_w, above = -1, twoup = -1;
        int alive = 1;
        for (int64_t i = 0; alive && i < omega_u; i++) {
            const int64_t first = from > lo[i] ? from : lo[i];
            int64_t end = to < hi[i] ? to + 1 : hi[i];
            if (first > end) { /* a band row starting past the live columns above */
                alive = 0;
                break;
            }
            int64_t off[LANES];
            for (int l = 0; l < LANES; l++)
                off[l] = (a[l] + i) * cols + b[l];
            /* Column first - 1 is left of this row and above-left of the
             * next; it may hold a value from two rows up. */
            for (int l = 0; l < LANES; l++)
                cur[first * LANES + l] = INFINITY;
            for (int64_t j = first; j <= end; j++)
                cells(cur + (j + 1) * LANES, prev + (j + 1) * LANES, prev + j * LANES, cur + j * LANES, m, off, j);
            if (pool) {
                const double *r = rest + i * LANES;
                /* Past the row above's live columns only the left neighbour
                 * can feed a live cell. */
                for (; end < hi[i] && live(cur + (end + 1) * LANES, r, threshold); end++)
                    cells(cur + (end + 2) * LANES, prev + (end + 2) * LANES, prev + (end + 1) * LANES,
                          cur + (end + 1) * LANES, m, off, end + 1);
                /* Clear what two rows up left past this row's end. */
                for (int64_t s = (end + 2) * LANES; s < (twoup + 2) * LANES; s++)
                    cur[s] = INFINITY;
                if (i + 1 < omega_u) {
                    for (from = first; from <= end && !live(cur + (from + 1) * LANES, r, threshold); from++)
                        ;
                    for (to = end; to >= from && !live(cur + (to + 1) * LANES, r, threshold); to--)
                        ;
                    alive = from <= to;
                }
            }
            total += real * (end - first + 1);
            double *t = prev;
            prev = cur;
            cur = t;
            twoup = above;
            above = end;
        }
        for (int l = 0; l < real; l++) {
            const double v = prev[omega_w * LANES + l];
            out[g + l] = alive && v <= threshold ? v : INFINITY;
        }
    }
    return total;
}

/* out[i, j] = dist(u_i, w_j) for the n x dims row-major u and wt, w
 * transposed (dims x m, row-major): the squares of u_ik - w_jk summed in
 * dimension order from 0.0, then one square root, as numpy does it one
 * operation at a time. One sweep: 8 columns at a time, their sums held in
 * registers. Build with -ffp-contract=off, so that no target fuses
 * d * d + acc into one rounding. Unless groupmin is NULL,
 * groupmin[i * ceil(m / 8) + g] becomes the minimum of out[i, 8g .. 8g + 7]
 * (of the columns there are, in a last short group). */
void distance_rows(const double *u, int64_t n, const double *wt, int64_t m, int64_t dims, double *out,
                   double *groupmin)
{
    const int64_t groups = (m + 7) / 8;
    for (int64_t i = 0; i < n; i++) {
        const double *x = u + i * dims;
        double *restrict row = out + i * m;
        double *g = groupmin ? groupmin + i * groups : NULL;
        int64_t j = 0;
        for (; j + 8 <= m; j += 8) {
            double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
            for (int64_t k = 0; k < dims; k++) {
                const double *restrict c = wt + k * m + j;
                for (int l = 0; l < 8; l++) {
                    const double d = x[k] - c[l];
                    acc[l] = acc[l] + d * d;
                }
            }
            for (int l = 0; l < 8; l++)
                row[j + l] = sqrt(acc[l]);
            if (g) {
                double v = row[j];
                for (int l = 1; l < 8; l++)
                    v = min2(v, row[j + l]);
                g[j / 8] = v;
            }
        }
        for (double v = INFINITY; j < m; j++) {
            double acc = 0.0;
            for (int64_t k = 0; k < dims; k++) {
                const double d = x[k] - wt[k * m + j];
                acc = acc + d * d;
            }
            row[j] = sqrt(acc);
            v = min2(v, row[j]);
            if (g && j == m - 1)
                g[j / 8] = v;
        }
    }
}

/* out[i, c] = min(m[i, width * c .. e - 1]), e = min(width * (c + 1) +
 * omega_w - 1, cols): every distance column that a window of omega_w
 * columns starting in placement columns width * c .. width * (c + 1) - 1
 * reaches, for the n x cols row-major m; out has ceil((cols - omega_w + 1)
 * / width) columns. Unless groupmin is NULL it holds the minima of each
 * row's groups of 8 columns (distance_rows), which stand for the whole
 * groups a span covers; width is a multiple of 8. A minimum rounds nothing,
 * so either way gives the same value. */
void span_minima(const double *m, const double *groupmin, int64_t n, int64_t cols, int64_t omega_w, int64_t width,
                 double *out)
{
    const int64_t groups = (cols + 7) / 8, blocks = (cols - omega_w + width) / width;
    for (int64_t i = 0; i < n; i++) {
        const double *x = m + i * cols, *g = groupmin ? groupmin + i * groups : NULL;
        for (int64_t c = 0; c < blocks; c++) {
            const int64_t e = width * (c + 1) + omega_w - 1 < cols ? width * (c + 1) + omega_w - 1 : cols;
            double v = INFINITY;
            int64_t j = width * c;
            if (g) {
                for (int64_t q = j / 8; q < e / 8; q++)
                    v = min2(v, g[q]);
                j = e / 8 * 8;
            }
            for (; j < e; j++)
                v = min2(v, x[j]);
            out[i * blocks + c] = v;
        }
    }
}

/* out[i, j] = min(m[i, j .. j + omega - 1]) for the n x cols row-major m,
 * out having cols - omega + 1 columns (van Herk 1992; Gil & Werman 1993):
 * within blocks of omega columns, a running minimum from each block's start
 * (pre) and one to its end (suf); a window is the suffix of the block it
 * starts in and the prefix of the block it ends in. A minimum rounds
 * nothing, so any order gives the same value. work holds 2 * cols doubles. */
void min_pool_rows(const double *m, int64_t n, int64_t cols, int64_t omega, double *work, double *out)
{
    const int64_t keep = cols - omega + 1;
    double *restrict pre = work, *restrict suf = work + cols;
    for (int64_t i = 0; i < n; i++) {
        const double *restrict x = m + i * cols;
        for (int64_t s = 0; s < cols; s += omega) {
            const int64_t e = s + omega < cols ? s + omega : cols;
            pre[s] = x[s];
            for (int64_t j = s + 1; j < e; j++)
                pre[j] = min2(pre[j - 1], x[j]);
            suf[e - 1] = x[e - 1];
            for (int64_t j = e - 2; j >= s; j--)
                suf[j] = min2(x[j], suf[j + 1]);
        }
        double *restrict o = out + i * keep;
        for (int64_t j = 0; j < keep; j++)
            o[j] = min2(suf[j], pre[j + omega - 1]);
    }
}

/* The minimum of acc and x[0 .. n - 1], kept in LANES running minima so
 * that each comparison need not wait for the one before. */
static inline double least(const double *x, int64_t n, double acc)
{
    double lane[LANES];
    for (int l = 0; l < LANES; l++)
        lane[l] = acc;
    int64_t t = 0;
    for (; t + LANES <= n; t += LANES)
        for (int l = 0; l < LANES; l++)
            lane[l] = min2(lane[l], x[t + l]);
    for (; t < n; t++)
        lane[0] = min2(lane[0], x[t]);
    for (int l = 1; l < LANES; l++)
        lane[0] = min2(lane[0], lane[l]);
    return lane[0];
}

/* out[i, j] += sum(g[i + t, j + step * t] for t < length) for the rows x
 * cols out, out and g read through row strides of ostride and gstride doubles; step
 * 0 sums down a column, step 1 along a diagonal. In blocks of length rows
 * (van Herk; Gil & Werman), the window from block row r is the suffix sum
 * of its block's rows r .. length - 1 plus the prefix sum of the next
 * block's first r rows, and each entry becomes (out + suffix) + prefix, as
 * numpy adds them one grid at a time. Sums run in the skewed frame: with
 * k = j - step * r for the entry (lo + r, j),
 *
 *   D_{length-1}(k) = g[lo + length - 1, k + step * (length - 1)],
 *   D_r(k) = g[lo + r, k + step * r] + D_{r+1}(k)                  (suffix),
 *   E_0(k) = g[lo + length, k + step * length],
 *   E_s(k) = E_{s-1}(k) + g[lo + length + s, k + step * (length + s)]  (prefix),
 *
 * and out[lo + r, j] = (out + D_r(k)) + E_{r-1}(k); each recursion keeps
 * its column, so strips of `strip` values of k cover the block with no work
 * repeated, whatever the step and length. No sum has more than length
 * terms, so its rounding scales with the window, not the series. With
 * fresh set, out holds nothing yet and 0.0 stands for it. work holds
 * (length + 1) * strip doubles.
 *
 * Unless rowmin is NULL, rowmin[i] becomes the minimum of row i of out,
 * each strip of the row folded in while it is still in cache. A minimum
 * rounds nothing, so it equals numpy's out.min(axis=1) bitwise. */
void window_sums(double *out, int64_t rows, int64_t cols, int64_t ostride, const double *g, int64_t gstride,
                 int64_t length, int64_t step, int64_t fresh, int64_t strip, double *work, double *rowmin)
{
    double *d = work, *e = work + strip; /* D_r of the strip; E_0 .. E_{length-2}, a row each */
    for (int64_t lo = 0; lo < rows; lo += length) {
        const int64_t n = rows - lo < length ? rows - lo : length;
        const double *block = g + lo * gstride, *next = block + length * gstride;
        if (rowmin)
            for (int64_t r = 0; r < n; r++)
                rowmin[lo + r] = INFINITY;
        for (int64_t k0 = -(n - 1) * step; k0 < cols; k0 += strip) {
            const int64_t w = cols - k0 < strip ? cols - k0 : strip;
            /* E_s at k0 + t, for the t whose entry of row lo + s + 1 is a column of out. */
            for (int64_t s = 0; s + 1 < n; s++) {
                const int64_t hi = cols - k0 - step * (s + 1) < w ? cols - k0 - step * (s + 1) : w;
                const double *restrict gs = next + s * gstride + k0 + step * (length + s);
                double *restrict es = e + s * strip;
                const double *restrict below = es - strip;
                if (s == 0)
                    for (int64_t t = 0; t < hi; t++)
                        es[t] = gs[t];
                else
                    for (int64_t t = 0; t < hi; t++)
                        es[t] = below[t] + gs[t];
            }
            /* D_r from the block's last row up; a t whose column is left of
             * g's first is left of it in every row above too. */
            for (int64_t r = length - 1; r >= 0; r--) {
                const int64_t col = k0 + step * r, first = col < 0 ? -col : 0;
                const double *restrict gr = block + r * gstride + col + first;
                double *restrict dr = d + first;
                if (r == length - 1)
                    for (int64_t t = 0; t < w - first; t++)
                        dr[t] = gr[t];
                else
                    for (int64_t t = 0; t < w - first; t++)
                        dr[t] = gr[t] + dr[t];
                if (r >= n)
                    continue;
                const int64_t end = cols - col < w ? cols - col : w;
                double *restrict o = out + (lo + r) * ostride + col + first;
                if (r == 0)
                    for (int64_t t = 0; t < end - first; t++)
                        o[t] = (fresh ? 0.0 : o[t]) + dr[t];
                else {
                    const double *restrict er = e + (r - 1) * strip + first;
                    for (int64_t t = 0; t < end - first; t++)
                        o[t] = ((fresh ? 0.0 : o[t]) + dr[t]) + er[t];
                }
                if (rowmin)
                    rowmin[lo + r] = least(o, end - first, rowmin[lo + r]);
            }
        }
    }
}
