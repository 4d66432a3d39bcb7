/* Windowed DTW at many placements, LANES of them in lockstep.
 *
 * dtw.py compiles this file on first use and calls dtw_lockstep through
 * ctypes, after checking every index and shape it passes. A group of LANES
 * placements runs the recurrence row by row over each window row's column
 * range [lo[i], hi[i]]; every DP cell is one loop over the lanes, which the
 * compiler turns into vector instructions. A cell is the minimum of its
 * three predecessors plus its cost: one minimum and one rounding, so its
 * value does not depend on the lane or group it runs in, and equals the
 * pure-Python recurrence bitwise. Build without -ffast-math, which would
 * change how infinities and minima behave.
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
