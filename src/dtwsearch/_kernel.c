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
 */
#include <math.h>
#include <stdint.h>

#define LANES 8
/* Rows between abandoning checks. A check costs a pass over the row; on
 * the benchmark's unbanded workloads, checking every 4th row ran the
 * kernel faster than checking every row, every 2nd or every 8th. */
#define CHECK_EVERY 4

const int dtw_lanes = LANES;

static inline double min2(double a, double b) { return a < b ? a : b; }

/* Column j of a DP row in every lane: v = min(up, diag, left) + cost, the
 * cost of lane l being row[l][j]. */
static inline void cells(double *restrict v, const double *restrict up, const double *restrict diag,
                         const double *restrict left, const double *const *row, int64_t j)
{
    for (int l = 0; l < LANES; l++)
        v[l] = min2(min2(up[l], diag[l]), left[l]) + row[l][j];
}

/* Whether some real lane's smallest value in a row, plus rest, is at most threshold. */
static int any_live(const double *row, int64_t lo, int64_t hi, const double *rest, int real, double threshold)
{
    double low[LANES];
    for (int l = 0; l < LANES; l++)
        low[l] = INFINITY;
    for (int64_t j = lo; j <= hi; j++)
        for (int l = 0; l < LANES; l++)
            low[l] = min2(row[(j + 1) * LANES + l], low[l]);
    for (int l = 0; l < real; l++)
        if (low[l] + rest[l] <= threshold)
            return 1;
    return 0;
}

/* DTW of the omega_u x omega_w window at each 0-based start (a0[p], b0[p])
 * of the row-major matrix m with cols columns, written to out[p]. Row i
 * holds columns lo[i] .. hi[i]; cells outside them are +inf.
 *
 * With a pool (the min-pool grid, pcols columns), a group is abandoned
 * once, for every real lane, the smallest value of a checked row i plus
 * rest[i], the sum of the pool minima of rows i+1 .. omega_u-1, exceeds
 * threshold: every warping path visits every row, so each lane's DTW
 * exceeds it too. Its lanes are written as +inf. Every finite value is
 * exact.
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
        /* Columns past a row's hi are +inf in both buffers: hi never falls
         * from one row to the next, so no earlier row wrote there. */
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
        int live = 1;
        for (int64_t i = 0; i < omega_u; i++) {
            const int64_t first = lo[i], last = hi[i];
            const double *row[LANES];
            for (int l = 0; l < LANES; l++)
                row[l] = m + (a[l] + i) * cols + b[l];
            /* Column first - 1 is left of this row and above-left of the
             * next; it may hold a value from two rows up. */
            for (int l = 0; l < LANES; l++)
                cur[first * LANES + l] = INFINITY;
            for (int64_t j = first; j <= last; j++)
                cells(cur + (j + 1) * LANES, prev + (j + 1) * LANES, prev + j * LANES, cur + j * LANES, row, j);
            total += real * (last - first + 1);
            double *t = prev;
            prev = cur;
            cur = t;
            if (pool && i % CHECK_EVERY == CHECK_EVERY - 1 && i + 1 < omega_u
                && !any_live(prev, first, last, rest + i * LANES, real, threshold)) {
                live = 0;
                break;
            }
        }
        for (int l = 0; l < real; l++)
            out[g + l] = live ? prev[omega_w * LANES + l] : INFINITY;
    }
    return total;
}
