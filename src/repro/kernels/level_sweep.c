/* One level-ordered triangular sweep: the compiled body of
 * repro.kernels.trisolve._level_sweep.
 *
 * Position p of the plan holds one row; its strict-part entries are
 * val[ptr[p]:ptr[p+1]] at level positions col[...], all earlier than p.
 * For each of the k right-hand sides (row-major, b and x of n * k):
 *
 *     s = 0;  s += val[e] * x[col[e]];  x[p] = (b[p] - s) [/ diag[p]]
 *
 * in entry order, which is the scalar reference's order.  Built with
 * -ffp-contract=off so no multiply-add is fused; never with -ffast-math.
 */
#include <stdint.h>

void level_sweep(int64_t n, int64_t k, const int32_t *ptr, const int32_t *col,
                 const double *val, const double *diag, const double *b, double *x)
{
    if (k == 1) {
        for (int64_t p = 0; p < n; ++p) {
            double s = 0.0;
            for (int64_t e = ptr[p]; e < ptr[p + 1]; ++e)
                s += val[e] * x[col[e]];
            x[p] = diag ? (b[p] - s) / diag[p] : b[p] - s;
        }
        return;
    }
    for (int64_t p = 0; p < n; ++p) {
        /* row p and the rows it reads are disjoint, earlier rows */
        double *restrict s = x + p * k;
        for (int64_t j = 0; j < k; ++j)
            s[j] = 0.0;
        for (int64_t e = ptr[p]; e < ptr[p + 1]; ++e) {
            const double v = val[e];
            const double *restrict xc = x + (int64_t)col[e] * k;
            for (int64_t j = 0; j < k; ++j)
                s[j] += v * xc[j];
        }
        const double *bp = b + p * k;
        for (int64_t j = 0; j < k; ++j)
            s[j] = diag ? (bp[j] - s[j]) / diag[p] : bp[j] - s[j];
    }
}
