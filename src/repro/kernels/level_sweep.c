/* The compiled kernels of repro.kernels.native: one level-ordered
 * triangular sweep and the up-looking ILU row loop.  Both do the scalar
 * references' operations in their order.  Built with -ffp-contract=off
 * so no multiply-add is fused; never with -ffast-math.  Neither checks
 * bounds: the Python callers check the sizes.
 */
#include <math.h>
#include <stdint.h>

/* The compiled body of repro.kernels.trisolve._level_sweep.
 *
 * Position p of the plan holds one row; its strict-part entries are
 * val[ptr[p]:ptr[p+1]] at level positions col[...], all earlier than p.
 * For each of the k right-hand sides (row-major, b and x of n * k):
 *
 *     s = 0;  s += val[e] * x[col[e]];  x[p] = (b[p] - s) [/ diag[p]]
 *
 * in entry order, which is the scalar reference's order.
 */
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

/* The compiled body of repro.core.iluk.ilu_factor: Fig. 1's row loop in
 * place on the values d of n sorted CSR rows, row r's diagonal at diag[r].
 *
 * Row i marks each of its columns with its slot, then takes its
 * strict-lower slots k in ascending column c: the pivot p = d[diag[c]]
 * must pass tol < |p| < inf (NaN fails both), then d[k] /= p, and every
 * upper entry e of row c whose column row i stores updates that slot t:
 * d[t] -= d[k] * d[e].  With thresh, the finished row drops each
 * off-diagonal v != 0 with |v| < thresh[i]; with modified, their sum in
 * storage order is added to the diagonal if it is nonzero.  These are
 * factor_row's and drop_row_fixed_pattern's operations.
 *
 * mark holds -1 for every column on entry.  Returns -1, or the slot whose
 * pivot failed (d is then partly factored).
 */
int64_t ilu_factor(int64_t n, const int64_t *ptr, const int64_t *col, const int64_t *diag,
                   double *d, double tol, const double *thresh, int64_t modified,
                   int64_t *mark)
{
    for (int64_t i = 0; i < n; ++i) {
        const int64_t lo = ptr[i], hi = ptr[i + 1];
        for (int64_t k = lo; k < hi; ++k)
            mark[col[k]] = k;
        for (int64_t k = lo; k < hi && col[k] < i; ++k) {
            const int64_t c = col[k];
            const double p = d[diag[c]];
            if (!(tol < fabs(p) && fabs(p) < INFINITY))
                return k;
            const double lic = d[k] / p;
            d[k] = lic;
            for (int64_t e = diag[c] + 1; e < ptr[c + 1]; ++e) {
                const int64_t t = mark[col[e]];
                if (t >= 0)
                    d[t] -= lic * d[e];
            }
        }
        for (int64_t k = lo; k < hi; ++k)
            mark[col[k]] = -1;
        if (thresh) {
            double mass = 0.0;
            for (int64_t k = lo; k < hi; ++k)
                if (k != diag[i] && d[k] != 0.0 && fabs(d[k]) < thresh[i]) {
                    mass += d[k];
                    d[k] = 0.0;
                }
            if (modified && mass != 0.0)
                d[diag[i]] += mass;
        }
    }
    return -1;
}
