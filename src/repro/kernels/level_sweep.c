/* The compiled kernels of repro.kernels.native: one level-ordered
 * triangular sweep, the up-looking ILU row loop and nested dissection.
 * Each does its reference's operations in their order.  Built with
 * -ffp-contract=off so no multiply-add is fused; never with -ffast-math.
 * None checks bounds: the Python callers check the sizes.
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

/* The compiled body of repro.ordering.nd.nested_dissection_order: the
 * depth-first recursion of tests/reference_structure.py on the graph
 * (xadj, adj), without C recursion.
 *
 * A set of k vertices owns the block perm[off:off+k] of the output and is
 * stored there, ascending, until it is split: a bisected set writes
 * [left | right | separator] over its block, a disconnected one its
 * components back to back.  So a block's place does not depend on when
 * it is split, and the sets waiting to be split are one stack of
 * (off, k).  A set of at most leaf_size vertices is ordered by minimum
 * degree, and so is a connected set whose pseudo-peripheral search ends
 * at an eccentricity below 2.
 *
 * No state outlives a call, so concurrent calls are independent.
 * Returns 0, -1 if an allocation failed, or -2 if a set meant to be
 * connected was not (the Python caller raises on both).
 */
#include <stdlib.h>
#include <string.h>

typedef struct {
    const int64_t *xadj, *adj;
    int64_t *stamp;  /* stamp[v]: the id of the last set v was put in */
    int64_t *seen;   /* seen[v]: the id of the last search that reached v */
    int64_t *level;  /* level[v]: v's distance in that search */
    int64_t *tag;    /* tag[v]: v's side, component or local index, per step */
    int64_t *queue, *buf, *count;
    int64_t *stack;  /* (off, k) pairs of the sets still to order */
    int64_t top, ids;
} nd_work;

/* Queue BFS from root over the vertices stamped s, marking them seen with
 * id; writes the visit order to q and returns its length. */
static int64_t nd_bfs(nd_work *w, int64_t root, int64_t s, int64_t id, int64_t *q)
{
    int64_t head = 0, tail = 1;
    q[0] = root;
    w->seen[root] = id;
    w->level[root] = 0;
    while (head < tail) {
        const int64_t v = q[head++];
        for (int64_t e = w->xadj[v]; e < w->xadj[v + 1]; ++e) {
            const int64_t u = w->adj[e];
            if (w->stamp[u] == s && w->seen[u] != id) {
                w->seen[u] = id;
                w->level[u] = w->level[v] + 1;
                q[tail++] = u;
            }
        }
    }
    return tail;
}

static void nd_push(nd_work *w, int64_t off, int64_t k)
{
    w->stack[2 * w->top] = off;
    w->stack[2 * w->top + 1] = k;
    ++w->top;
}

/* Minimum degree on the k vertices v (ascending), in place: each step
 * eliminates the remaining vertex of least remaining degree, the lowest
 * vertex on ties, and joins its remaining neighbours into a clique.
 * Rows of the elimination graph are bitsets over local indices. */
static int nd_min_degree(nd_work *w, int64_t *v, int64_t k)
{
    if (k < 2)
        return 0;
    const int64_t words = (k + 63) / 64;
    uint64_t *a = calloc((size_t)(k * words), sizeof *a);
    int64_t *deg = malloc((size_t)k * 2 * sizeof *deg);
    if (!a || !deg) {
        free(a);
        free(deg);
        return -1;
    }
    int64_t *vert = deg + k;
    const int64_t s = ++w->ids;
    for (int64_t i = 0; i < k; ++i) {
        w->stamp[v[i]] = s;
        w->tag[v[i]] = i;
        vert[i] = v[i];
    }
    for (int64_t i = 0; i < k; ++i) {
        uint64_t *row = a + i * words;
        for (int64_t e = w->xadj[vert[i]]; e < w->xadj[vert[i] + 1]; ++e) {
            const int64_t u = w->adj[e];
            if (w->stamp[u] == s)
                row[w->tag[u] / 64] |= (uint64_t)1 << (w->tag[u] % 64);
        }
        deg[i] = 0;
        for (int64_t j = 0; j < words; ++j)
            deg[i] += __builtin_popcountll(row[j]);
    }
    for (int64_t step = 0; step < k; ++step) {
        int64_t p = -1;
        for (int64_t i = 0; i < k; ++i)
            if (deg[i] >= 0 && (p < 0 || deg[i] < deg[p]))
                p = i;
        v[step] = vert[p];
        uint64_t *rp = a + p * words;
        for (int64_t j = 0; j < words; ++j) {
            for (uint64_t bits = rp[j]; bits; bits &= bits - 1) {
                const int64_t u = j * 64 + __builtin_ctzll(bits);
                uint64_t *ru = a + u * words;
                int64_t d = 0;
                for (int64_t t = 0; t < words; ++t)
                    ru[t] |= rp[t];
                ru[u / 64] &= ~((uint64_t)1 << (u % 64));
                ru[p / 64] &= ~((uint64_t)1 << (p % 64));
                for (int64_t t = 0; t < words; ++t)
                    d += __builtin_popcountll(ru[t]);
                deg[u] = d;
            }
        }
        memset(rp, 0, (size_t)words * sizeof *rp);
        deg[p] = -1;
    }
    free(a);
    free(deg);
    return 0;
}

/* Splits the k vertices of perm[off:off+k] (ascending) into connected
 * components, found from seeds (the same vertices, in seed order), and
 * stacks each: the block becomes the components in the order found,
 * each ascending.  seeds may be the block itself. */
static void nd_components(nd_work *w, int64_t *perm, int64_t off, int64_t k, const int64_t *seeds)
{
    int64_t *v = perm + off;
    const int64_t s = ++w->ids, id = ++w->ids;
    int64_t nc = 0;
    for (int64_t i = 0; i < k; ++i)
        w->stamp[v[i]] = s;
    for (int64_t i = 0; i < k; ++i) {
        if (w->seen[seeds[i]] == id)
            continue;
        const int64_t m = nd_bfs(w, seeds[i], s, id, w->buf);
        for (int64_t j = 0; j < m; ++j)
            w->tag[w->buf[j]] = nc;
        w->count[nc++] = m;
    }
    /* a counting sort of the ascending block by component */
    for (int64_t c = 0, start = 0; c < nc; ++c) {
        const int64_t m = w->count[c];
        w->count[c] = start;
        nd_push(w, off + start, m);
        start += m;
    }
    for (int64_t i = 0; i < k; ++i)
        w->buf[w->count[w->tag[v[i]]]++] = v[i];
    memcpy(v, w->buf, (size_t)k * sizeof *v);
}

/* The reference's dissect_any: a set of at most leaf_size vertices waits
 * whole for its minimum degree, a larger one splits into components. */
static void nd_any(nd_work *w, int64_t *perm, int64_t off, int64_t k, const int64_t *seeds,
                   int64_t leaf_size)
{
    if (k <= leaf_size)
        nd_push(w, off, k);
    else
        nd_components(w, perm, off, k, seeds);
}

/* Bisects the connected set perm[off:off+k] (ascending) of more than
 * leaf_size vertices, or orders it by minimum degree if it is a clique
 * to the search (eccentricity below 2), and stacks its halves. */
static int nd_bisect(nd_work *w, int64_t *perm, int64_t off, int64_t k, int64_t leaf_size)
{
    int64_t *v = perm + off, *q = w->queue;
    const int64_t s = ++w->ids;
    for (int64_t i = 0; i < k; ++i)
        w->stamp[v[i]] = s;
    /* George-Liu: restart from the first minimum-degree vertex of the last
     * level while the eccentricity grows, at most 8 times; keep the last BFS */
    if (nd_bfs(w, v[0], s, ++w->ids, q) != k)
        return -2;
    int64_t ecc = w->level[q[k - 1]];
    for (int round = 0; round < 8; ++round) {
        int64_t first = k - 1;
        while (first > 0 && w->level[q[first - 1]] == ecc)
            --first;
        int64_t cand = q[first];
        for (int64_t i = first + 1; i < k; ++i)
            if (w->xadj[q[i] + 1] - w->xadj[q[i]] < w->xadj[cand + 1] - w->xadj[cand])
                cand = q[i];
        nd_bfs(w, cand, s, ++w->ids, q);
        const int64_t grown = w->level[q[k - 1]] > ecc;
        ecc = w->level[q[k - 1]];
        if (!grown)
            break;
    }
    if (ecc < 2)
        return nd_min_degree(w, v, k);
    /* side: 0 near, 1 cut level kept left, 2 far, 3 separator (a cut-level
     * vertex touching the far side) */
    const int64_t cut = ecc / 2;
    int64_t nl = 0, nr = 0, far = k;
    for (int64_t i = 0; i < k; ++i) {
        const int64_t x = q[i], lv = w->level[x];
        int64_t side = lv < cut ? 0 : lv > cut ? 2 : 1;
        if (side == 1)
            for (int64_t e = w->xadj[x]; e < w->xadj[x + 1]; ++e)
                if (w->stamp[w->adj[e]] == s && w->level[w->adj[e]] > cut) {
                    side = 3;
                    break;
                }
        if (side == 2 && far == k)
            far = i;
        nl += side < 2;
        nr += side == 2;
        w->tag[x] = side;
    }
    /* [left ascending | right ascending | separator in BFS order] */
    int64_t *b = w->buf, *bl = b, *br = b + nl, *bs = b + nl + nr;
    for (int64_t i = 0; i < k; ++i) {
        if (w->tag[v[i]] < 2)
            *bl++ = v[i];
        else if (w->tag[v[i]] == 2)
            *br++ = v[i];
    }
    for (int64_t i = 0; i < k; ++i)
        if (w->tag[q[i]] == 3)
            *bs++ = q[i];
    memcpy(v, b, (size_t)k * sizeof *v);
    /* the left half is connected: each of its vertices reaches the root
     * through BFS parents on lower levels */
    nd_push(w, off, nl);
    /* the far levels are the tail of the BFS order */
    nd_any(w, perm, off + nl, nr, q + far, leaf_size);
    return 0;
}

int64_t nd_order(int64_t n, const int64_t *xadj, const int64_t *adj, int64_t leaf_size,
                 int64_t *perm)
{
    nd_work w = {.xadj = xadj, .adj = adj};
    const size_t words = (size_t)n + 1;
    int64_t *mem = calloc(words * 10, sizeof *mem);
    if (!mem)
        return -1;
    w.stamp = mem;
    w.seen = mem + words;
    w.level = mem + 2 * words;
    w.tag = mem + 3 * words;
    w.queue = mem + 4 * words;
    w.buf = mem + 5 * words;
    w.count = mem + 6 * words;
    w.stack = mem + 7 * words;  /* 2 * words: at most n disjoint sets wait */
    int64_t rc = 0;
    for (int64_t i = 0; i < n; ++i)
        perm[i] = i;
    nd_any(&w, perm, 0, n, perm, leaf_size);
    while (rc == 0 && w.top > 0) {
        --w.top;
        const int64_t off = w.stack[2 * w.top], k = w.stack[2 * w.top + 1];
        /* a stacked set of more than leaf_size vertices is connected */
        rc = k <= leaf_size ? nd_min_degree(&w, perm + off, k)
                            : nd_bisect(&w, perm, off, k, leaf_size);
    }
    free(mem);
    return rc;
}
