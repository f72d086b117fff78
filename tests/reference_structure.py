"""Per-row reference implementations of the structural front end.

These are the loop forms that ``repro.sparse``, ``repro.ordering``,
``repro.kernels.plans`` and the DES cost counts of ``repro.core``
(``symbolic.py``'s row costs, ``lower_sr.py``'s tiles) used before those
functions became whole-array numpy.  They are kept verbatim so the identity properties in
``tests/property/test_structure_identity.py`` can check every output
array element for element: values, order and dtype.

Each function takes and returns the same things as its library
counterpart, with the CSR matrix passed explicitly where the library
version is a method; ``segmented_rows_sub_entries`` returns only the
``sub_entries`` that ``SegmentedRows.build`` computes.
"""

import numpy as np

from repro.ordering.levelsets import LevelSets
from repro.sparse.csr import CSRMatrix


# ----------------------------------------------------------------------
# CSRMatrix methods
# ----------------------------------------------------------------------
def sort_indices(A):
    """Sort column indices (and values) within every row, in place."""
    indptr, indices, data = A.indptr, A.indices, A.data
    for r in range(A.n_rows):
        lo, hi = indptr[r], indptr[r + 1]
        if hi - lo > 1:
            seg = indices[lo:hi]
            if np.any(seg[1:] < seg[:-1]):
                order = np.argsort(seg, kind="stable")
                indices[lo:hi] = seg[order]
                data[lo:hi] = data[lo:hi][order]
    return A


def diagonal(A):
    """Extract the main diagonal as a dense vector."""
    d = np.zeros(min(A.n_rows, A.n_cols))
    for r in range(d.shape[0]):
        cols, vals = A.row(r)
        k = np.searchsorted(cols, r)
        if k < cols.shape[0] and cols[k] == r:
            d[r] = vals[k]
    return d


def transpose(A):
    """Return Aᵀ as a new CSR matrix (bucket counting, O(nnz))."""
    n, m = A.n_rows, A.n_cols
    nnz = A.nnz
    counts = np.bincount(A.indices, minlength=m)
    t_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=t_indptr[1:])
    t_indices = np.empty(nnz, dtype=np.int64)
    t_data = np.empty(nnz)
    fill = t_indptr[:-1].copy()
    for r in range(n):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        for k in range(lo, hi):
            c = A.indices[k]
            pos = fill[c]
            t_indices[pos] = r
            t_data[pos] = A.data[k]
            fill[c] += 1
    return CSRMatrix(m, n, t_indptr, t_indices, t_data, sort=False, check=False)


def permute(A0, row_perm=None, col_perm=None):
    """Return ``P A Q`` (gather convention for both permutations)."""
    A = A0
    if row_perm is not None:
        row_perm = np.asarray(row_perm, dtype=np.int64)
        if row_perm.shape[0] != A0.n_rows:
            raise ValueError("row_perm has wrong length")
        lens = np.diff(A.indptr)[row_perm]
        indptr = np.zeros(A0.n_rows + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        indices = np.empty(A.nnz, dtype=np.int64)
        data = np.empty(A.nnz)
        for new_r in range(A0.n_rows):
            old_r = row_perm[new_r]
            lo, hi = A.indptr[old_r], A.indptr[old_r + 1]
            nlo = indptr[new_r]
            indices[nlo : nlo + hi - lo] = A.indices[lo:hi]
            data[nlo : nlo + hi - lo] = A.data[lo:hi]
        A = CSRMatrix(A0.n_rows, A0.n_cols, indptr, indices, data, sort=False, check=False)
    if col_perm is not None:
        col_perm = np.asarray(col_perm, dtype=np.int64)
        if col_perm.shape[0] != A0.n_cols:
            raise ValueError("col_perm has wrong length")
        inv = np.empty_like(col_perm)
        inv[col_perm] = np.arange(A0.n_cols, dtype=np.int64)
        A = CSRMatrix(
            A.n_rows, A.n_cols, A.indptr.copy(), inv[A.indices], A.data.copy(), sort=False, check=False
        )
        sort_indices(A)
    return A.copy() if A is A0 else A


def extract_rows(A, row_ids):
    """Submatrix of the given rows (all columns kept)."""
    row_ids = np.asarray(row_ids, dtype=np.int64)
    lens = np.diff(A.indptr)[row_ids]
    indptr = np.zeros(row_ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    data = np.empty(int(indptr[-1]))
    for i, r in enumerate(row_ids):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        nlo = indptr[i]
        indices[nlo : nlo + hi - lo] = A.indices[lo:hi]
        data[nlo : nlo + hi - lo] = A.data[lo:hi]
    return CSRMatrix(row_ids.shape[0], A.n_cols, indptr, indices, data, sort=False, check=False)


def prune(A, keep_mask):
    """Drop stored entries where ``keep_mask`` is false."""
    keep_mask = np.asarray(keep_mask, dtype=bool)
    if keep_mask.shape[0] != A.nnz:
        raise ValueError("mask length must equal nnz")
    lens = np.zeros(A.n_rows, dtype=np.int64)
    for r in range(A.n_rows):
        lens[r] = int(np.count_nonzero(keep_mask[A.indptr[r] : A.indptr[r + 1]]))
    indptr = np.zeros(A.n_rows + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return CSRMatrix(
        A.n_rows,
        A.n_cols,
        indptr,
        A.indices[keep_mask],
        A.data[keep_mask],
        sort=False,
        check=False,
    )


# ----------------------------------------------------------------------
# sparse/pattern.py
# ----------------------------------------------------------------------
def _triangular(csr, keep):
    """Filter stored entries by a predicate ``keep(row, cols) -> bool mask``."""
    n = csr.n_rows
    lens = np.zeros(n, dtype=np.int64)
    masks = []
    for r in range(n):
        cols = csr.indices[csr.indptr[r] : csr.indptr[r + 1]]
        m = keep(r, cols)
        masks.append(m)
        lens[r] = int(np.count_nonzero(m))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    mask = np.concatenate(masks) if masks else np.empty(0, dtype=bool)
    return CSRMatrix(
        n, csr.n_cols, indptr, csr.indices[mask], csr.data[mask], sort=False, check=False
    )


def lower_pattern(csr):
    return _triangular(csr, lambda r, c: c <= r)


def upper_pattern(csr):
    return _triangular(csr, lambda r, c: c >= r)


def strict_lower_pattern(csr):
    return _triangular(csr, lambda r, c: c < r)


def strict_upper_pattern(csr):
    return _triangular(csr, lambda r, c: c > r)


def pattern_union(a, b):
    """Structural union of two patterns (values become 1.0)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    n = a.n_rows
    indptr = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    for r in range(n):
        ca = a.indices[a.indptr[r] : a.indptr[r + 1]]
        cb = b.indices[b.indptr[r] : b.indptr[r + 1]]
        u = np.union1d(ca, cb)
        chunks.append(u)
        indptr[r + 1] = indptr[r] + u.shape[0]
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return CSRMatrix(n, a.n_cols, indptr, indices, np.ones(indices.shape[0]), sort=False, check=False)


def symmetrize_pattern(csr):
    """Pattern of ``A + Aᵀ`` built from the reference transpose and union."""
    return pattern_union(csr, transpose(csr))


def has_full_diagonal(csr):
    """True when every diagonal position is structurally present."""
    n = min(csr.n_rows, csr.n_cols)
    for r in range(n):
        cols = csr.indices[csr.indptr[r] : csr.indptr[r + 1]]
        k = np.searchsorted(cols, r)
        if k >= cols.shape[0] or cols[k] != r:
            return False
    return True


def add_diagonal_pattern(csr, value=0.0):
    """Copy with every missing diagonal position inserted with ``value``."""
    n = csr.n_rows
    chunks_c = []
    chunks_v = []
    indptr = np.zeros(n + 1, dtype=np.int64)
    for r in range(n):
        lo, hi = csr.indptr[r], csr.indptr[r + 1]
        cols = csr.indices[lo:hi]
        vals = csr.data[lo:hi]
        if r < csr.n_cols:
            k = np.searchsorted(cols, r)
            if k >= cols.shape[0] or cols[k] != r:
                cols = np.insert(cols, k, r)
                vals = np.insert(vals, k, value)
        chunks_c.append(cols)
        chunks_v.append(vals)
        indptr[r + 1] = indptr[r] + cols.shape[0]
    return CSRMatrix(
        n,
        csr.n_cols,
        indptr,
        np.concatenate(chunks_c) if chunks_c else np.empty(0, dtype=np.int64),
        np.concatenate(chunks_v) if chunks_v else np.empty(0),
        sort=False,
        check=False,
    )


def split_lu(csr):
    """Split a factored matrix into unit-diagonal L and U (both CSR)."""
    n = csr.n_rows
    l_indptr = np.zeros(n + 1, dtype=np.int64)
    u_indptr = np.zeros(n + 1, dtype=np.int64)
    l_cols, l_vals, u_cols, u_vals = [], [], [], []
    for r in range(n):
        cols, vals = csr.row(r)
        below = cols < r
        at_or_above = ~below
        lc = cols[below]
        lv = vals[below]
        lc = np.append(lc, r)
        lv = np.append(lv, 1.0)
        uc = cols[at_or_above]
        uv = vals[at_or_above]
        l_cols.append(lc)
        l_vals.append(lv)
        u_cols.append(uc)
        u_vals.append(uv)
        l_indptr[r + 1] = l_indptr[r] + lc.shape[0]
        u_indptr[r + 1] = u_indptr[r] + uc.shape[0]
    L = CSRMatrix(
        n, n, l_indptr, np.concatenate(l_cols), np.concatenate(l_vals), sort=False, check=False
    )
    U = CSRMatrix(
        n, n, u_indptr, np.concatenate(u_cols), np.concatenate(u_vals), sort=False, check=False
    )
    return L, U


# ----------------------------------------------------------------------
# ordering/graph.py
# ----------------------------------------------------------------------
def adjacency_from_pattern(A, symmetrize=True):
    """Build (xadj, adjncy) for the undirected graph of the pattern."""
    if A.n_rows != A.n_cols:
        raise ValueError("adjacency requires a square matrix")
    S = symmetrize_pattern(A) if symmetrize else A
    n = S.n_rows
    xadj = np.zeros(n + 1, dtype=np.int64)
    chunks = []
    for r in range(n):
        cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
        cols = cols[cols != r]
        chunks.append(cols)
        xadj[r + 1] = xadj[r] + cols.shape[0]
    adjncy = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return xadj, adjncy


def bfs_levels(xadj, adjncy, root, mask=None):
    """Queue BFS: ``(levels, order)`` with -1 for unreached vertices."""
    n = xadj.shape[0] - 1
    levels = np.full(n, -1, dtype=np.int64)
    if mask is not None and not mask[root]:
        raise ValueError("root not in mask")
    levels[root] = 0
    order = np.empty(n, dtype=np.int64)
    order[0] = root
    head, tail = 0, 1
    while head < tail:
        v = order[head]
        head += 1
        for u in adjncy[xadj[v] : xadj[v + 1]]:
            if levels[u] < 0 and (mask is None or mask[u]):
                levels[u] = levels[v] + 1
                order[tail] = u
                tail += 1
    return levels, order[:tail]


def pseudo_peripheral_node(xadj, adjncy, start, mask=None, max_iter=8):
    """George–Liu pseudo-peripheral vertex search over the queue BFS."""
    v = start
    levels, order = bfs_levels(xadj, adjncy, v, mask=mask)
    ecc = int(levels[order].max()) if order.size else 0
    for _ in range(max_iter):
        last = order[levels[order] == ecc]
        deg = np.diff(xadj)[last]
        cand = int(last[np.argmin(deg)])
        lv2, ord2 = bfs_levels(xadj, adjncy, cand, mask=mask)
        ecc2 = int(lv2[ord2].max()) if ord2.size else 0
        if ecc2 <= ecc:
            return cand, lv2, ord2
        v, levels, order, ecc = cand, lv2, ord2, ecc2
    return v, levels, order


def connected_components(xadj, adjncy, mask=None):
    """Component labels from one BFS per unlabelled seed, in vertex order."""
    n = xadj.shape[0] - 1
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for s in range(n):
        if labels[s] >= 0 or (mask is not None and not mask[s]):
            continue
        levels, order = bfs_levels(xadj, adjncy, s, mask=mask)
        labels[order] = comp
        comp += 1
    return labels, comp


# ----------------------------------------------------------------------
# ordering/rcm.py
# ----------------------------------------------------------------------
def reverse_cuthill_mckee(xadj, adjncy):
    """RCM with one pseudo-peripheral search per component seed."""
    n = xadj.shape[0] - 1
    deg = np.diff(xadj)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    # process components in order of their lowest-numbered vertex
    for seed in range(n):
        if visited[seed]:
            continue
        root, _, _ = pseudo_peripheral_node(xadj, adjncy, seed, mask=~visited)
        queue = [root]
        visited[root] = True
        while queue:
            v = queue.pop(0)
            order[pos] = v
            pos += 1
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            nbrs = nbrs[~visited[nbrs]]
            if nbrs.size:
                nbrs = nbrs[np.argsort(deg[nbrs], kind="stable")]
                visited[nbrs] = True
                queue.extend(int(u) for u in nbrs)
    assert pos == n
    return order[::-1].copy()


# ----------------------------------------------------------------------
# ordering/nd.py
# ----------------------------------------------------------------------
def _min_degree_local(xadj, adjncy, verts):
    """Minimum-degree elimination restricted to ``verts`` (leaf baskets)."""
    vset = {int(v) for v in verts}
    adj = {
        v: {int(u) for u in adjncy[xadj[v] : xadj[v + 1]] if int(u) in vset}
        for v in vset
    }
    order = []
    remaining = set(vset)
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        order.append(v)
        remaining.discard(v)
        nbrs = [u for u in adj[v] if u in remaining]
        for u in nbrs:
            adj[u].discard(v)
            adj[u].update(w for w in nbrs if w != u)
        adj[v] = set()
    return order


def _components_of(xadj, adjncy, verts):
    n = xadj.shape[0] - 1
    mask = np.zeros(n, dtype=bool)
    mask[verts] = True
    comps = []
    for v in verts:
        v = int(v)
        if not mask[v]:
            continue
        _, order = bfs_levels(xadj, adjncy, v, mask=mask)
        mask[order] = False
        comps.append(np.sort(order))
    return comps


def _dissect_connected(xadj, adjncy, verts, leaf_size, out):
    if len(verts) <= leaf_size:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    n = xadj.shape[0] - 1
    mask = np.zeros(n, dtype=bool)
    mask[verts] = True
    root, levels, reached = pseudo_peripheral_node(xadj, adjncy, int(verts[0]), mask=mask)
    ecc = int(levels[reached].max()) if reached.size else 0
    if ecc < 2:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    cut = ecc // 2
    near = reached[levels[reached] < cut]
    mid = reached[levels[reached] == cut]
    far = reached[levels[reached] > cut]
    sep_mask = np.zeros(n, dtype=bool)
    for v in mid:
        nbrs = adjncy[xadj[v] : xadj[v + 1]]
        if np.any(mask[nbrs] & (levels[nbrs] > cut)):
            sep_mask[v] = True
    sep = mid[sep_mask[mid]]
    left = np.concatenate([near, mid[~sep_mask[mid]]])
    right = far
    if left.size == 0 or right.size == 0:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    _dissect_any(xadj, adjncy, left, leaf_size, out)
    _dissect_any(xadj, adjncy, right, leaf_size, out)
    out.extend(int(v) for v in sep)


def _dissect_any(xadj, adjncy, verts, leaf_size, out):
    if len(verts) <= leaf_size:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    for comp in _components_of(xadj, adjncy, verts):
        _dissect_connected(xadj, adjncy, comp, leaf_size, out)


def nested_dissection_order(A, leaf_size=32):
    """Nested-dissection permutation over the reference BFS and graph."""
    xadj, adjncy = adjacency_from_pattern(A)
    n = xadj.shape[0] - 1
    out = []
    _dissect_any(xadj, adjncy, np.arange(n, dtype=np.int64), leaf_size, out)
    return np.asarray(out, dtype=np.int64)


# ----------------------------------------------------------------------
# level sets (kernels/plans.py and ordering/levelsets.py)
# ----------------------------------------------------------------------
def _pack_levels(level_of, n):
    n_levels = int(level_of.max()) + 1 if n else 0
    counts = np.bincount(level_of, minlength=n_levels)
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(counts, out=level_ptr[1:])
    rows = np.argsort(level_of, kind="stable").astype(np.int64)
    return LevelSets(level_of=level_of, level_ptr=level_ptr, rows=rows)


def forward_level_sets(pattern):
    """Level sets of the forward sweep: deps are strict-lower entries."""
    n = pattern.n_rows
    indptr, indices = pattern.indptr, pattern.indices
    level_of = np.zeros(n, dtype=np.int64)
    for r in range(n):
        cols = indices[indptr[r] : indptr[r + 1]]
        deps = cols[cols < r]
        if deps.size:
            level_of[r] = int(level_of[deps].max()) + 1
    return _pack_levels(level_of, n)


def backward_level_sets(pattern):
    """Level sets of the backward sweep: deps are strict-upper entries."""
    n = pattern.n_rows
    indptr, indices = pattern.indptr, pattern.indices
    level_of = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        cols = indices[indptr[i] : indptr[i + 1]]
        deps = cols[cols > i]
        if deps.size:
            level_of[i] = int(level_of[deps].max()) + 1
    return _pack_levels(level_of, n)


# ----------------------------------------------------------------------
# DES cost counts (core/symbolic.py) and SR tiles (core/lower_sr.py)
# ----------------------------------------------------------------------
def row_factor_costs_split(S, m):
    """Per-row costs split at column boundary ``m`` (for the lower stage)."""
    n = S.n_rows
    fl = np.zeros(n)
    tl = np.zeros(n)
    fc = np.zeros(n)
    tc = np.zeros(n)
    indptr, indices = S.indptr, S.indices
    for i in range(n):
        cols = indices[indptr[i] : indptr[i + 1]]
        own = float(cols.shape[0])
        nci = cols.shape[0]
        for c in cols[cols < i]:
            f = 1.0
            t = 1.0
            lo, hi = indptr[c], indptr[c + 1]
            uc = indices[lo:hi]
            uc = uc[uc > c]
            t += uc.shape[0]
            if uc.shape[0]:
                pos = np.searchsorted(cols, uc)
                pos[pos == nci] = nci - 1
                f += 2.0 * int(np.count_nonzero(cols[pos] == uc))
            if c >= m:
                fc[i] += f
                tc[i] += t
            else:
                fl[i] += f
                tl[i] += t
        # charge the row's own streaming once, to the first phase that runs
        tl[i] += own
    return (fl, tl), (fc, tc)


def row_solve_costs(S, part="lower"):
    """Per-row (flops, nnz_touched) of one triangular-solve sweep."""
    n = S.n_rows
    flops = np.zeros(n)
    touched = np.zeros(n)
    for r in range(n):
        cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
        if part == "lower":
            m = int(np.count_nonzero(cols < r))
            flops[r] = 2.0 * m
            touched[r] = m + 2  # entries + rhs + solution slot
        elif part == "upper":
            m = int(np.count_nonzero(cols > r))
            flops[r] = 2.0 * m + 1.0  # updates + diagonal division
            touched[r] = m + 3
        else:
            raise ValueError("part must be 'lower' or 'upper'")
    return flops, touched


def segmented_rows_sub_entries(S, m, level_ptr):
    """``SegmentedRows.build``'s per-level ``(storage_idx, row, col)`` arrays."""
    n = S.n_rows
    level_ptr = np.asarray(level_ptr, dtype=np.int64)
    n_levels = level_ptr.shape[0] - 1
    per_level = [[] for _ in range(n_levels)]
    for r in range(m, n):
        lo, hi = int(S.indptr[r]), int(S.indptr[r + 1])
        for kk in range(lo, hi):
            c = int(S.indices[kk])
            if c >= m:
                break
            lvl = int(np.searchsorted(level_ptr, c, side="right")) - 1
            per_level[lvl].append((kk, r, c))
    sub_entries = []
    for lvl in range(n_levels):
        ents = per_level[lvl]
        ents.sort(key=lambda e: (e[2], e[1]))
        sub_entries.append(np.asarray(ents, dtype=np.int64).reshape(-1, 3))
    return sub_entries


def _tile_update_counts(S, sr, tile_entries):
    """Per-target-level (flops, touched) of one tile's UPDATE_BLOCK work."""
    indptr, indices = S.indptr, S.indices
    counts = {}
    for kk, r, c in tile_entries:
        c = int(c)
        r = int(r)
        c_lo, c_hi = int(indptr[c]), int(indptr[c + 1])
        u_cols = indices[c_lo:c_hi]
        u_cols = u_cols[u_cols > c]
        r_cols = indices[int(indptr[r]) : int(indptr[r + 1])]
        for j in u_cols:
            tgt = sr.level_of_col(int(j))
            f, t = counts.get(tgt, (0.0, 0.0))
            t += 1.0
            ppos = int(np.searchsorted(r_cols, int(j)))
            if ppos < r_cols.shape[0] and r_cols[ppos] == j:
                f += 2.0
            counts[tgt] = (f, t)
    return counts
