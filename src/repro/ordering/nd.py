"""Nested-dissection ordering.

The paper's default preordering is Dulmage–Mendelsohn followed by METIS
nested dissection (§IV "Preordering": "ND is commonly applied to
coefficient matrices for parallel factorization").  METIS is not
available offline, so this is a from-scratch ND:

* bisect each connected subgraph with a BFS level structure grown from
  a pseudo-peripheral vertex, cutting at the median-level frontier
  (a George-style level-set bisection);
* take as separator the cut-level vertices adjacent to the far side,
  so removing the separator genuinely disconnects the halves;
* order: recurse(left), recurse(right), then the separator last —
  separators stack up at the bottom-right of the matrix exactly as the
  paper's Fig. 2-style structure expects;
* small subgraphs fall back to minimum degree (the standard hybrid).

Disconnected graphs (common in the circuit family) are handled with an
explicit component loop rather than recursion, so thousands of isolated
vertices cannot blow the stack.
"""

from __future__ import annotations

import numpy as np

from ..sparse.segscan import segment_ids_from_ptr, segment_positions
from .graph import adjacency_from_pattern, bfs_levels, pseudo_peripheral_node

__all__ = ["nested_dissection_order"]


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
    """Connected components within ``verts`` (list of index arrays)."""
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
    """Dissect one *connected* subgraph (recursive; depth is O(log n))."""
    if len(verts) <= leaf_size:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    n = xadj.shape[0] - 1
    mask = np.zeros(n, dtype=bool)
    mask[verts] = True
    root, levels, reached = pseudo_peripheral_node(xadj, adjncy, int(verts[0]), mask=mask)
    ecc = int(levels[reached].max()) if reached.size else 0
    if ecc < 2:
        # diameter too small to bisect — a dense blob; eliminate directly
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    cut = ecc // 2
    near = reached[levels[reached] < cut]
    mid = reached[levels[reached] == cut]
    far = reached[levels[reached] > cut]
    # a cut-level vertex is a separator vertex when it touches the far side
    ptr, pos = segment_positions(xadj, mid)
    nbrs = adjncy[pos]
    touches = mask[nbrs] & (levels[nbrs] > cut)
    is_sep = np.bincount(segment_ids_from_ptr(ptr)[touches], minlength=mid.shape[0]) > 0
    sep = mid[is_sep]
    left = np.concatenate([near, mid[~is_sep]])
    right = far
    if left.size == 0 or right.size == 0:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    _dissect_any(xadj, adjncy, left, leaf_size, out)
    _dissect_any(xadj, adjncy, right, leaf_size, out)
    out.extend(int(v) for v in sep)


def _dissect_any(xadj, adjncy, verts, leaf_size, out):
    """Dissect a possibly-disconnected vertex set, component by component."""
    if len(verts) <= leaf_size:
        out.extend(_min_degree_local(xadj, adjncy, verts))
        return
    for comp in _components_of(xadj, adjncy, verts):
        _dissect_connected(xadj, adjncy, comp, leaf_size, out)


def nested_dissection_order(A, leaf_size=32):
    """Nested-dissection permutation of the symmetrized pattern.

    Parameters
    ----------
    A:
        Square CSR matrix.
    leaf_size:
        Subgraphs at or below this size are ordered with local minimum
        degree instead of being dissected further.
    """
    xadj, adjncy = adjacency_from_pattern(A)
    n = xadj.shape[0] - 1
    out = []
    _dissect_any(xadj, adjncy, np.arange(n, dtype=np.int64), leaf_size, out)
    perm = np.asarray(out, dtype=np.int64)
    if perm.shape[0] != n or np.unique(perm).shape[0] != n:
        raise AssertionError("nested dissection produced a non-permutation")
    return perm
