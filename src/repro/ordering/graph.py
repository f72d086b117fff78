"""Graph view of a sparse pattern.

Orderings operate on the undirected adjacency graph of ``A + Aᵀ`` with
self-loops removed.  The graph is stored CSR-style (``xadj``/``adjncy``
in METIS terminology) so traversals are array scans, not dict hops.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.pattern import symmetrize_pattern
from ..sparse.segscan import ptr_from_segment_ids, segment_ids_from_ptr, segment_positions

__all__ = [
    "adjacency_from_pattern",
    "vertex_degrees",
    "bfs_levels",
    "connected_components",
    "pseudo_peripheral_node",
]


def adjacency_from_pattern(A: CSRMatrix, symmetrize: bool = True):
    """Build (xadj, adjncy) for the undirected graph of the pattern.

    Self-loops (diagonal entries) are dropped.  When ``symmetrize`` is
    true the pattern of ``A + Aᵀ`` is used so the graph is undirected
    even for structurally nonsymmetric matrices.
    """
    if A.n_rows != A.n_cols:
        raise ValueError("adjacency requires a square matrix")
    S = symmetrize_pattern(A) if symmetrize else A
    row_of = segment_ids_from_ptr(S.indptr)
    off = S.indices != row_of
    return ptr_from_segment_ids(row_of[off], S.n_rows), S.indices[off]


def vertex_degrees(xadj):
    return np.diff(np.asarray(xadj, dtype=np.int64))


def bfs_levels(xadj, adjncy, root, mask=None):
    """Breadth-first level structure from ``root``.

    Returns ``(levels, order)`` where ``levels[v]`` is the BFS distance
    (-1 for unreached / masked-out vertices) and ``order`` lists the
    reached vertices in visit order.  ``mask`` restricts the traversal to
    vertices where it is true (used by nested dissection on subgraphs).

    The traversal advances one whole frontier at a time, yet ``order``
    is the visit order of the queue BFS: the next frontier is the
    frontier's neighbour lists concatenated in frontier order, with
    reached and masked-out vertices dropped and each remaining vertex
    kept at its first occurrence.
    """
    n = xadj.shape[0] - 1
    levels = np.full(n, -1, dtype=np.int64)
    if mask is not None and not mask[root]:
        raise ValueError("root not in mask")
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    visited = [frontier]
    # first[v]: earliest position of v in the current candidate list
    first = np.full(n, adjncy.shape[0], dtype=np.int64)
    depth = 0
    while frontier.size:
        nbrs = adjncy[segment_positions(xadj, frontier)[1]]
        keep = levels[nbrs] < 0
        if mask is not None:
            keep &= mask[nbrs]
        nbrs = nbrs[keep]
        at = np.arange(nbrs.shape[0])
        np.minimum.at(first, nbrs, at)
        frontier = nbrs[first[nbrs] == at]
        depth += 1
        levels[frontier] = depth
        visited.append(frontier)
    return levels, np.concatenate(visited)


def connected_components(xadj, adjncy, mask=None):
    """Label connected components; returns (labels, n_components).

    Masked-out vertices get label -1.
    """
    n = xadj.shape[0] - 1
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for s in range(n):  # verify: ok[JAV010] one BFS per component seed
        if labels[s] >= 0 or (mask is not None and not mask[s]):
            continue
        levels, order = bfs_levels(xadj, adjncy, s, mask=mask)
        labels[order] = comp
        comp += 1
    return labels, comp


def pseudo_peripheral_node(xadj, adjncy, start, mask=None, max_iter=8):
    """George–Liu pseudo-peripheral vertex search.

    Repeatedly BFS from the current candidate and move to a minimum-
    degree vertex of the last level until the eccentricity stops growing.
    Produces the long-axis endpoints RCM and dissection want.
    """
    v = start
    levels, order = bfs_levels(xadj, adjncy, v, mask=mask)
    ecc = int(levels[order].max()) if order.size else 0
    for _ in range(max_iter):
        last = order[levels[order] == ecc]
        deg = vertex_degrees(xadj)[last]
        cand = int(last[np.argmin(deg)])
        lv2, ord2 = bfs_levels(xadj, adjncy, cand, mask=mask)
        ecc2 = int(lv2[ord2].max()) if ord2.size else 0
        if ecc2 <= ecc:
            return cand, lv2, ord2
        v, levels, order, ecc = cand, lv2, ord2, ecc2
    return v, levels, order
