"""Graph view of a sparse pattern.

Orderings operate on the undirected adjacency graph of ``A + Aᵀ`` with
self-loops removed.  The graph is stored CSR-style (``xadj``/``adjncy``
in METIS terminology) so traversals are array scans, not dict hops.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from ..sparse.csr import CSRMatrix
from ..sparse.pattern import symmetrize_pattern
from ..sparse.segscan import ptr_from_segment_ids, segment_ids_from_ptr, segment_positions

__all__ = [
    "adjacency_from_pattern",
    "vertex_degrees",
    "labelled_bfs",
    "bfs_levels",
    "label_components",
    "connected_components",
    "pseudo_peripheral_nodes",
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


def labelled_bfs(xadj, adjncy, roots, labels):
    """Breadth-first search from several roots at once, one per label class.

    ``labels[v]`` is the class of vertex ``v`` (-1 keeps it out of every
    search).  The search from ``roots[t]`` only steps along edges whose
    two ends carry the same label, so roots with distinct labels grow
    independent searches, all advanced one frontier at a time by the
    same few array operations.  Returns ``(levels, order)``: the BFS
    distance of every vertex from its class's root (-1 when unreached)
    and the reached vertices in visit order.

    Each root's subsequence of ``order`` (its label class) is exactly the
    visit order of a queue BFS from that root alone: the next frontier
    is the frontier's neighbour lists concatenated in frontier order,
    with reached and other-label vertices dropped and each remaining
    vertex kept at its first occurrence, and every occurrence of a
    vertex comes from a frontier vertex of its own class.
    """
    n = xadj.shape[0] - 1
    labels = np.asarray(labels)
    frontier = np.asarray(roots, dtype=np.int64).reshape(-1)
    if frontier.size and (frontier.min() < 0 or frontier.max() >= n):
        raise ValueError(f"root out of range for a graph of {n} vertices")
    if np.any(labels[frontier] < 0):
        raise ValueError("root not in mask (its label is -1)")
    levels = np.full(n, -1, dtype=np.int64)
    levels[frontier] = 0
    # open[v]: v's label while v is unreached, -1 once reached (or excluded)
    open_ = np.array(labels, dtype=np.int64)
    open_[frontier] = -1
    visited = [frontier]
    deg = vertex_degrees(xadj)
    # first[v]: earliest position of v in the current candidate list
    first = np.full(n, adjncy.shape[0], dtype=np.int64)
    depth = 0
    while frontier.size:
        # the frontier's neighbour lists, concatenated (segment_positions
        # inlined: this runs once per BFS level of every search)
        lens = deg[frontier]
        end = np.cumsum(lens)
        src = np.repeat(np.arange(frontier.shape[0]), lens)
        nbrs = adjncy[np.arange(end[-1]) + (xadj[frontier] - end + lens)[src]]
        nbrs = nbrs[open_[nbrs] == labels[frontier][src]]
        at = np.arange(nbrs.shape[0])
        np.minimum.at(first, nbrs, at)
        frontier = nbrs[first[nbrs] == at]
        depth += 1
        levels[frontier] = depth
        open_[frontier] = -1
        visited.append(frontier)
    return levels, np.concatenate(visited)


def _mask_labels(n, mask):
    """One label class: every vertex, or the vertices where ``mask`` holds."""
    if mask is None:
        return np.zeros(n, dtype=np.int64)
    return np.where(mask, 0, -1)


def bfs_levels(xadj, adjncy, root, mask=None):
    """Breadth-first level structure from ``root``.

    Returns ``(levels, order)`` where ``levels[v]`` is the BFS distance
    (-1 for unreached / masked-out vertices) and ``order`` lists the
    reached vertices in the visit order of a queue BFS.  ``mask``
    restricts the traversal to vertices where it is true.  This is the
    one-root case of :func:`labelled_bfs`.
    """
    n = xadj.shape[0] - 1
    return labelled_bfs(xadj, adjncy, [root], _mask_labels(n, mask))


def label_components(xadj, adjncy, verts, labels):
    """Connected components of every label class of an undirected graph.

    ``verts`` lists the labelled vertices (each once, in any order) and
    ``labels[v]`` their classes; only edges between two vertices of one
    class count.  Returns ``(comp, n_components)`` with ``comp[i]`` the
    component of ``verts[i]``.  Components are numbered by the first
    position in ``verts`` of any of their members, so a class's
    components come in the order a seed loop over ``verts`` would find
    them, whatever traversal finds them.
    """
    verts = np.asarray(verts, dtype=np.int64)
    m = verts.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64), 0
    local = np.full(xadj.shape[0] - 1, -1, dtype=np.int64)
    local[verts] = np.arange(m)
    ptr, pos = segment_positions(xadj, verts)
    nbrs = adjncy[pos]
    src = segment_ids_from_ptr(ptr)
    keep = labels[nbrs] == labels[verts][src]
    cols = local[nbrs[keep]]
    graph = sp.csr_matrix(
        (np.ones(cols.shape[0]), cols, ptr_from_segment_ids(src[keep], m)), shape=(m, m)
    )
    # the same-label edges of an undirected graph are symmetric, so their
    # strong components are the connected components; the strong search
    # skips the transpose that the undirected one builds
    k, found = csgraph.connected_components(graph, directed=True, connection="strong")
    # renumber by first position: np.unique's first indices, ranked
    _, first = np.unique(found, return_index=True)
    rank = np.empty(k, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(k)
    return rank[found], k


def connected_components(xadj, adjncy, mask=None):
    """Label connected components; returns (labels, n_components).

    Components are numbered in order of their lowest vertex, and
    masked-out vertices get label -1.  The graph must be undirected, as
    :func:`adjacency_from_pattern` builds it.
    """
    n = xadj.shape[0] - 1
    verts = np.arange(n, dtype=np.int64) if mask is None else np.flatnonzero(mask)
    comp, k = label_components(xadj, adjncy, verts, _mask_labels(n, mask))
    labels = np.full(n, -1, dtype=np.int64)
    labels[verts] = comp
    return labels, k


def pseudo_peripheral_nodes(xadj, adjncy, starts, labels, max_iter=8):
    """George–Liu pseudo-peripheral search in every label class at once.

    ``starts[t]`` is the start vertex of class ``t`` and must carry
    label ``t``.  Each round runs one :func:`labelled_bfs` for the
    classes still searching: every such class moves to the first
    minimum-degree vertex (in BFS order) of its last level and keeps the
    new BFS, and it stops once the eccentricity stops growing, or after
    ``max_iter`` rounds.

    Returns ``(roots, levels, order, ecc)``: each class's final vertex,
    the levels of its latest BFS, the vertices that BFS reached grouped
    by class (class order, BFS order inside a class) and its
    eccentricity.
    """
    n = xadj.shape[0] - 1
    labels = np.asarray(labels)
    roots = np.array(starts, dtype=np.int64).reshape(-1)  # a copy: rounds overwrite it
    n_classes = roots.shape[0]
    deg = vertex_degrees(xadj)
    levels, order = labelled_bfs(xadj, adjncy, roots, labels)
    if np.any(labels[roots] != np.arange(n_classes)):
        raise ValueError("starts[t] must carry label t")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(order.shape[0])
    ecc = np.full(n_classes, -1, dtype=np.int64)
    np.maximum.at(ecc, labels[order], levels[order])
    # searching[t]: class t still moves; label -1 reads the False sentinel
    searching = np.arange(n_classes + 1) < n_classes
    for _ in range(max_iter):
        active = np.flatnonzero(searching)
        if active.size == 0:
            break
        # candidate: first minimum-degree vertex of the last level
        last = order[levels[order] == ecc[labels[order]]]
        last = last[np.lexsort((deg[last], labels[last]))]  # stable: BFS order breaks ties
        cand = last[np.flatnonzero(np.r_[True, labels[last][1:] != labels[last][:-1]])]
        lv2, ord2 = labelled_bfs(xadj, adjncy, cand, labels)
        ecc2 = np.full(n_classes, -1, dtype=np.int64)
        np.maximum.at(ecc2, labels[ord2], lv2[ord2])
        # every searching class keeps its latest BFS, converged or not
        redo = searching[labels]
        levels[redo] = lv2[redo]
        rank[ord2] = np.arange(ord2.shape[0])
        roots[active] = cand
        searching[active] = ecc2[active] > ecc[active]
        ecc[active] = ecc2[active]
        order = ord2[searching[labels[ord2]]]
    reached = np.flatnonzero((levels >= 0) & (labels >= 0))
    order = reached[np.lexsort((rank[reached], labels[reached]))]
    return roots, levels, order, ecc


def pseudo_peripheral_node(xadj, adjncy, start, mask=None, max_iter=8):
    """George–Liu pseudo-peripheral vertex search.

    Repeatedly BFS from the current candidate and move to a minimum-
    degree vertex of the last level until the eccentricity stops growing.
    Produces the long-axis endpoints RCM and dissection want.  Returns
    ``(vertex, levels, order)`` of the latest BFS; this is the one-class
    case of :func:`pseudo_peripheral_nodes`.
    """
    n = xadj.shape[0] - 1
    roots, levels, order, _ = pseudo_peripheral_nodes(
        xadj, adjncy, [start], _mask_labels(n, mask), max_iter=max_iter
    )
    return int(roots[0]), levels, order
