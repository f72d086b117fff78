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
* order: dissect(left), dissect(right), then the separator last —
  separators stack up at the bottom-right of the matrix exactly as the
  paper's Fig. 2-style structure expects;
* small subgraphs fall back to minimum degree (the standard hybrid).

One call of the compiled loop (``nd_order`` in ``kernels/level_sweep.c``)
computes the order.  Without a C compiler, :func:`_dissect` runs the
same loop in Python: a stack of tasks, each a vertex set that owns its
block of the output.  ``docs/algorithms.md`` describes both.
"""

from __future__ import annotations

import numpy as np

from ..kernels.native import compiled_nd
from ..sparse.segscan import segment_ids_from_ptr, segment_positions
from .graph import adjacency_from_pattern, label_components, pseudo_peripheral_node

__all__ = ["nested_dissection_order"]


def _min_degree(xadj, adjncy, verts):
    """Minimum-degree order of ``verts``.

    Each step eliminates the remaining vertex of least remaining degree,
    the lowest vertex on ties, and joins its remaining neighbours into a
    clique.
    """
    keep = set(verts.tolist())
    adj = {v: keep.intersection(adjncy[xadj[v] : xadj[v + 1]].tolist()) for v in keep}
    order = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u] |= nbrs
            adj[u] -= {u, v}
        order.append(v)
    return order


def _dissect(xadj, adjncy, leaf_size):
    """The compiled loop's order, computed in Python.

    A task ``(verts, off, connected)`` of ``k`` vertices owns
    ``perm[off:off+k]``.  A task of at most ``leaf_size`` vertices is
    ordered by minimum degree.  A larger one that may be disconnected is
    split into its components, ranked by the first position of any
    member in ``verts`` and each sorted, which fill its block back to
    back.  A larger connected one (``verts`` ascending) is bisected: its
    block becomes ``[left | right | separator]``, the separator in BFS
    order.  The left half is connected — each of its vertices reaches the
    root through BFS parents on lower levels — and the right half is
    passed on in BFS order, so its components rank as the compiled loop's
    seed order finds them.
    """
    n = xadj.shape[0] - 1
    perm = np.empty(n, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)  # the current task's vertices
    stack = [(np.arange(n, dtype=np.int64), 0, False)]
    while stack:
        verts, off, connected = stack.pop()
        k = verts.shape[0]
        if k <= leaf_size:
            perm[off : off + k] = _min_degree(xadj, adjncy, verts)
            continue
        mask[verts] = True
        if not connected:
            comp, n_comp = label_components(xadj, adjncy, verts, mask)
            mask[verts] = False
            bounds = np.cumsum(np.bincount(comp))[:-1]
            parts = np.split(verts[np.lexsort((verts, comp))], bounds)
            stack.extend(zip(parts, off + np.r_[0, bounds], [True] * n_comp))
            continue
        _, levels, order = pseudo_peripheral_node(xadj, adjncy, int(verts[0]), mask)
        mask[verts] = False
        lv = levels[order]
        ecc = int(lv[-1])
        if ecc < 2:  # a clique to the search; from ecc 2 neither half is empty
            perm[off : off + k] = _min_degree(xadj, adjncy, verts)
            continue
        # a cut-level vertex is a separator vertex when it touches the far
        # side; levels are -1 outside the task
        cut = ecc // 2
        mid = order[lv == cut]
        ptr, pos = segment_positions(xadj, mid)
        touches = segment_ids_from_ptr(ptr)[levels[adjncy[pos]] > cut]
        is_sep = np.bincount(touches, minlength=mid.shape[0]) > 0
        left = np.sort(np.concatenate([order[lv < cut], mid[~is_sep]]))
        right = order[lv > cut]
        perm[off + left.shape[0] + right.shape[0] : off + k] = mid[is_sep]
        stack.append((left, off, True))
        stack.append((right, off + left.shape[0], False))
    return perm


def _dissect_compiled(run, xadj, adjncy, leaf_size):
    """One call of the compiled recursion ``run`` (:func:`~repro.kernels.native.compiled_nd`)."""
    # the C code checks no bounds: xadj must index adjncy, and adjncy name vertices
    xadj = np.ascontiguousarray(xadj, dtype=np.int64)
    adjncy = np.ascontiguousarray(adjncy, dtype=np.int64)
    n = xadj.shape[0] - 1
    if xadj.ndim != 1 or n < 0 or xadj[0] != 0 or (np.diff(xadj) < 0).any():
        raise ValueError("xadj must be a non-decreasing 1-d array from 0")
    if adjncy.shape != (xadj[-1],):
        raise ValueError(f"adjncy has shape {adjncy.shape}, want ({xadj[-1]},)")
    if adjncy.size and (adjncy.min() < 0 or adjncy.max() >= n):
        raise ValueError(f"adjncy names a vertex outside 0..{n - 1}")
    perm = np.empty(n, dtype=np.int64)
    rc = run(n, xadj.ctypes.data, adjncy.ctypes.data, int(leaf_size), perm.ctypes.data)
    if rc == -1:
        raise MemoryError("nested dissection could not allocate its work arrays")
    if rc != 0:
        raise AssertionError(f"compiled nested dissection failed ({rc})")
    return perm


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
    run = compiled_nd()
    if run is None:
        perm = _dissect(xadj, adjncy, leaf_size)
    else:
        perm = _dissect_compiled(run, xadj, adjncy, leaf_size)
    if (perm < 0).any() or np.unique(perm).shape[0] != n:
        raise AssertionError("nested dissection produced a non-permutation")
    return perm
