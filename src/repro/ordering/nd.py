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

One call of the compiled recursion (``nd_order`` in
``kernels/level_sweep.c``) computes the order.  Without a C compiler,
:func:`_dissect_depths` computes the same order by walking the
dissection tree one depth at a time: every subgraph ("task") of one
depth goes through the same few whole-array calls — one component pass,
one batch of pseudo-peripheral rounds, one vectorized split — and each
task carries the offset of its block in the output.  A task of ``k``
vertices owns ``perm[off:off+k]``: its left half at ``off``, its right
half after it and its separator at the tail; a disconnected task lays
its components out in the order a seed loop over its vertices finds
them.  The leaves are eliminated together by :func:`_min_degree_leaves`.
``docs/algorithms.md`` describes the compiled recursion and argues why
the walk yields its order.
"""

from __future__ import annotations

import functools

import numpy as np

from ..kernels.native import compiled_nd
from ..sparse.segscan import ptr_from_segment_ids, segment_ids_from_ptr, segment_positions
from .graph import adjacency_from_pattern, label_components, pseudo_peripheral_nodes

__all__ = ["nested_dissection_order"]


def _select(verts, task, off, chosen):
    """The entries of the ``chosen`` tasks, with tasks renumbered in order."""
    new_id = np.cumsum(chosen) - 1
    keep = chosen[task]
    return verts[keep], new_id[task[keep]], off[chosen]


def _join(a, b):
    """Two task lists as one, with ``b``'s tasks numbered after ``a``'s."""
    return (
        np.concatenate([a[0], b[0]]),
        np.concatenate([a[1], b[1] + a[2].shape[0]]),
        np.concatenate([a[2], b[2]]),
    )


def _retire_small(verts, task, off, leaf_size, leaves):
    """Move the tasks of at most ``leaf_size`` vertices to ``leaves``."""
    small = np.bincount(task, minlength=off.shape[0]) <= leaf_size
    leaves.append(_select(verts, task, off, small))
    return _select(verts, task, off, ~small)


def _components(xadj, adjncy, verts, task, off):
    """Split every task into its connected components.

    Returns the components as tasks: their vertices (ascending inside a
    component), component ids and offsets.  A task's components follow
    the first position of any member in the task's ``verts`` and fill
    its block back to back.
    """
    ptr = ptr_from_segment_ids(task, off.shape[0])
    labels = np.full(xadj.shape[0] - 1, -1, dtype=np.int64)
    labels[verts] = task
    comp, k = label_components(xadj, adjncy, verts, labels)
    # verts is grouped by task, so numbering by first position keeps
    # each task's components contiguous and in task order
    comp_task = np.empty(k, dtype=np.int64)
    comp_task[comp] = task
    start = np.zeros(k, dtype=np.int64)
    np.cumsum(np.bincount(comp, minlength=k)[:-1], out=start[1:])
    by = np.lexsort((verts, comp))
    return verts[by], comp[by], off[comp_task] + start - ptr[comp_task]


def _split(xadj, adjncy, verts, task, off, perm, leaves):
    """Bisect every connected task at the middle level of a pseudo-peripheral BFS.

    Writes each task's separator into the tail of its block of ``perm``
    and sends the tasks that cannot be bisected to ``leaves``.  Returns
    the halves as two task lists for the next depth: the left halves
    (near levels and the cut-level vertices that are not separators) at
    their block's start, ascending, and the right halves (far levels)
    after them, in BFS order.  A left half is connected — each of its
    vertices reaches the root through BFS parents on lower levels, all in
    the left half — so it needs no component pass.
    """
    n_tasks = off.shape[0]
    ptr = ptr_from_segment_ids(task, n_tasks)
    labels = np.full(xadj.shape[0] - 1, -1, dtype=np.int64)
    labels[verts] = task
    # verts is ascending inside each task, so every search starts at its lowest vertex
    _, levels, order, ecc = pseudo_peripheral_nodes(xadj, adjncy, verts[ptr[:-1]], labels)
    owner = labels[order]
    lv = levels[order]
    cut = (ecc // 2)[owner]
    # side: 0 near, 1 cut level kept left, 2 far, 3 separator — a cut-level
    # vertex is a separator vertex when it touches the far side
    side = np.where(lv < cut, 0, np.where(lv > cut, 2, 1))
    mid = np.flatnonzero(side == 1)
    nptr, pos = segment_positions(xadj, order[mid])
    nbrs = adjncy[pos]
    at = segment_ids_from_ptr(nptr)
    touches = (labels[nbrs] == owner[mid][at]) & (levels[nbrs] > cut[mid][at])
    side[mid[np.bincount(at[touches], minlength=mid.shape[0]) > 0]] = 3
    n_left = np.bincount(owner[side < 2], minlength=n_tasks)
    # too small a diameter to bisect (a clique): eliminate directly.  With
    # ecc >= 2 neither half is empty: the root (level 0) lies below the cut
    # and level ecc above it
    blob = ecc < 2
    leaves.append(_select(verts, task, off, blob))
    # each task's block is [left | right | separator], BFS order within
    by = np.lexsort((side, owner))
    order, owner, side = order[by], owner[by], side[by]
    go = ~blob[owner]
    sep = go & (side == 3)
    perm[off[owner[sep]] + np.flatnonzero(sep) - ptr[owner[sep]]] = order[sep]
    child = (np.cumsum(~blob) - 1)[owner]
    left = go & (side < 2)
    right = go & (side == 2)
    by = np.lexsort((order[left], child[left]))
    return (
        (order[left][by], child[left][by], off[~blob]),
        (order[right], child[right], (off + n_left)[~blob]),
    )


def _min_degree_leaves(xadj, adjncy, verts, leaf, off, perm):
    """Minimum-degree elimination of every leaf at once.

    ``verts`` holds the leaves' vertices grouped by ``leaf`` (ascending
    vertex id inside a leaf) and ``off[l]`` is where leaf ``l`` starts in
    ``perm``.  Leaves are stacked as boolean ``(L, m, m)`` adjacencies,
    ``m`` the leaf size rounded up to a power of two so memory stays
    O(Σ size²).  Each step eliminates, in every leaf, the remaining
    vertex of least remaining degree (the lowest local index — the lowest
    vertex id — on ties), joins its remaining neighbours into a clique
    and clears its row and column: the order of ``min(remaining,
    key=(degree, vertex))`` on the elimination graph.
    """
    n_leaves = off.shape[0]
    sizes = np.bincount(leaf, minlength=n_leaves)
    ptr = np.zeros(n_leaves + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    n = xadj.shape[0] - 1
    local = np.full(n, -1, dtype=np.int64)
    local[verts] = np.arange(verts.shape[0]) - ptr[leaf]
    label = np.full(n, -1, dtype=np.int64)
    label[verts] = leaf
    nptr, pos = segment_positions(xadj, verts)
    nbrs = adjncy[pos]
    src = verts[segment_ids_from_ptr(nptr)]
    inner = label[nbrs] == label[src]
    src, nbrs = src[inner], nbrs[inner]
    bucket = 1 << np.ceil(np.log2(np.maximum(sizes, 1))).astype(np.int64)
    for m in np.unique(bucket):
        # largest leaves first, so the leaves still eliminating are a prefix
        ids = np.flatnonzero(bucket == m)
        ids = ids[np.argsort(-sizes[ids], kind="stable")]
        size = sizes[ids]
        slot = np.full(n_leaves, -1, dtype=np.int64)
        slot[ids] = np.arange(ids.shape[0])
        mine = slot[leaf] >= 0
        vert_of = np.zeros((ids.shape[0], m), dtype=np.int64)
        vert_of[slot[leaf[mine]], local[verts[mine]]] = verts[mine]
        edge = slot[label[src]] >= 0
        adj = np.zeros((ids.shape[0], m, m), dtype=bool)
        adj[slot[label[src[edge]]], local[src[edge]], local[nbrs[edge]]] = True
        remaining = np.arange(m) < size[:, None]
        diag = np.arange(m)
        for step in range(int(size[0])):
            k = int(np.count_nonzero(size > step))
            a, r, rows = adj[:k], remaining[:k], np.arange(k)
            deg = a.sum(axis=2)
            deg[~r] = m + 1
            v = deg.argmin(axis=1)
            perm[off[ids[:k]] + step] = vert_of[rows, v]
            nb = a[rows, v]
            a |= nb[:, :, None] & nb[:, None, :]
            a[:, diag, diag] = False
            a[rows, v, :] = False
            a[rows, :, v] = False
            r[rows, v] = False


def _dissect_depths(xadj, adjncy, leaf_size):
    """The compiled recursion's order, one dissection depth at a time in numpy."""
    n = xadj.shape[0] - 1
    perm = np.full(n, -1, dtype=np.int64)
    leaves = []  # task lists to eliminate by minimum degree, in batches
    # a depth's tasks, as (vertices grouped by task, task of each, offsets):
    # the connected left halves, and the rest, which may be disconnected
    none = (np.empty(0, dtype=np.int64),) * 3
    halves = none
    rest = (np.arange(n), np.zeros(n, dtype=np.int64), np.zeros(min(n, 1), dtype=np.int64))
    while rest[0].size or halves[0].size:
        comps = _components(xadj, adjncy, *_retire_small(*rest, leaf_size, leaves))
        tasks = _retire_small(*_join(comps, halves), leaf_size, leaves)
        halves, rest = _split(xadj, adjncy, *tasks, perm, leaves)
    verts, leaf, off = functools.reduce(_join, leaves, none)
    by = np.lexsort((verts, leaf))
    _min_degree_leaves(xadj, adjncy, verts[by], leaf[by], off, perm)
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
        perm = _dissect_depths(xadj, adjncy, leaf_size)
    else:
        perm = _dissect_compiled(run, xadj, adjncy, leaf_size)
    if (perm < 0).any() or np.unique(perm).shape[0] != n:
        raise AssertionError("nested dissection produced a non-permutation")
    return perm
