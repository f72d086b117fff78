"""Minimum-degree ordering (SYMAMD-style).

Table II's AMD column uses SYMAMD (recommended by Benzi, Szyld & van
Duin for nonsymmetric ILU preconditioning).  This is a classical
minimum-degree elimination on the symmetrized pattern: repeatedly pick a
vertex of minimum degree in the elimination graph, connect its
neighbors into a clique, and remove it.

Implementation notes: the elimination graph is kept as per-vertex Python
sets (adjacency changes every pivot, so flat arrays would be rebuilt
constantly), with a lazy-deletion heap for degree selection and a simple
*mass elimination* rule (indistinguishable vertices — identical closed
neighborhoods — are eliminated together) that keeps the quadratic blow-up
in check on the FEM-type matrices of the suite.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import adjacency_from_pattern

__all__ = ["minimum_degree_order"]


def minimum_degree_order(A):
    """Minimum-degree permutation of the symmetrized pattern.

    Parameters
    ----------
    A:
        Square CSR matrix.
    """
    xadj, adjncy = adjacency_from_pattern(A)
    n = xadj.shape[0] - 1
    adj = [set(adjncy[xadj[v] : xadj[v + 1]].tolist()) for v in range(n)]
    eliminated = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    pos = 0
    while pos < n:
        while True:
            d, v = heapq.heappop(heap)
            if not eliminated[v] and d == len(adj[v]):
                break
        # eliminate v
        order[pos] = v
        pos += 1
        eliminated[v] = True
        nbrs = adj[v]
        # mass elimination: neighbors whose closed neighborhood equals
        # v's clique are eliminated immediately after v.
        clique = nbrs
        mass = [u for u in nbrs if adj[u] <= (clique | {v})]
        for u in sorted(mass):
            if pos >= n:
                break
            order[pos] = u
            pos += 1
            eliminated[u] = True
        survivors = [u for u in nbrs if not eliminated[u]]
        # form the elimination clique among survivors
        for u in survivors:
            adj[u].discard(v)
            for w in mass:
                adj[u].discard(w)
            adj[u].update(x for x in survivors if x != u)
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
        for u in mass:
            adj[u] = set()
    return order
