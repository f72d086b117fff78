"""Reverse Cuthill–McKee ordering.

RCM is the paper's locality-preserving comparison ordering: Table II
shows it (and LS-RCM, the level-set ordering imposed on top of it)
needing the fewest GMRES iterations, and Fig. 13 measures Javelin's
speedup when the input is RCM-preordered.

Classical algorithm: BFS from a pseudo-peripheral vertex visiting
neighbors in increasing-degree order, then reverse the visit order.
Disconnected graphs are handled component by component.
"""

from __future__ import annotations

import numpy as np

from .graph import (
    adjacency_from_pattern,
    connected_components,
    pseudo_peripheral_nodes,
    vertex_degrees,
)

__all__ = ["reverse_cuthill_mckee", "rcm_order"]


def reverse_cuthill_mckee(xadj, adjncy):
    """RCM permutation of the undirected graph (gather convention)."""
    n = xadj.shape[0] - 1
    deg = vertex_degrees(xadj)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    # components in order of their lowest-numbered vertex, each rooted at
    # the pseudo-peripheral vertex found from that lowest vertex; one
    # batched search serves them all
    labels, _ = connected_components(xadj, adjncy)
    _, lowest = np.unique(labels, return_index=True)
    roots, _, _, _ = pseudo_peripheral_nodes(xadj, adjncy, lowest, labels)
    for root in roots:
        queue = [int(root)]
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


def rcm_order(A):
    """RCM permutation of a CSR matrix's symmetrized pattern."""
    xadj, adjncy = adjacency_from_pattern(A)
    return reverse_cuthill_mckee(xadj, adjncy)
