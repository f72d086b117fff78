"""Matrix (pre)orderings.

The paper evaluates Javelin under the orderings practitioners actually
use before an iterative solve (§IV "Preordering", §VII "Iteration
count"): Dulmage–Mendelsohn to put nonzeros on the diagonal, then Nested
Dissection (the default), with Reverse Cuthill–McKee, SYMAMD-style
minimum degree, natural order and coloring as the comparison points of
Table II.  On top of any of these Javelin imposes its own *level-set*
ordering (LS-RCM / LS-ND in the paper's notation).

All orderings return a permutation array ``perm`` in gather convention:
new position ``i`` holds old row/column ``perm[i]``, i.e. the reordered
matrix is ``A[perm, :][:, perm]`` (use ``CSRMatrix.permute(perm, perm)``).
"""

from .graph import (
    adjacency_from_pattern,
    bfs_levels,
    connected_components,
    labelled_bfs,
    pseudo_peripheral_node,
    vertex_degrees,
)
from .natural import natural_order
from .rcm import rcm_order, reverse_cuthill_mckee
from .amd import minimum_degree_order
from .nd import nested_dissection_order
from .dulmage_mendelsohn import maximum_matching, dulmage_mendelsohn_row_perm
from .coloring import greedy_coloring, coloring_order
from .levelsets import (
    LevelSets,
    level_schedule,
    level_set_stats,
)

__all__ = [
    "adjacency_from_pattern",
    "bfs_levels",
    "connected_components",
    "labelled_bfs",
    "pseudo_peripheral_node",
    "vertex_degrees",
    "natural_order",
    "rcm_order",
    "reverse_cuthill_mckee",
    "minimum_degree_order",
    "nested_dissection_order",
    "maximum_matching",
    "dulmage_mendelsohn_row_perm",
    "greedy_coloring",
    "coloring_order",
    "LevelSets",
    "level_schedule",
    "level_set_stats",
]
