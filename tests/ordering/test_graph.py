import numpy as np
import pytest

from repro.ordering import (
    adjacency_from_pattern,
    bfs_levels,
    connected_components,
    labelled_bfs,
    pseudo_peripheral_node,
    vertex_degrees,
)
from repro.sparse import from_dense

from helpers import random_csr


def path_graph(n):
    D = np.zeros((n, n))
    for i in range(n - 1):
        D[i, i + 1] = D[i + 1, i] = 1.0
    np.fill_diagonal(D, 2.0)
    return from_dense(D)


class TestAdjacency:
    def test_drops_self_loops(self):
        A = from_dense(np.eye(4))
        xadj, adjncy = adjacency_from_pattern(A)
        assert adjncy.shape[0] == 0
        assert np.array_equal(xadj, np.zeros(5, dtype=int))

    def test_symmetrizes_directed_edges(self):
        D = np.eye(3)
        D[0, 2] = 1.0
        xadj, adjncy = adjacency_from_pattern(from_dense(D))
        assert 2 in adjncy[xadj[0] : xadj[1]]
        assert 0 in adjncy[xadj[2] : xadj[3]]

    def test_no_symmetrize_keeps_direction(self):
        D = np.eye(3)
        D[0, 2] = 1.0
        xadj, adjncy = adjacency_from_pattern(from_dense(D), symmetrize=False)
        assert list(adjncy[xadj[2] : xadj[3]]) == []

    def test_rejects_rectangular(self):
        from repro.sparse import COOMatrix, coo_to_csr

        A = coo_to_csr(COOMatrix(2, 3, [0], [1], [1.0]))
        with pytest.raises(ValueError, match="square"):
            adjacency_from_pattern(A)

    def test_degrees(self):
        A = path_graph(4)
        xadj, _ = adjacency_from_pattern(A)
        assert list(vertex_degrees(xadj)) == [1, 2, 2, 1]


class TestBFS:
    def test_path_distances(self):
        A = path_graph(6)
        xadj, adjncy = adjacency_from_pattern(A)
        levels, order = bfs_levels(xadj, adjncy, 0)
        assert list(levels) == [0, 1, 2, 3, 4, 5]
        assert order.shape[0] == 6

    def test_masked_traversal(self):
        A = path_graph(6)
        xadj, adjncy = adjacency_from_pattern(A)
        mask = np.array([True, True, True, False, True, True])
        levels, order = bfs_levels(xadj, adjncy, 0, mask=mask)
        assert levels[3] == -1 and levels[4] == -1  # blocked beyond the hole

    def test_root_outside_mask_rejected(self):
        A = path_graph(3)
        xadj, adjncy = adjacency_from_pattern(A)
        with pytest.raises(ValueError, match="root"):
            bfs_levels(xadj, adjncy, 0, mask=np.array([False, True, True]))


    @pytest.mark.parametrize("edgeless", [False, True])
    @pytest.mark.parametrize("root", [-1, -6, 6, 7])
    def test_root_out_of_range_rejected(self, root, edgeless):
        # a negative root used to wrap around (the order [-1] on an
        # edgeless graph, [-6, 2, 1, 3, 4, 5] on a path), and a root >= n
        # raised a bare IndexError
        xadj, adjncy = adjacency_from_pattern(from_dense(np.eye(6)) if edgeless else path_graph(6))
        with pytest.raises(ValueError, match="out of range"):
            bfs_levels(xadj, adjncy, root)
        with pytest.raises(ValueError, match="out of range"):
            labelled_bfs(xadj, adjncy, [0, root], np.zeros(6, dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            pseudo_peripheral_node(xadj, adjncy, root)


class TestLabelledBFS:
    def test_classes_grow_independently(self):
        # one path 0-…-7 split into classes {0..3} and {4..7}: the edge
        # 3-4 joins two classes, so neither search crosses it
        xadj, adjncy = adjacency_from_pattern(path_graph(8))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        levels, order = labelled_bfs(xadj, adjncy, [2, 7], labels)
        assert list(levels) == [2, 1, 0, 1, 3, 2, 1, 0]
        assert list(order[labels[order] == 0]) == [2, 1, 3, 0]
        assert list(order[labels[order] == 1]) == [7, 6, 5, 4]

    def test_unlabelled_vertices_are_skipped(self):
        xadj, adjncy = adjacency_from_pattern(path_graph(5))
        levels, order = labelled_bfs(xadj, adjncy, [0], np.array([0, 0, -1, 0, 0]))
        assert list(levels) == [0, 1, -1, -1, -1]
        assert list(order) == [0, 1]

    def test_unlabelled_root_rejected(self):
        xadj, adjncy = adjacency_from_pattern(path_graph(3))
        with pytest.raises(ValueError, match="root"):
            labelled_bfs(xadj, adjncy, [1], np.array([0, -1, 0]))


class TestComponents:
    def test_two_components(self):
        D = np.eye(5)
        D[0, 1] = D[1, 0] = 1.0
        D[3, 4] = D[4, 3] = 1.0
        xadj, adjncy = adjacency_from_pattern(from_dense(D))
        labels, k = connected_components(xadj, adjncy)
        assert k == 3  # {0,1}, {2}, {3,4}
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert labels[2] not in (labels[0], labels[3])

    def test_masked_vertices_get_minus_one(self):
        xadj, adjncy = adjacency_from_pattern(path_graph(5))
        labels, k = connected_components(xadj, adjncy, mask=np.array([True, True, False, True, True]))
        assert k == 2
        assert list(labels) == [0, 0, -1, 1, 1]

    def test_connected_graph_single_component(self):
        A = path_graph(8)
        xadj, adjncy = adjacency_from_pattern(A)
        _, k = connected_components(xadj, adjncy)
        assert k == 1


class TestPseudoPeripheral:
    def test_path_endpoint_found(self):
        A = path_graph(10)
        xadj, adjncy = adjacency_from_pattern(A)
        v, levels, order = pseudo_peripheral_node(xadj, adjncy, 5)
        assert v in (0, 9)  # ends of the path have max eccentricity
        assert levels[order].max() == 9

    def test_batched_start_must_carry_its_class(self):
        from repro.ordering.graph import pseudo_peripheral_nodes

        xadj, adjncy = adjacency_from_pattern(path_graph(4))
        with pytest.raises(ValueError, match="label"):
            pseudo_peripheral_nodes(xadj, adjncy, [2, 0], np.array([0, 0, 1, 1]))

    def test_random_graph_returns_valid_vertex(self):
        A = random_csr(25, 0.15, seed=3, sym_pattern=True)
        xadj, adjncy = adjacency_from_pattern(A)
        v, _, order = pseudo_peripheral_node(xadj, adjncy, 0)
        assert 0 <= v < 25
        assert v in order
