"""The compiled nested dissection against its Python fallback and the reference recursion."""

import ctypes
import shutil
import threading

import numpy as np
import pytest

import reference_structure as ref
from repro.kernels import native
from repro.matrices import build_matrix, preorder_for_javelin
from repro.ordering import nd
from repro.ordering.graph import adjacency_from_pattern, pseudo_peripheral_node
from repro.sparse import CSRMatrix

needs_cc = pytest.mark.skipif(shutil.which("cc") is None and shutil.which("gcc") is None,
                              reason="no C compiler on PATH")

LEAF_SIZES = (1, 4, 32)


def _graph(n, edges, relabel_seed=None):
    """The pattern of an undirected graph on ``n`` vertices, with a full diagonal.

    ``relabel_seed`` shuffles the vertex ids, so components and paths do
    not come in id order.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if relabel_seed is not None:
        edges = np.random.default_rng(relabel_seed).permutation(n)[edges]
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    key = np.unique(rows * max(n, 1) + cols)
    rows, cols = key // max(n, 1), key % max(n, 1)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return CSRMatrix(n, n, indptr, cols)


def _path(n, offset=0):
    return [(offset + i, offset + i + 1) for i in range(n - 1)]


def _clique(n, offset=0):
    return [(offset + i, offset + j) for i in range(n) for j in range(i + 1, n)]


def _hairy_cycle(m=20, hairs=12):
    """A cycle of ``2m`` vertices with a hair of ``2 + i // 2`` vertices at ``i (m + 1) mod 2m``.

    From each hair's tip the farthest vertex is the next hair's tip, one
    step further than the tip before, so the George–Liu search from
    vertex 0 grows for ``hairs - 2`` rounds: more than its cap of 8.
    """
    edges, n = _path(2 * m) + [(2 * m - 1, 0)], 2 * m
    for i in range(hairs):
        prev = i * (m + 1) % (2 * m)
        for _ in range(2 + i // 2):
            edges.append((prev, n))
            prev, n = n, n + 1
    return _graph(n, edges)


def _many_components():
    """Isolated vertices, paths, cliques and a grid, with shuffled ids."""
    edges, n = [], 40  # vertices 0..39 stay isolated
    for size in (2, 3, 7, 45):
        edges += _path(size, n)
        n += size
    for size in (3, 6, 35):
        edges += _clique(size, n)
        n += size
    grid = n + np.arange(81).reshape(9, 9)
    edges += list(zip(grid[:, :-1].ravel(), grid[:, 1:].ravel()))
    edges += list(zip(grid[:-1].ravel(), grid[1:].ravel()))
    n += 81
    return _graph(n, edges, relabel_seed=5)


GRAPHS = {
    "empty": lambda: _graph(0, []),
    "one vertex": lambda: _graph(1, []),
    "isolated vertices": lambda: _graph(50, []),
    "many components": _many_components,
    "clique of 40": lambda: _graph(40, _clique(40), relabel_seed=1),
    "long path": lambda: _graph(1500, _path(1500), relabel_seed=2),
    "hairy cycle": _hairy_cycle,
}


@pytest.mark.parametrize("leaf_size", LEAF_SIZES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_compiled_fallback_and_reference_agree(name, leaf_size):
    A = GRAPHS[name]()
    xadj, adjncy = adjacency_from_pattern(A)
    got = nd.nested_dissection_order(A, leaf_size=leaf_size)
    want = np.asarray(ref.nested_dissection_order(A, leaf_size), dtype=np.int64)
    assert np.array_equal(got, want)
    assert np.array_equal(nd._dissect(xadj, adjncy, leaf_size), want)
    if nd.compiled_nd() is not None:
        assert np.array_equal(nd._dissect_compiled(nd.compiled_nd(), xadj, adjncy, leaf_size), want)


def test_the_hairy_cycle_runs_the_search_to_its_cap():
    """Round 9 would move the root: the order above depends on stopping after 8 rounds."""
    xadj, adjncy = adjacency_from_pattern(_hairy_cycle())
    eight, _, _ = ref.pseudo_peripheral_node(xadj, adjncy, 0, max_iter=8)
    nine, _, _ = ref.pseudo_peripheral_node(xadj, adjncy, 0, max_iter=9)
    assert eight != nine
    assert pseudo_peripheral_node(xadj, adjncy, 0)[0] == eight


def test_without_a_compiler_the_preorder_has_the_same_bits(monkeypatch):
    mats = [build_matrix(name, scale=0.25)
            for name in ("thermal2", "scircuit", "af_shell3", "TSOPF_RS_b300_c2")]
    with_nd = [preorder_for_javelin(A) for A in mats]
    monkeypatch.setattr(nd, "compiled_nd", lambda: None)
    monkeypatch.setattr(nd, "_dissect_compiled", _never_called)
    for A, B in zip(mats, with_nd):
        C = preorder_for_javelin(A)
        assert (B.indptr.tobytes(), B.indices.tobytes(), B.data.tobytes()) == (
            C.indptr.tobytes(), C.indices.tobytes(), C.data.tobytes())


def _never_called(*args):
    raise AssertionError("the compiled dissection ran on unchecked input")


def test_bad_adjacency_is_rejected_before_the_compiled_call():
    xadj, adjncy = adjacency_from_pattern(_graph(5, _path(5)))
    with pytest.raises(ValueError, match="adjncy has shape"):
        nd._dissect_compiled(_never_called, xadj, adjncy[:-1], 4)
    with pytest.raises(ValueError, match="outside"):
        nd._dissect_compiled(_never_called, xadj, np.where(adjncy == 4, 5, adjncy), 4)
    with pytest.raises(ValueError, match="outside"):
        nd._dissect_compiled(_never_called, xadj, -adjncy, 4)
    for bad in (xadj + 1, np.array([0, 2, 1, 4, 6, 8]), xadj.reshape(2, 3)):
        with pytest.raises(ValueError, match="xadj"):
            nd._dissect_compiled(_never_called, bad, adjncy, 4)


def test_compiled_failures_raise():
    xadj, adjncy = adjacency_from_pattern(_graph(5, _path(5)))
    with pytest.raises(MemoryError):
        nd._dissect_compiled(lambda *args: -1, xadj, adjncy, 4)
    with pytest.raises(AssertionError, match="-2"):
        nd._dissect_compiled(lambda *args: -2, xadj, adjncy, 4)


def test_a_non_permutation_is_never_returned(monkeypatch):
    monkeypatch.setattr(nd, "compiled_nd", lambda: lambda *args: 0)
    monkeypatch.setattr(nd, "_dissect_compiled", lambda run, *a: np.zeros(5, dtype=np.int64))
    with pytest.raises(AssertionError, match="non-permutation"):
        nd.nested_dissection_order(_graph(5, _path(5)))


@needs_cc
def test_the_dissection_comes_from_the_sweeps_library():
    status = native.sweep_status()
    assert status.startswith("compiled: ")
    lib = ctypes.CDLL(status.removeprefix("compiled: "))

    def address(fn):
        return ctypes.cast(fn, ctypes.c_void_p).value

    assert address(native.compiled_nd()) == address(lib.nd_order)
    assert nd.compiled_nd is native.compiled_nd


@needs_cc
def test_concurrent_dissections_are_independent():
    mats = [build_matrix(name, scale=0.25) for name in ("thermal2", "scircuit", "wang3")] * 3
    want = [nd.nested_dissection_order(A) for A in mats]
    got = [None] * len(mats)

    def work(i):
        for _ in range(5):
            got[i] = nd.nested_dissection_order(mats[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(mats))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
