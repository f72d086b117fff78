"""The whole-array structural front end equals its per-row reference.

Every function of the cold structural path (CSR transforms, pattern
algebra, graph traversal, nested dissection, level sets) is checked
against the loop form kept in ``tests/reference_structure.py``: each
output array must match element for element, in order, with the same
dtype.  Inputs cover unsorted rows, duplicate entries and empty rows
wherever the function accepts them; the functions that locate the
diagonal by binary search (``diagonal``, ``has_full_diagonal``,
``add_diagonal_pattern``) get rows sorted as the CSR invariant demands.
The DES cost counts and the Segmented-Rows tiles read the slot
expansion, so they get ILU patterns (sorted rows, stored diagonal).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_structure as ref
from helpers import random_csr
from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.lower_sr import SegmentedRows
from repro.core.symbolic import row_factor_costs_split, row_solve_costs
from repro.kernels import backward_level_sets, forward_level_sets
from repro.ordering import (
    adjacency_from_pattern,
    bfs_levels,
    connected_components,
    labelled_bfs,
    level_schedule,
    nested_dissection_order,
    pseudo_peripheral_node,
    reverse_cuthill_mckee,
)
from repro.ordering.graph import pseudo_peripheral_nodes
from repro.ordering.nd import _min_degree
from repro.sparse import CSCMatrix, CSRMatrix
from repro.sparse import pattern as pat

SETTINGS = settings(max_examples=60, deadline=None)


def _random_csr(seed, n_rows, n_cols, *, sorted_rows):
    """Random CSR with empty rows, duplicates and (optionally) unsorted rows."""
    rng = np.random.default_rng(seed)
    density = rng.uniform(0.05, 0.6)
    lens = rng.binomial(max(n_cols, 1), density, size=n_rows) if n_cols else np.zeros(n_rows, int)
    lens[rng.random(n_rows) < 0.15] = 0
    indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    indices = rng.integers(0, max(n_cols, 1), size=int(indptr[-1])).astype(np.int64)
    if rng.random() < 0.5:  # guarantee some duplicated entries
        dup = rng.random(indices.shape[0]) < 0.2
        indices[1:][dup[1:]] = indices[:-1][dup[1:]]
    data = rng.standard_normal(indices.shape[0])
    A = CSRMatrix(n_rows, n_cols, indptr, indices, data, sort=False)
    if sorted_rows:
        ref.sort_indices(A)
    return A


@st.composite
def matrices(draw, *, square=False, sorted_rows=False, min_n=0, max_n=14):
    n_rows = draw(st.integers(min_n, max_n))
    n_cols = n_rows if square else draw(st.integers(0, max_n))
    return _random_csr(draw(st.integers(0, 2**32 - 1)), n_rows, n_cols, sorted_rows=sorted_rows)


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, (a.dtype, b.dtype)
    assert np.array_equal(a, b), (a, b)


def assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        assert_same(getattr(A, name), getattr(B, name))


def assert_same_levels(ls, want):
    for name in ("level_of", "level_ptr", "rows"):
        assert_same(getattr(ls, name), getattr(want, name))


# ----------------------------------------------------------------------
# CSRMatrix methods
# ----------------------------------------------------------------------
@SETTINGS
@given(matrices())
def test_sort_indices_matches_reference_in_place(A):
    indices, data = A.indices.copy(), A.data.copy()
    got = CSRMatrix(A.n_rows, A.n_cols, A.indptr.copy(), indices, data, sort=False)
    assert got.sort_indices() is got
    want = ref.sort_indices(A.copy())
    assert_same_csr(got, want)
    # the sort writes back into the arrays the caller handed in
    assert got.indices is indices and got.data is data


@SETTINGS
@given(matrices())
def test_csc_sort_indices_matches_reference(A):
    # the same arrays read as CSC: segments are columns, indices are rows
    got = CSCMatrix(A.n_cols, A.n_rows, A.indptr.copy(), A.indices.copy(), A.data.copy(), sort=False)
    want = ref.sort_indices(A.copy())
    got.sort_indices()
    assert_same(got.indices, want.indices)
    assert_same(got.data, want.data)


@SETTINGS
@given(matrices())
def test_constructor_sort_matches_reference(A):
    got = CSRMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, A.data)
    assert_same_csr(got, ref.sort_indices(A.copy()))


@SETTINGS
@given(matrices())
def test_transpose_matches_reference(A):
    assert_same_csr(A.transpose(), ref.transpose(A))


@SETTINGS
@given(matrices(sorted_rows=True))
def test_diagonal_matches_reference(A):
    assert_same(A.diagonal(), ref.diagonal(A))


@SETTINGS
@given(matrices(), st.integers(0, 2**32 - 1), st.sampled_from(["row", "col", "both"]))
def test_permute_matches_reference(A, seed, sides):
    rng = np.random.default_rng(seed)
    rp = rng.permutation(A.n_rows) if sides in ("row", "both") else None
    cp = rng.permutation(A.n_cols) if sides in ("col", "both") else None
    assert_same_csr(A.permute(row_perm=rp, col_perm=cp), ref.permute(A, row_perm=rp, col_perm=cp))


@SETTINGS
@given(matrices(square=True), st.integers(0, 2**32 - 1))
def test_symmetric_permute_matches_reference(A, seed):
    p = np.random.default_rng(seed).permutation(A.n_rows)
    assert_same_csr(A.permute(row_perm=p, col_perm=p), ref.permute(A, row_perm=p, col_perm=p))


@SETTINGS
@given(matrices(), st.data())
def test_extract_rows_matches_reference(A, data):
    rows = data.draw(st.lists(st.integers(0, max(A.n_rows - 1, 0)), max_size=20)) if A.n_rows else []
    assert_same_csr(A.extract_rows(rows), ref.extract_rows(A, rows))


@SETTINGS
@given(matrices(), st.integers(0, 2**32 - 1))
def test_prune_matches_reference(A, seed):
    keep = np.random.default_rng(seed).random(A.nnz) < 0.5
    assert_same_csr(A.prune(keep), ref.prune(A, keep))


# ----------------------------------------------------------------------
# sparse/pattern.py
# ----------------------------------------------------------------------
@SETTINGS
@given(matrices())
def test_triangle_filters_match_reference(A):
    for name in ("lower_pattern", "upper_pattern", "strict_lower_pattern", "strict_upper_pattern"):
        assert_same_csr(getattr(pat, name)(A), getattr(ref, name)(A))


@SETTINGS
@given(matrices(), st.integers(0, 2**32 - 1), st.booleans())
def test_pattern_union_matches_reference(A, seed, sorted_b):
    B = _random_csr(seed, A.n_rows, A.n_cols, sorted_rows=sorted_b)
    assert_same_csr(pat.pattern_union(A, B), ref.pattern_union(A, B))


@SETTINGS
@given(matrices(square=True))
def test_symmetrize_pattern_matches_reference(A):
    assert_same_csr(pat.symmetrize_pattern(A), ref.symmetrize_pattern(A))


@SETTINGS
@given(matrices(sorted_rows=True))
def test_has_full_diagonal_matches_reference(A):
    full = pat.add_diagonal_pattern(A)  # every case also gets a full twin
    for M in (A, full):
        assert pat.has_full_diagonal(M) is ref.has_full_diagonal(M)


@SETTINGS
@given(matrices(sorted_rows=True), st.floats(-2.0, 2.0))
def test_add_diagonal_pattern_matches_reference(A, value):
    assert_same_csr(pat.add_diagonal_pattern(A, value), ref.add_diagonal_pattern(A, value))


@SETTINGS
@given(matrices(square=True, min_n=1))
def test_split_lu_matches_reference(A):
    L, U = pat.split_lu(A)
    L_ref, U_ref = ref.split_lu(A)
    assert_same_csr(L, L_ref)
    assert_same_csr(U, U_ref)


# ----------------------------------------------------------------------
# ordering: adjacency, BFS, nested dissection
# ----------------------------------------------------------------------
@SETTINGS
@given(matrices(square=True), st.booleans())
def test_adjacency_matches_reference(A, symmetrize):
    xadj, adjncy = adjacency_from_pattern(A, symmetrize=symmetrize)
    want_xadj, want_adjncy = ref.adjacency_from_pattern(A, symmetrize=symmetrize)
    assert_same(xadj, want_xadj)
    assert_same(adjncy, want_adjncy)


@SETTINGS
@given(matrices(square=True, min_n=1, max_n=40), st.data())
def test_masked_bfs_matches_reference(A, data):
    xadj, adjncy = ref.adjacency_from_pattern(A)
    n = A.n_rows
    root = data.draw(st.integers(0, n - 1))
    mask = None
    if data.draw(st.booleans()):
        mask = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n) < 0.7
        mask[root] = True
    levels, order = bfs_levels(xadj, adjncy, root, mask=mask)
    want_levels, want_order = ref.bfs_levels(xadj, adjncy, root, mask=mask)
    assert_same(levels, want_levels)
    assert_same(order, want_order)
    got = pseudo_peripheral_node(xadj, adjncy, root, mask=mask)
    want = ref.pseudo_peripheral_node(xadj, adjncy, root, mask=mask)
    assert got[0] == want[0]
    assert_same(got[1], want[1])
    assert_same(got[2], want[2])


@SETTINGS
@given(matrices(square=True, min_n=1, max_n=40), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_labelled_bfs_and_pseudo_peripheral_match_reference_per_class(A, seed, n_classes):
    # every class searched together must equal its own masked search
    xadj, adjncy = ref.adjacency_from_pattern(A)
    rng = np.random.default_rng(seed)
    labels = rng.integers(-1, n_classes, size=A.n_rows)
    present = np.unique(labels[labels >= 0])
    labels = np.searchsorted(present, labels) - (labels < 0)  # classes 0..T-1, -1 kept
    starts = np.array([rng.choice(np.flatnonzero(labels == t)) for t in range(present.size)], dtype=np.int64)
    levels, order = labelled_bfs(xadj, adjncy, starts, labels)
    roots, pp_levels, pp_order, ecc = pseudo_peripheral_nodes(xadj, adjncy, starts, labels)
    for t in range(present.size):
        mine = labels == t
        want_levels, want_order = ref.bfs_levels(xadj, adjncy, starts[t], mask=mine)
        assert_same(np.where(mine, levels, -1), want_levels)
        assert_same(order[labels[order] == t], want_order)
        root, want_levels, want_order = ref.pseudo_peripheral_node(xadj, adjncy, starts[t], mask=mine)
        assert roots[t] == root
        assert_same(np.where(mine, pp_levels, -1), want_levels)
        assert_same(pp_order[labels[pp_order] == t], want_order)
        assert ecc[t] == want_levels[want_order].max()


@SETTINGS
@given(matrices(square=True, max_n=40), st.integers(0, 2**32 - 1), st.booleans())
def test_connected_components_matches_reference(A, seed, masked):
    xadj, adjncy = ref.adjacency_from_pattern(A)
    mask = np.random.default_rng(seed).random(A.n_rows) < 0.7 if masked else None
    labels, k = connected_components(xadj, adjncy, mask=mask)
    want_labels, want_k = ref.connected_components(xadj, adjncy, mask=mask)
    assert k == want_k
    assert_same(labels, want_labels)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 70), min_size=1, max_size=8))
def test_lockstep_min_degree_matches_reference(seed, sizes):
    # several leaves of mixed sizes (some past the default leaf size),
    # each ordered on its own against the set loop
    rng = np.random.default_rng(seed)
    n = sum(sizes) + int(rng.integers(0, 10))
    D = rng.random((n, n)) < rng.uniform(0.02, 0.4)
    rows, cols = np.nonzero(D | np.eye(n, dtype=bool))
    A = CSRMatrix(n, n, np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n)))), cols, np.ones(cols.shape[0]))
    xadj, adjncy = ref.adjacency_from_pattern(A)
    verts = rng.permutation(n)[: sum(sizes)]
    leaf = np.repeat(np.arange(len(sizes)), sizes)
    for t in range(len(sizes)):
        got = _min_degree(xadj, adjncy, verts[leaf == t])
        want = ref._min_degree_local(xadj, adjncy, verts[leaf == t])
        assert_same(np.asarray(got, dtype=np.int64), np.asarray(want, dtype=np.int64))


def _multi_component(seed, max_block=30):
    """Square pattern of several random blocks plus isolated vertices, shuffled."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, max_block, size=rng.integers(1, 5))
    n = int(sizes.sum())
    D = np.zeros((n, n))
    start = 0
    for s in sizes:
        block = rng.random((s, s)) < rng.uniform(0.05, 0.4)
        D[start : start + s, start : start + s] = block
        start += s
    np.fill_diagonal(D, 1.0)
    p = rng.permutation(n)
    D = D[p][:, p]
    rows, cols = np.nonzero(D)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return CSRMatrix(n, n, indptr, cols, np.ones(cols.shape[0]))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.one_of(st.integers(1, 8), st.just(32)), st.sampled_from([30, 80]))
def test_nested_dissection_matches_reference(seed, leaf_size, max_block):
    A = _multi_component(seed, max_block)
    assert_same(nested_dissection_order(A, leaf_size=leaf_size), ref.nested_dissection_order(A, leaf_size))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_rcm_matches_reference(seed, multi):
    # one batched pseudo-peripheral search for all components, against
    # one search per component seed
    A = _multi_component(seed) if multi else _random_csr(seed, 30, 30, sorted_rows=False)
    xadj, adjncy = ref.adjacency_from_pattern(A)
    assert_same(reverse_cuthill_mckee(xadj, adjncy), ref.reverse_cuthill_mckee(xadj, adjncy))


# ----------------------------------------------------------------------
# level sets
# ----------------------------------------------------------------------
@SETTINGS
@given(matrices(square=True, max_n=30))
def test_level_sets_match_reference(A):
    assert_same_levels(forward_level_sets(A), ref.forward_level_sets(A))
    assert_same_levels(backward_level_sets(A), ref.backward_level_sets(A))


@SETTINGS
@given(matrices(square=True, max_n=30), st.booleans())
def test_level_schedule_matches_reference(A, use_ata):
    S = ref.symmetrize_pattern(A) if use_ata else A
    assert_same_levels(level_schedule(A, use_ata=use_ata), ref.forward_level_sets(ref.lower_pattern(S)))


# ----------------------------------------------------------------------
# DES cost counts and Segmented-Rows tiles (the slot expansion)
# ----------------------------------------------------------------------
def assert_same_bits(a, b):
    assert_same(a, b)
    assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@st.composite
def staged_patterns(draw):
    """A permuted ILU(k) pattern with its lower-stage boundary ``m`` and upper levels."""
    n = draw(st.integers(1, 40))
    A = random_csr(n, draw(st.floats(0.02, 0.3)), seed=draw(st.integers(0, 2**32 - 1)))
    opts = JavelinOptions(
        fill_level=draw(st.integers(0, 2)),
        schedule=ScheduleOptions(min_rows_per_level=draw(st.integers(1, 12))),
    )
    ilu = JavelinILU(opts)
    ilu.setup(A)
    return ilu.S_perm, ilu.m, ilu.level_ptr


def _diagonal_only(n):
    return CSRMatrix(n, n, np.arange(n + 1), np.arange(n), np.ones(n))


def assert_costs_match_reference(S, m):
    got, want = row_factor_costs_split(S, m), ref.row_factor_costs_split(S, m)
    for g, w in zip(got, want):
        assert_same_bits(g[0], w[0])
        assert_same_bits(g[1], w[1])
    for part in ("lower", "upper"):
        for g, w in zip(row_solve_costs(S, part), ref.row_solve_costs(S, part)):
            assert_same_bits(g, w)


def assert_tiles_match_reference(S, m, level_ptr, tile_size):
    sr = SegmentedRows.build(S, m, level_ptr, tile_size=tile_size)
    want = ref.segmented_rows_sub_entries(S, m, level_ptr)
    assert len(sr.sub_entries) == len(want)
    for g, w in zip(sr.sub_entries, want):
        assert g.shape == w.shape
        assert_same(g, w)
    ptr, target, flops, touched = sr.tile_updates(S)
    got = [list(zip(target[a:b], zip(flops[a:b], touched[a:b]))) for a, b in zip(ptr[:-1], ptr[1:])]
    tiles = [ents for lvl in range(sr.n_levels) for _, ents in sr.tiles_of(lvl)]
    assert got == [sorted(ref._tile_update_counts(S, sr, ents).items()) for ents in tiles]
    for tgt, (f, t) in (u for tile in got for u in tile):
        assert type(tgt) is int and type(f) is float and type(t) is float


@SETTINGS
@given(staged_patterns())
def test_row_costs_match_reference(case):
    S, m, _ = case
    for cut in (0, m, S.n_rows):
        assert_costs_match_reference(S, cut)


@SETTINGS
@given(staged_patterns(), st.sampled_from([1, 4, 64]))
def test_segmented_rows_match_reference(case, tile_size):
    S, m, level_ptr = case
    assert_tiles_match_reference(S, m, level_ptr, tile_size)


@pytest.mark.parametrize("n", [1, 7])
def test_diagonal_only_costs_and_tiles_match_reference(n):
    S = _diagonal_only(n)
    for m in (0, n // 2, n):
        assert_costs_match_reference(S, m)
        for tile_size in (1, 4, 64):
            assert_tiles_match_reference(S, m, np.arange(m + 1), tile_size)


def test_missing_diagonal_raises():
    # the expansion reads every pivot's diagonal position
    S = CSRMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 0]), np.ones(2))
    with pytest.raises(ValueError, match="missing diagonal"):
        row_factor_costs_split(S, 0)
    sr = SegmentedRows.build(S, 1, np.array([0, 1]))
    with pytest.raises(ValueError, match="missing diagonal"):
        sr.tile_updates(S)
