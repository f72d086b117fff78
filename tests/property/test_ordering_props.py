"""Property-based tests on orderings and level scheduling."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ordering import (
    dulmage_mendelsohn_row_perm,
    level_schedule,
    minimum_degree_order,
    nested_dissection_order,
    rcm_order,
)
from repro.sparse import from_dense, has_full_diagonal
from repro.sparse.pattern import lower_pattern, symmetrize_pattern
from repro.verify.invariants import validate_levels


@st.composite
def sparse_square(draw, max_n=14):
    n = draw(st.integers(3, max_n))
    density = draw(st.floats(0.05, 0.5))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    D = (rng.random((n, n)) < density) * 1.0
    np.fill_diagonal(D, 1.0)
    return from_dense(D)


@settings(max_examples=30, deadline=None)
@given(sparse_square())
def test_orderings_are_permutations(A):
    n = A.n_rows
    for fn in (rcm_order, minimum_degree_order, nested_dissection_order):
        p = fn(A)
        assert np.array_equal(np.sort(p), np.arange(n))


@settings(max_examples=30, deadline=None)
@given(sparse_square(), st.integers(0, 10_000))
def test_dm_restores_diagonal(A, pseed):
    p = np.random.default_rng(pseed).permutation(A.n_rows)
    B = A.permute(row_perm=p)
    q = dulmage_mendelsohn_row_perm(B)
    assert has_full_diagonal(B.permute(row_perm=q))


@settings(max_examples=30, deadline=None)
@given(sparse_square())
def test_level_sets_are_topological(A):
    ls = level_schedule(A)
    L = lower_pattern(symmetrize_pattern(A))
    assert validate_levels(ls, L)


@settings(max_examples=30, deadline=None)
@given(sparse_square())
def test_level_permutation_sorts_levels(A):
    ls = level_schedule(A)
    perm = ls.permutation()
    assert np.all(np.diff(ls.level_of[perm]) >= 0)


@settings(max_examples=30, deadline=None)
@given(sparse_square())
def test_level_count_bounded_by_longest_chain(A):
    """n_levels can never exceed n, and equals 1 iff no strict-lower deps."""
    ls = level_schedule(A)
    assert 1 <= ls.n_levels <= A.n_rows
    L = lower_pattern(symmetrize_pattern(A))
    has_dep = any(
        np.any(L.indices[L.indptr[r] : L.indptr[r + 1]] < r) for r in range(L.n_rows)
    )
    assert (ls.n_levels > 1) == has_dep


@settings(max_examples=30, deadline=None)
@given(sparse_square())
def test_reordered_matrix_levels_preserved(A):
    """The level ordering is topological: re-leveling the permuted matrix
    gives exactly the same level sizes."""
    ls = level_schedule(A)
    p = ls.permutation()
    B = A.permute(p, p)
    ls2 = level_schedule(B)
    assert np.array_equal(ls.level_sizes(), ls2.level_sizes())
