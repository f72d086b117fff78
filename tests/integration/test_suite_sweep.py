"""Whole-suite sweep: the staged factorization must hold on every
structural family, not just the handful the focused tests use."""

import numpy as np
import pytest

from repro import JavelinILU, SUITE, build_matrix, preorder_for_javelin
from repro.core import JavelinOptions, ScheduleOptions, ilu_factor_sequential


@pytest.mark.parametrize("name", sorted(SUITE))
def test_staged_parity_across_suite(name):
    A = preorder_for_javelin(build_matrix(name, scale=0.3))
    ilu = JavelinILU(
        JavelinOptions(schedule=ScheduleOptions(min_rows_per_level=12))
    ).setup(A)
    res = ilu.factor()  # auto method
    ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
    assert np.array_equal(res.F.data, ref.data), name


@pytest.mark.parametrize("name", ["TSOPF_RS_b300_c2", "fem_filter", "trans4"])
def test_er_and_sr_agree_on_hard_matrices(name):
    """The structurally nastiest families: both lower methods, same factor."""
    A = preorder_for_javelin(build_matrix(name, scale=0.3))
    data = []
    for method in ["er", "sr"]:
        opts = JavelinOptions(
            schedule=ScheduleOptions(min_rows_per_level=24, lower_method=method)
        )
        data.append(JavelinILU(opts).setup(A).factor().F.data)
    assert np.array_equal(data[0], data[1])


@pytest.mark.parametrize("name", sorted(SUITE))
def test_solve_finite_across_suite(name):
    """The preconditioner apply must stay finite on every family."""
    A = preorder_for_javelin(build_matrix(name, scale=0.3))
    ilu = JavelinILU().setup(A)
    ilu.factor()
    x = ilu.solve(np.ones(A.n_rows))
    assert np.all(np.isfinite(x)), name
