"""Pruning proof: the implementation's sync set dominates the true DAG."""

import numpy as np
import pytest

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.lower_sr import SegmentedRows
from repro.core.symbolic import row_factor_costs
from repro.core.upper import assign_dynamic, assign_round_robin
from repro.kernels.plans import build_producer_csr
from repro.machine import SimMachine, uniform_machine
from repro.verify import (
    check_lower_er,
    check_lower_sr,
    check_pruning,
    sync_edges_from_producer_csr,
)

from helpers import random_csr


def _staged(n=40, seed=5, density=0.2, lower="none", alpha=16):
    opts = JavelinOptions(
        schedule=ScheduleOptions(lower_method=lower, min_rows_per_level=alpha)
    )
    return JavelinILU(opts).setup(random_csr(n, density, seed))


@pytest.mark.parametrize("p", [1, 2, 4])
def test_static_map_is_covered(p):
    ilu = _staged()
    thread_of = assign_round_robin(ilu.level_ptr, p)
    rep = check_pruning(ilu.S_perm, thread_of, m=ilu.m)
    assert rep.ok, rep.format()
    assert rep.n_dag_edges >= rep.n_cross_edges
    assert rep.format().startswith("covered")


def test_dynamic_map_is_covered():
    ilu = _staged()
    p = 3
    machine = SimMachine(uniform_machine(n_cores=p), p)
    flops, touched = row_factor_costs(ilu.S_perm)
    thread_of, _ = assign_dynamic(ilu.level_ptr, p, machine, flops, touched)
    rep = check_pruning(ilu.S_perm, thread_of, m=ilu.m)
    assert rep.ok, rep.format()


def test_pruning_ratio_counts_retained_vs_cross():
    ilu = _staged()
    thread_of = assign_round_robin(ilu.level_ptr, 4)
    rep = check_pruning(ilu.S_perm, thread_of, m=ilu.m)
    if rep.n_cross_edges:
        assert rep.pruning_ratio == rep.n_sync_edges / rep.n_cross_edges
        # pruning never *adds* syncs: at most one per (row, producer) pair,
        # and a retained sync only exists where some cross edge does
        assert rep.pruning_ratio <= 1.0


def test_removed_sync_breaks_the_proof():
    ilu = _staged()
    S, m = ilu.S_perm, ilu.m
    thread_of = assign_round_robin(ilu.level_ptr, 3)
    sync = sync_edges_from_producer_csr(*build_producer_csr(S, m, thread_of))
    victim = next(r for r in range(m) if sync[r])
    u = next(iter(sync[victim]))
    del sync[victim][u]
    rep = check_pruning(S, thread_of, m=m, sync=sync)
    assert not rep.ok
    assert any("no retained sync" in why for (_, _, _, why) in rep.uncovered)
    assert rep.format().startswith("NOT covered")


def test_lowered_sync_bound_breaks_the_proof():
    """A retained sync whose bound is below the latest dependency fails."""
    ilu = _staged()
    S, m = ilu.S_perm, ilu.m
    thread_of = assign_round_robin(ilu.level_ptr, 3)
    sync = sync_edges_from_producer_csr(*build_producer_csr(S, m, thread_of))
    for r in range(m):
        for u, need in sync[r].items():
            # `need` is by construction r's *latest* dependency owned by u;
            # lowering the bound to an earlier row of u un-covers that edge
            earlier = [x for x in range(need) if int(thread_of[x]) == u]
            if earlier:
                sync[r][u] = earlier[0]
                rep = check_pruning(S, thread_of, m=m, sync=sync)
                assert not rep.ok
                assert any("bound" in why for (_, _, _, why) in rep.uncovered)
                return
    pytest.skip("no lowerable sync bound in this pattern")


def test_self_wait_is_unsound():
    ilu = _staged()
    S, m = ilu.S_perm, ilu.m
    thread_of = assign_round_robin(ilu.level_ptr, 3)
    sync = sync_edges_from_producer_csr(*build_producer_csr(S, m, thread_of))
    # make some thread's second row "wait" on its own first row
    t = next(t for t in range(3) if np.count_nonzero(thread_of[:m] == t) >= 2)
    first, second = np.nonzero(thread_of[:m] == t)[0][:2]
    sync[int(second)][t] = int(first)
    rep = check_pruning(S, thread_of, m=m, sync=sync)
    assert any("self-wait" in why for (_, _, _, why) in rep.uncovered)


def _staged_with_lower(method):
    # small alpha-heavy schedule so a real lower stage exists
    for seed in range(20):
        ilu = _staged(n=60, seed=seed, density=0.25, lower=method, alpha=12)
        if ilu.S_perm.n_rows > ilu.m > 0:
            return ilu
    pytest.skip(f"could not stage a matrix with a non-empty {method} lower stage")


def test_lower_er_blocks_cover_and_partition():
    ilu = _staged_with_lower("er")
    rep = check_lower_er(ilu.S_perm, ilu.m, n_threads=4)
    assert rep.ok, rep.format()


def test_lower_sr_subblocks_are_structurally_sound():
    ilu = _staged_with_lower("sr")
    sr = SegmentedRows.build(ilu.S_perm, ilu.m, ilu.level_ptr)
    rep = check_lower_sr(sr, ilu.S_perm, ilu.m, ilu.level_ptr)
    assert rep.ok, rep.format()


def test_lower_sr_detects_tampered_entry():
    ilu = _staged_with_lower("sr")
    sr = SegmentedRows.build(ilu.S_perm, ilu.m, ilu.level_ptr)
    lvl = next((i for i in range(sr.n_levels) if len(sr.sub_entries[i])), None)
    if lvl is None:
        pytest.skip("no subblock entries at this size")
    kk, r, c = sr.sub_entries[lvl][0]
    tampered = list(sr.sub_entries[lvl])
    tampered[0] = (int(kk), int(r), int(c) + ilu.S_perm.n_rows)  # column out of range
    sr.sub_entries[lvl] = tampered
    rep = check_lower_sr(sr, ilu.S_perm, ilu.m, ilu.level_ptr)
    assert not rep.ok
