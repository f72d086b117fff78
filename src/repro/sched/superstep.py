"""DAG-partition / superstep scheduling for triangular solves.

Plain level scheduling pays one synchronization per level — ruinous
when levels are thin (a dependency chain of ``n`` rows costs ``n``
barriers or ``n`` spins).  The superstep scheduler (after Böhnlein et
al., *Efficient Parallel Scheduling for Sparse Triangular Solvers*)
partitions the dependency DAG into **supersteps**: windows of
consecutive levels fused into one parallel step, with the rows of each
window grouped into weakly-connected components of the *intra-window*
dependency subgraph and each component placed wholly on one thread.
Cross-thread dependencies therefore only ever point at **earlier**
supersteps, so one barrier per superstep boundary is the entire sync
set — a chain of 500 levels becomes one superstep with zero syncs.

Fusion is greedy and bounded by two knobs (:class:`SchedOptions`):

* ``max_superstep_rows`` caps the window's row count (keeping the
  working set cache-sized and the plan balanced);
* ``balance_factor`` rejects a fusion whose largest component exceeds
  ``balance_factor * max(window_work / p, window_critical_path)`` —
  fusing may never serialize work that level scheduling would have run
  in parallel, but a pure chain (component == critical path) is always
  fusable because it was serial to begin with.

The plan changes *when* rows run and where the barriers fall, never
what a row computes: a superstep solve is the shared level sweep
(:func:`~repro.kernels.trisolve.factor_solver`), and the plan
drives the DES, the real-thread executor
(:func:`~repro.runtime.threaded_trisolve_superstep`) and the
verify deadlock replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.plans import backward_level_sets, forward_level_sets
from .options import SchedOptions

__all__ = [
    "SuperstepPlan",
    "build_superstep_plan",
    "validate_superstep_plan",
    "superstep_stats",
]


@dataclass
class SuperstepPlan:
    """One DAG-partition schedule of a triangular sweep.

    ``rows`` is the execution order — superstep-major, thread-major
    within a superstep, ``(level, row)``-ascending within a thread (a
    topological order of each thread's program).  ``thread_ptr`` has
    ``n_steps * n_threads + 1`` entries: thread ``t``'s rows of step
    ``s`` are ``rows[thread_ptr[s*p + t] : thread_ptr[s*p + t + 1]]``.
    """

    part: str
    n: int
    n_threads: int
    rows: np.ndarray
    step_ptr: np.ndarray
    thread_ptr: np.ndarray
    thread_of: np.ndarray
    step_of: np.ndarray
    level_of: np.ndarray
    step_level_ptr: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.step_ptr.shape[0] - 1

    @property
    def n_levels(self) -> int:
        return self.step_level_ptr[-1] if self.step_level_ptr.size else 0

    def step_rows(self, s):
        """Rows of superstep ``s`` in execution order."""
        return self.rows[self.step_ptr[s] : self.step_ptr[s + 1]]

    def thread_rows(self, s, t):
        """Thread ``t``'s rows of superstep ``s`` in program order."""
        j = s * self.n_threads + t
        return self.rows[self.thread_ptr[j] : self.thread_ptr[j + 1]]


class _UnionFind:
    """Weighted union-find over the rows of one fusion window."""

    def __init__(self):
        self.parent: list[int] = []
        self.weight: list[float] = []
        self.max_weight = 0.0

    def add(self, w: float) -> int:
        i = len(self.parent)
        self.parent.append(i)
        self.weight.append(w)
        if w > self.max_weight:
            self.max_weight = w
        return i

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if ra > rb:  # keep the smaller local index as root: deterministic labels
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.weight[ra] += self.weight[rb]
        if self.weight[ra] > self.max_weight:
            self.max_weight = self.weight[ra]


def _strict_deps(pattern, r, part):
    cols = pattern.indices[pattern.indptr[r] : pattern.indptr[r + 1]]
    return cols[cols < r] if part == "lower" else cols[cols > r]


def _row_weights(pattern, part):
    """Per-row work estimate: one write plus two flops per strict entry."""
    n = pattern.n_rows
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(pattern.indptr))
    mask = pattern.indices < row_of if part == "lower" else pattern.indices > row_of
    deg = np.bincount(row_of[mask], minlength=n) if mask.any() else np.zeros(n, np.int64)
    return 1.0 + 2.0 * deg.astype(np.float64)


def build_superstep_plan(
    pattern,
    part: str = "lower",
    *,
    n_threads: int,
    opts: SchedOptions | None = None,
    levels=None,
) -> SuperstepPlan:
    """Partition ``pattern``'s ``part`` dependency DAG into supersteps.

    ``levels`` (a :class:`~repro.ordering.levelsets.LevelSets`) may be
    supplied by the symbolic cache; the plan is a
    pure function of the pattern, the part, ``n_threads`` and the
    superstep knobs of ``opts`` — which is exactly how
    :meth:`repro.kernels.cache.SymbolicAnalysis.superstep_plan` keys it.
    """
    if part not in ("lower", "upper"):
        raise ValueError("part must be 'lower' or 'upper'")
    opts = opts if opts is not None else SchedOptions()
    p = int(n_threads)
    if p < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    n = pattern.n_rows
    if levels is None:
        levels = forward_level_sets(pattern) if part == "lower" else backward_level_sets(pattern)
    level_of = np.asarray(levels.level_of, dtype=np.int64)
    level_ptr = np.asarray(levels.level_ptr, dtype=np.int64)
    lrows = np.asarray(levels.rows, dtype=np.int64)
    L = level_ptr.shape[0] - 1
    weights = _row_weights(pattern, part)

    # ---- choose fusion windows (greedy, incremental union-find) ------
    windows: list[tuple[int, int]] = []
    start = 0
    max_rows = int(opts.max_superstep_rows)
    bf = float(opts.balance_factor)
    loc = np.full(n, -1, dtype=np.int64)
    while start < L:
        uf = _UnionFind()
        total = 0.0
        crit = 0.0

        def _absorb(lev):
            nonlocal total, crit
            lev_rows = lrows[level_ptr[lev] : level_ptr[lev + 1]]
            lev_max = 0.0
            for r in lev_rows:
                r = int(r)
                loc[r] = uf.add(weights[r])
                w = float(weights[r])
                total += w
                if w > lev_max:
                    lev_max = w
            crit += lev_max
            for r in lev_rows:
                r = int(r)
                for d in _strict_deps(pattern, r, part):
                    ld = loc[int(d)]
                    if ld >= 0:
                        uf.union(loc[r], ld)

        _absorb(start)
        end = start + 1
        while end < L:
            if level_ptr[end + 1] - level_ptr[start] > max_rows:
                break
            _absorb(end)
            if uf.max_weight > bf * max(total / p, crit):
                break  # fusion would serialize parallel work: cut before `end`
            end += 1
        windows.append((start, end))
        loc[lrows[level_ptr[start] : level_ptr[min(end + 1, L)]]] = -1
        start = end

    # ---- per window: components -> LPT thread assignment -------------
    n_steps = len(windows)
    step_of = np.zeros(n, dtype=np.int64)
    thread_of = np.zeros(n, dtype=np.int64)
    rows_exec = np.empty(n, dtype=np.int64)
    step_ptr = np.zeros(n_steps + 1, dtype=np.int64)
    thread_ptr = np.zeros(n_steps * p + 1, dtype=np.int64)
    step_level_ptr = np.zeros(n_steps + 1, dtype=np.int64)
    pos = 0
    for s, (ws, we) in enumerate(windows):
        wrows = lrows[level_ptr[ws] : level_ptr[we]]
        step_level_ptr[s + 1] = we
        step_of[wrows] = s
        uf = _UnionFind()
        for r in wrows:
            loc[int(r)] = uf.add(float(weights[int(r)]))
        for r in wrows:
            r = int(r)
            for d in _strict_deps(pattern, r, part):
                ld = loc[int(d)]
                if ld >= 0:
                    uf.union(loc[r], ld)
        roots = np.fromiter((uf.find(int(loc[r])) for r in wrows), np.int64, len(wrows))
        comp_w: dict[int, float] = {}
        comp_rows: dict[int, list[int]] = {}
        for r, root in zip(wrows, roots):
            root = int(root)
            comp_w[root] = comp_w.get(root, 0.0) + float(weights[int(r)])
            comp_rows.setdefault(root, []).append(int(r))
        loc[wrows] = -1
        # longest-processing-time: heaviest component to least-loaded thread
        order = sorted(comp_w, key=lambda c: (-comp_w[c], min(comp_rows[c])))
        load = np.zeros(p)
        by_thread: list[list[int]] = [[] for _ in range(p)]
        for c in order:
            t = int(np.argmin(load))
            load[t] += comp_w[c]
            by_thread[t].extend(comp_rows[c])
        for t in range(p):
            rt = np.asarray(sorted(by_thread[t]), dtype=np.int64)
            if rt.size:
                # (level, row) ascending: a topological program order
                rt = rt[np.lexsort((rt, level_of[rt]))]
                thread_of[rt] = t
                rows_exec[pos : pos + rt.size] = rt
                pos += rt.size
            thread_ptr[s * p + t + 1] = pos
        step_ptr[s + 1] = pos

    return SuperstepPlan(
        part=part,
        n=n,
        n_threads=p,
        rows=rows_exec,
        step_ptr=step_ptr,
        thread_ptr=thread_ptr,
        thread_of=thread_of,
        step_of=step_of,
        level_of=level_of,
        step_level_ptr=step_level_ptr,
    )


def validate_superstep_plan(plan: SuperstepPlan, pattern) -> list[str]:
    """Check a plan is a valid topological execution; returns errors.

    The contract ``bench_sched --check`` and the property tests gate on:

    * the execution order covers every row exactly once;
    * the pointer arrays are consistent partitions of the orderings;
    * every dependency of a row lands in an earlier superstep, or on
      the same thread earlier in program order (thread programs are
      topological and cross-thread edges never stay inside a step).
    """
    errors: list[str] = []
    n = plan.n
    p = plan.n_threads
    ids = np.arange(n, dtype=np.int64)
    if plan.rows.shape != (n,) or not np.array_equal(np.sort(plan.rows), ids):
        errors.append(f"rows is not a permutation of 0..{n - 1}")
        return errors
    if plan.step_ptr[0] != 0 or plan.step_ptr[-1] != n or np.any(np.diff(plan.step_ptr) < 0):
        errors.append("step_ptr is not a monotone partition of rows")
    if (
        plan.thread_ptr.shape[0] != plan.n_steps * p + 1
        or plan.thread_ptr[-1] != n
        or np.any(np.diff(plan.thread_ptr) < 0)
        or not np.array_equal(plan.thread_ptr[:: p][: plan.n_steps + 1], plan.step_ptr)
    ):
        errors.append("thread_ptr does not refine step_ptr")
    # exec-order grouping must agree with the per-row maps
    for s in range(plan.n_steps):
        srows = plan.step_rows(s)
        if srows.size and not np.all(plan.step_of[srows] == s):
            errors.append(f"step_of disagrees with rows grouping at step {s}")
            break
        for t in range(p):
            trows = plan.thread_rows(s, t)
            if trows.size and not np.all(plan.thread_of[trows] == t):
                errors.append(f"thread_of disagrees at step {s}, thread {t}")
                break
    if errors:
        return errors
    # dependency checks, vectorized over every strict-part entry
    row_of = np.repeat(ids, np.diff(pattern.indptr))
    mask = pattern.indices < row_of if plan.part == "lower" else pattern.indices > row_of
    d = pattern.indices[mask]
    r = row_of[mask]
    pos = np.empty(n, dtype=np.int64)
    pos[plan.rows] = ids
    earlier_step = plan.step_of[d] < plan.step_of[r]
    same_thread = (
        (plan.step_of[d] == plan.step_of[r])
        & (plan.thread_of[d] == plan.thread_of[r])
        & (pos[d] < pos[r])
    )
    bad = np.flatnonzero(~(earlier_step | same_thread))
    for j in bad[:8]:
        errors.append(
            f"row {int(r[j])} (step {int(plan.step_of[r[j]])}, thread "
            f"{int(plan.thread_of[r[j]])}) not ordered after dependency "
            f"{int(d[j])} (step {int(plan.step_of[d[j]])}, thread "
            f"{int(plan.thread_of[d[j]])})"
        )
    return errors


def superstep_stats(plan: SuperstepPlan) -> dict:
    """Summary numbers for benches and docs."""
    fused = np.diff(plan.step_level_ptr)
    sizes = np.diff(plan.step_ptr)
    return {
        "n_steps": int(plan.n_steps),
        "n_levels": int(plan.n_levels),
        "sync_points": max(int(plan.n_steps) - 1, 0),
        "mean_fused_levels": float(fused.mean()) if fused.size else 0.0,
        "max_fused_levels": int(fused.max()) if fused.size else 0,
        "mean_step_rows": float(sizes.mean()) if sizes.size else 0.0,
    }
