"""Each lint rule: at least one failing fixture, a passing twin, suppression."""

import textwrap

import pytest

from repro.verify import lint_paths, lint_source
from repro.verify.lint import RULES, iter_python_files


def _lint(src, path, rules=None):
    return lint_source(textwrap.dedent(src), path, rules=rules)


def _ids(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# JAV001 — guarded division in core kernels
# ----------------------------------------------------------------------
def test_jav001_flags_unguarded_division_by_entry():
    src = """
    __all__ = []
    def kernel(data, k, x):
        return x / data[k]
    """
    assert _ids(_lint(src, "src/repro/core/bad.py")) == ["JAV001"]


def test_jav001_flags_name_bound_from_subscript():
    src = """
    __all__ = []
    def kernel(data, diag, c, x):
        pivot = data[diag[c]]
        x /= pivot
        return x
    """
    assert _ids(_lint(src, "src/repro/core/bad.py")) == ["JAV001"]


def test_jav001_passes_breakdown_guarded_function():
    src = """
    __all__ = []
    def kernel(data, k, x):
        if data[k] == 0.0:
            raise ICholBreakdownError(k, data[k])
        return x / data[k]
    """
    assert _lint(src, "src/repro/core/good.py") == []


def test_jav001_flags_pivot_error_without_classify_pivot():
    # a hand-rolled floor check: NaN passes it, and a tiny pivot is
    # reported as "zero"; the unclassified raise guards nothing
    src = """
    __all__ = []
    def kernel(data, k, x, tol):
        pivot = data[k]
        if abs(pivot) <= tol:
            raise PivotBreakdownError(k, pivot)
        return x / pivot
    """
    assert _ids(_lint(src, "src/repro/core/bad.py")) == ["JAV001", "JAV001"]
    runtime = """
    __all__ = []
    def stage(data, k):
        raise PivotBreakdownError(k, data[k], kind="zero")
    """
    assert _ids(_lint(runtime, "src/repro/runtime/bad.py")) == ["JAV001"]


def test_jav001_passes_classified_pivot_error():
    src = """
    __all__ = []
    def kernel(data, k, x, tol):
        pivot = data[k]
        if not (tol < abs(pivot) < float("inf")):
            raise PivotBreakdownError(k, pivot, kind=classify_pivot(pivot, tol))
        return x / pivot
    """
    assert _lint(src, "src/repro/core/good.py") == []
    assert _lint(src, "src/repro/runtime/good.py") == []
    unclassified = """
    __all__ = []
    def retry(data, k):
        raise PivotBreakdownError(k, data[k])
    """
    assert _lint(unclassified, "src/repro/resilience/free.py") == []


def test_jav001_passes_classify_pivot_path():
    src = """
    __all__ = []
    def kernel(data, k, x):
        classify_pivot(data[k])
        return x / data[k]
    """
    assert _lint(src, "src/repro/core/good.py") == []


def test_jav001_only_applies_under_core():
    src = """
    __all__ = []
    def helper(data, k, x):
        return x / data[k]
    """
    assert _lint(src, "src/repro/solvers/free.py") == []


# ----------------------------------------------------------------------
# JAV002 — sync primitives only in runtime/
# ----------------------------------------------------------------------
def test_jav002_flags_time_sleep_outside_runtime():
    src = """
    __all__ = []
    import time
    def poll():
        time.sleep(0.1)
    """
    assert _ids(_lint(src, "src/repro/machine/bad.py")) == ["JAV002"]


def test_jav002_flags_lock_from_import_alias():
    src = """
    __all__ = []
    from threading import Lock as Mutex
    guard = Mutex()
    """
    assert _ids(_lint(src, "src/repro/kernels/bad.py")) == ["JAV002"]


def test_jav002_allows_runtime_modules():
    src = """
    __all__ = []
    import threading
    lock = threading.Lock()
    """
    assert _lint(src, "src/repro/runtime/ok.py") == []


def test_jav002_suppression_comment():
    src = """
    __all__ = []
    import threading
    lock = threading.Lock()  # verify: ok[JAV002] shared with the runtime
    """
    assert _lint(src, "src/repro/kernels/ok.py") == []


# ----------------------------------------------------------------------
# JAV003 — no mutation of symbolic-cache products
# ----------------------------------------------------------------------
def test_jav003_flags_subscript_write_through_taint_chain():
    src = """
    __all__ = []
    def f(F):
        ana = cached_analysis(F)
        rows = ana.levels("lower").rows
        rows[0] = 7
    """
    assert _ids(_lint(src, "src/repro/core/bad.py", rules=["JAV003"])) == ["JAV003"]


def test_jav003_flags_mutating_method_on_accessor_result():
    src = """
    __all__ = []
    def f(F):
        cached_analysis(F).diag_pos().fill(0)
    """
    assert _ids(_lint(src, "src/repro/anything.py")) == ["JAV003"]


@pytest.mark.parametrize(
    "product",
    [
        'plan("lower").ent_idx',
        'superstep_plan("lower", n_threads=4).rows',
        'elastic_schedule("upper", staleness=2).final_sweep',
    ],
)
def test_jav003_flags_write_through_schedule_accessors(product):
    src = f"""
    __all__ = []
    def f(F):
        arr = cached_analysis(F).{product}
        arr[0] = 1
    """
    assert _ids(_lint(src, "src/repro/anything.py", rules=["JAV003"])) == ["JAV003"]


def test_jav003_allows_reads_and_copies():
    src = """
    __all__ = []
    def f(F):
        ana = cached_analysis(F)
        dp = ana.diag_pos()
        x = dp[3]
        mine = dp.copy()
        mine[0] = 1
        return x, mine
    """
    assert _lint(src, "src/repro/anything.py") == []


# ----------------------------------------------------------------------
# JAV004 — public modules declare __all__
# ----------------------------------------------------------------------
def test_jav004_flags_missing_all():
    assert _ids(_lint("x = 1\n", "src/repro/naked.py")) == ["JAV004"]


def test_jav004_passes_declared_all():
    assert _lint("__all__ = ['x']\nx = 1\n", "src/repro/ok.py") == []


def test_jav004_exempts_tests_and_main():
    assert _lint("x = 1\n", "src/repro/pkg/__main__.py") == []
    assert _lint("x = 1\n", "tests/test_naked.py") == []


def test_jav004_module_scope_suppression_anywhere():
    src = """
    # verify: ok[JAV004] script, not a library module
    x = 1
    """
    assert _lint(src, "src/repro/scriptish.py") == []


# ----------------------------------------------------------------------
# JAV005 — wall-clock reads only in obs/ and runtime/
# ----------------------------------------------------------------------
def test_jav005_flags_perf_counter_outside_obs():
    src = """
    __all__ = []
    import time
    def f():
        t0 = time.perf_counter()
        return time.perf_counter() - t0
    """
    assert _ids(_lint(src, "src/repro/solvers/bad.py")) == ["JAV005", "JAV005"]


def test_jav005_flags_from_import_alias():
    src = """
    __all__ = []
    from time import monotonic as clock
    def f():
        return clock()
    """
    assert _ids(_lint(src, "src/repro/core/bad.py", rules=["JAV005"])) == ["JAV005"]


def test_jav005_allows_obs_and_runtime():
    src = """
    __all__ = []
    import time
    def f():
        return time.perf_counter()
    """
    assert _lint(src, "src/repro/obs/ok.py") == []
    assert _lint(src, "src/repro/runtime/ok.py") == []


def test_jav005_suppression_comment():
    src = """
    __all__ = []
    import time
    def f():
        return time.perf_counter()  # verify: ok[JAV005] bench harness timing
    """
    assert _lint(src, "src/repro/kernels/ok.py") == []


def test_jav005_ignores_non_clock_time_attrs():
    src = """
    __all__ = []
    import time
    def f():
        time.sleep(0.1)  # verify: ok[JAV002] test fixture
    """
    assert _lint(src, "src/repro/kernels/ok.py") == []


# ----------------------------------------------------------------------
# whole-repo gate + plumbing
# ----------------------------------------------------------------------
def test_rules_have_ids_and_docstrings():
    assert set(RULES) == {
        "JAV001",
        "JAV002",
        "JAV003",
        "JAV004",
        "JAV005",
        "JAV006",
        "JAV007",
        "JAV008",
        "JAV009",
        "JAV010",
    }
    for check in RULES.values():
        assert check.__doc__, check.__name__


def test_repo_source_is_lint_clean():
    import pathlib

    import repro

    pkg = pathlib.Path(repro.__file__).parent
    findings = lint_paths([str(pkg)])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_iter_python_files_accepts_files_and_dirs(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("__all__ = []\n")
    (tmp_path / "sub").mkdir()
    b = tmp_path / "sub" / "b.py"
    b.write_text("x = 1\n")
    found = list(iter_python_files([str(a), str(tmp_path / "sub")]))
    assert [p.name for p in found] == ["a.py", "b.py"]
    assert _ids(lint_paths([str(tmp_path)])) == ["JAV004"]


# ----------------------------------------------------------------------
# JAV006 — no unordered-set iteration in the seeded layers
# ----------------------------------------------------------------------
def test_jav006_flags_set_iteration_in_seeded_layer():
    src = """
    __all__ = []
    def f(items):
        seen = set(items)
        return [x for x in seen]
    """
    assert _ids(_lint(src, "src/repro/cluster/bad.py", rules=["JAV006"])) == ["JAV006"]


def test_jav006_flags_for_loop_over_set_algebra():
    src = """
    __all__ = []
    def f(a, b):
        out = []
        for x in set(a) | set(b):
            out.append(x)
        return out
    """
    assert _ids(_lint(src, "src/repro/sched/bad.py", rules=["JAV006"])) == ["JAV006"]


def test_jav006_allows_sorted_iteration_and_unordered_sinks():
    src = """
    __all__ = []
    def f(items):
        seen = set(items)
        a = [x for x in sorted(seen)]
        b = frozenset(y for y in seen)
        c = max(y for y in seen)
        return a, b, c
    """
    assert _lint(src, "src/repro/serve/good.py", rules=["JAV006"]) == []


def test_jav006_taint_is_scoped_per_function():
    # a set in one function must not implicate an unrelated list of the
    # same name in another
    src = """
    __all__ = []
    def f(items):
        seen = set(items)
        return len(seen)
    def g(results):
        seen = [r for r in results]
        return [x for x in seen]
    """
    assert _lint(src, "src/repro/serve/good.py", rules=["JAV006"]) == []


def test_jav006_only_applies_to_seeded_layers():
    src = """
    __all__ = []
    def f(items):
        return [x for x in set(items)]
    """
    assert _lint(src, "src/repro/core/fine.py", rules=["JAV006"]) == []


def test_jav006_suppression_comment():
    src = """
    __all__ = []
    def f(items):
        return [x for x in set(items)]  # verify: ok[JAV006] result is re-sorted downstream
    """
    assert _lint(src, "src/repro/cluster/ok.py", rules=["JAV006"]) == []


# ----------------------------------------------------------------------
# JAV007 — randomness must be seeded
# ----------------------------------------------------------------------
def test_jav007_flags_global_rng_calls():
    src = """
    __all__ = []
    import random
    import numpy as np
    def f():
        return random.random() + np.random.rand()
    """
    ids = _ids(_lint(src, "src/repro/cluster/bad.py", rules=["JAV007"]))
    assert ids == ["JAV007", "JAV007"]


def test_jav007_flags_unseeded_constructors():
    src = """
    __all__ = []
    import random
    import numpy as np
    def f():
        return np.random.default_rng(), random.Random()
    """
    ids = _ids(_lint(src, "src/repro/serve/bad.py", rules=["JAV007"]))
    assert ids == ["JAV007", "JAV007"]


def test_jav007_allows_seeded_constructors():
    src = """
    __all__ = []
    import random
    import numpy as np
    def f(seed):
        return np.random.default_rng(seed), random.Random(seed)
    """
    assert _lint(src, "src/repro/serve/good.py", rules=["JAV007"]) == []


def test_jav007_exempts_workload_generators():
    src = """
    __all__ = []
    import numpy as np
    def f():
        return np.random.rand(3)
    """
    assert _lint(src, "src/repro/serve/workload.py", rules=["JAV007"]) == []


# ----------------------------------------------------------------------
# JAV008 — no builtin sum() in kernels
# ----------------------------------------------------------------------
def test_jav008_flags_builtin_sum_in_kernels():
    src = """
    __all__ = []
    def dot(xs):
        return sum(xs)
    """
    assert _ids(_lint(src, "src/repro/kernels/bad.py", rules=["JAV008"])) == ["JAV008"]


def test_jav008_only_applies_to_kernels():
    src = """
    __all__ = []
    def dot(xs):
        return sum(xs)
    """
    assert _lint(src, "src/repro/solvers/fine.py", rules=["JAV008"]) == []


def test_jav008_suppression_comment():
    src = """
    __all__ = []
    def count(xs):
        return sum(xs)  # verify: ok[JAV008] integer counters, no rounding
    """
    assert _lint(src, "src/repro/kernels/ok.py", rules=["JAV008"]) == []


# ----------------------------------------------------------------------
# JAV009 — every progress wait in runtime/ and sched/ is stoppable
# ----------------------------------------------------------------------
def test_jav009_flags_try_wait_without_stop():
    src = """
    __all__ = []
    def spin(board, u, need):
        return board.try_wait(u, need, timeout=1.0)
    """
    for path in ("src/repro/runtime/bad.py", "src/repro/sched/bad.py"):
        assert _ids(_lint(src, path, rules=["JAV009"])) == ["JAV009"]


def test_jav009_passes_stoppable_wait_and_other_layers():
    stoppable = """
    __all__ = []
    def spin(board, u, need, stop):
        return board.try_wait(u, need, timeout=1.0, stop=stop)
    """
    assert _lint(stoppable, "src/repro/runtime/ok.py", rules=["JAV009"]) == []
    bare = """
    __all__ = []
    def spin(board, u, need):
        return board.try_wait(u, need)
    """
    assert _lint(bare, "src/repro/solvers/fine.py", rules=["JAV009"]) == []


# ----------------------------------------------------------------------
# JAV010 — no per-row Python loops on the cold structural path
# ----------------------------------------------------------------------
def test_jav010_flags_per_row_loops_in_structural_modules():
    src = """
    __all__ = []
    def lens(A, n):
        out = [A.indptr[r + 1] - A.indptr[r] for r in range(A.n_rows)]
        for r in range(n):
            pass
        for i in range(n - 1, -1, -1):
            pass
        return out
    """
    for path in (
        "src/repro/sparse/csr.py",
        "src/repro/sparse/pattern.py",
        "src/repro/ordering/graph.py",
        "src/repro/ordering/nd.py",
        "src/repro/ordering/levelsets.py",
        "src/repro/kernels/plans.py",
        "src/repro/resilience/retry.py",
        "src/repro/sched/elastic.py",
        "src/repro/core/lower_sr.py",
    ):
        assert _ids(_lint(src, path, rules=["JAV010"])) == ["JAV010"] * 3


def test_jav010_passes_other_loops_modules_and_suppression():
    fine = """
    __all__ = []
    def walk(levels, n_levels):
        for lvl in range(n_levels):
            pass
        for r in range(n):  # verify: ok[JAV010] one BFS per component seed
            pass
    """
    assert _lint(fine, "src/repro/ordering/graph.py", rules=["JAV010"]) == []
    loop = """
    __all__ = []
    def rows(A):
        for r in range(A.n_rows):
            pass
    """
    assert _lint(loop, "src/repro/core/iluk.py", rules=["JAV010"]) == []
    assert _lint(loop, "src/repro/sparse/csr5.py", rules=["JAV010"]) == []
