"""Repo-specific AST lint rules for ``src/repro``.

Generic linters cannot know this codebase's contracts, so the
rules here encode them directly (each with a stable ID, used both in
reports and in suppression comments):

``JAV001`` — *guarded division in core kernels.*  In ``core/`` modules,
    dividing by a stored matrix entry (a subscript like ``data[kk]``, or
    a name bound from one, like ``pivot = data[diag_pos[c]]``) is only
    legal inside a function that goes through the pivot-floor breakdown
    path — i.e. one that raises a ``*Breakdown*`` error or calls
    ``classify_pivot``.  An unguarded division silently turns a zero or
    NaN pivot into a poisoned factor.  In ``core/`` and ``runtime/``,
    every ``PivotBreakdownError(...)`` call must pass
    ``kind=classify_pivot(...)``, and one that does not guards nothing:
    a hand-rolled ``abs(pivot) <= tol`` check lets NaN through and
    reports a tiny pivot as ``"zero"``.

``JAV002`` — *synchronization primitives live in runtime/.*  ``time.sleep``
    and ``threading`` lock-family constructors (``Lock``, ``RLock``,
    ``Condition``, ``Semaphore``, ``BoundedSemaphore``, ``Barrier``)
    outside ``runtime/`` are flagged: everything else in the framework
    is deterministic simulation or pure numerics, and stray blocking
    calls there are bugs waiting for a scheduler to find them.  One
    more file is exempt: ``serve/workers.py``, whose thread-safe
    ``submit()`` inbox is the serving layer's single sanctioned
    ingestion lock (the service core itself stays single-threaded).

``JAV003`` — *no mutation of symbolic-cache products.*  Arrays obtained
    from ``cached_analysis(...)`` / ``SymbolicCache.analysis(...)`` (or
    their accessors ``diag_pos`` / ``levels`` / ``plan`` /
    ``solve_costs`` / ``factor_costs`` / ``level_order`` /
    ``superstep_plan`` / ``elastic_schedule``) are shared
    across factor/solve cycles and threads; subscript-assigning or
    calling mutating methods (``fill``, ``sort``, ``resize``, ``put``,
    ``partition``) on them corrupts every other consumer.  (At runtime
    the cache also freezes its arrays — this rule catches the mutation
    at review time instead of raise time.)

``JAV004`` — *public modules declare ``__all__``.*  Every module except
    ``__main__``/tests must state its export surface; the re-export
    convention (explicit ``__all__`` everywhere) is what lets the lint
    and the docs enumerate the API.

``JAV005`` — *instrumentation goes through the repro.obs facade.*
    Wall-clock timing calls (``time.perf_counter``, ``perf_counter_ns``,
    ``process_time``, ``monotonic``, ``monotonic_ns``) outside
    ``obs/`` and ``runtime/`` are flagged: ad-hoc timing in the numeric
    layers bypasses the span recorder (so the timeline lies) and is
    exactly the kind of side channel the bit-identity tests cannot see.
    Instrument with :func:`repro.obs.span` / :func:`repro.obs.instant`
    instead.

``JAV006`` — *no unordered-collection iteration in seeded layers.*  In
    ``serve/``, ``cluster/``, ``sched/`` and ``resilience/`` — the
    layers whose runs are replayed byte-for-byte from a seed —
    iterating a ``set``/``frozenset`` (literal, constructor,
    comprehension, or a name bound from one) feeds hash order into
    results: Python randomizes string hashing per process, so the same
    seed produces different traces.  Iterate ``sorted(the_set)``
    instead.

``JAV007`` — *randomness must be seeded.*  Module-level ``random.*``
    and ``np.random.*`` calls (and ``default_rng()`` / ``Random()`` /
    ``RandomState()`` with no seed argument) draw from global or
    OS-seeded state, unreproducible by construction.  Everything
    outside the ``workload.py`` generator modules must take an
    explicit seed: ``np.random.default_rng(seed)`` or
    ``random.Random(seed)``.

``JAV008`` — *no builtin ``sum()`` in kernels.*  The ``kernels/``
    layer carries the bit-identity contract (same inputs, same bits,
    any thread count); Python's builtin ``sum`` accumulates
    left-to-right over whatever order its iterable happens to have
    and rounds at every step.  Use ``math.fsum`` (exact) or a fixed
    ``np.add.reduce`` ordering instead.

``JAV009`` — *every progress wait is stoppable.*  In ``runtime/`` and
    ``sched/``, a ``try_wait(...)`` call without a ``stop=`` keyword is
    flagged: a multi-worker executor whose waits ignore the team's stop
    event leaves its peers spinning out the full timeout after one
    worker has failed, so the error reaches the caller late.

``JAV010`` — *no per-row loops on the cold structural path.*  In
    ``sparse/csr.py``, ``sparse/pattern.py``, ``ordering/graph.py``,
    ``ordering/nd.py``, ``ordering/levelsets.py``, ``kernels/plans.py``,
    ``resilience/retry.py``, ``sched/elastic.py`` and
    ``core/lower_sr.py``, a ``for`` loop
    (or comprehension) over ``range(<x>.n_rows)``, ``range(n)`` or
    ``range(n_rows)`` is flagged: these modules run once per matrix
    before any numeric work (``retry.py`` once per value-only
    refactor), and a Python-level pass per row there dominated the cold
    solve.  Express the transform with whole-array numpy
    (``segment_ids_from_ptr``, ``segment_positions``, masks, stable
    sorts); its per-row form lives in the tests as the reference.

A finding can be suppressed in place with a trailing comment
``# verify: ok[JAV002] <reason>`` (comma-separate several IDs, ``*``
suppresses all); module-scope rules accept the comment anywhere in the
file.  Use sparingly — each suppression is a claim that the contract
holds for a reason the AST cannot see.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "RULES",
    "lint_source",
    "lint_paths",
    "iter_python_files",
]

_LOCK_NAMES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Barrier"}
_CACHE_CALLS = {"cached_analysis"}
_CACHE_ACCESSORS = {
    "analysis",
    "diag_pos",
    "levels",
    "plan",
    "solve_costs",
    "factor_costs",
    "level_order",
    "superstep_plan",
    "elastic_schedule",
}
_MUTATING_METHODS = {"fill", "sort", "resize", "put", "partition", "itemset"}
_SUPPRESS_RE = re.compile(r"#\s*verify:\s*ok\[([A-Z0-9*,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _suppressions(source: str) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            out[i] = {s.strip() for s in m.group(1).split(",") if s.strip()}
    return out


def _path_parts(path: str) -> tuple[str, ...]:
    return Path(path).parts


# ----------------------------------------------------------------------
# JAV001
# ----------------------------------------------------------------------
def _callee_name(call: ast.Call) -> str:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")


def _unclassified_pivot_error(node: ast.AST) -> bool:
    """A ``PivotBreakdownError(...)`` call without ``kind=classify_pivot(...)``."""
    if not (isinstance(node, ast.Call) and _callee_name(node) == "PivotBreakdownError"):
        return False
    return not any(
        kw.arg == "kind"
        and isinstance(kw.value, ast.Call)
        and _callee_name(kw.value) == "classify_pivot"
        for kw in node.keywords
    )


def _is_guarded(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            if _unclassified_pivot_error(exc):
                continue
            name = ""
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name):
                name = exc.id
            elif isinstance(exc, ast.Attribute):
                name = exc.attr
            if "Breakdown" in name:
                return True
        if isinstance(node, ast.Call) and _callee_name(node) == "classify_pivot":
            return True
    return False


def _data_derived_names(fn: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Subscript)
        ):
            names.add(node.targets[0].id)
    return names


def _check_core_division(tree: ast.Module, path: str) -> list[Finding]:
    """core/ kernels must not divide by a stored entry without a pivot-floor guard."""
    parts = _path_parts(path)
    if "core" not in parts and "runtime" not in parts:
        return []
    findings = [
        Finding(
            "JAV001",
            path,
            node.lineno,
            node.col_offset,
            "PivotBreakdownError without kind=classify_pivot(...) — the one "
            "classification rule, which also catches NaN/Inf and tiny pivots",
        )
        for node in ast.walk(tree)
        if _unclassified_pivot_error(node)
    ]
    if "core" not in parts:
        return findings
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        guarded = _is_guarded(fn)
        if guarded:
            continue
        data_names = _data_derived_names(fn)
        for node in ast.walk(fn):
            divisor = None
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                divisor = node.right
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                divisor = node.value
            if divisor is None:
                continue
            by_entry = isinstance(divisor, ast.Subscript) or (
                isinstance(divisor, ast.Name) and divisor.id in data_names
            )
            if by_entry:
                findings.append(
                    Finding(
                        "JAV001",
                        path,
                        node.lineno,
                        node.col_offset,
                        f"division by a stored matrix entry in `{fn.name}` without "
                        "a pivot-floor guard (raise a *Breakdown* error or route "
                        "through classify_pivot before dividing)",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# JAV002
# ----------------------------------------------------------------------
def _check_sync_primitives(tree: ast.Module, path: str) -> list[Finding]:
    """time.sleep and threading lock constructors belong in runtime/ only.

    ``serve/workers.py`` is the one named exception: the service's
    thread-safe ``submit()`` inbox needs a lock, and confining the
    exemption to that file keeps the rest of ``serve/`` provably
    lock-free.
    """
    parts = _path_parts(path)
    if "runtime" in parts or parts[-2:] == ("serve", "workers.py"):
        return []
    findings = []
    lock_aliases: set[str] = set()
    sleep_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "threading":
                for a in node.names:
                    if a.name in _LOCK_NAMES:
                        lock_aliases.add(a.asname or a.name)
            elif node.module == "time":
                for a in node.names:
                    if a.name == "sleep":
                        sleep_aliases.add(a.asname or a.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        bad = None
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            if f.value.id == "time" and f.attr == "sleep":
                bad = "time.sleep"
            elif f.value.id == "threading" and f.attr in _LOCK_NAMES:
                bad = f"threading.{f.attr}"
        elif isinstance(f, ast.Name):
            if f.id in sleep_aliases:
                bad = "time.sleep"
            elif f.id in lock_aliases:
                bad = f"threading.{f.id}"
        if bad is not None:
            findings.append(
                Finding(
                    "JAV002",
                    path,
                    node.lineno,
                    node.col_offset,
                    f"{bad} outside runtime/ — blocking synchronization belongs "
                    "to the threaded executors",
                )
            )
    return findings


# ----------------------------------------------------------------------
# JAV003
# ----------------------------------------------------------------------
def _is_cache_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name) and f.id in _CACHE_CALLS:
        return True
    return isinstance(f, ast.Attribute) and f.attr in _CACHE_ACCESSORS


def _root_of(node: ast.AST, tainted: set[str]) -> bool:
    """True when the expression chains back to a cache product."""
    while True:
        if _is_cache_call(node):
            return True
        if isinstance(node, ast.Call):
            # a non-accessor method call (`.copy()`, `.astype()`, ...)
            # returns a fresh object — the taint does not flow through
            return False
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif isinstance(node, ast.Name):
            return node.id in tainted
        else:
            return False


def _check_cache_mutation(tree: ast.Module, path: str) -> list[Finding]:
    """no in-place writes or mutating methods on symbolic-cache products."""
    findings = []
    body_nodes = list(ast.walk(tree))
    # taint propagation to fixpoint: x = cached_analysis(F).plan('lower');
    # rows = x.rows; rows[0] = ... must still be caught
    tainted: set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in body_nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id not in tainted
                and _root_of(node.value, tainted)
            ):
                tainted.add(node.targets[0].id)
                changed = True
    for node in body_nodes:
        targets = []
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
            targets = [node.target]
        for tgt in targets:
            if _root_of(tgt.value, tainted):
                findings.append(
                    Finding(
                        "JAV003",
                        path,
                        node.lineno,
                        node.col_offset,
                        "in-place write to an array obtained from the symbolic "
                        "cache — cached products are shared and frozen",
                    )
                )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and _root_of(node.func.value, tainted)
        ):
            findings.append(
                Finding(
                    "JAV003",
                    path,
                    node.lineno,
                    node.col_offset,
                    f"mutating method .{node.func.attr}() on a symbolic-cache "
                    "product — cached products are shared and frozen",
                )
            )
    return findings


# ----------------------------------------------------------------------
# JAV005
# ----------------------------------------------------------------------
_CLOCK_NAMES = {
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "monotonic",
    "monotonic_ns",
}


def _check_raw_clocks(tree: ast.Module, path: str) -> list[Finding]:
    """wall-clock timing outside obs/ and runtime/ bypasses the span layer."""
    parts = _path_parts(path)
    if "obs" in parts or "runtime" in parts:
        return []
    findings = []
    clock_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for a in node.names:
                if a.name in _CLOCK_NAMES:
                    clock_aliases.add(a.asname or a.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        bad = None
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            if f.value.id == "time" and f.attr in _CLOCK_NAMES:
                bad = f"time.{f.attr}"
        elif isinstance(f, ast.Name) and f.id in clock_aliases:
            bad = f"time.{f.id}"
        if bad is not None:
            findings.append(
                Finding(
                    "JAV005",
                    path,
                    node.lineno,
                    node.col_offset,
                    f"{bad} outside obs/ and runtime/ — instrument through the "
                    "repro.obs facade (span/instant/counter) so timing shows up "
                    "on the recorded timeline",
                )
            )
    return findings


# ----------------------------------------------------------------------
# JAV004
# ----------------------------------------------------------------------
def _check_all_declared(tree: ast.Module, path: str) -> list[Finding]:
    """public modules must declare an explicit __all__."""
    base = Path(path).name
    if base == "__main__.py" or base.startswith("test_") or base == "conftest.py":
        return []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                return []
        if isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                return []
        if isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name) and node.target.id == "__all__":
                return []
    return [
        Finding(
            "JAV004",
            path,
            1,
            0,
            "public module does not declare __all__ (state the export surface "
            "explicitly)",
        )
    ]


# ----------------------------------------------------------------------
# JAV006
# ----------------------------------------------------------------------
_SEEDED_LAYERS = {"serve", "cluster", "sched", "resilience"}


def _is_set_expr(node: ast.AST, tainted: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra preserves unorderedness
        return _is_set_expr(node.left, tainted) or _is_set_expr(node.right, tainted)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in ("union", "intersection", "difference",
                              "symmetric_difference", "copy"):
            return _is_set_expr(node.func.value, tainted)
    return False


def _scope_nodes(scope: ast.AST):
    """Walk ``scope`` without descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _check_unordered_iteration(tree: ast.Module, path: str) -> list[Finding]:
    """seeded layers must not let set iteration order reach results."""
    if not (_SEEDED_LAYERS & set(_path_parts(path))):
        return []
    findings = []
    scopes = [tree] + [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        body_nodes = list(_scope_nodes(scope))
        # taint is per-scope: a `seen = set()` in one method must not
        # implicate an unrelated list of the same name elsewhere
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in body_nodes:
                tgt = None
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    tgt, val = node.targets[0].id, node.value
                elif (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None
                    and isinstance(node.target, ast.Name)
                ):
                    tgt, val = node.target.id, node.value
                if tgt and tgt not in tainted and _is_set_expr(val, tainted):
                    tainted.add(tgt)
                    changed = True
        # a generator consumed by an order-insensitive sink (another
        # set, or an explicit sort) is fine regardless of its source
        exempt: set[int] = set()
        for node in body_nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset", "sorted", "max", "min")
                and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                exempt.add(id(node.args[0]))
        iters: list[ast.AST] = []
        for node in body_nodes:
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, ast.SetComp) or (
                isinstance(node, ast.GeneratorExp) and id(node) in exempt
            ):
                continue
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it, tainted):
                findings.append(
                    Finding(
                        "JAV006",
                        path,
                        it.lineno,
                        it.col_offset,
                        "iteration over an unordered set in a seeded layer — hash "
                        "order leaks into the replayed results; iterate "
                        "sorted(...) instead",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# JAV007
# ----------------------------------------------------------------------
_RNG_CTORS = {"default_rng", "Random", "RandomState", "SeedSequence", "Generator"}


def _check_unseeded_random(tree: ast.Module, path: str) -> list[Finding]:
    """random draws outside workload.py generators must carry a seed."""
    if Path(path).name == "workload.py":
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if not isinstance(f, ast.Attribute):
            continue
        root = f.value
        is_random = isinstance(root, ast.Name) and root.id == "random"
        is_np_random = (
            isinstance(root, ast.Attribute)
            and root.attr == "random"
            and isinstance(root.value, ast.Name)
            and root.value.id in ("np", "numpy")
        )
        if not (is_random or is_np_random):
            continue
        if f.attr in _RNG_CTORS:
            if node.args or node.keywords:
                continue  # explicitly seeded constructor
            what = f"{'np.random' if is_np_random else 'random'}.{f.attr}()"
            msg = f"{what} with no seed draws OS entropy — pass an explicit seed"
        else:
            what = f"{'np.random' if is_np_random else 'random'}.{f.attr}"
            msg = (
                f"{what} uses global RNG state — construct a seeded "
                "np.random.default_rng(seed) / random.Random(seed) instead"
            )
        findings.append(Finding("JAV007", path, node.lineno, node.col_offset, msg))
    return findings


# ----------------------------------------------------------------------
# JAV008
# ----------------------------------------------------------------------
def _check_builtin_sum(tree: ast.Module, path: str) -> list[Finding]:
    """kernels' bit-identity paths must not use builtin sum()."""
    if "kernels" not in _path_parts(path):
        return []
    findings = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
        ):
            findings.append(
                Finding(
                    "JAV008",
                    path,
                    node.lineno,
                    node.col_offset,
                    "builtin sum() in a kernels/ module — per-step rounding in "
                    "iterable order breaks the bit-identity contract; use "
                    "math.fsum or a fixed np.add.reduce ordering",
                )
            )
    return findings


# ----------------------------------------------------------------------
# JAV009
# ----------------------------------------------------------------------
def _check_unstoppable_wait(tree: ast.Module, path: str) -> list[Finding]:
    """runtime/ and sched/ progress waits must pass the team's stop event."""
    if not ({"runtime", "sched"} & set(_path_parts(path))):
        return []
    return [
        Finding(
            "JAV009",
            path,
            node.lineno,
            node.col_offset,
            "try_wait(...) without stop= — a failed peer would leave this "
            "wait spinning until its timeout; pass the team's stop event",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "try_wait" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        and not any(k.arg == "stop" for k in node.keywords)
    ]


# ----------------------------------------------------------------------
# JAV010
# ----------------------------------------------------------------------
_STRUCTURAL_MODULES = {("sparse", "csr.py"), ("sparse", "pattern.py"), ("ordering", "graph.py"),
                       ("ordering", "nd.py"), ("ordering", "levelsets.py"), ("kernels", "plans.py"),
                       ("resilience", "retry.py"), ("sched", "elastic.py"), ("core", "lower_sr.py")}


def _is_row_count(node: ast.AST) -> bool:
    """``<x>.n_rows``, ``n`` or ``n_rows``, possibly offset by a constant."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _is_row_count(node.left) and isinstance(node.right, ast.Constant)
    if isinstance(node, ast.Attribute):
        return node.attr == "n_rows"
    return isinstance(node, ast.Name) and node.id in ("n", "n_rows")


def _check_per_row_loops(tree: ast.Module, path: str) -> list[Finding]:
    """the cold structural modules must not loop over every row in Python."""
    if _path_parts(path)[-2:] not in _STRUCTURAL_MODULES:
        return []
    loops = [n.iter for n in ast.walk(tree) if isinstance(n, (ast.For, ast.comprehension))]
    return [
        Finding(
            "JAV010",
            path,
            it.lineno,
            it.col_offset,
            "per-row Python loop on the cold structural path — express it with "
            "whole-array numpy and keep the loop form as a test reference",
        )
        for it in loops
        if isinstance(it, ast.Call)
        and isinstance(it.func, ast.Name)
        and it.func.id == "range"
        and any(_is_row_count(a) for a in it.args)
    ]


RULES = {
    "JAV001": _check_core_division,
    "JAV002": _check_sync_primitives,
    "JAV003": _check_cache_mutation,
    "JAV004": _check_all_declared,
    "JAV005": _check_raw_clocks,
    "JAV006": _check_unordered_iteration,
    "JAV007": _check_unseeded_random,
    "JAV008": _check_builtin_sum,
    "JAV009": _check_unstoppable_wait,
    "JAV010": _check_per_row_loops,
}
_MODULE_SCOPE_RULES = {"JAV004"}


def lint_source(source: str, path: str, *, rules=None) -> list[Finding]:
    """Lint one module's source; ``path`` drives rule applicability."""
    tree = ast.parse(source, filename=path)
    selected = RULES if rules is None else {r: RULES[r] for r in rules}
    suppress = _suppressions(source)
    module_ok = set().union(*suppress.values()) if suppress else set()
    findings: list[Finding] = []
    for rule_id, check in selected.items():
        for f in check(tree, path):
            if rule_id in _MODULE_SCOPE_RULES:
                if rule_id in module_ok or "*" in module_ok:
                    continue
            line_ok = suppress.get(f.line, set())
            if f.rule in line_ok or "*" in line_ok:
                continue
            findings.append(f)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def iter_python_files(paths):
    """Yield ``.py`` files under the given files/directories."""
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(paths, *, rules=None) -> list[Finding]:
    """Lint every python file under ``paths``; returns all findings."""
    findings: list[Finding] = []
    for f in iter_python_files(paths):
        findings.extend(lint_source(f.read_text(), str(f), rules=rules))
    return findings
