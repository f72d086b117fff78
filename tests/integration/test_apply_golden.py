"""Golden preconditioner applies: every numeric triangular solve, to the last bit.

Each record is a blake2b digest of the output bytes of every public
entry point that applies a combined L\\U factor to a right-hand side:
the scalar ``trisolve_factor`` and the apply of ``factor_solver(F)``
(recorded under its old name ``trisolve_factor_levels``, because the
keys enter the digest), ``JavelinILU.build_solver()`` (1-D) and
``build_multi_solver()`` (``k`` ∈ {1, 3}),
``ResilientFactor.build_multi_solver()``, the real-thread
``threaded_trisolve_lower`` (two threads) and
``threaded_trisolve_superstep`` (both parts), the five schedulers'
``solve`` (elastic at ``elastic_tol`` 0 and 1e-10),
``CSRLevelSetSolver.solve`` and ``as_preconditioner(F)``.  The cases are
the suite matrices at ``scale=SCALE`` plus two edge patterns (1×1 and
diagonal-only).  The digests were recorded from the per-part,
per-width kernels that one level sweep and one row kernel replaced, so
they pin that every apply kept its bits.

Regenerate (only for a deliberate numeric change) with
``PYTHONPATH=src python tests/integration/test_apply_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import CSRLevelSetSolver
from repro.core import JavelinILU
from repro.kernels.trisolve import factor_solver, trisolve_factor
from repro.kernels import cached_analysis
from repro.matrices import SUITE, build_matrix, preorder_for_javelin
from repro.resilience import ResilientFactor
from repro.runtime import threaded_trisolve_lower, threaded_trisolve_superstep
from repro.sched import SCHEDULER_NAMES, SchedOptions, elastic_solve
from repro.solvers import as_preconditioner
from repro.sparse import from_dense

SCALE = 0.05

CASES = sorted(SUITE) + ["edge:one", "edge:diagonal"]


def _matrix(case):
    if case == "edge:one":
        return from_dense(np.array([[2.0]]))
    if case == "edge:diagonal":
        return from_dense(np.diag(np.arange(1.0, 21.0)))
    return preorder_for_javelin(build_matrix(case, scale=SCALE))


def _digest(x):
    x = np.asarray(x)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(x.shape).encode())
    h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    return h.hexdigest()


def apply_record(A):
    """Digest of every apply entry point's output on one matrix."""
    ilu = JavelinILU().setup(A)
    ilu.factor()
    F = ilu.F
    n = F.n_rows
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    B = rng.standard_normal((n, 3))
    an = cached_analysis(F)
    out = {
        "trisolve_factor": trisolve_factor(F, b),
        "trisolve_factor_levels": factor_solver(F)(b),
        "build_solver": ilu.build_solver()(b),
        "build_multi_solver.1": ilu.build_multi_solver()(B[:, :1]),
        "build_multi_solver.3": ilu.build_multi_solver()(B),
        "resilient.multi": ResilientFactor().setup(A).build_multi_solver()(B),
        "threaded_lower": threaded_trisolve_lower(F, b, np.array([0, n]), 2),
        "csrls": CSRLevelSetSolver(F).solve(b),
        "as_preconditioner": as_preconditioner(F)(b),
    }
    for part in ("lower", "upper"):
        plan = an.superstep_plan(part, n_threads=2)
        out[f"superstep.{part}"] = threaded_trisolve_superstep(F, b, plan)
    for name in SCHEDULER_NAMES:
        solve = elastic_solve if name == "elastic" else lambda F, b: factor_solver(F)(b)
        out[f"sched.{name}"] = solve(F, b)
    out["sched.elastic.1e-10"] = elastic_solve(
        F, b, opts=SchedOptions(elastic_tol=1e-10)
    )
    return {k: _digest(v) for k, v in out.items()}


def record_digest(rec):
    h = hashlib.blake2b(digest_size=16)
    for k in sorted(rec):
        h.update(f"{k}={rec[k]};".encode())
    return h.hexdigest()


GOLDEN = {
    '3D_28984_Tetra': '2e90b5bf080241f33df8ef8ef350cd62',
    'ASIC_320ks': 'd6588900eec9622fa458d713e82703ea',
    'ASIC_680ks': 'b7ccd7edf8f4140441ad7ea81fc7a18a',
    'G3_circuit': '0fce43f6f85c53011a31fe8c9e204bfd',
    'TSOPF_RS_b300_c2': '52b99c43e07d179e632e592fa82de9e9',
    'af_shell3': '1edaaa3d52e19393101cc95222249e3e',
    'apache2': '184afe2b6407dff619a28505f210d584',
    'ecology2': '0fce43f6f85c53011a31fe8c9e204bfd',
    'fem_filter': '8a309264c61cffbf23f0444795e5f276',
    'ibm_matrix_2': '0fdb36284ba1d6168e8259ba4ac720ba',
    'offshore': 'b9920f0303593782cb2f0d38033e93ca',
    'parabolic_fem': '184afe2b6407dff619a28505f210d584',
    'scircuit': '82f09d1657933945564ce01246eedc91',
    'thermal2': '184afe2b6407dff619a28505f210d584',
    'tmt_sym': '4a501465038e90a403c22147de0eb650',
    'trans4': '909209f87a7eb3975c52b4283e83cabe',
    'transient': 'b4d282bfc06a8ac97dc96297f873267d',
    'wang3': '4a501465038e90a403c22147de0eb650',
    'edge:one': 'c80b04ab0ca858ab762a048c0431d9a0',
    'edge:diagonal': 'faacfdfdab5573b2fc6c5d77bb3da2eb',
}


@pytest.mark.parametrize("case", CASES)
def test_apply_matches_golden(case):
    rec = apply_record(_matrix(case))
    assert record_digest(rec) == GOLDEN[case], (case, rec)


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {record_digest(apply_record(_matrix(case)))!r},")
