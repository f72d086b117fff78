"""Real threads, deterministic factorization.

Python's GIL prevents wall-clock speedup, but the concurrent algorithm
itself — rows dealt to OS threads, point-to-point spin-waits on
per-thread progress counters — runs for real here, and this example
demonstrates the property the paper's design guarantees and the
fine-grained asynchronous alternative (Chow & Patel) gives up:
*determinism*.  Any thread count, any interleaving, bit-identical L\\U.

Run:  python examples/threaded_runtime.py
"""

import time

import numpy as np

from repro import build_matrix, level_schedule, preorder_for_javelin
from repro.core.iluk import ilu_factor_sequential
from repro.core.symbolic import ilu0_pattern
from repro.runtime import threaded_factor, threaded_trisolve_lower
from repro.kernels.trisolve import trisolve_lower_serial


def main():
    A0 = preorder_for_javelin(build_matrix("wang3", scale=0.6))
    # put the matrix into level order (the LS-only configuration) so the
    # whole factorization runs through the p2p path
    ls = level_schedule(A0)
    perm = ls.permutation()
    A = A0.permute(perm, perm)
    S = ilu0_pattern(A)
    level_ptr = level_schedule(S).level_ptr
    print(f"matrix: n={A.n_rows}, nnz={A.nnz}, levels={len(level_ptr) - 1}")

    t0 = time.perf_counter()
    F_ref = ilu_factor_sequential(A, S)
    t_seq = time.perf_counter() - t0
    print(f"sequential reference factor: {t_seq:.2f}s")

    for p in [1, 2, 4, 8]:
        t0 = time.perf_counter()
        F = threaded_factor(A, S, level_ptr, p)
        dt = time.perf_counter() - t0
        identical = np.array_equal(F.data, F_ref.data)
        print(
            f"  {p} threads: {dt:.2f}s, bit-identical to reference: {identical}"
        )
        assert identical

    # the triangular solve runs through the same machinery
    b = np.random.default_rng(0).standard_normal(A.n_rows)
    y_ref = trisolve_lower_serial(F_ref, b)
    y = threaded_trisolve_lower(F_ref, b, level_ptr, 4)
    print(f"threaded forward solve identical: {np.array_equal(y, y_ref)}")
    print(
        "\n(No speedup is expected under the GIL - that is exactly why the "
        "performance study runs on the simulated machines; see DESIGN.md.)"
    )


if __name__ == "__main__":
    main()
