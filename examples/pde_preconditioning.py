"""PDE preconditioning study: fill level, thresholds, and MILU.

The classic ILU use case (the paper's group A): an SPD system from a
3D heat-diffusion discretization, solved with preconditioned CG.  The
example sweeps the framework's factorization options — ILU(k) fill
levels, ILU(τ) thresholds, ILU(k, τ) and modified ILU — and reports the
iteration count and factor size each buys.

Run:  python examples/pde_preconditioning.py
"""

import numpy as np

from repro import JavelinILU, JavelinOptions, cg, iluk_tau_factor, ilut_factor
from repro.kernels.trisolve import factor_solver
from repro.matrices.generators import grid3d
from repro.matrices.suite import preorder_for_javelin


def main():
    # Mildly conditioned 3D Laplacian (small shift -> CG has work to do)
    A = preorder_for_javelin(grid3d(12, shift=0.05))
    n = A.n_rows
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    print(f"3D heat problem: n={n}, nnz={A.nnz}")

    r0 = cg(A, b, tol=1e-8, maxiter=4000)
    print(f"\nno preconditioner:       {r0.iterations:4d} CG iterations")

    # --- ILU(k): more fill, fewer iterations, bigger factor -----------
    print("\nILU(k) sweep (Javelin two-stage factorization):")
    for k in [0, 1, 2]:
        ilu = JavelinILU(JavelinOptions(fill_level=k)).setup(A)
        ilu.factor()
        r = cg(A, b, M=ilu.solve, tol=1e-8, maxiter=4000)
        print(
            f"  ILU({k}): {r.iterations:4d} iterations, "
            f"factor nnz = {ilu.S_perm.nnz} ({ilu.S_perm.nnz / A.nnz:.2f}x A)"
        )

    # --- ILU(tau) and the dual threshold -------------------------------
    print("\nILU(tau) sweep (threshold dropping):")
    for tau in [1e-1, 1e-2, 1e-3]:
        F = ilut_factor(A, tau=tau)
        r = cg(A, b, M=factor_solver(F), tol=1e-8, maxiter=4000)
        print(f"  tau={tau:7.0e}: {r.iterations:4d} iterations, nnz={F.nnz}")

    # --- ILU(k, tau) and MILU ------------------------------------------
    print("\ncombined and modified variants:")
    for label, F in [
        ("ILU(1, 1e-2)", iluk_tau_factor(A, k=1, tau=1e-2)),
        ("MILU(1, 1e-2)", iluk_tau_factor(A, k=1, tau=1e-2, modified=True)),
    ]:
        r = cg(A, b, M=factor_solver(F), tol=1e-8, maxiter=4000)
        print(f"  {label:14s}: {r.iterations:4d} iterations, nnz={F.nnz}")

    # MILU preserves row sums: (LU)e == Ae
    from repro.sparse import split_lu

    F = iluk_tau_factor(A, k=0, tau=5e-2, modified=True)
    e = np.ones(n)
    L, U = split_lu(F)
    err = np.abs(L.matvec(U.matvec(e)) - A.matvec(e)).max()
    print(f"\nMILU row-sum preservation: max |(LU - A) e| = {err:.2e}")


if __name__ == "__main__":
    main()
