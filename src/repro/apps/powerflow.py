"""Power-flow style Newton solver over the serve API.

Nonlinear network balance on a circuit-style graph
(:func:`repro.matrices.circuit_network`):

    F(x) = G·x + s·sinh(x) − λ·p = 0

— a standard surrogate for AC power-flow equations: a linear
conductance network ``G`` plus an elementwise hyperbolic injection
term (the sinh keeps the Jacobian symmetric-positive-dominant while
being genuinely nonlinear).  The Jacobian

    J(x) = G + s·diag(cosh(x))

shares ``G``'s sparsity pattern exactly — cosh only touches the
structurally present diagonal — so every Newton iteration is a
value-only matrix update followed by one linear solve, the same shape
as the heat stepper but with *solution-driven* (not scripted) value
drift.

The load ramps over ``load_steps`` continuation levels λ ∈ (0, 1]
(classic power-flow load ramp), warm-starting each level from the
previous solution: many Newton solves against one pattern, which is
what makes the cached-symbolic refactor path pay.
"""

from __future__ import annotations

import numpy as np

from ..kernels import diag_positions, frozen_pattern
from ..matrices import circuit_network
from ..sparse import CSRMatrix, spmv_csr
from .session import AppSession

__all__ = ["PowerFlowNewton"]


class PowerFlowNewton:
    """Newton continuation on a nonlinear conductance network."""

    def __init__(
        self,
        n=240,
        *,
        s=0.5,
        seed=0,
        load_steps=4,
        newton_tol=1e-9,
        max_newton=16,
        staleness=None,
        solver="richardson",
        tol=1e-10,
        maxiter=800,
        options=None,
        registry=None,
    ):
        self.n = int(n)
        self.s = float(s)
        self.load_steps = int(load_steps)
        self.newton_tol = float(newton_tol)
        self.max_newton = int(max_newton)
        G = circuit_network(self.n, seed=seed)
        # one frozen pattern shared by G and every Jacobian
        self.G = CSRMatrix(self.n, self.n, *frozen_pattern(G), G.data, sort=False, check=False)
        self._diag = diag_positions(self.G)
        # target injections from a known operating point, so a solution
        # exists at full load and Newton has something to converge to
        rng = np.random.default_rng(seed + 1)
        self.x_star = 0.4 * rng.standard_normal(self.n)
        self.p = spmv_csr(self.G, self.x_star) + self.s * np.sinh(self.x_star)
        self.x = np.zeros(self.n)
        self.newton_history: list[dict] = []
        self.session = AppSession(
            self.jacobian(self.x),
            key="powerflow",
            solver=solver,
            tol=tol,
            maxiter=maxiter,
            staleness=staleness,
            options=options,
            registry=registry,
        )

    # ------------------------------------------------------------------
    def residual(self, x, load):
        return spmv_csr(self.G, x) + self.s * np.sinh(x) - load * self.p

    def jacobian(self, x):
        """``G + s·diag(cosh(x))`` — same pattern as G, values follow x."""
        G, data = self.G, self.G.data.copy()
        data[self._diag] += self.s * np.cosh(x)
        return CSRMatrix(self.n, self.n, G.indptr, G.indices, data, sort=False, check=False)

    # ------------------------------------------------------------------
    def solve(self):
        """Run the full load-ramp continuation; returns Newton history.

        Each entry records one Newton iteration: the load level, the
        nonlinear residual norm before the update, and the serve-layer
        step record of the linear solve.
        """
        scale = float(np.linalg.norm(self.p))
        for k in range(1, self.load_steps + 1):
            lam = k / self.load_steps
            for it in range(self.max_newton):
                F = self.residual(self.x, lam)
                fnorm = float(np.linalg.norm(F))
                if fnorm <= self.newton_tol * max(1.0, lam * scale):
                    break
                rec = self.session.step(-F, A_new=self.jacobian(self.x))
                if rec.x is None or rec.outcome == "breakdown":
                    raise RuntimeError(
                        f"linear solve failed at load {lam:g}, newton {it}"
                    )
                self.x = self.x + rec.x
                self.newton_history.append(
                    {"load": lam, "newton_iter": it, "fnorm": fnorm, "step": rec.to_dict()}
                )
        return self.newton_history

    def final_residual(self):
        """Nonlinear residual norm at full load for the current iterate."""
        return float(np.linalg.norm(self.residual(self.x, 1.0)))

    def summary(self):
        s = self.session.summary()
        s["app"] = "powerflow"
        s["n"] = self.n
        s["newton_iterations"] = len(self.newton_history)
        s["final_residual"] = self.final_residual()
        return s
