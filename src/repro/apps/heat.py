"""Implicit heat/convection time-stepper on a 2D structured grid.

Backward-Euler discretization of the convection–diffusion equation
``u_t = κ(t) ∇²u − v(t)·∇u``: each step solves

    (I + Δt·κ(t)·A(v(t))) u^{t+1} = u^t

where ``A(v)`` is the 5-point upwind operator
(:func:`repro.matrices.grid2d` with ``shift=0``).  The coefficients
drift smoothly and deterministically — a sinusoidal diffusivity and a
ramping convection velocity — so the *values* of the system matrix
change every step while its *pattern* never does.  The stepper builds
that pattern once, freezes it, and computes each step's values as one
whole-array function of ``(κ, v)``, with the bits ``grid2d`` would
give.  That is precisely the traffic shape the value-only
re-factorization path exists for: under the ``"refactor"`` staleness
policy every step is a numeric-only refresh of the cached symbolic
setup; under ``"stale"`` the old factor keeps serving until iteration
counts degrade; ``"cold"`` rebuilds from scratch and is the baseline
the bench compares against.

Everything is seeded and virtual-clocked; the same configuration
replays bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..kernels import diag_positions, frozen_pattern
from ..matrices import grid2d
from ..sparse.csr import CSRMatrix
from .session import AppSession

__all__ = ["HeatStepper"]


class HeatStepper:
    """Drive the serve API with an implicit convection–diffusion loop."""

    def __init__(
        self,
        nx,
        ny=None,
        *,
        dt=0.05,
        kappa=1.0,
        kappa_drift=0.3,
        convection=0.2,
        convection_drift=0.4,
        period=32,
        seed=0,
        staleness=None,
        solver="richardson",
        tol=1e-8,
        maxiter=500,
        options=None,
        registry=None,
    ):
        if not 0.0 <= kappa_drift < 1.0:
            raise ValueError(f"kappa_drift must be in [0, 1), got {kappa_drift}")
        self.nx = int(nx)
        self.ny = int(ny) if ny is not None else int(nx)
        self.n = self.nx * self.ny
        self.dt = float(dt)
        self.kappa = float(kappa)
        self.kappa_drift = float(kappa_drift)
        self.convection = float(convection)
        self.convection_drift = float(convection_drift)
        self.period = int(period)
        self._build_pattern()
        rng = np.random.default_rng(seed)
        self.u = rng.standard_normal(self.n)
        self.t = 0
        self.session = AppSession(
            self.matrix(0),
            key="heat",
            solver=solver,
            tol=tol,
            maxiter=maxiter,
            staleness=staleness,
            options=options,
            registry=registry,
        )

    # ------------------------------------------------------------------
    def _build_pattern(self):
        """The stencil's CSR pattern, frozen and shared by every step's matrix."""
        P = grid2d(self.nx, self.ny, shift=0.0)
        self._indptr, self._indices = frozen_pattern(P)
        row = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(P.indptr))
        self._up = np.flatnonzero(P.indices - row == -self.ny)  # (i-1, j): upwind
        self._down = np.flatnonzero(P.indices - row == self.ny)  # (i+1, j): downwind
        self._diag = diag_positions(P)
        i, j = np.divmod(np.arange(self.n), self.ny)
        # grid2d's offset order: (-1, 0), (1, 0), (0, -1), (0, 1)
        self._has = (i > 0, i < self.nx - 1, j > 0, j < self.ny - 1)

    def _values(self, kappa_t, conv_t):
        """``data`` of ``I + Δt·κ·A(v)`` on the shared pattern, with ``grid2d``'s bits.

        Off-diagonals are ``-1 ∓ v`` up/downwind and ``-1`` across; each
        diagonal sums its neighbours' ``|w|`` in ``grid2d``'s offset
        order from 0.0 (``shift`` is 0).
        """
        w_up, w_down = -1.0 - conv_t, -1.0 + conv_t
        data = np.full(self._indices.shape[0], -1.0)
        data[self._up] = w_up
        data[self._down] = w_down
        diag = np.zeros(self.n)
        for has, w in zip(self._has, (w_up, w_down, -1.0, -1.0)):
            diag += np.where(has, abs(w), 0.0)
        data[self._diag] = diag
        data *= self.dt * kappa_t
        data[self._diag] += 1.0
        return data

    def coefficients(self, step):
        """Deterministic smooth drift of ``(κ, v)`` at a given step."""
        phase = 2.0 * math.pi * step / self.period
        kappa_t = self.kappa * (1.0 + self.kappa_drift * math.sin(phase))
        conv_t = self.convection + self.convection_drift * 0.5 * (1.0 - math.cos(phase))
        return kappa_t, conv_t

    def matrix(self, step):
        """The implicit system ``I + Δt·κ·A(v)`` at a given step.

        The pattern is the 5-point stencil plus diagonal regardless of
        the coefficients: every step's matrix shares the stepper's
        read-only ``indptr``/``indices`` and only ``data`` is new, which
        the serve layer detects as a value-only update.
        """
        data = self._values(*self.coefficients(step))
        return CSRMatrix(self.n, self.n, self._indptr, self._indices, data, sort=False, check=False)

    # ------------------------------------------------------------------
    def step(self):
        """Advance one backward-Euler step through the serve API."""
        self.t += 1
        rec = self.session.step(self.u, A_new=self.matrix(self.t))
        if rec.x is not None:
            self.u = rec.x
        return rec

    def run(self, n_steps):
        """Advance ``n_steps`` steps; returns the step records."""
        return [self.step() for _ in range(int(n_steps))]

    def summary(self):
        s = self.session.summary()
        s["app"] = "heat"
        s["n"] = self.n
        return s
