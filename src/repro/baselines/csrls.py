"""CSR-LS: barrier-synchronized level-set triangular solve.

The standard parallel stri "implemented with OpenMP and barriers
between levels in a level set ordering as done in previous works"
(§VI).  Fig. 12 uses its single-thread time as the speedup base and its
parallel times as the bar to beat.
"""

from __future__ import annotations


from ..machine.core import SimMachine
from ..kernels.cache import cached_analysis
from ..sparse.csr import CSRMatrix
from ..sparse.pattern import symmetrize_pattern
from ..core.trisolve import simulate_trisolve_barrier
from ..kernels.trisolve import trisolve_factor

__all__ = ["CSRLevelSetSolver"]


class CSRLevelSetSolver:
    """Baseline level-set triangular solver over a factored matrix.

    Numerically a plain forward/backward sweep; its simulated execution
    charges a full barrier between consecutive levels.
    """

    def __init__(self, F: CSRMatrix):
        self.F = F
        self.levels = cached_analysis(symmetrize_pattern(F)).levels("lower")

    def solve(self, b):
        """x = U⁻¹ L⁻¹ b (sequential numeric sweeps)."""
        return trisolve_factor(self.F, b)

    def simulate(self, machine: SimMachine, *, both=True):
        """Modelled solve time with barrier-per-level scheduling."""
        return simulate_trisolve_barrier(self.F, self.levels, machine, both=both)

    def n_levels(self):
        return self.levels.n_levels
