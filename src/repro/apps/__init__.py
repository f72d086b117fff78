"""repro.apps — applications that drive the serve API step-by-step.

The layers below serve *independent* requests; this package supplies
the dependent kind — sequential loops where each step's matrix values
come from the previous step's solution or a drifting coefficient
field.  That is the traffic the paper's setup-amortization argument is
actually about: one sparsity pattern, thousands of numeric updates.

* :mod:`repro.apps.session` — :class:`AppSession`, the step-by-step
  driver over one :class:`~repro.serve.SolveService` matrix key;
* :mod:`repro.apps.heat` — :class:`HeatStepper`, an implicit
  convection–diffusion time-stepper with smoothly drifting
  coefficients (scripted value drift, fixed 5-point pattern);
* :mod:`repro.apps.powerflow` — :class:`PowerFlowNewton`, a Newton
  load-ramp continuation on a nonlinear conductance network
  (solution-driven value drift, fixed circuit pattern).

``benchmarks/bench_apps.py [--check]`` writes ``BENCH_apps.json``:
cold-rebuild vs value-only-refactor vs stale-factor steps/sec,
iteration-drift curves, and the refactor bit-identity gates.

Everything inherits the serve layer's determinism: virtual clock,
seeded numerics, bit-identical replays.
"""

from .session import AppSession, StepRecord
from .heat import HeatStepper
from .powerflow import PowerFlowNewton

__all__ = ["AppSession", "StepRecord", "HeatStepper", "PowerFlowNewton"]
