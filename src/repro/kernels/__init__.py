"""Level-batched vectorized kernels and the pattern-keyed symbolic cache.

The framework's hot numeric paths — triangular sweeps and the
upper-stage DES — live here as named kernels with interchangeable
backends (``"scalar"`` reference vs ``"batched"`` level-set NumPy),
resolved through :func:`get_kernel`.  Symbolic analysis products
(diagonal positions, level sets, sweep plans, the numeric factor's
update schedule, row costs) are memoized
per sparsity-pattern fingerprint in :class:`SymbolicCache` so repeated
factor/solve cycles reuse them.

Registered kernels (each with ``scalar`` and ``batched`` backends):

* ``trisolve_lower`` — forward solve ``L y = b`` on the combined factor,
  for ``b`` of shape ``(n,)`` or ``(n, k)``;
* ``trisolve_upper`` — backward solve ``U x = y``, likewise;
* ``upper_p2p_sim`` — the point-to-point DES sweep;
* ``superstep_sim`` — the barrier DES sweep (one barrier per step);
* ``ilu_factor`` — the numeric ILU factor, registered by
  :mod:`repro.core.iluk` on the schedule of
  :func:`~repro.kernels.plans.build_factor_schedule`.

Backends agree bit-for-bit; see ``docs/kernel_backends.md`` for the
accumulation-order contract and how to add a backend.
"""

from .registry import (
    available_backends,
    available_kernels,
    get_default_backend,
    get_kernel,
    register_kernel,
    set_default_backend,
)
from .plans import (
    TriSolvePlan,
    backward_level_sets,
    build_producer_csr,
    build_trisolve_plan,
    diag_positions,
    forward_level_sets,
)
from .cache import (
    SymbolicAnalysis,
    SymbolicCache,
    cached_analysis,
    clear_default_cache,
    configure_default_cache,
    default_cache,
    freeze_product,
    matrix_fingerprint,
    pattern_fingerprint,
    set_validation_hook,
)

# importing the kernel modules registers their backends; both are part
# of the public surface (re-exported via __all__, no suppression needed)
from . import des, trisolve

__all__ = [
    "des",
    "trisolve",
    "register_kernel",
    "get_kernel",
    "available_backends",
    "available_kernels",
    "set_default_backend",
    "get_default_backend",
    "TriSolvePlan",
    "build_trisolve_plan",
    "forward_level_sets",
    "backward_level_sets",
    "diag_positions",
    "build_producer_csr",
    "SymbolicAnalysis",
    "SymbolicCache",
    "pattern_fingerprint",
    "matrix_fingerprint",
    "cached_analysis",
    "default_cache",
    "clear_default_cache",
    "configure_default_cache",
    "freeze_product",
    "set_validation_hook",
]
