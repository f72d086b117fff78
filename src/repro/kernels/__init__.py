"""Level-batched vectorized kernels and the pattern-keyed symbolic cache.

The framework's hot numeric paths are plain functions: a production
kernel that production code calls directly, and a scalar reference
beside it that tests and benches call by name — ``trisolve_lower`` /
``trisolve_upper`` (``*_serial``) in :mod:`.trisolve`,
``upper_p2p_sim`` / ``superstep_sim`` (``*_scalar``) in :mod:`.des`,
and ``ilu_factor`` (``ilu_factor_sequential``) in
:mod:`repro.core.iluk`.  The two agree bit-for-bit (see
``docs/kernel_backends.md``); :func:`~repro.kernels.hook.kernel` wraps
each production kernel with its trace span and debug validator, and
:mod:`.native` builds and loads the C row loops of the triangular
sweep and the numeric factor.  Symbolic analysis products (diagonal
positions, level sets, sweep plans, row costs) are memoized
per sparsity-pattern fingerprint in :class:`SymbolicCache` so repeated
factor/solve cycles reuse them.
"""

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
    frozen_pattern,
    matrix_fingerprint,
    pattern_fingerprint,
    set_validation_hook,
)

from . import des, hook, native, trisolve

__all__ = [
    "des",
    "trisolve",
    "hook",
    "native",
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
    "frozen_pattern",
    "cached_analysis",
    "default_cache",
    "clear_default_cache",
    "configure_default_cache",
    "freeze_product",
    "set_validation_hook",
]
