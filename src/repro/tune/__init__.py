"""repro.tune — the opt-in, model-free serving-loop feedback controller.

:class:`TuneController` adapts, between batches, the scheduler, batch
shape and staleness policy of a :class:`~repro.serve.workers.SolveService`
from windowed obs counters; every path it can pick is bit-identical, so
tuning moves time, never bits.  The one structural rule it applies per
pattern is :func:`serve_scheduler` over :func:`count_supersteps` and the
lower level count, both read off the symbolic cache.

The bench-side regression tracker lives in ``benchmarks/regress.py``.
"""

from .controller import TuneController, TunePolicy, count_supersteps, serve_scheduler

__all__ = [
    "TuneController",
    "TunePolicy",
    "count_supersteps",
    "serve_scheduler",
]
