"""Sync-free self-scheduling trisolve (GPU-style, after Li's CUDA solver).

No levels, no barriers, no per-level dealing: row ``r`` is pinned to
lane ``r mod L`` over ``L`` persistent lanes, and each lane simply
spins on a per-row *ready* flag for every dependency before computing
— the whole schedule is the data flow itself.  This only makes sense
on a machine with thousands of slow lanes and cheap atomics (a GPU's
``__threadfence`` + flag polling), which is what the
:func:`repro.machine.gpulike` preset models: the barrier a level-set
schedule would pay per level costs microseconds device-wide, while the
per-dependency flag poll costs nanoseconds.

Numerically the mode is exact by construction — any completion order
consumes finished dependency values and each row's accumulation
arithmetic is unchanged — so the numeric path is the standard batched
kernel; only the *time* model differs, which is what
:func:`simulate_syncfree` computes.  That model is the shared p2p DES
sweep under another row→thread map: rows in natural order (reversed
for the upper part) on lane ``r mod L``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simulate_syncfree"]


def simulate_syncfree(
    S,
    machine,
    flops,
    touched,
    *,
    part: str = "lower",
    start_time: float = 0.0,
    trace=None,
):
    """Modelled time of the self-scheduled sweep on a SimMachine.

    Lane assignment is ``r mod n_threads`` in row order (the natural
    CUDA block/warp numbering); the upper part runs the rows in
    reverse.  A row starts when its lane is free and every dependency's
    ready flag has been observed — one ``sync_latency`` poll per
    *distinct producing lane*, no barriers anywhere: the p2p DES sweep
    (:func:`repro.core.upper.simulate_sweep`) under this order and lane
    map.  Returns ``(makespan, finish, trace)`` like the DES
    kernels; ``trace`` is the one passed in (None records nothing).
    """
    from ..core.upper import simulate_sweep

    order = np.arange(S.n_rows, dtype=np.int64)
    if part != "lower":
        order = order[::-1]
    makespan, finish, _ = simulate_sweep(
        S, machine, order, order % machine.n_threads, flops, touched,
        part=part, start_time=start_time, trace=trace,
    )
    return makespan, finish, trace
