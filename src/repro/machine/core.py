"""SimMachine: thread placement plus the cost-model queries.

Every executor (the level-scheduled upper stage, the ER/SR lower
stages, the triangular solves, the baselines) asks a :class:`SimMachine`
three kinds of question:

* *how long does this piece of work take on thread t?* —
  :meth:`work_time`, a roofline over flops and bytes with per-thread
  bandwidth shares and optional SIMD speedup;
* *how long until thread t observes something thread u wrote?* —
  :meth:`sync_latency` (point-to-point spin) and :meth:`barrier_cost`;
* *what does the task runtime charge?* — :meth:`task_spawn_cost` /
  :meth:`task_dispatch_cost` with queue contention.

Thread placement is compact: threads fill socket 0's cores first, then
socket 1's, then wrap onto second hardware threads — matching how
OpenMP with ``OMP_PROC_BIND=close`` places threads on the testbeds.
"""

from __future__ import annotations

import math

import numpy as np

from .topology import MachineSpec

__all__ = ["SimMachine"]

_BYTES_PER_NNZ = 12.0  # 8-byte value + 4-byte index, the CSR streaming unit


class SimMachine:
    """A machine spec instantiated with a particular thread count.

    Parameters
    ----------
    spec:
        The static machine description.
    n_threads:
        Number of OpenMP-style threads in use (≤ ``spec.max_threads``).
    fault_plan:
        Optional :class:`repro.resilience.FaultPlan`.  Straggler rate
        multipliers are folded into the per-thread flop/bandwidth rates
        here — the single place both :meth:`work_time` and
        :meth:`work_time_batch` read them — so a faulty machine stays
        bit-identical between the scalar and batched DES sweeps.
    """

    def __init__(self, spec: MachineSpec, n_threads: int, *, fault_plan=None):
        if n_threads < 1 or n_threads > spec.max_threads:
            raise ValueError(
                f"n_threads={n_threads} outside [1, {spec.max_threads}] for {spec.name}"
            )
        self.spec = spec
        self.n_threads = int(n_threads)
        self.fault_plan = fault_plan
        self._place_threads()
        self._derive_rates()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _place_threads(self):
        spec = self.spec
        socket = np.empty(self.n_threads, dtype=np.int64)
        core = np.empty(self.n_threads, dtype=np.int64)
        hwthread = np.empty(self.n_threads, dtype=np.int64)
        for t in range(self.n_threads):
            pass_idx, core_idx = divmod(t, spec.n_cores)
            socket[t] = core_idx // spec.cores_per_socket
            core[t] = core_idx
            hwthread[t] = pass_idx
        self.socket_of = socket
        self.core_of = core
        self.hwthread_of = hwthread
        self.threads_per_socket = np.bincount(socket, minlength=spec.n_sockets)
        self.n_sockets_used = int(np.count_nonzero(self.threads_per_socket))

    # ------------------------------------------------------------------
    # derived rates
    # ------------------------------------------------------------------
    def _derive_rates(self):
        spec = self.spec
        # flop rate per thread: a second HW thread on the same core
        # shares issue slots — together the two threads get
        # smt_throughput × one core's rate.
        core_threads = np.bincount(
            self.core_of + self.socket_of * 0, minlength=spec.n_cores
        )
        self._flops_per_thread = np.empty(self.n_threads)
        for t in range(self.n_threads):
            sharers = core_threads[self.core_of[t]]
            if sharers <= 1:
                self._flops_per_thread[t] = spec.flops_per_core
            else:
                self._flops_per_thread[t] = (
                    spec.flops_per_core * spec.smt_throughput / sharers
                )
        # bandwidth per thread: equal share of the socket, capped by what
        # one thread can pull on its own.
        self._bw_per_thread = np.empty(self.n_threads)
        for t in range(self.n_threads):
            share = spec.socket_bw / max(int(self.threads_per_socket[self.socket_of[t]]), 1)
            self._bw_per_thread[t] = min(spec.single_thread_bw, share)
        if self.fault_plan is not None:
            for t in range(self.n_threads):
                rate = self.fault_plan.rate(t)
                self._flops_per_thread[t] /= rate
                self._bw_per_thread[t] /= rate

    # ------------------------------------------------------------------
    # cost queries
    # ------------------------------------------------------------------
    def work_time(self, flops, nnz_touched, thread=0, vectorized=False, remote=None):
        """Roofline time for a task on ``thread``.

        Parameters
        ----------
        flops:
            Floating-point operations in the task.
        nnz_touched:
            CSR entries streamed (converted to bytes internally).
        vectorized:
            Whether the kernel runs SIMD (SR tiles do; scalar up-looking
            row kernels do not).
        remote:
            Override the fraction of traffic charged at remote-NUMA cost;
            default is the spec's ``remote_traffic_fraction`` when more
            than one socket is active, else 0.
        """
        spec = self.spec
        frate = self._flops_per_thread[thread]
        if vectorized:
            frate *= 1.0 + (spec.vector_lanes - 1) * spec.vector_efficiency
        t_flop = flops / frate
        bytes_ = nnz_touched * _BYTES_PER_NNZ
        if remote is None:
            remote = spec.remote_traffic_fraction if self.n_sockets_used > 1 else 0.0
        bw = self._bw_per_thread[thread]
        t_mem = (bytes_ * (1.0 - remote)) / bw + (bytes_ * remote * spec.numa_remote_factor) / bw
        return max(t_flop, t_mem)

    def work_time_batch(self, flops, nnz_touched, thread=0, vectorized=False, remote=None):
        """Vectorized :meth:`work_time` over arrays of tasks.

        ``flops``, ``nnz_touched`` and ``thread`` broadcast together;
        the arithmetic mirrors the scalar query expression-for-expression
        so each element is bit-identical to the corresponding
        ``work_time`` call — the batched DES and schedulers rely on
        exact agreement with the scalar reference.
        """
        spec = self.spec
        flops = np.asarray(flops, dtype=np.float64)
        nnz_touched = np.asarray(nnz_touched, dtype=np.float64)
        thread = np.asarray(thread)
        frate = self._flops_per_thread[thread]
        if vectorized:
            frate = frate * (1.0 + (spec.vector_lanes - 1) * spec.vector_efficiency)
        t_flop = flops / frate
        bytes_ = nnz_touched * _BYTES_PER_NNZ
        if remote is None:
            remote = spec.remote_traffic_fraction if self.n_sockets_used > 1 else 0.0
        bw = self._bw_per_thread[thread]
        t_mem = (bytes_ * (1.0 - remote)) / bw + (bytes_ * remote * spec.numa_remote_factor) / bw
        return np.maximum(t_flop, t_mem)

    def sync_latency(self, waiter_thread, producer_thread):
        """Point-to-point spin-wait observe latency between two threads."""
        spec = self.spec
        if waiter_thread == producer_thread:
            return 0.0
        lat = spec.spin_poll
        if self.socket_of[waiter_thread] != self.socket_of[producer_thread]:
            lat *= spec.cross_socket_sync_factor
        return lat

    def sync_latency_matrix(self):
        """All pairwise spin latencies as a ``p × p`` table.

        ``M[w, u] == sync_latency(w, u)`` exactly; the batched DES looks
        latencies up here instead of calling the scalar query per row.
        """
        spec = self.spec
        p = self.n_threads
        M = np.full((p, p), spec.spin_poll)
        cross = self.socket_of[:, None] != self.socket_of[None, :]
        M[cross] = spec.spin_poll * spec.cross_socket_sync_factor
        np.fill_diagonal(M, 0.0)
        return M

    def barrier_cost(self):
        """Cost of a full barrier across all active threads."""
        spec = self.spec
        p = max(self.n_threads, 2)
        return spec.barrier_base + spec.barrier_per_log2p * math.log2(p)

    def task_spawn_cost(self):
        return self.spec.task_spawn_overhead

    def task_dispatch_cost(self):
        """Dequeue cost including contention on the shared queue."""
        spec = self.spec
        return spec.task_dispatch_overhead + spec.task_contention_coeff * self.n_threads

    def serial_machine(self):
        """A 1-thread view of the same spec (for speedup baselines)."""
        return SimMachine(self.spec, 1)

    def with_faults(self, fault_plan):
        """The same machine with a fault plan applied (or removed)."""
        return SimMachine(self.spec, self.n_threads, fault_plan=fault_plan)

    def __repr__(self):
        faults = ", faulty" if self.fault_plan is not None else ""
        return (
            f"SimMachine({self.spec.name}, threads={self.n_threads}, "
            f"sockets_used={self.n_sockets_used}{faults})"
        )
