"""Golden DES times: every sync model's simulated sweep, to the last bit.

Each record is the ``float.hex`` of every simulated time one case yields
on one machine: the five schedulers' ``simulate``, the three
``JavelinILU.simulate_trisolve`` methods and ``simulate_factor`` under
``sync`` ∈ {p2p, barrier} × ``lower`` ∈ {False, None}, plus a digest of
the ``(thread, start, stop, label)`` intervals and the ``finish`` array
of ``simulate_upper_barrier`` and of both ``simulate_syncfree`` parts.
The cases are the suite matrices at ``scale=SCALE`` plus three edge
patterns (1×1, diagonal-only, and fewer rows than threads).  The digests
were recorded from the hand-written per-sync-model sweep loops that the
``upper_p2p_sim`` and ``superstep_sim`` kernels replaced, so they pin
that the kernels kept every time, finish array and trace bit for bit.
The elastic scheduler is included to show it is untouched.

Regenerate (only for a deliberate model change) with
``PYTHONPATH=src python tests/integration/test_des_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.core import JavelinILU, simulate_upper_barrier
from repro.core.symbolic import row_factor_costs, row_solve_costs
from repro.machine import SimMachine, gpulike, haswell, knl
from repro.machine.trace import ExecutionTrace
from repro.matrices import SUITE, build_matrix, preorder_for_javelin
from repro.resilience import FaultPlan
from repro.sched import SCHEDULER_NAMES, simulate_schedule, simulate_syncfree
from repro.sparse import from_dense

SCALE = 0.05

MACHINES = {
    "haswell-14": (haswell, 14, None),
    "knl-68": (knl, 68, None),
    "gpulike-256": (gpulike, 256, None),
    "haswell-14-straggler": (haswell, 14, FaultPlan(stragglers={3: 4.0, 9: 2.5})),
}


def _edge_matrix(name):
    if name == "one":
        return from_dense(np.array([[2.0]]))
    if name == "diagonal":
        return from_dense(np.diag(np.arange(1.0, 21.0)))
    # p > n: fewer rows than any machine's threads, a few dependencies
    rng = np.random.default_rng(3)
    D = (rng.random((9, 9)) < 0.3) * rng.standard_normal((9, 9))
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 2.0)
    return from_dense(D)


CASES = sorted(SUITE) + ["edge:one", "edge:diagonal", "edge:p_gt_n"]


def _setup(case):
    if case.startswith("edge:"):
        A = _edge_matrix(case[5:])
    else:
        A = preorder_for_javelin(build_matrix(case, scale=SCALE))
    return JavelinILU().setup(A)


def _trace_digest(makespan, finish, trace):
    h = hashlib.blake2b(digest_size=16)
    h.update(float(makespan).hex().encode())
    h.update(np.ascontiguousarray(finish, dtype=np.float64).tobytes())
    for iv in trace.intervals:
        h.update(f"{iv.thread},{iv.start.hex()},{iv.stop.hex()},{iv.label!r};".encode())
    return h.hexdigest()


def des_record(ilu, machine):
    """Every simulated time and trace digest of one case on one machine."""
    S = ilu.S_perm
    rec = {}
    for name in SCHEDULER_NAMES:
        rec[f"sched.{name}"] = simulate_schedule(name, S, machine).hex()
    for method in ("barrier", "p2p", "two_stage"):
        rec[f"trisolve.{method}"] = ilu.simulate_trisolve(machine, method=method).hex()
    for sync in ("p2p", "barrier"):
        for lower in (False, None):
            r = ilu.simulate_factor(machine, sync=sync, lower=lower)
            rec[f"factor.{sync}.{lower}"] = f"{r.total.hex()}/{r.upper.hex()}"
    flops, touched = row_factor_costs(S)
    rec["upper_barrier"] = _trace_digest(
        *simulate_upper_barrier(S, ilu.level_ptr, machine, flops, touched)
    )
    for part in ("lower", "upper"):
        fl, tl = row_solve_costs(S, part=part)
        rec[f"syncfree.{part}"] = _trace_digest(
            *simulate_syncfree(
                S, machine, fl, tl, part=part, start_time=1e-6,
                trace=ExecutionTrace(machine.n_threads),
            )
        )
    return rec


def record_digest(rec):
    h = hashlib.blake2b(digest_size=16)
    for k in sorted(rec):
        h.update(f"{k}={rec[k]};".encode())
    return h.hexdigest()


def _machine(key):
    spec, p, plan = MACHINES[key]
    return SimMachine(spec(), p, fault_plan=plan)


GOLDEN = {
    ('3D_28984_Tetra', 'haswell-14'): '4a5b87d189c03dc093230910ce09b73c',
    ('3D_28984_Tetra', 'knl-68'): '7f8aac78b98aca4b18366cbef1edf88c',
    ('3D_28984_Tetra', 'gpulike-256'): '53f052b78788cf35840b7d5e1438fcdd',
    ('3D_28984_Tetra', 'haswell-14-straggler'): '131eed050c1e9b994c89b6ed446324e1',
    ('ASIC_320ks', 'haswell-14'): '747f5fc946e1bd8a72ca6f4decac95c1',
    ('ASIC_320ks', 'knl-68'): '627808c0c9ea77e91b166f3559e30435',
    ('ASIC_320ks', 'gpulike-256'): 'ba3f65d7149dd8da9f72a960d6468339',
    ('ASIC_320ks', 'haswell-14-straggler'): '3239ee68522302b6b68626e47ef41c15',
    ('ASIC_680ks', 'haswell-14'): '700ed5f1550e36ece5438bd0472fdedd',
    ('ASIC_680ks', 'knl-68'): '15bc9a3db4215c163b32233f8900fdfb',
    ('ASIC_680ks', 'gpulike-256'): '97a0847d5f0781f15631f3e1d656e63f',
    ('ASIC_680ks', 'haswell-14-straggler'): 'aba18ddc9f7e91afb7014ca8a8442c68',
    ('G3_circuit', 'haswell-14'): '5d0e3b5a3e6161c22ddf33b4b89c73c4',
    ('G3_circuit', 'knl-68'): '6747f2768af9f94a6c6cd48b6e0f8aaa',
    ('G3_circuit', 'gpulike-256'): '000ac532a08aa81da368fe80b42b4615',
    ('G3_circuit', 'haswell-14-straggler'): 'af5d613903d236b35d35c6596bdb4a8c',
    ('TSOPF_RS_b300_c2', 'haswell-14'): 'd682181f8efea7531334d55047c36fe1',
    ('TSOPF_RS_b300_c2', 'knl-68'): '532ed6d943c2164caf4dfaa3cbc627f3',
    ('TSOPF_RS_b300_c2', 'gpulike-256'): '0bd05183f2862be4e957193ce73a9e95',
    ('TSOPF_RS_b300_c2', 'haswell-14-straggler'): 'd9f374212f65020b9676bd9379e4d8a7',
    ('af_shell3', 'haswell-14'): '709fb4ee76f194b5f5c1d4ad5a93d5c9',
    ('af_shell3', 'knl-68'): 'c84adbe865f1ea4e50213341f85649f4',
    ('af_shell3', 'gpulike-256'): '5e3a6408bd9ef226987168031fc22d78',
    ('af_shell3', 'haswell-14-straggler'): '3f45b253e9743a9e9043b0c148ddd725',
    ('apache2', 'haswell-14'): '4ef801d7c17570b81e3ed568f2d0289c',
    ('apache2', 'knl-68'): '450b4c898fd9ff81d7904ce044c2c81d',
    ('apache2', 'gpulike-256'): 'b465c1fabb0f5292804c4eb7a7eb5158',
    ('apache2', 'haswell-14-straggler'): '733d77234e00692063f6ff0d2d237f09',
    ('ecology2', 'haswell-14'): '5d0e3b5a3e6161c22ddf33b4b89c73c4',
    ('ecology2', 'knl-68'): '6747f2768af9f94a6c6cd48b6e0f8aaa',
    ('ecology2', 'gpulike-256'): '000ac532a08aa81da368fe80b42b4615',
    ('ecology2', 'haswell-14-straggler'): 'af5d613903d236b35d35c6596bdb4a8c',
    ('fem_filter', 'haswell-14'): '554e67b25d901348eeae878581ab5d82',
    ('fem_filter', 'knl-68'): '61ffa6dfd5b8e7d4c713b3952a6d40d0',
    ('fem_filter', 'gpulike-256'): '7133e785fdee4fd1966960ec952cdd9d',
    ('fem_filter', 'haswell-14-straggler'): '6f814f38eb7b860bf00faeddf1563ae5',
    ('ibm_matrix_2', 'haswell-14'): 'c30e621547f79b522fd849b2205dd937',
    ('ibm_matrix_2', 'knl-68'): 'ede4f2eea87dfc9b68040ea2e229262d',
    ('ibm_matrix_2', 'gpulike-256'): 'db0270645b208715cb15e001d14ebc1b',
    ('ibm_matrix_2', 'haswell-14-straggler'): 'dcbc1983b0078dc968a09223cf63fffb',
    ('offshore', 'haswell-14'): '19fb46a377268a19b29e73e0a7e936c0',
    ('offshore', 'knl-68'): '39b2706bc6e2491dc41554a4ee831430',
    ('offshore', 'gpulike-256'): '62e3e723b7f64fabdfd9a3383c5a5a0c',
    ('offshore', 'haswell-14-straggler'): '0747cb2291b49e82681f48cfdb3068d8',
    ('parabolic_fem', 'haswell-14'): '4ef801d7c17570b81e3ed568f2d0289c',
    ('parabolic_fem', 'knl-68'): '450b4c898fd9ff81d7904ce044c2c81d',
    ('parabolic_fem', 'gpulike-256'): 'b465c1fabb0f5292804c4eb7a7eb5158',
    ('parabolic_fem', 'haswell-14-straggler'): '733d77234e00692063f6ff0d2d237f09',
    ('scircuit', 'haswell-14'): '195b080a5430c5b6a979493391b95bd8',
    ('scircuit', 'knl-68'): 'b133299d8fff9efae6cfc071ed3b811c',
    ('scircuit', 'gpulike-256'): '09ce8fcaee3e73da6b132d89a64b3b63',
    ('scircuit', 'haswell-14-straggler'): '8a03c52bc2ba6e0797314790602be21f',
    ('thermal2', 'haswell-14'): '4ef801d7c17570b81e3ed568f2d0289c',
    ('thermal2', 'knl-68'): '450b4c898fd9ff81d7904ce044c2c81d',
    ('thermal2', 'gpulike-256'): 'b465c1fabb0f5292804c4eb7a7eb5158',
    ('thermal2', 'haswell-14-straggler'): '733d77234e00692063f6ff0d2d237f09',
    ('tmt_sym', 'haswell-14'): 'dbaefdb94eb97806f5b8a3f17d387fc1',
    ('tmt_sym', 'knl-68'): '08ca90a880545342125662a82ab9d054',
    ('tmt_sym', 'gpulike-256'): '9a86ead044cc441c3b446f5579259fb7',
    ('tmt_sym', 'haswell-14-straggler'): '1b992a5df62c2c4d52f860b492b0ba59',
    ('trans4', 'haswell-14'): 'a86b39fb160e26f0b0a39ea6d74a8a6f',
    ('trans4', 'knl-68'): '39a3785cae75e38382726cf8c04c6812',
    ('trans4', 'gpulike-256'): 'cfedb78e505e63f5f09a009bf99510c0',
    ('trans4', 'haswell-14-straggler'): 'df8f64245a59a5a997b2a9017fb5557e',
    ('transient', 'haswell-14'): '687eff774dbef55ee8c96f24982cfcbd',
    ('transient', 'knl-68'): '5f81b079b55859730ef9d6d6883c3c19',
    ('transient', 'gpulike-256'): '33ca7a66b5deb38d374d43b45bc65029',
    ('transient', 'haswell-14-straggler'): '14f6b3c5587cc68cc5051c4127da819a',
    ('wang3', 'haswell-14'): 'dbaefdb94eb97806f5b8a3f17d387fc1',
    ('wang3', 'knl-68'): '08ca90a880545342125662a82ab9d054',
    ('wang3', 'gpulike-256'): '9a86ead044cc441c3b446f5579259fb7',
    ('wang3', 'haswell-14-straggler'): '1b992a5df62c2c4d52f860b492b0ba59',
    ('edge:one', 'haswell-14'): '2819b50f69f4e93e888a4191c01bf4ce',
    ('edge:one', 'knl-68'): 'a2a18d1c09a2a69e4fe645a49b33d529',
    ('edge:one', 'gpulike-256'): 'b642e900e32d3fc2b0031e9187abf5eb',
    ('edge:one', 'haswell-14-straggler'): '2819b50f69f4e93e888a4191c01bf4ce',
    ('edge:diagonal', 'haswell-14'): '0bcc921cda30d2c62a0f5f55d56aeb02',
    ('edge:diagonal', 'knl-68'): '015e2fb754696995a122dea67ff53b32',
    ('edge:diagonal', 'gpulike-256'): '999afc20c66cddfd4d06fcd2f9db289b',
    ('edge:diagonal', 'haswell-14-straggler'): '3eb96cb36475b7652b83201a4ee2c982',
    ('edge:p_gt_n', 'haswell-14'): '67720d6d2ca5c7dc7f35187f9084a3b1',
    ('edge:p_gt_n', 'knl-68'): '6ab4d5a1218b225c345d315369e0c25b',
    ('edge:p_gt_n', 'gpulike-256'): 'e0186aaa7f1a227af73de904e96a2dbb',
    ('edge:p_gt_n', 'haswell-14-straggler'): 'b3e1fa4a360ffa491568cdd28dd4e091',
}


@pytest.mark.parametrize("case", CASES)
def test_des_matches_golden(case):
    ilu = _setup(case)
    for key in MACHINES:
        rec = des_record(ilu, _machine(key))
        assert record_digest(rec) == GOLDEN[case, key], (case, key, rec)


if __name__ == "__main__":
    for case in CASES:
        ilu = _setup(case)
        for key in MACHINES:
            print(f"    ({case!r}, {key!r}): {record_digest(des_record(ilu, _machine(key)))!r},")
