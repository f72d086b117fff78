"""Golden digests of the cold structural front end on the oneshot matrices.

``preorder_for_javelin`` (DM + nested dissection) and a default
``JavelinILU`` setup/factor on the four e2ebench ``oneshot`` matrices at
``scale=0.25``.  The digests cover every array of the permuted matrix and
of the factor, dtype included, plus the level and lower-row counts; they
were recorded from the per-row implementations that
``tests/reference_structure.py`` keeps, so any change to ordering,
symbolic setup or factor bits shows up here.  ``GOLDEN_CONFIGS`` pins
the factor under four non-default options on two of the matrices; it
was recorded while the ER and SR lower stages still ran their own
numeric loops, so it also pins that the one factor loop kept their bits.
``GOLDEN_FULL`` pins the permuted matrix alone at ``scale=1.0``, the
size the e2ebench ``oneshot`` workload orders, recorded from the
recursive nested dissection.
"""

import hashlib

import numpy as np
import pytest

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.matrices import build_matrix, preorder_for_javelin

SCALE = 0.25

GOLDEN = {
    "thermal2": ("68d6e49ea9610164e2fad58be51d4b9e", "aa529e03d08b097113b324b78d26114c", 9, 13),
    "scircuit": ("18dd6edadf250190d3e1ee50eff7f82a", "4bad6d67dd0ffa47bd22e6e4c9005f2c", 19, 49),
    "af_shell3": ("a31131b78a11dcb533c5f38ee4784729", "f3091e0d1056153f32bf0fffbe98ccc7", 66, 96),
    "TSOPF_RS_b300_c2": ("217844a8eb33341fe9d4e76ac2e7a6dd", "4fb68ad5bbcf2c5da977472ac408b761", 171, 142),
}


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


#: permuted-matrix digest of ``preorder_for_javelin`` at ``scale=1.0``
GOLDEN_FULL = {
    "thermal2": "c5023abfe59333e3aa62cbbf2873fdea",
    "scircuit": "98f5345f3f78cd8bfdad06ad66b4b3f6",
    "af_shell3": "3deed2849a27ee9b239a3f76154bf5d2",
    "TSOPF_RS_b300_c2": "5d3511e6b7463968ca9367d7516529dc",
}


def front_end_record(name, scale=SCALE):
    """``(permuted-matrix digest, factor digest, levels, lower rows)``."""
    B = preorder_for_javelin(build_matrix(name, scale=scale))
    ilu = JavelinILU().setup(B)
    ilu.factor()
    st = ilu.stats()
    return (
        _digest(B.indptr, B.indices, B.data),
        _digest(ilu.F.indptr, ilu.F.indices, ilu.F.data),
        int(st["n_levels"]),
        int(st["n_lower_rows"]),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_front_end_matches_golden(name):
    assert front_end_record(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FULL))
def test_preorder_full_scale_matches_golden(name):
    B = preorder_for_javelin(build_matrix(name, scale=1.0))
    assert _digest(B.indptr, B.indices, B.data) == GOLDEN_FULL[name]


#: factor options beyond the default, each pinned on two matrices: the
#: ILU(k, τ) drop hook with MILU, ILU(1) fill, and the SR and LS-only
#: lower-stage choices
CONFIGS = {
    "tau_milu": JavelinOptions(tau=0.05, modified=True),
    "fill1": JavelinOptions(fill_level=1),
    "lower_sr": JavelinOptions(schedule=ScheduleOptions(lower_method="sr")),
    "lower_none": JavelinOptions(schedule=ScheduleOptions(lower_method="none")),
}

GOLDEN_CONFIGS = {
    ("scircuit", "tau_milu"): "649f754800adb915c6f40190c79ceab4",
    ("scircuit", "fill1"): "adba9184c23f625bd4394c23ab2e8f27",
    ("scircuit", "lower_sr"): "4bad6d67dd0ffa47bd22e6e4c9005f2c",
    ("scircuit", "lower_none"): "4bad6d67dd0ffa47bd22e6e4c9005f2c",
    ("TSOPF_RS_b300_c2", "tau_milu"): "0be487b8c05c83209c30847929ae8f37",
    ("TSOPF_RS_b300_c2", "fill1"): "b344c4604072784401f9666567b17130",
    ("TSOPF_RS_b300_c2", "lower_sr"): "4fb68ad5bbcf2c5da977472ac408b761",
    ("TSOPF_RS_b300_c2", "lower_none"): "4fb68ad5bbcf2c5da977472ac408b761",
}


def factor_digest(name, config, scale=SCALE):
    """Factor digest of one matrix under one of :data:`CONFIGS`."""
    B = preorder_for_javelin(build_matrix(name, scale=scale))
    ilu = JavelinILU(CONFIGS[config]).setup(B)
    ilu.factor()
    return _digest(ilu.F.indptr, ilu.F.indices, ilu.F.data)


@pytest.mark.parametrize("name,config", sorted(GOLDEN_CONFIGS))
def test_factor_options_match_golden(name, config):
    assert factor_digest(name, config) == GOLDEN_CONFIGS[name, config]
