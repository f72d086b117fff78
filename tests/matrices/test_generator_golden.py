"""Golden digests of every matrix generator the benchmarks build.

Each digest is blake2b over ``indptr``, ``indices`` and ``data`` (dtype
included), so it pins the entry order of the assembled CSR arrays and
the bits of every value: a generator rewrite must add duplicates in the
same order and sum each row's ``|w|`` in the same order to pass.  They
were recorded from the per-node generator loops and cover every ``SUITE`` matrix at
``scale=0.05`` and ``scale=1.0``, every ``serve.build_matrices`` key the
e2ebench ``serve`` workload uses (both sizes), the heat stepper's
matrix over one full drift period, and a few off-suite parameter sets
(rectangular grids, convection, shifts, fewer dofs).
"""

import hashlib

import numpy as np
import pytest

from repro.apps import HeatStepper
from repro.matrices import SUITE, build_matrix
from repro.matrices.generators import (
    anisotropic2d,
    fem_shell,
    grid2d,
    grid3d,
    helmholtz2d,
    power_flow_blocks,
)
from repro.serve import build_matrices


def digest(M):
    """blake2b of ``indptr``, ``indices`` and ``data``, dtype included."""
    h = hashlib.blake2b(digest_size=16)
    for a in (M.indptr, M.indices, M.data):
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


#: ``build_matrix(name, scale=0.05)``
SUITE_005 = {
    "wang3": "ccd7a6826492b11b13fd0ea784352979",
    "TSOPF_RS_b300_c2": "7e00af57bc9e25acc42bf4e592f50fbf",
    "3D_28984_Tetra": "05a407fc90e542a7db91a781d95286d6",
    "ibm_matrix_2": "f37e4d4b73bf6531cd06591e86a656af",
    "fem_filter": "0151532ed9cc8c0ff345cebc76ef510a",
    "trans4": "caaafb6f12533fc65725a373dc917d4b",
    "scircuit": "b74c04357b530da12e84d7616ea2b2c9",
    "transient": "b722d96901cffcbb7224856894490c51",
    "offshore": "b56129ea456a891e6299643ec20e0daf",
    "ASIC_320ks": "dd9c8a92e7273a13e231e7d37e3e1bbe",
    "af_shell3": "382b0567ec934b5cdd4a50bff6f8f247",
    "parabolic_fem": "58749de99177dd7cf63876341903a43f",
    "ASIC_680ks": "26c9c6f254a3a44a506f939b3fbbaf59",
    "apache2": "58749de99177dd7cf63876341903a43f",
    "tmt_sym": "ccd7a6826492b11b13fd0ea784352979",
    "ecology2": "834e5758220b02ff672f83502824189b",
    "thermal2": "58749de99177dd7cf63876341903a43f",
    "G3_circuit": "834e5758220b02ff672f83502824189b",
}

#: ``build_matrix(name, scale=1.0)``
SUITE_1 = {
    "wang3": "9d92ee9e977390adef579ca54dcdaa75",
    "TSOPF_RS_b300_c2": "749b4c654da9667e285207e1da2c50d1",
    "3D_28984_Tetra": "3634b3376d99543d6cb40dcc5f7a5dde",
    "ibm_matrix_2": "8841011682fcec7b434808e8842d543b",
    "fem_filter": "911baa2eb4fbe9777703c2bdaddf22ab",
    "trans4": "eb94f93a6bb6e2a86bc48e05b4bd5500",
    "scircuit": "a1823aff19327d7f1e90db65c9090922",
    "transient": "c84340d81cb5093a6b5359deb8ad0cdd",
    "offshore": "4359e36f7253d553437d3cda95ea8110",
    "ASIC_320ks": "b1f7c1a3f03d4b485a719a6c1f46422a",
    "af_shell3": "851015e8ca922bcc04f3b005bc6e97ab",
    "parabolic_fem": "24d078dfb33f95facd2c009f3053bfd5",
    "ASIC_680ks": "ce397522ca89e590854002d833ff59b9",
    "apache2": "24d078dfb33f95facd2c009f3053bfd5",
    "tmt_sym": "9d92ee9e977390adef579ca54dcdaa75",
    "ecology2": "cdf8773a566bcade4b86d52c818a2c76",
    "thermal2": "ad608f7325a488b5a740e9ee05735b11",
    "G3_circuit": "bb8b5bac20603cf1e9d54425ba7a705a",
}

#: ``serve.build_matrices`` keys of the e2ebench ``serve`` workload (full and tiny)
SERVE = {
    "grid2d-32": "0c1a6dc61a7f22a4d6ec9e3883c6cb21",
    "grid2d-48": "cdf8773a566bcade4b86d52c818a2c76",
    "grid2d-64": "c49802b564b98022f4c7206892303666",
    "convect2d-48": "9abfe34eb5dedb92795b47a977149d9a",
    "circuit-2000": "1c3d1ed6f855f4c83179e2be98312e2a",
    "grid2d-8": "aa2e410e8432679d9d6603bdd0e9da57",
    "grid2d-12": "71a6dee809a15db9558a624fbd63a5c6",
    "grid2d-16": "a079305dd261456c88a268ff1465d9e1",
    "convect2d-12": "b6338022cbc4973c4718665c93999f55",
    "circuit-150": "cabdad89dcc1f2a8aa48ca7147fb0e1e",
}

#: ``HeatStepper(48).matrix(s)`` for s = 0..40 (one drift period and more)
HEAT_48 = [
    "5e6d64cbea43423d2caca720cd0ca863",
    "e832fce05e8cdd57b5ed540375c58c39",
    "6044c1ccef47b84f0e3da86e7bd90f08",
    "b67634ceecc7890c6a14530491787bff",
    "40d0a8085badadd2161148a4b23903ad",
    "e0966d14301ee83d660f06d3b17eeb01",
    "e3e053a76967ab37f8931eac53bb25ff",
    "7f635c76a19b4f3e15340e26773409d9",
    "2fe2d73f776db0938a2cd6d5558c7e4d",
    "19eb8dc8c52e31105850b1b7a9a5d9ca",
    "b58fd95c44b5c4a3eb64085ed1587270",
    "3bfe680a0cf818b32332993aa2f28e7d",
    "826dca1a5cd3faf9da00ecc14a32643d",
    "80daf05fc6bc4df73d93cefaf4e5e52c",
    "2ea79145f7533262f8572313e66f96a3",
    "36b0d9f2bae84da306756a468a2da9d2",
    "fbf89b6e277501e2d2fa84f6a0c008b7",
    "6a7a035fcb55bb1c2a3e92db4de0d5dc",
    "976c0321fba9a89d45c86406baddc9ad",
    "ca3af443a534d364164ad50712819221",
    "960a676c566669770b0d9dcb0be07dcf",
    "378a5baf8ad5ad995eb719f11ba623e9",
    "14c1cffa37b7e3c021bba215c3d56515",
    "9326b132f9840ebbbe8d2713a71c5552",
    "e5d9b6e77fb13098fdaac54210deb1e0",
    "c447b28ec1aa58b4283e8ce2e21d764f",
    "d93f4ccbfd0761c9f203aad8f33584ce",
    "055d1a43ba2c245f678dcded1b7bfcb4",
    "bdf327132fbe5dd87f5ba15a1a386039",
    "738318393f6a7178efc062ad58bc2ead",
    "fa83c63e7416d16eb950de0266881c3d",
    "76ae42be80407f8f39905fb02cacb85c",
    "82fac2bf072fb06dc7c79ec5bcb489a1",
    "e832fce05e8cdd57b5ed540375c58c39",
    "6044c1ccef47b84f0e3da86e7bd90f08",
    "e949b358167dca882fa848c8acb199aa",
    "40d0a8085badadd2161148a4b23903ad",
    "e0966d14301ee83d660f06d3b17eeb01",
    "e3e053a76967ab37f8931eac53bb25ff",
    "7a35742b993768ceb3e467c1a9f5cb5a",
    "a8901f42aac09b59f249e52e632001a3",
]

#: off-suite parameter sets of the generators
EXTRA_BUILDERS = {
    "grid2d-9pt-conv": lambda: grid2d(11, 7, stencil="9pt", convection=0.3, shift=0.5),
    "grid2d-5pt-conv": lambda: grid2d(9, 13, convection=0.7, shift=0.0),
    "grid3d-27pt": lambda: grid3d(4, 5, 3, stencil="27pt", shift=0.25),
    "grid3d-7pt": lambda: grid3d(5, 3, 4),
    "anisotropic2d": lambda: anisotropic2d(13, 9, epsilon=0.03, shift=0.2),
    "helmholtz2d": lambda: helmholtz2d(12, 10, k2=0.7),
    "fem_shell": lambda: fem_shell(7, 5, dofs_per_node=2, shift=0.5),
    "power_flow_blocks": lambda: power_flow_blocks(5, block_size=7, coupling_frac=0.3, seed=4),
}
#: digests of ``EXTRA_BUILDERS``
EXTRA = {
    "grid2d-9pt-conv": "9bb3ab7e4acefe0ff763d1e8183a9491",
    "grid2d-5pt-conv": "6cad77211ff085974a6cf6d3d46fb992",
    "grid3d-27pt": "67c807cec4560c7a09a485495bd259f3",
    "grid3d-7pt": "6796b6b0d95492ac68b6f069421ef446",
    "anisotropic2d": "b895aa26890bd3569473c98782648e49",
    "helmholtz2d": "499504727e1f7beb9e10b02699e00875",
    "fem_shell": "c9f7025f1c7aaeeddfecd20888570457",
    "power_flow_blocks": "18f8e9a7d4c3ddabadf05d07db2f397b",
}


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_matrix_at_scale_005(name):
    assert digest(build_matrix(name, scale=0.05)) == SUITE_005[name]


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_matrix_at_scale_1(name):
    assert digest(build_matrix(name, scale=1.0)) == SUITE_1[name]


def test_serve_matrices():
    built = build_matrices(tuple(SERVE))
    assert {k: digest(A) for k, A in built.items()} == SERVE


def test_heat_stepper_matrices_over_one_period():
    hs = HeatStepper(48)
    assert [digest(hs.matrix(s)) for s in range(len(HEAT_48))] == HEAT_48


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_off_suite_parameters(name):
    assert digest(EXTRA_BUILDERS[name]()) == EXTRA[name]
