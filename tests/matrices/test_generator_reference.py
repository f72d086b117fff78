"""The whole-array generators against their per-node reference loops, bit for bit.

``reference_generators.py`` keeps each generator as the per-node loop it
replaced; here both build the same matrices over many shapes (edge
grids of one row or column included) and parameters, and every CSR
array must be equal, dtype and value bits included.
"""

import pytest

import reference_generators as ref
from repro.apps import HeatStepper
from repro.matrices import generators as gen


def assert_same(got, want):
    assert got.shape == want.shape
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


SHAPES_2D = [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (8, 5), (12, 12)]


@pytest.mark.parametrize("nx,ny", SHAPES_2D)
@pytest.mark.parametrize("stencil", ["5pt", "9pt"])
@pytest.mark.parametrize("convection,shift", [(0.0, 1.0), (0.3, 0.0), (-0.7, 0.25), (1e-17, 2.0)])
def test_grid2d(nx, ny, stencil, convection, shift):
    kw = dict(stencil=stencil, convection=convection, shift=shift)
    assert_same(gen.grid2d(nx, ny, **kw), ref.grid2d(nx, ny, **kw))


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 3, 2), (3, 1, 4), (2, 3, 4), (5, 5, 5)])
@pytest.mark.parametrize("stencil", ["7pt", "27pt"])
@pytest.mark.parametrize("shift", [1.0, 0.1])
def test_grid3d(dims, stencil, shift):
    assert_same(gen.grid3d(*dims, stencil=stencil, shift=shift),
                ref.grid3d(*dims, stencil=stencil, shift=shift))


@pytest.mark.parametrize("nx,ny", SHAPES_2D)
@pytest.mark.parametrize("epsilon,shift", [(0.01, 0.01), (0.3, 0.0), (1e-9, 1.5)])
def test_anisotropic2d(nx, ny, epsilon, shift):
    assert_same(gen.anisotropic2d(nx, ny, epsilon, shift=shift),
                ref.anisotropic2d(nx, ny, epsilon, shift=shift))


@pytest.mark.parametrize("nx,ny", SHAPES_2D)
@pytest.mark.parametrize("k2", [0.0, 0.5, 3.7])
def test_helmholtz2d(nx, ny, k2):
    assert_same(gen.helmholtz2d(nx, ny, k2=k2), ref.helmholtz2d(nx, ny, k2=k2))


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 4), (3, 2), (6, 6)])
@pytest.mark.parametrize("dofs", [1, 2, 3, 4])
@pytest.mark.parametrize("shift", [1.0, 0.0])
def test_fem_shell(nx, ny, dofs, shift):
    assert_same(gen.fem_shell(nx, ny, dofs, shift=shift), ref.fem_shell(nx, ny, dofs, shift=shift))


@pytest.mark.parametrize("n_blocks", [1, 2, 7])
@pytest.mark.parametrize("block_size", [1, 2, 5, 48])
@pytest.mark.parametrize("coupling_frac,seed", [(0.08, 0), (0.5, 3), (0.0, 11)])
def test_power_flow_blocks(n_blocks, block_size, coupling_frac, seed):
    kw = dict(block_size=block_size, coupling_frac=coupling_frac, seed=seed)
    assert_same(gen.power_flow_blocks(n_blocks, **kw), ref.power_flow_blocks(n_blocks, **kw))


@pytest.mark.parametrize("nx,ny", [(1, 6), (6, 1), (7, 4), (16, 16)])
@pytest.mark.parametrize(
    "kw",
    [
        dict(dt=0.07, kappa=1.3, convection=0.1, convection_drift=0.9),
        # v < -1 with Δt·κ = 1: the diagonal's summation order shows in the bits
        dict(dt=1.0, kappa=1.0, kappa_drift=0.0, convection=-2.5, convection_drift=0.3),
    ],
)
def test_heat_stepper_matrix_is_the_per_node_rebuild(nx, ny, kw):
    hs = HeatStepper(nx, ny, period=9, **kw)
    for step in range(12):
        assert_same(hs.matrix(step), ref.heat_matrix(hs, step))
