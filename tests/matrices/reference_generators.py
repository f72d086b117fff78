"""Per-node reference generators: the loops the library's whole-array ones replace.

Each function is the generator as it was before it was vectorized, one
Python pass per grid node (or per drawn entry), assembled through
``coo_to_csr`` in the same entry order.  The library's generators must
give the same CSR arrays bit for bit; ``test_generator_reference.py``
checks that over many shapes and parameters, and the golden digests in
``test_generator_golden.py`` pin both.  ``heat_matrix`` is the heat
stepper's per-step rebuild of ``I + Δt·κ·A(v)`` on the reference
``grid2d``.
"""

import numpy as np

from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix


def _assemble(n, rows, cols, vals):
    return coo_to_csr(COOMatrix(n, n, np.asarray(rows), np.asarray(cols), np.asarray(vals)))


def _stencil_offsets_2d(kind):
    if kind == "5pt":
        return [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if kind == "9pt":
        return [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    raise ValueError(f"unknown 2D stencil {kind!r}")


def grid2d(nx, ny=None, stencil="5pt", *, convection=0.0, shift=1.0, seed=0):
    """2D structured grid Laplacian (5- or 9-point stencil).

    ``convection`` adds an upwind first-order term making the *values*
    nonsymmetric while keeping the pattern symmetric (the
    parabolic_fem / apache2-style cases).  SPD when convection = 0.
    """
    ny = ny if ny is not None else nx
    n = nx * ny

    def idx(i, j):
        return i * ny + j

    offsets = _stencil_offsets_2d(stencil)
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            r = idx(i, j)
            diag = 0.0
            for di, dj in offsets:
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    w = -1.0
                    if convection and di == 1 and dj == 0:
                        w += convection  # downwind weakened
                    if convection and di == -1 and dj == 0:
                        w -= convection  # upwind strengthened
                    rows.append(r)
                    cols.append(idx(ii, jj))
                    vals.append(w)
                    diag += abs(w)
            rows.append(r)
            cols.append(r)
            vals.append(diag + shift)
    return _assemble(n, rows, cols, vals)


def grid3d(nx, ny=None, nz=None, stencil="7pt", *, shift=1.0, seed=0):
    """3D structured grid Laplacian (7- or 27-point stencil)."""
    ny = ny if ny is not None else nx
    nz = nz if nz is not None else nx
    n = nx * ny * nz

    def idx(i, j, k):
        return (i * ny + j) * nz + k

    if stencil == "7pt":
        offsets = [
            (-1, 0, 0),
            (1, 0, 0),
            (0, -1, 0),
            (0, 1, 0),
            (0, 0, -1),
            (0, 0, 1),
        ]
    elif stencil == "27pt":
        offsets = [
            (a, b, c)
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
            for c in (-1, 0, 1)
            if (a, b, c) != (0, 0, 0)
        ]
    else:
        raise ValueError(f"unknown 3D stencil {stencil!r}")
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                r = idx(i, j, k)
                diag = 0.0
                for a, b, c in offsets:
                    ii, jj, kk = i + a, j + b, k + c
                    if 0 <= ii < nx and 0 <= jj < ny and 0 <= kk < nz:
                        rows.append(r)
                        cols.append(idx(ii, jj, kk))
                        vals.append(-1.0)
                        diag += 1.0
                rows.append(r)
                cols.append(r)
                vals.append(diag + shift)
    return _assemble(n, rows, cols, vals)


def anisotropic2d(nx, ny=None, epsilon=0.01, *, shift=0.01):
    """Anisotropic diffusion ``-ε u_xx - u_yy`` on a 2D grid.

    Strong anisotropy makes the conditioning and the ordering
    sensitivity far more pronounced than the isotropic Laplacian — the
    classic stress test for ILU-family preconditioners.
    """
    ny = ny if ny is not None else nx
    n = nx * ny
    rows, cols, vals = [], [], []

    def idx(i, j):
        return i * ny + j

    for i in range(nx):
        for j in range(ny):
            r = idx(i, j)
            diag = 0.0
            for di, dj, w in [(-1, 0, -epsilon), (1, 0, -epsilon), (0, -1, -1.0), (0, 1, -1.0)]:
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    rows.append(r)
                    cols.append(idx(ii, jj))
                    vals.append(w)
                    diag += abs(w)
            rows.append(r)
            cols.append(r)
            vals.append(diag + shift)
    return _assemble(n, rows, cols, vals)


def helmholtz2d(nx, ny=None, k2=0.5):
    """Shifted (Helmholtz-style) Laplacian ``-Δu - k² u`` on a 2D grid.

    The negative shift pushes eigenvalues toward (and past) zero:
    moderate ``k2`` yields an ill-conditioned but factorable matrix,
    large ``k2`` an indefinite one where ILU/IC pivots break down — the
    generator behind the breakdown and shifted-retry tests.
    """
    ny = ny if ny is not None else nx
    A = grid2d(nx, ny, stencil="5pt", shift=0.0)
    B = A.copy()
    for r in range(B.n_rows):
        lo = int(B.indptr[r])
        cols = B.indices[lo : int(B.indptr[r + 1])]
        p = int(np.searchsorted(cols, r))
        B.data[lo + p] -= k2
    return B


def fem_shell(nx, ny=None, dofs_per_node=3, *, shift=1.0, seed=0):
    """Shell-element style FEM matrix (af_shell3 family).

    Several coupled degrees of freedom per 2D grid node with a 9-point
    nodal stencil → row density in the 25–35 range and the long, thin
    level structure (many small levels) the paper observes for
    af_shell3.
    """
    ny = ny if ny is not None else nx
    n_nodes = nx * ny
    n = n_nodes * dofs_per_node
    rng = np.random.default_rng(seed)
    offsets = _stencil_offsets_2d("9pt")
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            node = i * ny + j
            nbrs = [node]
            for di, dj in offsets:
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    nbrs.append(ii * ny + jj)
            for d in range(dofs_per_node):
                r = node * dofs_per_node + d
                diag = 0.0
                for nb in nbrs:
                    for d2 in range(dofs_per_node):
                        c = nb * dofs_per_node + d2
                        if c == r:
                            continue
                        w = -1.0 if nb == node else -0.5
                        rows.append(r)
                        cols.append(c)
                        vals.append(w)
                        diag += abs(w)
                rows.append(r)
                cols.append(r)
                vals.append(diag + shift)
    return _assemble(n, rows, cols, vals)


def power_flow_blocks(n_blocks, block_size=60, coupling_frac=0.08, *, seed=0):
    """Block-dense power-flow style matrix (TSOPF_RS family).

    Dense diagonal blocks (generator/bus clusters) with sparse
    asymmetric couplings — very high row density (≈ block_size) and a
    nonsymmetric pattern, plus the long level chains the paper reports
    (180 levels) because couplings run forward along the block chain.
    """
    rng = np.random.default_rng(seed)
    n = n_blocks * block_size
    rows, cols, vals = [], [], []
    for b in range(n_blocks):
        base = b * block_size
        # dense block
        for a in range(block_size):
            r = base + a
            for c in range(block_size):
                if a == c:
                    continue
                rows.append(r)
                cols.append(base + c)
                vals.append(-rng.random() * 0.5 / block_size)
        # forward couplings to the next block (asymmetric)
        if b + 1 < n_blocks:
            k = max(1, int(coupling_frac * block_size * block_size))
            rs = rng.integers(0, block_size, size=k)
            cs = rng.integers(0, block_size, size=k)
            for a, c in zip(rs, cs):
                rows.append(base + a)
                cols.append(base + block_size + c)
                vals.append(-rng.random() * 0.2)
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    vals = np.asarray(vals)
    pattern = _assemble(n, rows, cols, vals)
    absrow = np.zeros(n)
    for r in range(n):
        _, vv = pattern.row(r)
        absrow[r] = np.sum(np.abs(vv))
    d_rows = np.arange(n)
    rows = np.concatenate([rows, d_rows])
    cols = np.concatenate([cols, d_rows])
    vals = np.concatenate([vals, absrow + 1.0])
    return _assemble(n, rows, cols, vals)


def heat_matrix(stepper, step):
    """``HeatStepper.matrix(step)`` rebuilt from scratch: grid, scale, shift."""
    kappa_t, conv_t = stepper.coefficients(step)
    M = grid2d(stepper.nx, stepper.ny, convection=conv_t, shift=0.0)
    M.data *= stepper.dt * kappa_t
    for r in range(M.n_rows):
        lo = int(M.indptr[r])
        p = int(np.searchsorted(M.indices[lo : int(M.indptr[r + 1])], r))
        M.data[lo + p] += 1.0
    return M
