"""Sparse matrix generators, one per structural family in Table I.

Each generator returns a CSR matrix with a structurally full diagonal
and diagonally dominant values (so ILU(0) never breaks down and the
iterative solvers converge — matching the suite, which is dominated by
SPD and diagonally dominant circuit matrices).  All randomness flows
through an explicit seed, so every experiment is reproducible.

Every matrix is fixed to the bit, and the golden digests in
``tests/matrices/test_generator_golden.py`` pin it (``indptr``,
``indices`` and ``data`` of every suite matrix at two scales, the serve
keys, and the heat stepper's matrices).  A rewrite keeps three orders:

* the entry order handed to :func:`_assemble`: row by row, a row's
  entries in the order of its stencil offsets (or draws), its diagonal
  last, because ``coo_to_csr`` sums duplicates in that order;
* each diagonal's summation order: ``|w|`` over the row's entries in
  that same order, starting from 0.0, then the shift;
* the rng draw order: ``Generator.random(size)`` yields the doubles of
  ``size`` scalar calls, so a block of scalar draws may become one call.

The per-row ``np.sum`` loops that make ``circuit_network`` and
``power_flow_blocks`` dominant stay loops: ``np.sum`` adds pairwise,
and no whole-array form reproduces its order per row.  The per-node
loops the whole-array stencils replaced are kept as the reference in
``tests/matrices/reference_generators.py``.
"""

from __future__ import annotations

import numpy as np

from ..sparse.coo import COOMatrix
from ..sparse.convert import coo_to_csr
from ..sparse.csr import CSRMatrix
from ..kernels.plans import diag_positions

__all__ = [
    "grid2d",
    "grid3d",
    "anisotropic2d",
    "helmholtz2d",
    "fem_shell",
    "fem_filter_like",
    "circuit_network",
    "power_flow_blocks",
    "tetra_mesh_like",
    "make_nonsymmetric_pattern",
    "make_spd_values",
    "zero_diag_rows",
    "singular_block",
    "rhs_stream",
]


def rhs_stream(n, *, drift=0.1, seed=0):
    """Infinite generator of correlated right-hand sides (AR(1) drift).

    Successive vectors follow ``b ← ρ·b + √(1-ρ²)·ε`` with
    ``ρ = 1 - drift`` and ``ε ~ N(0, I)``, so the marginal distribution
    stays N(0, I) while consecutive draws correlate with coefficient
    ``ρ``: ``drift=0`` repeats the same vector forever (the steady-state
    workload a warm serving cache loves), ``drift=1`` is i.i.d. fresh
    draws, and values in between model a time-stepping simulation whose
    right-hand side evolves slowly — the request stream
    ``repro.serve``'s workload driver feeds to the micro-batcher.  All
    randomness flows through ``seed``; two streams with the same
    ``(n, drift, seed)`` yield bit-identical sequences.
    """
    if not 0.0 <= drift <= 1.0:
        raise ValueError(f"drift must be in [0, 1], got {drift}")
    rng = np.random.default_rng(seed)
    rho = 1.0 - float(drift)
    mix = np.sqrt(max(0.0, 1.0 - rho * rho))
    b = rng.standard_normal(int(n))
    while True:
        yield b.copy()
        b = rho * b + mix * rng.standard_normal(int(n))


def _assemble(n, rows, cols, vals):
    return coo_to_csr(COOMatrix(n, n, np.asarray(rows), np.asarray(cols), np.asarray(vals)))


def _stencil_matrix(nbrs, weights, shift):
    """Assemble a stencil operator from its neighbour table.

    Row ``r`` couples to ``nbrs[r, k]`` with weight ``weights[..., k]``
    wherever ``nbrs[r, k] >= 0``, then to itself with the sum of those
    ``|w|`` plus ``shift``.  The entries reach :func:`_assemble` in the
    per-node loop's order (row by row; a row's neighbours in ``k``
    order, then its diagonal), and each diagonal sums its ``|w|`` in
    ``k`` order from 0.0, so the CSR arrays are that loop's, bit for bit.
    """
    n, K = nbrs.shape
    valid = nbrs >= 0
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), nbrs.shape)
    diag = np.zeros(n)
    for k in range(K):
        diag += np.where(valid[:, k], np.abs(w[:, k]), 0.0)
    node = np.arange(n, dtype=np.int64)[:, None]
    keep = np.hstack([valid, np.ones((n, 1), dtype=bool)])
    rows = np.broadcast_to(node, keep.shape)[keep]
    cols = np.hstack([nbrs, node])[keep]
    vals = np.hstack([w, (diag + shift)[:, None]])[keep]
    return _assemble(n, rows, cols, vals)


def _grid_neighbours(dims, offsets):
    """``(n, len(offsets))`` row-major neighbour table of a grid; -1 off the grid."""
    coords = np.indices(dims).reshape(len(dims), -1)
    nbrs = np.empty((coords.shape[1], len(offsets)), dtype=np.int64)
    for k, off in enumerate(offsets):
        moved = coords + np.asarray(off)[:, None]
        inside = np.all((moved >= 0) & (moved < np.asarray(dims)[:, None]), axis=0)
        nbrs[:, k] = np.where(inside, np.ravel_multi_index(np.where(inside, moved, 0), dims), -1)
    return nbrs


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
    offsets = _stencil_offsets_2d(stencil)
    weights = []
    for di, dj in offsets:
        w = -1.0
        if convection and di == 1 and dj == 0:
            w += convection  # downwind weakened
        if convection and di == -1 and dj == 0:
            w -= convection  # upwind strengthened
        weights.append(w)
    return _stencil_matrix(_grid_neighbours((nx, ny), offsets), weights, shift)


def grid3d(nx, ny=None, nz=None, stencil="7pt", *, shift=1.0, seed=0):
    """3D structured grid Laplacian (7- or 27-point stencil)."""
    ny = ny if ny is not None else nx
    nz = nz if nz is not None else nx
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
    return _stencil_matrix(_grid_neighbours((nx, ny, nz), offsets), -1.0, shift)


def anisotropic2d(nx, ny=None, epsilon=0.01, *, shift=0.01):
    """Anisotropic diffusion ``-ε u_xx - u_yy`` on a 2D grid.

    Strong anisotropy makes the conditioning and the ordering
    sensitivity far more pronounced than the isotropic Laplacian — the
    classic stress test for ILU-family preconditioners.
    """
    ny = ny if ny is not None else nx
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    weights = [-epsilon, -epsilon, -1.0, -1.0]
    return _stencil_matrix(_grid_neighbours((nx, ny), offsets), weights, shift)


def helmholtz2d(nx, ny=None, k2=0.5):
    """Shifted (Helmholtz-style) Laplacian ``-Δu - k² u`` on a 2D grid.

    The negative shift pushes eigenvalues toward (and past) zero:
    moderate ``k2`` yields an ill-conditioned but factorable matrix,
    large ``k2`` an indefinite one where ILU/IC pivots break down — the
    generator behind the breakdown and shifted-retry tests.
    """
    ny = ny if ny is not None else nx
    B = grid2d(nx, ny, stencil="5pt", shift=0.0)
    B.data[diag_positions(B)] -= k2
    return B


def fem_shell(nx, ny=None, dofs_per_node=3, *, shift=1.0, seed=0):
    """Shell-element style FEM matrix (af_shell3 family).

    Several coupled degrees of freedom per 2D grid node with a 9-point
    nodal stencil → row density in the 25–35 range and the long, thin
    level structure (many small levels) the paper observes for
    af_shell3.
    """
    ny = ny if ny is not None else nx
    dofs = dofs_per_node
    # slot 0 is the node itself, then its 9-point neighbours; each slot
    # holds every dof of that node, and a row skips its own dof
    node_nbrs = np.hstack(
        [np.arange(nx * ny, dtype=np.int64)[:, None],
         _grid_neighbours((nx, ny), _stencil_offsets_2d("9pt"))]
    )
    n = nx * ny * dofs
    row_nbrs = node_nbrs[np.arange(n) // dofs]  # (n, 9)
    nbrs = row_nbrs[:, :, None] * dofs + np.arange(dofs)  # (n, 9, dofs)
    nbrs[row_nbrs < 0] = -1
    nbrs[np.arange(n), 0, np.arange(n) % dofs] = -1
    weights = np.repeat(np.where(np.arange(9) == 0, -1.0, -0.5), dofs)
    return _stencil_matrix(nbrs.reshape(n, 9 * dofs), weights, shift)


def fem_filter_like(n, bandwidth=10, random_per_row=1.0, *, seed=0):
    """Band-plus-expander matrix (fem_filter family).

    fem_filter's signature (Tables I/III) is a huge level count with
    tiny levels — median 3 rows per level on 74k rows — and a structure
    whose graph resists separator-based reordering, so neither level
    scheduling nor the lower stage rescues it.  Built as a moderately
    wide dense band (the serialized element chain) plus random
    long-range couplings that shrink the graph diameter and defeat
    dissection separators, leaving dependency chains intact.
    """
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(n):
        lo, hi = max(0, i - bandwidth), min(n, i + bandwidth + 1)
        for j in range(lo, hi):
            rows.append(i)
            cols.append(j)
            vals.append(1.0 if i == j else -0.5)
    n_random = int(n * random_per_row)
    src = rng.integers(0, n, n_random)
    dst = rng.integers(0, n, n_random)
    ok = src != dst
    for s, d in zip(src[ok], dst[ok]):
        rows += [int(s), int(d)]
        cols += [int(d), int(s)]
        vals += [-0.2, -0.2]
    A = _assemble(n, rows, cols, vals)
    # make strictly diagonally dominant
    for r in range(n):
        lo2, hi2 = int(A.indptr[r]), int(A.indptr[r + 1])
        cc = A.indices[lo2:hi2]
        p = int(np.searchsorted(cc, r))
        s = float(np.abs(A.data[lo2:hi2]).sum()) - abs(A.data[lo2 + p])
        A.data[lo2 + p] = s + 1.0
    return A


def circuit_network(n, avg_degree=4.0, n_hubs=0, hub_degree=200, window=50, *, directed=False, seed=0):
    """Random circuit-style network (scircuit / ASIC / trans families).

    Mostly local connections (within a ``window`` of the node index,
    like netlist locality) plus optional high-degree hub nodes (power
    rails — the source of the handful of very dense rows that Javelin's
    density rule moves to the lower stage).  ``directed=True`` makes the
    *pattern* nonsymmetric (trans4 / transient / ibm_matrix_2 style).
    """
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    m_edges = int(n * avg_degree / 2)
    src = rng.integers(0, n, size=m_edges)
    off = rng.integers(1, window + 1, size=m_edges) * rng.choice((-1, 1), size=m_edges)
    dst = np.clip(src + off, 0, n - 1)
    ok = src != dst
    src, dst = src[ok], dst[ok]
    rows.extend(src)
    cols.extend(dst)
    if not directed:
        rows.extend(dst)
        cols.extend(src)
    else:
        # keep some reciprocity so the matrix stays usable, asymmetrize the rest
        half = len(src) // 2
        rows.extend(dst[:half])
        cols.extend(src[:half])
    if n_hubs:
        hubs = rng.choice(n, size=n_hubs, replace=False)
        for h in hubs:
            targets = rng.choice(n, size=min(hub_degree, n - 1), replace=False)
            targets = targets[targets != h]
            rows.extend([h] * len(targets))
            cols.extend(targets)
            rows.extend(targets)
            cols.extend([h] * len(targets))
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    vals = -np.abs(rng.standard_normal(rows.shape[0])) - 0.1
    # diagonal: strictly dominant
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


def power_flow_blocks(n_blocks, block_size=60, coupling_frac=0.08, *, seed=0):
    """Block-dense power-flow style matrix (TSOPF_RS family).

    Dense diagonal blocks (generator/bus clusters) with sparse
    asymmetric couplings — very high row density (≈ block_size) and a
    nonsymmetric pattern, plus the long level chains the paper reports
    (180 levels) because couplings run forward along the block chain.
    """
    rng = np.random.default_rng(seed)
    n = n_blocks * block_size
    # a block's off-diagonal entries, row by row: one draw each, in that order
    blk_r, blk_c = np.nonzero(~np.eye(block_size, dtype=bool))
    k = max(1, int(coupling_frac * block_size * block_size))
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for b in range(n_blocks):
        base = b * block_size
        # dense block
        rows.append(base + blk_r)
        cols.append(base + blk_c)
        vals.append(-rng.random(blk_r.shape[0]) * 0.5 / block_size)
        # forward couplings to the next block (asymmetric)
        if b + 1 < n_blocks:
            rs = rng.integers(0, block_size, size=k)
            cs = rng.integers(0, block_size, size=k)
            rows.append(base + rs)
            cols.append(base + block_size + cs)
            vals.append(-rng.random(k) * 0.2)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
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


def tetra_mesh_like(n_target, *, nonsym_frac=0.25, seed=0):
    """Unstructured 3D tetrahedral-mesh style matrix (3D_*_Tetra family).

    A 3D grid with randomly added face diagonals (≈10 nnz/row) whose
    pattern is then asymmetrized by dropping a fraction of one-sided
    entries, matching the published nonsymmetric SP flag.
    """
    nx = max(3, round(n_target ** (1 / 3)))
    A = grid3d(nx, stencil="7pt")
    rng = np.random.default_rng(seed)
    n = A.n_rows
    extra = int(n * 1.5)
    src = rng.integers(0, n, size=extra)
    off = rng.integers(1, max(nx * nx, 2), size=extra)
    dst = np.clip(src + off, 0, n - 1)
    ok = src != dst
    rows = np.concatenate([np.repeat(np.arange(n), np.diff(A.indptr)), src[ok], dst[ok]])
    cols = np.concatenate([A.indices, dst[ok], src[ok]])
    vals = np.concatenate([A.data, np.full(ok.sum(), -0.3), np.full(ok.sum(), -0.3)])
    B = _assemble(n, rows, cols, vals)
    B = make_nonsymmetric_pattern(B, drop_frac=nonsym_frac, seed=seed + 1)
    return make_spd_values(B, dominance=1.0, symmetric=False)


def zero_diag_rows(A: CSRMatrix, rows):
    """Zero the diagonal *values* of ``rows`` (pattern kept intact).

    The resulting matrix is structurally fine — every row still stores
    a diagonal entry, so pattern analyses and ILU setup proceed — but
    numerically singular at those rows: an unprotected no-pivoting
    factorization divides by zero there and poisons every dependent
    row with Inf/NaN.  This is the canonical breakdown input for the
    resilience tests (``docs/resilience.md``).
    """
    B = A.copy()
    for r in np.atleast_1d(np.asarray(rows, dtype=np.int64)):
        r = int(r)
        lo = int(B.indptr[r])
        cols = B.indices[lo : int(B.indptr[r + 1])]
        p = int(np.searchsorted(cols, r))
        if p >= cols.shape[0] or cols[p] != r:
            raise ValueError(f"row {r} lacks a diagonal entry")
        B.data[lo + p] = 0.0
    return B


def singular_block(n, block_start=0, block_size=3, *, base=None, seed=0):
    """Matrix with an embedded rank-deficient block.

    Takes a healthy diagonally dominant base (``grid2d`` of matching
    size by default) and overwrites rows ``[block_start,
    block_start + block_size)`` so that, restricted to the block
    columns, every row is the same all-ones vector — a rank-1 block of
    size ``block_size``.  Those rows couple *only* within the block, so
    elimination of the second block row by the first produces an exactly
    zero pivot regardless of fill level: a deterministic mid-matrix
    breakdown (rather than the row-0 breakdown of
    :func:`zero_diag_rows`) that exercises the shift/fallback retry
    chain.
    """
    if base is None:
        nx = max(1, int(round(n ** 0.5)))
        while n % nx:  # largest divisor ≤ √n, so grid2d(nx, n//nx) has exactly n rows
            nx -= 1
        base = grid2d(nx, n // nx)
    if base.n_rows < block_start + block_size:
        raise ValueError("block does not fit in the base matrix")
    n = base.n_rows
    rows, cols, vals = [], [], []
    blk = range(block_start, block_start + block_size)
    for r in range(n):
        lo, hi = int(base.indptr[r]), int(base.indptr[r + 1])
        if r in blk:
            for c in blk:
                rows.append(r)
                cols.append(c)
                vals.append(1.0)
        else:
            rows.extend([r] * (hi - lo))
            cols.extend(base.indices[lo:hi].tolist())
            vals.extend(base.data[lo:hi].tolist())
    return _assemble(n, rows, cols, vals)


def make_nonsymmetric_pattern(A: CSRMatrix, drop_frac=0.2, *, seed=0):
    """Randomly drop one side of some off-diagonal pairs (pattern asymmetry)."""
    rng = np.random.default_rng(seed)
    keep = np.ones(A.nnz, dtype=bool)
    for r in range(A.n_rows):
        lo, hi = int(A.indptr[r]), int(A.indptr[r + 1])
        for kk in range(lo, hi):
            c = int(A.indices[kk])
            if c > r and rng.random() < drop_frac:
                keep[kk] = False
    return A.prune(keep)


def make_spd_values(A: CSRMatrix, dominance=1.0, *, symmetric=True, seed=0):
    """Reset values to a diagonally dominant (optionally symmetric) set."""
    B = A.copy()
    rng = np.random.default_rng(seed)
    if symmetric:
        # assign by unordered pair so (i,j) and (j,i) agree
        for r in range(B.n_rows):
            lo, hi = int(B.indptr[r]), int(B.indptr[r + 1])
            for kk in range(lo, hi):
                c = int(B.indices[kk])
                if c != r:
                    pair_seed = (min(r, c) * 1000003 + max(r, c)) & 0xFFFFFFFF
                    B.data[kk] = -0.2 - (pair_seed % 997) / 997.0
    else:
        off = B.indices != np.repeat(np.arange(B.n_rows), np.diff(B.indptr))
        B.data[off] = -0.2 - rng.random(int(off.sum()))
    # diagonal = |row| sum + dominance
    for r in range(B.n_rows):
        lo, hi = int(B.indptr[r]), int(B.indptr[r + 1])
        cc = B.indices[lo:hi]
        p = int(np.searchsorted(cc, r))
        if p >= cc.shape[0] or cc[p] != r:
            raise ValueError(f"row {r} lacks a diagonal entry")
        s = float(np.sum(np.abs(B.data[lo:hi]))) - abs(B.data[lo + p])
        B.data[lo + p] = s + dominance
    return B
