"""Sparse assembly of stencil-local operators by probing with colored fields.

The area Hessian, which serves both as the Newton matrix and as the
stability operator, has stencil radius one: the response at a node
depends only on sources within Chebyshev distance one. Probing one
congruence class of nodes per axis modulo 3 therefore lets every response
entry be attributed to a unique source, and the full sparse matrix costs
3^n * m operator applications.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from .grid import DomainGrid


def interior_dof_index(grid: DomainGrid) -> tuple[np.ndarray, np.ndarray]:
    """(node -> interior rank array with -1 on boundary, interior multi-indices)."""
    idx = np.full(grid.counts, -1, dtype=np.int64)
    interior = grid.interior_mask
    idx[interior] = np.arange(int(interior.sum()))
    return idx, np.argwhere(interior)


def colored_stencil_matrix(response, grid: DomainGrid, m: int) -> sp.csr_matrix:
    """Assemble the matrix of a radius-one stencil-local linear response.

    ``response(probe)`` maps a counts + (m,) array to a counts + (m,) array
    and must be linear with stencil radius one; probes are unit
    indicators on interior nodes. Degrees of freedom are ordered node-major,
    components fastest.
    """
    k = 3
    counts = np.array(grid.counts)
    node_rank, interior_nodes = interior_dof_index(grid)
    n_int = interior_nodes.shape[0]
    idx_grids = np.indices(grid.counts)
    interior = grid.interior_mask

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    comp = np.arange(m, dtype=np.int64)
    for cls in itertools.product(range(k), repeat=grid.n):
        sel = interior.copy()
        for ax in range(grid.n):
            sel &= idx_grids[ax] % k == cls[ax]
        if not sel.any():
            continue
        for alpha in range(m):
            probe = np.zeros(grid.counts + (m,))
            probe[sel, alpha] = 1.0
            resp = response(probe)
            # unique source within distance one of each interior node
            d = (np.asarray(cls) - interior_nodes) % k
            d[d > 1] -= k
            src = interior_nodes + d
            valid = np.all((src >= 1) & (src <= counts - 2), axis=1)
            ynodes = interior_nodes[valid]
            snodes = src[valid]
            yrank = node_rank[tuple(ynodes.T)]
            srank = node_rank[tuple(snodes.T)]
            entries = resp[tuple(ynodes.T)]  # (n_valid, m)
            rows.append((yrank[:, None] * m + comp).ravel())
            cols.append(np.repeat(srank * m + alpha, m))
            vals.append(entries.ravel())
    data = np.concatenate(vals)
    mat = sp.coo_matrix(
        (data, (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_int * m, n_int * m),
    )
    return mat.tocsr()
