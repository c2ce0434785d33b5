"""Sparse assembly of stencil-local operators: interior-dof numbering, probing, factor order.

The area Hessian, which serves both as the Newton matrix and as the
stability operator, has stencil radius one: the response at a node
depends only on sources within Chebyshev distance one. Probing one
congruence class of nodes per axis modulo 3 therefore lets every response
entry be attributed to a unique source, and the full sparse matrix costs
3^n * m operator applications.

Every sparse LU of these matrices is ordered by ``dissection_permutation``.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import scipy.sparse as sp

from .grid import DomainGrid

_LEAF_NODES = 8  # dissection blocks this small are not split further


def interior_dof_index(grid: DomainGrid) -> tuple[np.ndarray, np.ndarray]:
    """(node -> interior rank array with -1 on boundary, interior multi-indices)."""
    idx = np.full(grid.counts, -1, dtype=np.int64)
    interior = grid.interior_mask
    idx[interior] = np.arange(int(interior.sum()))
    return idx, np.argwhere(interior)


@functools.lru_cache(maxsize=None)
def _dissection_nodes(shape: tuple[int, ...]) -> np.ndarray:
    order = np.arange(int(np.prod(shape)))
    if order.size > _LEAF_NODES:
        ax = int(np.argmax(shape))
        mid = shape[ax] // 2
        low, plane, high = np.split(order.reshape(shape), [mid, mid + 1], axis=ax)
        halves = [b.ravel()[_dissection_nodes(b.shape)] for b in (low, high)]
        order = np.concatenate(halves + [plane.ravel()])
    order.setflags(write=False)
    return order


def dissection_permutation(grid: DomainGrid, m: int) -> np.ndarray:
    """Nested-dissection order of the interior dofs (node-major, components fastest).

    The middle node plane across the longest axis of the interior box separates its halves
    under a radius-one stencil; the halves come first, each ordered the same way, then the plane.
    """
    nodes = _dissection_nodes(tuple(c - 2 for c in grid.counts))
    return (nodes[:, None] * m + np.arange(m)).ravel()


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
