"""Sparse assembly of the area Hessian: interior-dof numbering, the CSR matrix, factor order.

The area Hessian, which serves both as the Newton matrix and as the
stability operator, couples each node only with nodes within Chebyshev
distance one. ``hessian_matrix`` turns its per-offset node blocks, built
element by element from the corner tensor, into a sparse matrix.

Every sparse LU of these matrices is ordered by ``dissection_permutation``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import DomainGrid

if TYPE_CHECKING:
    import scipy.sparse as sp

_LEAF_NODES = 8  # dissection blocks this small are not split further


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


def hessian_matrix(form) -> sp.csr_matrix:
    """The Hessian of a ``SecondVariationForm`` as a CSR matrix on the interior dofs.

    Built from ``form.node_blocks()``: every pair of interior nodes within Chebyshev
    distance one carries its m x m block, so the pattern is the full 3^n stencil.
    Degrees of freedom are ordered node-major, components fastest.
    """
    import scipy.sparse as sp  # loaded on first use: the chain algebra needs no scipy

    grid, m = form.grid, form.m
    blocks = form.node_blocks()
    rank = np.full(grid.counts, -1, dtype=np.int32)
    rank[grid.interior_mask] = np.arange(np.count_nonzero(grid.interior_mask))
    # rank of each interior node's neighbours, offsets in lexicographic order; pairs with a
    # boundary node (rank -1) are dropped before their blocks are expanded
    neighbour = sliding_window_view(rank, (3,) * grid.n).reshape(-1, 3**grid.n)
    keep = neighbour >= 0
    inner = blocks[(Ellipsis,) + (slice(1, -1),) * grid.n].reshape(blocks.shape[:3] + (-1,))
    data = np.moveaxis(inner, -1, 0)[keep]
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1))))
    size = neighbour.shape[0] * m
    return sp.bsr_matrix((data, neighbour[keep], indptr), shape=(size, size)).tocsr()
