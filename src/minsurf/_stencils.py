"""Cell-corner difference calculus behind the variational area machinery.

Every grid cell carries 2**n corner Jacobians built from its edge
differences; a cell-local trapezoidal rule (equal corner weights) turns any
corner integrand into a functional of the nodal values. ``scatter_corner_flux``
is the exact transpose of ``corner_jacobians``, which is what makes every
gradient assembled here variationally consistent down to round-off: the flux
coefficient each edge receives is the arithmetic average of the corner fluxes
sharing that edge.

Corner arrays keep the small axes first: Jacobians and fluxes have shape
(m, n, 2**n) + cells and metric data (n, n, 2**n) + cells, so each entry is
one contiguous array over all corners of all cells and every small matrix
product, inverse and determinant is a short loop of whole-grid vector
operations rather than a batched LAPACK call on tiny trailing matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import DomainGrid


def corner_offsets(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product((0, 1), repeat=n))


def cell_counts(grid: DomainGrid) -> tuple[int, ...]:
    return tuple(c - 1 for c in grid.counts)


def corner_weight(grid: DomainGrid) -> float:
    """Quadrature weight carried by each cell corner."""
    return float(math.prod(grid.spacings)) / 2**grid.n


def _edge(cells: tuple[int, ...], nu: tuple[int, ...], i: int, end: int) -> tuple:
    """Index of an (m,) + nodes array at the edge leaving corner ``nu`` along axis i.

    ``end`` 0 picks each cell's edge start node (on a difference array: the
    edge itself), 1 its end node.
    """
    return (slice(None),) + tuple(
        slice(end, end + c) if j == i else slice(nu[j], nu[j] + c) for j, c in enumerate(cells)
    )


def corner_jacobians(values: np.ndarray, grid: DomainGrid) -> np.ndarray:
    """Per-cell, per-corner m x n Jacobians from one-sided edge differences.

    ``values`` has shape counts + (m,); the result has shape
    (m, n, 2**n) + cells, so every entry J[a, i, c] is one contiguous array
    over the cells. Column i of the corner Jacobian is the first difference
    along the cell edge leaving that corner in direction i, so the
    construction is exact on affine maps.
    """
    n = grid.n
    cells = cell_counts(grid)
    offs = corner_offsets(n)
    V = np.moveaxis(values, -1, 0)
    diffs = [np.diff(V, axis=i + 1) / grid.spacings[i] for i in range(n)]
    J = np.empty((V.shape[0], n, len(offs)) + cells)
    for ci, nu in enumerate(offs):
        for i in range(n):
            J[:, i, ci] = diffs[i][_edge(cells, nu, i, 0)]
    return J


def scatter_corner_flux(flux: np.ndarray, grid: DomainGrid) -> np.ndarray:
    """Exact adjoint of :func:`corner_jacobians`.

    Given per-corner fluxes of shape (m, n, 2**n) + cells, accumulates
    d<flux, corner_jacobians(dV)> into a nodal array of shape counts + (m,).
    The slice walks mirror those of ``corner_jacobians`` so adjointness holds
    to round-off, independent of any consistency argument.
    """
    n = grid.n
    cells = cell_counts(grid)
    out = np.zeros((flux.shape[0],) + grid.counts)
    for ci, nu in enumerate(corner_offsets(n)):
        for i in range(n):
            contrib = flux[:, i, ci] / grid.spacings[i]
            out[_edge(cells, nu, i, 1)] += contrib
            out[_edge(cells, nu, i, 0)] -= contrib
    return np.moveaxis(out, 0, -1)


def small_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product over the two leading (small) axes, cellwise over the rest.

    A has shape (p, q) + S and B shape (q, r) + T with S and T broadcasting;
    each of the p*q*r steps is one vector operation over all corners of all
    cells.
    """
    out = np.empty((A.shape[0], B.shape[1]) + np.broadcast_shapes(A.shape[2:], B.shape[2:]))
    for a in range(A.shape[0]):
        for c in range(B.shape[1]):
            np.multiply(A[a, 0], B[0, c], out=out[a, c])
            for k in range(1, A.shape[1]):
                out[a, c] += A[a, k] * B[k, c]
    return out


def corner_metrics(J: np.ndarray):
    """Metric data per corner: (G^-1, sqrt(det G)) with G = I + J^T J.

    G >= I is symmetric positive definite, so an unpivoted Gauss-Jordan
    sweep over the small axes inverts it in place and det G is the product
    of its pivots. The same code runs for every n.
    """
    n = J.shape[1]
    A = small_matmul(J.swapaxes(0, 1), J)
    for i in range(n):
        A[i, i] += 1.0
    det = np.ones(A.shape[2:])
    for k in range(n):
        pivot = A[k, k].copy()
        det *= pivot
        A[k, k] = 1.0
        A[k] /= pivot
        for i in range(n):
            if i != k:
                factor = A[i, k].copy()
                A[i, k] = 0.0
                A[i] -= factor * A[k]
    return A, np.sqrt(det)
