"""Discrete graph area, its exact interior gradient, and residual reports.

The area of the graph of f is the composite trapezoidal quadrature of
sqrt(det G) with the integrand evaluated at cell corners from edge
differences. The minimal-surface residual returned here is minus the exact
gradient of that quadrature with respect to interior nodal values, scaled by
the trapezoidal node weights. In flux language the gradient divergences
edge coefficients sqrt(g) g^{ij} d_j f that are arithmetic averages of the
two corner fluxes sharing each edge; exactness of the adjoint is what makes
the first-variation identity hold to round-off rather than to O(h^2).

The residual report takes its area from the same corner metrics it builds
the gradient from, one sweep per call, so its ``total_area`` equals
:func:`discrete_area` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stencils import corner_jacobians, corner_metrics, corner_weight, scatter_corner_flux, small_matmul
from .grid import GridMap
from .report import Summarized

__all__ = [
    "AreaReport",
    "discrete_area",
    "minimal_system_residual",
    "codim1_residual",
    "fd_gradient_check",
]


@dataclass(frozen=True)
class AreaReport(Summarized):
    """Area value plus the pointwise minimal-surface residual field.

    The residual lives on interior nodes only; boundary rows are zero by
    construction. ``residual_l2_norm`` uses the quadrature-weighted norm.
    """

    total_area: float
    residual: np.ndarray  # counts + (m,)
    residual_sup_norm: float
    residual_l2_norm: float


def discrete_area(f: GridMap) -> float:
    """Trapezoidal quadrature of sqrt(det G) over the box.

    Second-order accurate in h; exact whenever the integrand is constant
    per cell, in particular for affine maps. Always at least the volume of
    the base box since det G >= 1.
    """
    _, sqrtg = corner_metrics(corner_jacobians(f.values, f.grid))
    return float(corner_weight(f.grid) * np.sum(sqrtg))


def _residual_report(f: GridMap, grad: np.ndarray, total_area: float) -> AreaReport:
    grid = f.grid
    w = grid.quadrature_weights
    interior = grid.interior_mask
    residual = np.where(interior[..., None], -grad / w[..., None], 0.0)
    sup = float(np.abs(residual).max())
    l2 = float(np.sqrt(np.sum(w[..., None] * residual**2)))
    return AreaReport(
        total_area=total_area,
        residual=residual,
        residual_sup_norm=sup,
        residual_l2_norm=l2,
    )


def minimal_system_residual(f: GridMap) -> AreaReport:
    """Residual of the minimal surface system at every interior node.

    Zero to round-off on affine maps, O(h^2) in the sup norm on smooth
    minimal graphs, and identically minus the gradient of
    :func:`discrete_area` divided by the node quadrature weights. The area
    and its gradient come from one sweep over the corner metrics.
    """
    J = corner_jacobians(f.values, f.grid)
    Ginv, sqrtg = corner_metrics(J)
    wc = corner_weight(f.grid)
    grad = wc * scatter_corner_flux(sqrtg * small_matmul(J, Ginv), f.grid)
    return _residual_report(f, grad, float(wc * np.sum(sqrtg)))


def codim1_residual(f: GridMap) -> AreaReport:
    """Scalar-equation residual div(grad f / sqrt(1 + |grad f|^2)) for m = 1.

    Uses the same stencil family as :func:`minimal_system_residual` but the
    flux is computed through the closed-form scalar reduction instead of a
    metric inverse, so agreement between the two is an algebraic check.
    """
    if f.m != 1:
        raise ValueError(f"codimension-one residual requires m = 1, got m = {f.m}")
    grid = f.grid
    grad = corner_jacobians(f.values, grid)[0]  # (n, 2^n) + cells
    flux = (grad / np.sqrt(1.0 + np.sum(grad**2, axis=0)))[None]
    # identical assembly as the general gradient; the report negates it into
    # the divergence-form residual
    total = corner_weight(grid) * scatter_corner_flux(flux, grid)
    return _residual_report(f, total, discrete_area(f))


def fd_gradient_check(
    f: GridMap,
    trials: int = 3,
    step: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst relative mismatch between area directional derivatives and the residual pairing.

    For random interior-supported directions W compares a Richardson pair of
    centered differences of :func:`discrete_area` along W (step and step/2,
    cancelling the quadratic truncation term) against
    -sum_nodes w <residual, W>. Derivatives below the round-off noise floor
    of the differences (eps * area / step) count as exact so critical maps
    do not produce 0/0 noise.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rng = rng or np.random.default_rng(0)
    grid = f.grid
    w = grid.quadrature_weights
    report = minimal_system_residual(f)
    floor = 200.0 * np.finfo(float).eps * (1.0 + abs(report.total_area)) / step

    def centered(values, W, s):
        plus = GridMap(grid=grid, values=values + s * W)
        minus = GridMap(grid=grid, values=values - s * W)
        return (discrete_area(plus) - discrete_area(minus)) / (2.0 * s)

    worst = 0.0
    for _ in range(trials):
        W = np.zeros_like(f.values)
        W[grid.interior_mask] = rng.standard_normal((grid.interior_mask.sum(), f.m))
        fd = (4.0 * centered(f.values, W, step / 2.0) - centered(f.values, W, step)) / 3.0
        pairing = -float(np.sum(w[..., None] * report.residual * W))
        denom = max(abs(fd), abs(pairing))
        if denom <= floor:
            continue
        worst = max(worst, abs(fd - pairing) / denom)
    return worst
