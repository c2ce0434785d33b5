"""Analytic map families used for boundary data, initial guesses, and tests."""

from __future__ import annotations

import numpy as np

from ._stencils import corner_jacobians
from .grid import DomainGrid, GridMap, jacobian, singular_spectrum

__all__ = [
    "affine_map",
    "holomorphic_power_map",
    "trigonometric_map",
    "interior_sine_values",
    "random_interior_values",
    "random_smooth_map",
    "scaled_to_stretch",
]


def affine_map(grid: DomainGrid, matrix: list, offset: list | None = None) -> GridMap:
    """f(x) = A x + b with A an m x n matrix and b an m-vector."""
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    if A.shape[1] != grid.n:
        raise ValueError(f"matrix must have {grid.n} columns, got {A.shape[1]}")
    m = A.shape[0]
    b = np.zeros(m) if offset is None else np.asarray(offset, dtype=float)
    if b.shape != (m,):
        raise ValueError(f"offset must have shape ({m},), one entry per component, got {b.shape}")
    return GridMap(grid=grid, values=grid.coordinates() @ A.T + b)


def holomorphic_power_map(grid: DomainGrid, amplitude: float, power: int) -> GridMap:
    """f(z) = s z^k / k on the first two domain coordinates, into R^2.

    Conformal wherever f' is nonzero: both stretches equal |s z^(k-1)|, which
    makes the family the workhorse for dialing the distance-decreasing margin
    with the amplitude s.
    """
    if grid.n < 2:
        raise ValueError("holomorphic family needs domain dimension >= 2")
    if power < 1:
        raise ValueError("power must be a positive integer")
    X = grid.coordinates()
    z = X[..., 0] + 1j * X[..., 1]
    w = amplitude * z**power / power
    return GridMap(grid=grid, values=np.stack([w.real, w.imag], axis=-1))


def trigonometric_map(grid: DomainGrid, amplitudes: list, wavevectors: list, phases: list | None = None) -> GridMap:
    """f^a(x) = amp_a * sin(<k_a, x> + phase_a) componentwise."""
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    waves = np.atleast_2d(np.asarray(wavevectors, dtype=float))
    m = amps.shape[0]
    if waves.shape != (m, grid.n):
        raise ValueError(f"wavevectors must have shape ({m}, {grid.n}), got {waves.shape}")
    ph = np.zeros(m) if phases is None else np.asarray(phases, dtype=float)
    if ph.shape != (m,):
        raise ValueError(f"phases must have shape ({m},), one entry per component, got {ph.shape}")
    X = grid.coordinates()
    vals = amps * np.sin(np.einsum("...i,ai->...a", X, waves) + ph)
    return GridMap(grid=grid, values=vals)


def _normalized_coords(grid: DomainGrid) -> np.ndarray:
    X = grid.coordinates()
    lo = np.array([a for a, _ in grid.extents])
    hi = np.array([b for _, b in grid.extents])
    return (X - lo) / (hi - lo)


def interior_sine_values(grid: DomainGrid, modes, coefficients) -> np.ndarray:
    """Superposition of sine products vanishing identically on the boundary.

    ``modes`` is a sequence of integer vectors (one per term, all entries
    >= 1) and ``coefficients`` a matching sequence of m-vectors. Returns a
    values array of shape counts + (m,) whose boundary entries are exact
    zeros, suitable for variation fields and interior perturbations.
    """
    T = _normalized_coords(grid)
    out = None
    for mode, coeff in zip(modes, coefficients):
        mode = np.asarray(mode, dtype=float)
        coeff = np.atleast_1d(np.asarray(coeff, dtype=float))
        basis = np.prod(np.sin(np.pi * mode * T), axis=-1)
        term = basis[..., None] * coeff
        out = term if out is None else out + term
    if out is None:
        raise ValueError("need at least one mode")
    out[grid.boundary_mask] = 0.0  # pin exact zeros against round-off
    return out


def random_interior_values(
    grid: DomainGrid,
    m: int,
    rng: np.random.Generator,
    terms: int = 3,
    amplitude: float = 1.0,
    max_mode: int = 3,
) -> np.ndarray:
    """Random smooth interior-supported field of shape counts + (m,)."""
    modes = rng.integers(1, max_mode + 1, size=(terms, grid.n))
    coeffs = amplitude * rng.standard_normal((terms, m)) / terms
    return interior_sine_values(grid, modes, coeffs)


def random_smooth_map(
    grid: DomainGrid,
    m: int,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    terms: int = 3,
    max_mode: int = 2,
) -> GridMap:
    """Random trigonometric map, generic but smooth (no boundary constraint)."""
    waves = rng.uniform(-np.pi * max_mode, np.pi * max_mode, size=(terms, m, grid.n))
    phases = rng.uniform(0, 2 * np.pi, size=(terms, m))
    amps = amplitude * rng.standard_normal((terms, m)) / terms
    X = grid.coordinates()
    vals = np.zeros(grid.counts + (m,))
    for t in range(terms):
        vals += amps[t] * np.sin(np.einsum("...i,ai->...a", X, waves[t]) + phases[t])
    return GridMap(grid=grid, values=vals)


def max_stretch(f: GridMap) -> float:
    """Largest singular value over nodewise and cell-corner Jacobians."""
    node_sup = singular_spectrum(jacobian(f)).sup_lambda_max("closure")
    corner = np.moveaxis(corner_jacobians(f.values, f.grid), (0, 1), (-2, -1))
    corner_sup = float(np.linalg.svd(corner, compute_uv=False)[..., 0].max())
    return max(node_sup, corner_sup)


def scaled_to_stretch(f: GridMap, target: float) -> GridMap:
    """Rescale a map so its largest stretch (nodes and corners) equals ``target``."""
    sup = max_stretch(f)
    if sup == 0.0:
        return f
    return GridMap(grid=f.grid, values=f.values * (target / sup))
