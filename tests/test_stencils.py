import itertools

import numpy as np
import pytest

from minsurf import GridMap, build_grid, discrete_area, minimal_system_residual
from minsurf._stencils import (
    cell_counts,
    corner_jacobians,
    corner_metrics,
    scatter_corner_flux,
    small_matmul,
)
from minsurf.families import random_interior_values, random_smooth_map
from minsurf.variation import SecondVariationForm

# anisotropic extents and node counts per domain dimension
BOXES = {
    1: ([(0.0, 1.3)], (7,)),
    2: ([(-0.5, 0.7), (0.0, 1.9)], (6, 9)),
    3: ([(0.0, 1.0), (0.2, 0.9), (-1.0, 0.4)], (5, 4, 6)),
    4: ([(0.0, 1.0), (0.0, 0.6), (0.1, 1.2), (-0.3, 0.5)], (4, 5, 3, 4)),
}
CASES = list(itertools.product(sorted(BOXES), (1, 2, 3)))


def box(n):
    extents, counts = BOXES[n]
    return build_grid(n, extents, counts)


def make_map(n, m, seed, amplitude=0.8):
    return random_smooth_map(box(n), m, np.random.default_rng(seed), amplitude=amplitude)


@pytest.mark.parametrize("n,m", CASES)
def test_corner_layout_small_axes_first(n, m):
    f = make_map(n, m, 1)
    J = corner_jacobians(f.values, f.grid)
    assert J.shape == (m, n, 2**n) + cell_counts(f.grid)
    assert J[m - 1, n - 1, -1].flags.c_contiguous


@pytest.mark.parametrize("n,m", CASES)
def test_corner_metrics_match_lapack(n, m):
    f = make_map(n, m, 2, amplitude=1.5)
    J = corner_jacobians(f.values, f.grid)
    Ginv, sqrtg = corner_metrics(J)
    Jt = np.moveaxis(J, (0, 1), (-2, -1))
    G = np.swapaxes(Jt, -1, -2) @ Jt + np.eye(n)
    ref_inv = np.moveaxis(np.linalg.inv(G), (-2, -1), (0, 1))
    ref_sqrt = np.sqrt(np.linalg.det(G))
    assert np.abs(Ginv - ref_inv).max() <= 1e-13 * np.abs(ref_inv).max()
    assert np.abs(sqrtg - ref_sqrt).max() <= 1e-13 * ref_sqrt.max()


@pytest.mark.parametrize("p,q,r", [(1, 1, 1), (2, 3, 4), (4, 2, 3)])
def test_small_matmul_matches_einsum(p, q, r):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((p, q, 4, 5, 6))
    B = rng.standard_normal((q, r, 4, 5, 6))
    ref = np.einsum("ij...,jk...->ik...", A, B)
    assert np.abs(small_matmul(A, B) - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n,m", CASES)
def test_scatter_is_exact_adjoint(n, m):
    grid = box(n)
    rng = np.random.default_rng(4)
    V = rng.standard_normal(grid.counts + (m,))
    flux = rng.standard_normal((m, n, 2**n) + cell_counts(grid))
    lhs = np.sum(flux * corner_jacobians(V, grid))
    rhs = np.sum(scatter_corner_flux(flux, grid) * V)
    assert abs(lhs - rhs) <= 1e-13 * np.abs(flux).sum() * np.abs(V).max() / min(grid.spacings)


@pytest.mark.parametrize("n,m", CASES)
def test_residual_area_is_discrete_area_bitwise(n, m):
    f = make_map(n, m, 5)
    assert minimal_system_residual(f).total_area == discrete_area(f)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_hessian_symmetric_in_four_dimensions(m):
    f = make_map(4, m, 6, amplitude=0.5)
    form = SecondVariationForm(f, warn=False)
    rng = np.random.default_rng(7)
    V = random_interior_values(f.grid, m, rng)
    W = random_interior_values(f.grid, m, rng)
    s1 = form.weighted_inner(W, form.apply_values(V))
    s2 = form.weighted_inner(V, form.apply_values(W))
    assert abs(s1 - s2) <= 1e-10 * max(abs(s1), abs(s2))


@pytest.mark.parametrize("n,m", CASES)
def test_affine_map_has_constant_corner_jacobian(n, m):
    grid = box(n)
    A = np.random.default_rng(8).standard_normal((m, n))
    f = GridMap(grid=grid, values=grid.coordinates() @ A.T)
    J = corner_jacobians(f.values, grid)
    expected = A.reshape((m, n) + (1,) * (n + 1))
    assert np.abs(J - expected).max() <= 1e-12 * (1.0 + np.abs(A).max())
