"""Exact statements of the discrete scheme, checked against independent oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import minsurf.variation
from minsurf import GridMap, build_grid, harmonic_extension, solve_dirichlet, stability_index
from minsurf.families import holomorphic_power_map

BOXES = [
    ((3,), [(0.0, 0.7)]),
    ((11,), [(-1.0, 2.0)]),
    ((3, 5), [(0.0, 1.0), (0.0, 2.5)]),
    ((9, 6), [(-0.5, 0.5), (1.0, 1.3)]),
    ((3, 3, 3), [(0.0, 1.0), (0.0, 0.4), (0.0, 2.0)]),
    ((5, 4, 7), [(0.0, 1.3), (-1.0, 0.0), (0.0, 0.6)]),
]


def full_laplacian(grid):
    """Negative (2n+1)-point Laplacian on every node, C order, by Kronecker sums."""
    op = None
    for c, h in zip(grid.counts, grid.spacings):
        d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(c, c)) / h**2
        # kronsum(A, B) puts A on the fastest (last) axis
        op = d if op is None else sp.kronsum(d, op)
    return op.tocsr()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("counts,extents", BOXES)
def test_harmonic_extension_matches_sparse_oracle(counts, extents, m):
    grid = build_grid(len(counts), extents, counts)
    data = np.random.default_rng(sum(counts) + m).standard_normal(counts + (m,))
    boundary = GridMap(grid=grid, values=data)
    ext = harmonic_extension(boundary).values

    A = full_laplacian(grid)
    inside = grid.interior_mask.ravel()
    flat = data.reshape(-1, m)
    rhs = -(A[inside][:, ~inside] @ flat[~inside])
    sol = spla.spsolve(A[inside][:, inside].tocsc(), rhs).reshape(-1, m)
    assert np.abs(ext[grid.interior_mask] - sol).max() <= 1e-12 * np.abs(sol).max()
    assert np.array_equal(ext[grid.boundary_mask], data[grid.boundary_mask])

    u = ext.reshape(-1, m)
    lap = (A @ u)[inside]
    scale = (abs(A) @ np.abs(u))[inside].max()
    assert np.abs(lap).max() <= 1e-10 * scale


def flat_bottom_eigenvalue(grid):
    return sum((2.0 - 2.0 * np.cos(np.pi / (c - 1))) / h**2 for c, h in zip(grid.counts, grid.spacings))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("counts,extents", BOXES)
def test_flat_stability_index_is_closed_form(counts, extents, m):
    grid = build_grid(len(counts), extents, counts)
    rep = stability_index(GridMap.constant(grid, [0.0] * m), warn=False)
    expected = flat_bottom_eigenvalue(grid)
    assert rep.converged
    assert abs(rep.min_eigenvalue - expected) <= 1e-10 * expected


def test_flat_box_bottom_in_fewer_iterations():
    # the bottom eigenvalue has m = 3 copies and the next one sits close above;
    # plain block inverse iteration took 39 iterations here
    grid = build_grid(3, [(0.0, 1.0)] * 3, (5, 4, 6))
    rep = stability_index(GridMap.constant(grid, [0.0] * 3), warn=False)
    expected = flat_bottom_eigenvalue(grid)
    assert rep.converged and rep.iterations <= 39
    assert abs(rep.min_eigenvalue - expected) <= 1e-10 * expected


def test_single_dof_grid_converges():
    # one interior node and m = 1: the Rayleigh-Ritz space is the whole line
    grid = build_grid(2, [(0.0, 1.0)] * 2, (3, 3))
    rep = stability_index(GridMap.constant(grid, [0.0]), warn=False)
    assert rep.converged and rep.verdict == "stable"
    assert np.isfinite(rep.eigen_residual) and np.all(np.isfinite(rep.eigenvector.values))
    expected = flat_bottom_eigenvalue(grid)
    assert abs(rep.min_eigenvalue - expected) <= 1e-12 * expected


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("counts,extents", BOXES)
def test_flat_pencil_inertia_at_its_bottom_eigenvalue(counts, extents, m):
    # the count is withheld at the eigenvalue itself and is exact 0.1 % either side,
    # where the bottom eigenvalue's m copies (one per target component) lie below
    grid = build_grid(len(counts), extents, counts)
    S, B_diag = minsurf.variation.SecondVariationForm(GridMap.constant(grid, [0.0] * m)).assemble()
    bottom = flat_bottom_eigenvalue(grid)
    shifts = bottom * np.array([0.999, 1.0, 1.001])
    assert [minsurf.variation._factor(S, B_diag, s)[1] for s in shifts] == [0, None, m]


def test_newton_builds_no_nodal_metric(monkeypatch):
    calls = []
    real = minsurf.variation.induced_metric

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(minsurf.variation, "induced_metric", counting)
    grid = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], (9, 9))
    out = solve_dirichlet(holomorphic_power_map(grid, 0.3, 3))
    assert out.converged and out.iterations >= 1
    assert calls == []
    stability_index(out.solution)
    assert len(calls) == 1
