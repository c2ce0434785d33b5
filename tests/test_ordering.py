"""The factorization eliminates the interior dofs in nested-dissection order."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import minsurf.assembly as assembly
import minsurf.solver as solver
from minsurf import SecondVariationForm, SolverConfig, build_grid, solve_dirichlet, stability_index
from minsurf.assembly import Factorization, hessian_matrix
from minsurf.families import holomorphic_power_map, random_smooth_map
from minsurf.solver import harmonic_extension

# anisotropic boxes: node counts and extents
BOXES = [
    ((3,), [(0.0, 0.7)]),
    ((13,), [(-1.0, 2.0)]),
    ((3, 5), [(0.0, 1.0), (0.0, 2.5)]),
    ((9, 6), [(-0.5, 0.5), (1.0, 1.3)]),
    ((12, 7), [(0.0, 1.7), (0.0, 0.9)]),
    ((3, 3, 3), [(0.0, 1.0), (0.0, 0.4), (0.0, 2.0)]),
    ((4, 7, 5), [(0.0, 1.3), (-1.0, 0.0), (0.0, 0.6)]),
    ((6, 5, 8), [(0.2, 1.0), (0.0, 0.5), (-0.3, 0.9)]),
]
# boxes with more interior nodes than one dissection leaf
SPLIT_BOXES = [box for box in BOXES if np.prod([c - 2 for c in box[0]]) > 8]
each_box = pytest.mark.parametrize("counts,extents", BOXES)
each_split_box = pytest.mark.parametrize("counts,extents", SPLIT_BOXES)
each_m = pytest.mark.parametrize("m", [1, 2, 3])


def smooth_map(counts, extents, m):
    grid = build_grid(len(counts), extents, counts)
    return random_smooth_map(grid, m, np.random.default_rng(sum(counts) * 10 + m), amplitude=0.8)


def dissection_permutation(grid, m):
    """The order ``Factorization`` eliminates the interior dofs in (node-major, components fastest)."""
    nodes = assembly._dissection_nodes(tuple(c - 2 for c in grid.counts))
    return (nodes[:, None] * m + np.arange(m)).ravel()


def dense(S):
    return S @ np.eye(S.shape[0])


def top_split(counts):
    """(axis, plane index) of the first cut, in interior-node coordinates."""
    shape = [c - 2 for c in counts]
    ax = int(np.argmax(shape))
    return ax, shape[ax] // 2


@each_m
@each_box
def test_permutation_is_a_bijection_of_the_dofs(counts, extents, m):
    grid = build_grid(len(counts), extents, counts)
    p = dissection_permutation(grid, m)
    assert p.dtype.kind == "i"
    assert np.array_equal(np.sort(p), np.arange(grid.num_interior * m))


@each_m
@each_box
def test_components_of_a_node_stay_adjacent(counts, extents, m):
    grid = build_grid(len(counts), extents, counts)
    per_node = dissection_permutation(grid, m).reshape(-1, m)
    assert np.all(per_node[:, 0] % m == 0)
    assert np.array_equal(per_node - per_node[:, :1], np.broadcast_to(np.arange(m), per_node.shape))


@each_m
@each_split_box
def test_top_separator_is_the_middle_plane_of_the_longest_axis(counts, extents, m):
    grid = build_grid(len(counts), extents, counts)
    nodes = dissection_permutation(grid, m)[::m] // m
    coords = np.argwhere(grid.interior_mask)[nodes] - 1  # interior-node coordinates, in order
    ax, mid = top_split(counts)
    along = coords[:, ax]
    n_low = int(np.sum(along < mid))
    n_high = int(np.sum(along > mid))
    # first half, second half, then one full node plane
    assert np.all(along[:n_low] < mid)
    assert np.all(along[n_low : n_low + n_high] > mid)
    assert np.all(along[n_low + n_high :] == mid)
    assert len(along) - n_low - n_high == grid.num_interior // (counts[ax] - 2)


@each_m
@each_split_box
def test_hessian_does_not_couple_the_separated_halves(counts, extents, m):
    f = smooth_map(counts, extents, m)
    S = dense(SecondVariationForm(f, warn=False).assemble()[0])
    ax, mid = top_split(counts)
    along = np.repeat(np.argwhere(f.grid.interior_mask)[:, ax] - 1, m)  # per dof
    low, high = np.flatnonzero(along < mid), np.flatnonzero(along > mid)
    assert len(low) and len(high)
    assert np.count_nonzero(S[np.ix_(low, high)]) == 0
    # the stencil does couple each half to the plane
    assert np.count_nonzero(S[np.ix_(low, np.flatnonzero(along == mid))]) > 0


def test_cached_node_order_is_read_only():
    grid = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], (12, 7))
    p = dissection_permutation(grid, 2)
    nodes = assembly._dissection_nodes((10, 5))
    assert nodes is assembly._dissection_nodes((10, 5))
    assert not nodes.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 1
    assert np.array_equal(p[::2] // 2, nodes)


def record_first_newton_step(f, monkeypatch):
    """(Newton matrix, right-hand side, direction) of solve_dirichlet's first step from f."""
    matrices, directions = [], []
    assemble, line_search = solver.colored_stencil_matrix, solver._line_search

    def assembling(form):
        matrices.append(assemble(form))
        return matrices[-1]

    def searching(f_, direction, *args):
        directions.append(direction.copy())
        return line_search(f_, direction, *args)

    monkeypatch.setattr(solver, "colored_stencil_matrix", assembling)
    monkeypatch.setattr(solver, "_line_search", searching)
    solve_dirichlet(f, init=f, cfg=SolverConfig(max_newton_iters=1, max_fallback_iters=1))
    w = f.grid.quadrature_weights[..., None]
    rhs = (w * solver.minimal_system_residual(f).residual)[f.grid.interior_mask].ravel()
    return matrices[0], rhs, directions[0][f.grid.interior_mask].ravel()


@each_m
@each_box
def test_newton_direction_matches_unpermuted_solve(counts, extents, m, monkeypatch, csr):
    f = smooth_map(counts, extents, m)
    H, rhs, d = record_first_newton_step(f, monkeypatch)
    reference = spla.spsolve(csr(H).tocsc(), rhs)
    assert np.abs(d - reference).max() <= 1e-12 * np.abs(reference).max()


@each_m
@each_box
def test_stability_index_is_the_bottom_of_the_dense_pencil(counts, extents, m):
    f = smooth_map(counts, extents, m)
    rep = stability_index(f, warn=False)
    S, B_diag = SecondVariationForm(f, warn=False).assemble()
    bottom = scipy.linalg.eigh(dense(S), np.diag(B_diag), eigvals_only=True)[0]
    assert rep.converged
    assert abs(rep.min_eigenvalue - bottom) <= 1e-10 * abs(bottom)


@pytest.mark.parametrize("n,size,bound", [(2, 65, 0.7), (3, 11, 0.85)])
def test_dissection_fill_of_the_harmonic_extension_hessian(n, size, bound, csr):
    # the factorization's stored entries against SuperLU's L + U fill in its default order
    grid = build_grid(n, [(0.0, 1.0)] * n, (size,) * n)
    f = harmonic_extension(holomorphic_power_map(grid, 0.3, 3))
    H = hessian_matrix(SecondVariationForm(f, warn=False))
    lu = spla.splu(csr(H).tocsc())
    assert Factorization(H).stored <= bound * (lu.L.nnz + lu.U.nnz)


@each_m
@each_box
def test_factorization_solve_equals_spsolve(counts, extents, m):
    f = smooth_map(counts, extents, m)
    S, B_diag = SecondVariationForm(f, warn=False).assemble()
    A = dense(S)
    rhs = np.random.default_rng(m).standard_normal((S.shape[0], 2))
    bottom = scipy.linalg.eigh(A, np.diag(B_diag), eigvals_only=True)[0]
    # the Hessian, and pencils shifted below, into and above the bottom of the spectrum
    for sigma in (0.0, bottom - 1.0, 0.5 * bottom, bottom + 1.0):
        shifted = sp.csc_matrix(A - sigma * np.diag(B_diag))
        x = Factorization(S, sigma, B_diag).solve(rhs)
        for column in range(2):
            reference = spla.spsolve(shifted, rhs[:, column])
            assert np.abs(x[:, column] - reference).max() <= 1e-12 * np.abs(reference).max()
