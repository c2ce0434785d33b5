"""Newton's method runs on the exact area Hessian of the stability analysis."""

import itertools

import numpy as np
import pytest
import yaml

import minsurf.solver as solver
from minsurf import ConfigError, GridMap, SolverConfig, build_grid, minimal_system_residual, solve_dirichlet
from minsurf.cli import main
from minsurf.config import parse_config
from minsurf.families import random_smooth_map

# anisotropic extents and node counts per domain dimension
BOXES = {
    1: ([(0.0, 1.3)], (7,)),
    2: ([(-0.5, 0.7), (0.0, 1.9)], (6, 9)),
    3: ([(0.0, 1.0), (0.2, 0.9), (-1.0, 0.4)], (5, 4, 6)),
}
CASES = list(itertools.product(sorted(BOXES), (1, 2, 3)))


def first_newton_matrix(f: GridMap, monkeypatch):
    """The matrix solve_dirichlet assembles for its first Newton step from f."""
    captured = []
    assemble = solver.colored_stencil_matrix

    def recording(form):
        matrix = assemble(form)
        captured.append(matrix)
        return matrix

    monkeypatch.setattr(solver, "colored_stencil_matrix", recording)
    solve_dirichlet(f, init=f, cfg=SolverConfig(max_newton_iters=1, max_fallback_iters=1))
    assert captured, "no Newton step was taken"
    return captured[0] @ np.eye(captured[0].shape[0])


def area_gradient(f: GridMap, values: np.ndarray) -> np.ndarray:
    """Interior area gradient -w * residual at the map with the given values."""
    rep = minimal_system_residual(GridMap(grid=f.grid, values=values))
    w = f.grid.quadrature_weights[..., None]
    return -(w * rep.residual)[f.grid.interior_mask].ravel()


def smooth_map(n, m, seed):
    extents, counts = BOXES[n]
    grid = build_grid(n, extents, counts)
    return random_smooth_map(grid, m, np.random.default_rng(seed), amplitude=0.8)


@pytest.mark.parametrize("n,m", CASES)
def test_newton_matrix_is_symmetric(n, m, monkeypatch):
    f = smooth_map(n, m, 10 * n + m)
    assert minimal_system_residual(f).residual_sup_norm > 1e-3  # not minimal
    H = first_newton_matrix(f, monkeypatch)
    assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max()


@pytest.mark.parametrize("n,m", CASES)
def test_newton_matrix_matches_central_difference_of_gradient(n, m, monkeypatch):
    f = smooth_map(n, m, 10 * n + m)
    H = first_newton_matrix(f, monkeypatch)
    interior = f.grid.interior_mask
    size = int(interior.sum()) * m
    eps = 1e-5
    fd = np.empty((size, size))
    for j in range(size):
        probe = np.zeros(size)
        probe[j] = eps
        delta = np.zeros_like(f.values)
        delta[interior] = probe.reshape(-1, m)
        fd[:, j] = (area_gradient(f, f.values + delta) - area_gradient(f, f.values - delta)) / (2 * eps)
    assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max()


# (n, m) -> Newton iterations from the random map itself, as solved by a fresh LU every step
BEFORE = {(1, 1): 5, (1, 2): 11, (1, 3): 8, (2, 1): 8, (3, 1): 6}


@pytest.mark.parametrize("n,m", sorted(BEFORE))
def test_one_dimensional_and_scalar_boxes_behave_as_before(monkeypatch, n, m):
    f = smooth_map(n, m, 10 * n + m)
    out = solve_dirichlet(f, init=f)
    assert (out.status, out.iterations, out.fallback_iterations) == ("converged", BEFORE[n, m], 0)
    assert 1 <= out.factorizations < out.iterations

    solve = solver._KeptFactor.solve

    def fresh_every_step(kept, hessian, rhs):
        kept.factor = None
        return solve(kept, hessian, rhs)

    monkeypatch.setattr(solver._KeptFactor, "solve", fresh_every_step)
    fresh = solve_dirichlet(f, init=f)
    assert (fresh.status, fresh.iterations, fresh.factorizations) == ("converged", BEFORE[n, m], BEFORE[n, m])
    assert np.abs(out.solution.values - fresh.solution.values).max() <= 1e-12


def test_jacobian_fd_step_is_an_unknown_key(tmp_path):
    doc = {
        "command": "solve",
        "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [9, 9]},
        "boundary": {"family": "holomorphic_power", "amplitude": 0.3, "power": 3},
        "solver": {"jacobian_fd_step": 1e-7},
        "output_dir": str(tmp_path / "out"),
    }
    with pytest.raises(ConfigError, match="solver.jacobian_fd_step"):
        parse_config(doc)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path)]) == 2
