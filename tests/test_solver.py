from dataclasses import fields

import numpy as np
import pytest

from minsurf import solver
from minsurf import (
    GridMap,
    SolverConfig,
    build_grid,
    discrete_area,
    fd_gradient_check,
    harmonic_extension,
    minimal_system_residual,
    solve_dirichlet,
)
from minsurf.families import (
    affine_map,
    holomorphic_power_map,
    interior_sine_values,
    random_interior_values,
)

AREA_ULPS = 4 * np.finfo(float).eps


def assert_area_history_nonincreasing(outcome):
    hist = np.array(outcome.area_history)
    band = AREA_ULPS * (1.0 + np.abs(hist).max())
    assert np.all(np.diff(hist) <= band)


def test_affine_boundary_affine_init_zero_iterations(unit_square, rng):
    f = affine_map(unit_square, rng.standard_normal((2, 2)))
    out = solve_dirichlet(f, init=f)
    assert out.converged and out.iterations == 0
    assert np.array_equal(out.solution.values, f.values)


def test_affine_plus_bump_returns_to_affine(unit_square, rng):
    f = affine_map(unit_square, rng.standard_normal((2, 2)) * 0.5)
    bump = interior_sine_values(unit_square, [(2, 1)], [(0.2, -0.1)])
    init = GridMap(grid=unit_square, values=f.values + bump)
    out = solve_dirichlet(f, init=init)
    assert out.converged
    assert np.abs(out.solution.values - f.values).max() <= 1e-8
    assert_area_history_nonincreasing(out)


def test_harmonic_extension_reproduces_affine(unit_square, rng):
    f = affine_map(unit_square, rng.standard_normal((2, 2)), rng.standard_normal(2))
    ext = harmonic_extension(f)
    assert np.abs(ext.values - f.values).max() < 1e-10


def test_solve_holomorphic_boundary_matches_reference():
    # the cubic holomorphic graph solves the continuum system; the discrete
    # solution should approach it at second order
    errs = []
    for N in (17, 33):
        g = build_grid(2, [(0, 1), (0, 1)], (N, N))
        reference = holomorphic_power_map(g, 0.3, 3)
        out = solve_dirichlet(reference)
        assert out.converged, out.status
        errs.append(np.abs(out.solution.values - reference.values).max())
    assert errs[0] / errs[1] > 3.0


def test_boundary_values_unchanged_bit_for_bit(unit_square, rng):
    boundary = holomorphic_power_map(unit_square, 0.35, 3)
    out = solve_dirichlet(boundary)
    mask = unit_square.boundary_mask
    assert np.array_equal(out.solution.values[mask], boundary.values[mask])


def test_solver_idempotent(unit_square):
    boundary = holomorphic_power_map(unit_square, 0.3, 3)
    first = solve_dirichlet(boundary)
    again = solve_dirichlet(boundary, init=first.solution)
    assert again.iterations == 0 and again.converged
    assert np.array_equal(again.solution.values, first.solution.values)


def test_converged_solution_passes_gradient_check(unit_square):
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.3, 3))
    best = min(
        fd_gradient_check(out.solution, trials=2, step=s, rng=np.random.default_rng(1))
        for s in (1e-3, 1e-4, 1e-5)
    )
    assert best <= 1e-6


def test_init_must_match_boundary(unit_square, rng):
    boundary = affine_map(unit_square, rng.standard_normal((2, 2)))
    other = GridMap(grid=unit_square, values=boundary.values + 1.0)
    with pytest.raises(ValueError):
        solve_dirichlet(boundary, init=other)


def test_solve_records_init_hash(unit_square):
    boundary = holomorphic_power_map(unit_square, 0.2, 3)
    out1 = solve_dirichlet(boundary)
    out2 = solve_dirichlet(boundary)
    assert out1.init_hash == out2.init_hash
    perturbed = GridMap(
        grid=unit_square,
        values=harmonic_extension(boundary).values
        + interior_sine_values(unit_square, [(1, 1)], [(0.05, 0.0)]),
    )
    out3 = solve_dirichlet(boundary, init=perturbed)
    assert out3.init_hash != out1.init_hash


def test_descent_until_tolerance(unit_square, rng):
    boundary = holomorphic_power_map(unit_square, 0.4, 3)
    bump = random_interior_values(unit_square, 2, rng, amplitude=0.3)
    init = GridMap(
        grid=unit_square, values=harmonic_extension(boundary).values + bump
    )
    out = solve_dirichlet(boundary, init=init)
    assert out.converged
    assert_area_history_nonincreasing(out)
    # strictly decreasing while measurably above the floor
    hist = np.array(out.area_history)
    drops = -np.diff(hist)
    assert drops[0] > 0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_residual_sup=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_newton_iters=0)


def test_nonconvergence_reported_not_raised(unit_square):
    cfg = SolverConfig(max_newton_iters=1, max_fallback_iters=1, tol_residual_sup=1e-14)
    boundary = holomorphic_power_map(unit_square, 0.45, 3)
    out = solve_dirichlet(boundary, cfg=cfg)
    if not out.converged:
        assert out.status in ("max_iterations", "line_search_stall")
        assert np.isfinite(out.residual_sup_norm)
    # the best iterate is still returned with intact boundary data
    mask = unit_square.boundary_mask
    assert np.array_equal(out.solution.values[mask], boundary.values[mask])


def test_line_search_constants_and_solver_fields():
    assert (solver.BACKTRACK_FACTOR, solver.SUFFICIENT_DECREASE, solver.MAX_BACKTRACKS) == (0.5, 1e-4, 40)
    assert [f.name for f in fields(SolverConfig)] == [
        "tol_residual_sup",
        "max_newton_iters",
        "max_fallback_iters",
    ]


def _capped_solve(tol):
    grid = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], (5, 5))
    cfg = SolverConfig(tol_residual_sup=tol, max_newton_iters=1, max_fallback_iters=1)
    return solve_dirichlet(holomorphic_power_map(grid, 0.4, 3), cfg=cfg)


def test_converged_on_the_last_allowed_step():
    # both caps of one step each bite: one Newton step, then one gradient step
    capped = _capped_solve(1e-14)
    assert (capped.status, capped.iterations, capped.fallback_iterations) == ("max_iterations", 1, 1)
    # a tolerance just above the residual after that last step is met by it
    out = _capped_solve(capped.residual_sup_norm * (1 + 1e-6))
    assert out.residual_sup_norm == capped.residual_sup_norm
    assert (out.converged, out.status, out.message) == (True, "converged", "")
    assert (out.iterations, out.fallback_iterations) == (1, 1)


def _step_along(delta, direction):
    """The factor lam with delta = lam * direction, or None if there is none."""
    lam = float(np.sum(delta * direction) / np.sum(direction * direction))
    return lam if np.allclose(delta, lam * direction, rtol=1e-9, atol=1e-13) else None


def _singular(d):
    raise RuntimeError("factor is exactly singular")


@pytest.mark.parametrize(
    "first_step, newton_trials",
    [
        (_singular, 0),
        (lambda d: np.full_like(d, np.nan), 0),
        (lambda d: -d, 0),  # ascent: refused before any area evaluation
        (lambda d: 1e30 * d, 40),  # every backtrack fails
    ],
    ids=["solve-raises", "nan-step", "ascent-step", "huge-step"],
)
def test_unusable_newton_step_is_rescued_by_the_gradient(monkeypatch, first_step, newton_trials):
    grid = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], (9, 9))
    boundary = holomorphic_power_map(grid, 0.3, 3)
    init = harmonic_extension(boundary)
    gradient = minimal_system_residual(init).residual
    solve, area = solver._KeptFactor.solve, solver.discrete_area
    solves, trials = [], []  # trials[i]: the candidates of step i + 1

    def first_solve_spoiled(kept, *args):
        # called once per Newton direction
        solves.append(None)
        trials.append([])
        d = solve(kept, *args)
        return first_step(d) if len(solves) == 1 else d

    def recorded_area(f):
        trials[-1].append(f.values - init.values)
        return area(f)

    monkeypatch.setattr(solver._KeptFactor, "solve", first_solve_spoiled)
    monkeypatch.setattr(solver, "discrete_area", recorded_area)
    with np.errstate(all="ignore"):  # the huge step overflows the area
        out = solve_dirichlet(boundary, init=init)

    # step 1: the Newton trials, if any, then the gradient line search
    lams = [_step_along(delta, gradient) for delta in trials[0]]
    assert len(lams) > newton_trials
    assert [lam is None for lam in lams] == [True] * newton_trials + [False] * (len(lams) - newton_trials)
    assert lams[-1] > 0  # the accepted step 1 is a gradient step ...
    assert out.area_history[1] < out.area_history[0]  # ... that lowers the area
    assert (out.iterations, out.fallback_iterations) == (len(solves), 0)
    assert out.converged
