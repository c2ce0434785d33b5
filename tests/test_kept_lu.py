"""Newton refines on the sparse LU it keeps and factors afresh only when refinement stalls."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from minsurf import SecondVariationForm, build_grid, solve_dirichlet, solver
from minsurf.assembly import dissection_permutation, hessian_matrix
from minsurf.families import holomorphic_power_map, random_smooth_map


def holomorphic(n, size, amplitude):
    return holomorphic_power_map(build_grid(n, [(0.0, 1.0)] * n, (size,) * n), amplitude, 3)


def smooth_17_squared_m3():
    return random_smooth_map(holomorphic(2, 17, 0.3).grid, 3, np.random.default_rng(3), amplitude=0.3)


def recorded_solves(monkeypatch):
    """Per Newton direction: (matrix, rhs, direction, fresh factorizations it took)."""
    calls = []
    solve = solver._KeptLU.solve

    def recording(kept, hessian, rhs):
        before = kept.factorizations
        d = solve(kept, hessian, rhs)
        calls.append((hessian, rhs, d, kept.factorizations - before))
        return d

    monkeypatch.setattr(solver._KeptLU, "solve", recording)
    return calls


def counted_splu(monkeypatch):
    calls = []
    splu = spla.splu

    def counting(*args, **kwargs):
        calls.append(None)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def test_solve_3d_map_converges_in_two_newton_steps_on_one_factorization(monkeypatch):
    splu_calls = counted_splu(monkeypatch)
    out = solve_dirichlet(holomorphic(3, 17, 0.3))
    assert (out.converged, out.iterations, out.fallback_iterations) == (True, 2, 0)
    assert out.factorizations == len(splu_calls) == 1


@pytest.mark.parametrize(
    "boundary, refined_steps",
    [(lambda: holomorphic(3, 17, 0.3), [2]), (smooth_17_squared_m3, [2, 3])],  # the first is the solve-3d map
    ids=["17^3", "17^2-m3"],
)
def test_refined_direction_equals_a_fresh_direct_solve(monkeypatch, boundary, refined_steps):
    f = boundary()
    calls = recorded_solves(monkeypatch)
    assert solve_dirichlet(f).converged  # from the harmonic extension, as the workloads start
    assert [k + 1 for k, call in enumerate(calls) if call[3] == 0] == refined_steps
    for hessian, rhs, d, _ in calls:
        direct = spla.spsolve(hessian.tocsc(), rhs)
        assert np.linalg.norm(d - direct) <= 1e-12 * np.linalg.norm(direct)


def test_stalled_refinement_falls_back_to_one_fresh_factorization(monkeypatch):
    grid = holomorphic(2, 17, 0.3).grid
    boundary = holomorphic_power_map(grid, 6.0, 3)
    unforced = solve_dirichlet(boundary)
    assert (unforced.status, unforced.iterations, unforced.converged) == ("converged", 3, True)

    # the kept LU is that of an unrelated map's Hessian at the first Newton step
    unrelated = random_smooth_map(grid, 2, np.random.default_rng(0), amplitude=0.8)
    p = dissection_permutation(grid, 2)
    H = hessian_matrix(SecondVariationForm(unrelated, warn=False))
    unrelated_lu = spla.splu(H[p][:, p].tocsc(), permc_spec="NATURAL")
    unrelated_solves = []

    class Counted:
        def solve(self, b):
            unrelated_solves.append(None)
            return unrelated_lu.solve(b)

    class Forced(solver._KeptLU):
        def __init__(self, grid, m):
            super().__init__(grid, m)
            self.lu = Counted()

    monkeypatch.setattr(solver, "_KeptLU", Forced)
    splu_calls = counted_splu(monkeypatch)
    forced = solve_dirichlet(boundary)
    # one refinement step fails to halve the residual, and one fresh LU replaces it
    assert len(unrelated_solves) == 1
    assert forced.factorizations == len(splu_calls) == unforced.factorizations == 1
    assert (forced.status, forced.iterations, forced.converged) == (
        unforced.status,
        unforced.iterations,
        unforced.converged,
    )
    assert np.array_equal(forced.solution.values, unforced.solution.values)


@pytest.mark.parametrize(
    "scale, lu_solves, factorizations",
    [(0.995, 6, 0), (0.9, 1, 1)],
    ids=["rate-5e-3-refines", "rate-1e-1-factors"],
)
def test_refinement_factors_afresh_once_its_rate_cannot_reach_the_target(scale, lu_solves, factorizations):
    # the LU of H / scale contracts the residual by 1 - scale per step: 5e-3 reaches
    # REFINE_TOL in 6 steps, 1e-1 would need 12 of the 10, so its first step ends it
    grid = build_grid(2, [(0.0, 1.0)] * 2, (6, 5))
    f = random_smooth_map(grid, 2, np.random.default_rng(5), amplitude=0.3)
    H = hessian_matrix(SecondVariationForm(f, warn=False))
    kept = solver._KeptLU(grid, 2)
    scaled_lu = spla.splu((H / scale)[kept.p][:, kept.p].tocsc(), permc_spec="NATURAL")
    solves = []

    class Counted:
        def solve(self, b):
            solves.append(None)
            return scaled_lu.solve(b)

    kept.lu = Counted()
    rhs = np.random.default_rng(6).standard_normal(H.shape[0])
    d = kept.solve(H, rhs)
    assert (len(solves), kept.factorizations) == (lu_solves, factorizations)
    assert np.linalg.norm(rhs - H @ d) <= solver.REFINE_TOL * np.linalg.norm(rhs)
