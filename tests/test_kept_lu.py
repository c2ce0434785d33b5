"""Newton refines on the factorization it keeps and factors afresh only when refinement stalls.

The stability check of a corner-convex map iterates on that factorization when a probe shows
it inverts the stability operator, and factors its own otherwise.
"""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from minsurf import SecondVariationForm, build_grid, solve_dirichlet, solver, stability_index
from minsurf.assembly import Factorization, NodeBlockOperator, hessian_matrix
from minsurf.cli import main
from minsurf.families import holomorphic_power_map, random_smooth_map


def holomorphic(n, size, amplitude):
    return holomorphic_power_map(build_grid(n, [(0.0, 1.0)] * n, (size,) * n), amplitude, 3)


def smooth_17_squared_m3():
    return random_smooth_map(holomorphic(2, 17, 0.3).grid, 3, np.random.default_rng(3), amplitude=0.3)


def recorded_solves(monkeypatch):
    """Per Newton direction: (matrix, rhs, direction, fresh factorizations it took)."""
    calls = []
    solve = solver._KeptFactor.solve

    def recording(kept, hessian, rhs):
        before = kept.factorizations
        d = solve(kept, hessian, rhs)
        calls.append((hessian, rhs, d, kept.factorizations - before))
        return d

    monkeypatch.setattr(solver._KeptFactor, "solve", recording)
    return calls


def counted_factorizations(monkeypatch):
    calls = []
    init = Factorization.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Factorization, "__init__", counting)
    return calls


class CountedSolves:
    """A factorization whose solves are counted."""

    def __init__(self, factor, solves):
        self.factor, self.solves = factor, solves

    def solve(self, b):
        self.solves.append(None)
        return self.factor.solve(b)


def test_solve_3d_map_converges_in_two_newton_steps_on_one_factorization(monkeypatch):
    factorizations = counted_factorizations(monkeypatch)
    out = solve_dirichlet(holomorphic(3, 17, 0.3))
    assert (out.converged, out.iterations, out.fallback_iterations) == (True, 2, 0)
    assert out.factorizations == len(factorizations) == 1


@pytest.mark.parametrize(
    "boundary, refined_steps",
    [(lambda: holomorphic(3, 17, 0.3), [2]), (smooth_17_squared_m3, [2, 3])],  # the first is the solve-3d map
    ids=["17^3", "17^2-m3"],
)
def test_refined_direction_equals_a_fresh_direct_solve(monkeypatch, boundary, refined_steps, csr):
    f = boundary()
    calls = recorded_solves(monkeypatch)
    assert solve_dirichlet(f).converged  # from the harmonic extension, as the workloads start
    assert [k + 1 for k, call in enumerate(calls) if call[3] == 0] == refined_steps
    for hessian, rhs, d, _ in calls:
        direct = spla.spsolve(csr(hessian).tocsc(), rhs)
        assert np.linalg.norm(d - direct) <= 1e-12 * np.linalg.norm(direct)


def test_stalled_refinement_falls_back_to_one_fresh_factorization(monkeypatch):
    grid = holomorphic(2, 17, 0.3).grid
    boundary = holomorphic_power_map(grid, 6.0, 3)
    unforced = solve_dirichlet(boundary)
    assert (unforced.status, unforced.iterations, unforced.converged) == ("converged", 3, True)

    # the kept factorization is that of an unrelated map's Hessian at the first Newton step
    unrelated = random_smooth_map(grid, 2, np.random.default_rng(0), amplitude=0.8)
    unrelated_solves = []
    unrelated_hessian = hessian_matrix(SecondVariationForm(unrelated, warn=False))
    unrelated_factor = CountedSolves(Factorization(unrelated_hessian), unrelated_solves)

    class Forced(solver._KeptFactor):
        def __init__(self):
            super().__init__()
            self.factor = unrelated_factor

    monkeypatch.setattr(solver, "_KeptFactor", Forced)
    factorizations = counted_factorizations(monkeypatch)
    forced = solve_dirichlet(boundary)
    # one refinement step fails to halve the residual, and one fresh factorization replaces it
    assert len(unrelated_solves) == 1
    assert forced.factorizations == len(factorizations) == unforced.factorizations == 1
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
    # the factorization of H / scale contracts the residual by 1 - scale per step: 5e-3
    # reaches REFINE_TOL in 6 steps, 1e-1 would need 12 of the 10, so its first step ends it
    grid = build_grid(2, [(0.0, 1.0)] * 2, (6, 5))
    f = random_smooth_map(grid, 2, np.random.default_rng(5), amplitude=0.3)
    H = hessian_matrix(SecondVariationForm(f, warn=False))
    kept = solver._KeptFactor()
    solves = []
    kept.factor = CountedSolves(Factorization(NodeBlockOperator(H.blocks / scale, H.offsets)), solves)
    rhs = np.random.default_rng(6).standard_normal(H.shape[0])
    d = kept.solve(H, rhs)
    assert (len(solves), kept.factorizations) == (lu_solves, factorizations)
    assert np.linalg.norm(rhs - H @ d) <= solver.REFINE_TOL * np.linalg.norm(rhs)


def test_the_first_solve_on_a_fresh_factorization_is_refined():
    # an indefinite map (73 negative eigenvalues): the factorization pivots nowhere across its
    # fronts, so its direct solve misses REFINE_TOL (2.5e-12) and refinement on it meets it
    grid = build_grid(3, [(0.0, 1.0)] * 3, (9,) * 3)
    f = random_smooth_map(grid, 3, np.random.default_rng(2), amplitude=4.0)
    H = hessian_matrix(SecondVariationForm(f, warn=False))
    rhs = np.random.default_rng(2).standard_normal(H.shape[0])
    direct = Factorization(H).solve(rhs)
    assert np.linalg.norm(rhs - H @ direct) > solver.REFINE_TOL * np.linalg.norm(rhs)
    kept = solver._KeptFactor()
    d = kept.solve(H, rhs)
    assert kept.factorizations == 1
    assert np.linalg.norm(rhs - H @ d) <= solver.REFINE_TOL * np.linalg.norm(rhs)


def solved_with_kept_lu(n, size, amplitude):
    boundary = holomorphic(n, size, amplitude)
    kept = solver._KeptFactor()
    out = solve_dirichlet(boundary, kept=kept)
    assert out.converged and kept.factor is not None
    return out.solution, kept


def assert_same_verdict(rep, own, rtol):
    assert rep.converged and own.converged
    assert abs(rep.min_eigenvalue - own.min_eigenvalue) <= rtol * abs(own.min_eigenvalue)
    assert (rep.verdict, rep.morse_index) == (own.verdict, own.morse_index)


@pytest.mark.parametrize("n, size", [(2, 97), (3, 17)], ids=["97^2", "17^3"])  # the solve workload maps
def test_stability_on_the_kept_lu_equals_stability_on_its_own_lu(monkeypatch, n, size):
    f, kept = solved_with_kept_lu(n, size, 0.3)
    factorizations = counted_factorizations(monkeypatch)
    rep = stability_index(f, warn=False, kept=kept)
    assert rep.factorizations == len(factorizations) == 0
    own = stability_index(f, warn=False)
    assert own.factorizations == len(factorizations) == 1
    assert_same_verdict(rep, own, 1e-12)
    assert rep.iterations <= own.iterations


def test_a_kept_lu_of_an_unrelated_map_fails_the_probe(monkeypatch):
    # the factorization kept by the s = 6 solve inverts the s = 0.3 map's operator badly
    # (||S F^-1 W - W||_F / ||W||_F is about 28), so stability factors its own
    f, _ = solved_with_kept_lu(2, 17, 0.3)
    _, unrelated = solved_with_kept_lu(2, 17, 6.0)
    factorizations = counted_factorizations(monkeypatch)
    rep = stability_index(f, warn=False, kept=unrelated)
    assert rep.factorizations == len(factorizations) == 1
    own = stability_index(f, warn=False)
    assert rep.summary() == own.summary()
    assert np.array_equal(rep.eigenvector.values, own.eigenvector.values)


def test_a_non_convex_map_never_iterates_on_the_kept_lu(monkeypatch):
    # the solve's own LU would pass the probe here; the corner test alone refuses it
    f, kept = solved_with_kept_lu(2, 17, 6.0)
    assert not SecondVariationForm(f, warn=False).corners_convex()
    kept_solves = []
    kept.factor = CountedSolves(kept.factor, kept_solves)
    factorizations = counted_factorizations(monkeypatch)
    rep = stability_index(f, warn=False, kept=kept)
    assert kept_solves == []
    assert rep.factorizations == len(factorizations) >= 1
    assert rep.summary() == stability_index(f, warn=False).summary()


def test_the_solve_command_factors_once_on_a_corner_convex_map(monkeypatch, tmp_path):
    # the solve-3d workload: Newton's one factorization serves the stability check too
    config = {
        "command": "solve",
        "seed": 41000,
        "output_dir": str(tmp_path),
        "grid": {"extents": [[0.0, 1.0]] * 3, "counts": [17] * 3},
        "boundary": {"family": "holomorphic_power", "amplitude": 0.3, "power": 3},
        "stability": {"enabled": True},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    factorizations = counted_factorizations(monkeypatch)
    assert main(["run", str(tmp_path / "config.json")]) == 0
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert len(factorizations) == results["solve"]["factorizations"] == 1
    assert results["stability"]["factorizations"] == 0
    assert results["stability"]["verdict"] == "stable"
