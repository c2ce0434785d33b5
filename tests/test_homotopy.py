import numpy as np
import pytest

from minsurf import (
    BoundaryMismatch,
    GridMap,
    area_profile,
    discrete_area,
    jacobi_norm_convexity,
    jacobian,
    linear_homotopy,
    singular_spectrum,
    solve_dirichlet,
    uniqueness_experiment,
)
from minsurf.families import (
    affine_map,
    holomorphic_power_map,
    interior_sine_values,
    random_interior_values,
    random_smooth_map,
    scaled_to_stretch,
)


def dd_pair(grid, rng, stretch=0.7, bump_stretch=0.15):
    """Two distance-decreasing maps sharing boundary values.

    The triangle inequality for the largest stretch bounds the perturbed
    endpoint by stretch + bump_stretch, keeping both below one.
    """
    f0 = scaled_to_stretch(random_smooth_map(grid, 2, rng, amplitude=0.8), stretch)
    bump = scaled_to_stretch(
        GridMap(grid=grid, values=random_interior_values(grid, 2, rng, amplitude=0.5)),
        bump_stretch,
    )
    f1 = GridMap(grid=grid, values=f0.values + bump.values)
    return f0, f1


def test_boundary_mismatch_rejected(unit_square, rng):
    f0 = random_smooth_map(unit_square, 2, rng)
    f1 = random_smooth_map(unit_square, 2, rng)
    with pytest.raises(BoundaryMismatch):
        linear_homotopy(f0, f1)


def test_boundary_values_t_independent_bit_for_bit(unit_square, rng):
    f0, f1 = dd_pair(unit_square, rng)
    h = linear_homotopy(f0, f1, t_count=7)
    mask = unit_square.boundary_mask
    for t in (0.3, 1.0 / 3.0, 0.85):
        assert np.array_equal(h.map_at(t).values[mask], f0.values[mask])


def test_constant_family_constant_area(unit_square, rng):
    f = random_smooth_map(unit_square, 2, rng, amplitude=0.5)
    profile = area_profile(linear_homotopy(f, f, t_count=9))
    areas = np.array(profile.areas)
    assert np.abs(areas - areas[0]).max() < 1e-14
    assert profile.convexity_ok


def test_midpoint_is_half_amplitude_bump(unit_square):
    f0 = GridMap.constant(unit_square, [0.0, 0.0])
    bump = interior_sine_values(unit_square, [(1, 1)], [(0.4, -0.2)])
    f1 = GridMap(grid=unit_square, values=f0.values + bump)
    h = linear_homotopy(f0, f1, t_count=3)
    mid = h.map_at(0.5)
    assert np.abs(mid.values - 0.5 * bump).max() < 1e-15


def test_operator_norm_envelope_along_path(unit_square, rng):
    f0, f1 = dd_pair(unit_square, rng)
    h = linear_homotopy(f0, f1, t_count=17)
    profile = area_profile(h)
    assert profile.dd_envelope_ok
    # pointwise triangle inequality for the largest stretch
    s0 = singular_spectrum(jacobian(f0)).lambda_max
    s1 = singular_spectrum(jacobian(f1)).lambda_max
    for t in (0.25, 0.5, 0.75):
        st = singular_spectrum(jacobian(h.map_at(t))).lambda_max
        assert np.all(st <= (1 - t) * s0 + t * s1 + 1e-12)


def test_area_convex_between_dd_endpoints(unit_square, rng):
    for _ in range(5):
        f0, f1 = dd_pair(unit_square, rng)
        profile = area_profile(linear_homotopy(f0, f1, t_count=17))
        assert profile.convexity_ok
        assert max(profile.sup_lambda_max_path) <= 1.0


def test_minimal_endpoint_profile_flat_derivative(unit_square, rng):
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.25, 3))
    assert out.converged
    bump = random_interior_values(unit_square, 2, rng, amplitude=0.1)
    f1 = GridMap(grid=unit_square, values=out.solution.values + bump)
    profile = area_profile(linear_homotopy(out.solution, f1, t_count=33))
    # stable minimal endpoint: vanishing slope, convex takeoff
    assert abs(profile.endpoint_derivatives[0]) <= 1e-4 * profile.scale
    assert profile.second_differences[0] > 0
    assert profile.areas[-1] > profile.areas[0]


def test_both_endpoints_minimal_dd_constant_area(unit_square):
    # two minimal graphs with the same dd boundary coincide, so the area
    # profile between independently produced copies is flat
    boundary = holomorphic_power_map(unit_square, 0.25, 3)
    out1 = solve_dirichlet(boundary)
    bumped = GridMap(
        grid=unit_square,
        values=out1.solution.values
        + interior_sine_values(unit_square, [(2, 2)], [(0.1, 0.05)]),
    )
    out2 = solve_dirichlet(boundary, init=bumped)
    profile = area_profile(linear_homotopy(out1.solution, out2.solution, t_count=17))
    areas = np.array(profile.areas)
    assert np.abs(areas - areas[0]).max() <= 1e-9 * profile.scale
    assert abs(profile.endpoint_derivatives[0]) <= 1e-6 * profile.scale
    assert abs(profile.endpoint_derivatives[1]) <= 1e-6 * profile.scale


def test_jacobi_norm_second_differences(unit_square, rng):
    f0, f1 = dd_pair(unit_square, rng)
    h = linear_homotopy(f0, f1, t_count=9)
    rep = jacobi_norm_convexity(h)
    assert rep.worst_second_difference >= -1e-9
    # second differences are t-constant and equal 2 |d_i (f1 - f0)|^2
    assert rep.max_deviation_from_constant <= 1e-8


def test_jacobi_norm_identical_endpoints(unit_square, rng):
    f = random_smooth_map(unit_square, 2, rng)
    rep = jacobi_norm_convexity(linear_homotopy(f, f, t_count=5))
    assert rep.worst_second_difference == 0.0
    assert rep.max_deviation_from_constant == 0.0


def test_uniqueness_affine_boundary(unit_square, rng):
    boundary = affine_map(unit_square, 0.4 * rng.standard_normal((2, 2)))
    rep = uniqueness_experiment(boundary, init_count=4, seed=1)
    assert all(o.converged for o in rep.outcomes)
    assert rep.unique_in_dd_class
    assert rep.max_dd_pair_distance <= 1e-8


def test_uniqueness_holomorphic_boundary(unit_square):
    boundary = holomorphic_power_map(unit_square, 0.2, 2)
    rep = uniqueness_experiment(boundary, init_count=4, seed=2)
    assert all(rep.distance_decreasing)
    assert rep.unique_in_dd_class
    assert rep.max_dd_pair_distance <= 1e-7


def test_uniqueness_reuses_a_harmonic_start_solve_only_from_that_start(unit_square):
    boundary = holomorphic_power_map(unit_square, 0.3, 3)
    fresh = uniqueness_experiment(boundary, init_count=3, seed=2)
    shared = solve_dirichlet(boundary)
    reused = uniqueness_experiment(boundary, init_count=3, seed=2, harmonic=shared)
    assert reused.outcomes[0] is shared
    assert reused.summary() == fresh.summary()
    # a solve from another start does not stand for start 0
    elsewhere = solve_dirichlet(boundary, init=shared.solution)
    assert elsewhere.init_hash != shared.init_hash
    rep = uniqueness_experiment(boundary, init_count=3, seed=2, harmonic=elsewhere)
    assert rep.outcomes[0] is not elsewhere
    assert rep.summary() == fresh.summary()


def test_uniqueness_gating_excludes_non_dd(unit_square, rng):
    # pairs with a non-dd member are exempt from the assertion; distances
    # are still reported as data
    boundary = affine_map(unit_square, [[1.4, 0.0], [0.0, 0.3]])
    rep = uniqueness_experiment(boundary, init_count=2, seed=3)
    assert not any(rep.distance_decreasing)
    assert rep.unique_in_dd_class  # vacuous: no dd pair to compare
    assert rep.pairwise_sup[0][1] >= 0.0


def test_area_profile_requires_enough_samples(unit_square, rng):
    f = random_smooth_map(unit_square, 2, rng)
    with pytest.raises(ValueError):
        linear_homotopy(f, f, t_count=2)


def test_discrete_area_along_solved_pair_decreases_to_minimum(unit_square):
    boundary = holomorphic_power_map(unit_square, 0.3, 3)
    out = solve_dirichlet(boundary)
    start = GridMap(
        grid=unit_square,
        values=out.solution.values
        + interior_sine_values(unit_square, [(1, 2)], [(0.2, 0.1)]),
    )
    assert discrete_area(start) > discrete_area(out.solution)
