import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from minsurf import (
    EigenConfig,
    GridMap,
    NotMinimalWarning,
    SecondVariationForm,
    VariationField,
    build_grid,
    discrete_area,
    first_variation,
    minimal_system_residual,
    solve_dirichlet,
    stability_index,
)
from minsurf.families import (
    affine_map,
    holomorphic_power_map,
    random_interior_values,
    random_smooth_map,
)


def random_variation(grid, m, rng, amplitude=1.0):
    return VariationField(
        grid=grid, values=random_interior_values(grid, m, rng, amplitude=amplitude)
    )


def fd_first(f, V, step):
    plus = GridMap(grid=f.grid, values=f.values + step * V.values)
    minus = GridMap(grid=f.grid, values=f.values - step * V.values)
    return (discrete_area(plus) - discrete_area(minus)) / (2 * step)


def fd_second(f, V, step):
    plus = GridMap(grid=f.grid, values=f.values + step * V.values)
    minus = GridMap(grid=f.grid, values=f.values - step * V.values)
    return (
        discrete_area(plus) - 2 * discrete_area(f) + discrete_area(minus)
    ) / step**2


def test_variation_field_zeroes_boundary(unit_square, rng):
    vals = rng.standard_normal(unit_square.counts + (2,))
    V = VariationField(grid=unit_square, values=vals)
    assert np.all(V.values[unit_square.boundary_mask] == 0.0)


def test_first_variation_vanishes_on_affine(unit_square, rng):
    f = affine_map(unit_square, rng.standard_normal((2, 2)))
    V = random_variation(unit_square, 2, rng)
    assert abs(first_variation(f, V)) < 1e-12


def test_first_variation_vanishes_on_flat(unit_square, rng):
    f = GridMap.constant(unit_square, [0.0, 0.0])
    V = random_variation(unit_square, 2, rng)
    assert abs(first_variation(f, V)) < 1e-14


def test_first_variation_matches_fd(unit_square, rng):
    f = random_smooth_map(unit_square, 2, rng, amplitude=0.5)
    V = random_variation(unit_square, 2, rng)
    fv = first_variation(f, V)
    best = min(abs(fd_first(f, V, s) - fv) / abs(fv) for s in (1e-4, 1e-5, 1e-6))
    assert best <= 1e-7


def test_first_variation_equals_residual_pairing(unit_square, rng):
    f = random_smooth_map(unit_square, 3, rng, amplitude=0.4)
    V = random_variation(unit_square, 3, rng)
    fv = first_variation(f, V)
    rep = minimal_system_residual(f)
    pairing = -float(
        np.sum(unit_square.quadrature_weights[..., None] * rep.residual * V.values)
    )
    assert abs(fv - pairing) <= 1e-10 * max(abs(fv), abs(pairing))


def test_second_variation_flat_graph_is_dirichlet_energy(unit_square, rng):
    f = GridMap.constant(unit_square, [0.0])
    V = random_variation(unit_square, 1, rng)
    q = SecondVariationForm(f, warn=False).quadratic(V)
    assert q > 0.0
    # flat graph: the form reduces to the gradient energy of V
    best = min(abs(fd_second(f, V, s) - q) / q for s in (1e-3, 1e-4))
    assert best <= 1e-6


def test_second_variation_zero_direction(unit_square):
    f = GridMap.constant(unit_square, [0.0, 0.0])
    V = VariationField(grid=unit_square, values=np.zeros(unit_square.counts + (2,)))
    assert SecondVariationForm(f, warn=False).quadratic(V) == 0.0


def test_second_variation_matches_fd_on_minimal_graph(unit_square, rng):
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.3, 3))
    assert out.converged
    V = random_variation(unit_square, 2, rng)
    q = SecondVariationForm(out.solution).quadratic(V)
    best = min(abs(fd_second(out.solution, V, s) - q) / abs(q) for s in (1e-3, 3e-4))
    assert best <= 1e-5


def test_second_variation_warns_off_critical_set(unit_square, rng):
    f = random_smooth_map(unit_square, 2, rng, amplitude=0.5)
    V = random_variation(unit_square, 2, rng)
    with pytest.warns(NotMinimalWarning):
        SecondVariationForm(f).quadratic(V)


def test_minimality_is_checked_only_when_asked(unit_square, rng, monkeypatch):
    import minsurf.variation

    calls = []
    original = minsurf.variation.minimal_system_residual

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(minsurf.variation, "minimal_system_residual", counting)
    f = random_smooth_map(unit_square, 2, rng, amplitude=0.5)
    SecondVariationForm(f, warn=False)
    stability_index(f, EigenConfig(max_iters=2), warn=False)
    assert calls == []
    with pytest.warns(NotMinimalWarning):
        SecondVariationForm(f)
    assert len(calls) == 1


def test_second_variation_scaling_quadratic(unit_square, rng):
    f = random_smooth_map(unit_square, 2, rng, amplitude=0.3)
    form = SecondVariationForm(f, warn=False)
    V = random_variation(unit_square, 2, rng)
    q1 = form.quadratic(V)
    c = 3.7
    q2 = form.quadratic(VariationField(grid=unit_square, values=c * V.values))
    assert q2 == pytest.approx(c**2 * q1, rel=1e-12)


def test_second_variation_target_rotation_invariant(unit_square, rng):
    f = random_smooth_map(unit_square, 2, rng, amplitude=0.4)
    V = random_variation(unit_square, 2, rng)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    fQ = GridMap(grid=unit_square, values=f.values @ Q.T)
    VQ = VariationField(grid=unit_square, values=V.values @ Q.T)
    q1 = SecondVariationForm(f, warn=False).quadratic(V)
    q2 = SecondVariationForm(fQ, warn=False).quadratic(VQ)
    assert q1 == pytest.approx(q2, rel=1e-12)


def test_hessian_zero_direction(unit_square):
    f = GridMap.constant(unit_square, [0.0, 0.0])
    V = VariationField(grid=unit_square, values=np.zeros(unit_square.counts + (2,)))
    HV = SecondVariationForm(f, warn=False).apply(V)
    assert np.abs(HV.values).max() == 0.0


def test_hessian_symmetry_and_form_consistency(unit_square, rng):
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.25, 3))
    form = SecondVariationForm(out.solution)
    V = random_variation(unit_square, 2, rng)
    W = random_variation(unit_square, 2, rng)
    HV, HW = form.apply(V), form.apply(W)
    s1 = form.weighted_inner(W, HV)
    s2 = form.weighted_inner(V, HW)
    assert abs(s1 - s2) <= 1e-10 * max(abs(s1), abs(s2))
    q = form.quadratic(V)
    assert abs(form.weighted_inner(V, HV) - q) <= 1e-10 * abs(q)
    # polarization identity, the defining property of the operator
    VW = VariationField(grid=unit_square, values=V.values + W.values)
    polar = 0.5 * (form.quadratic(VW) - form.quadratic(V) - form.quadratic(W))
    assert abs(s1 - polar) <= 1e-9 * max(abs(s1), 1.0)


def test_flat_hessian_eigenvalue_refines_to_laplace(rng):
    # smallest Dirichlet Laplacian eigenvalue on the unit square is 2 pi^2
    target = 2 * np.pi**2
    errs = []
    for N in (9, 17, 33):
        g = build_grid(2, [(0, 1), (0, 1)], (N, N))
        flat = GridMap.constant(g, [0.0])
        rep = stability_index(flat, warn=False)
        assert rep.converged
        errs.append(abs(rep.min_eigenvalue - target) / target)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


def test_stability_index_flat_graph_stable(unit_square):
    rep = stability_index(GridMap.constant(unit_square, [0.0]), warn=False)
    assert rep.verdict == "stable"
    assert rep.min_eigenvalue > 0
    # reported eigenpair satisfies its own residual contract
    assert rep.eigen_residual <= 1e-8 * max(1.0, abs(rep.min_eigenvalue))


def test_stability_eigenvector_rayleigh_consistent(unit_square):
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.3, 2))
    rep = stability_index(out.solution)
    form = SecondVariationForm(out.solution)
    v = rep.eigenvector
    rayleigh = form.quadratic(v) / form.weighted_inner(v, v)
    assert rayleigh == pytest.approx(rep.min_eigenvalue, rel=1e-8)


def test_stability_index_matches_arpack(unit_square):
    # independent eigensolver oracle on the assembled pencil
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.35, 3))
    form = SecondVariationForm(out.solution)
    S, B = form.assemble()
    theta_arpack = spla.eigsh(
        S, k=1, M=sp.diags(B), sigma=-1.0, which="LM", return_eigenvectors=False
    )[0]
    rep = stability_index(out.solution)
    assert rep.min_eigenvalue == pytest.approx(theta_arpack, rel=1e-7)


def test_distance_decreasing_minimal_graph_stable(unit_square):
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.3, 2))
    rep = stability_index(out.solution)
    assert rep.min_eigenvalue >= -rep.epsilon
    assert rep.verdict == "stable"


def test_calibrated_graph_stable_beyond_distance_decreasing():
    # conformal stretch exceeds one near the far corner yet the graph stays
    # stable; sufficiency of the criterion, not necessity
    g = build_grid(2, [(0, 1), (0, 1)], (17, 17))
    out = solve_dirichlet(holomorphic_power_map(g, 0.85, 2))
    assert out.converged
    from minsurf import jacobian, singular_spectrum

    sup = singular_spectrum(jacobian(out.solution)).sup_lambda_max("closure")
    assert sup > 1.0
    rep = stability_index(out.solution)
    assert rep.min_eigenvalue >= -rep.epsilon


def test_hessian_consistent_with_residual_derivative(unit_square):
    # two independent routes to the same operator: differencing the residual
    # versus the analytic polarization of the second-variation form
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.3, 3))
    form = SecondVariationForm(out.solution)
    rng = np.random.default_rng(12)
    V = random_variation(unit_square, 2, rng)
    eps = 1e-6
    plus = GridMap(grid=unit_square, values=out.solution.values + eps * V.values)
    minus = GridMap(grid=unit_square, values=out.solution.values - eps * V.values)
    dR = (
        minimal_system_residual(plus).residual - minimal_system_residual(minus).residual
    ) / (2 * eps)
    from minsurf import induced_metric

    sqrtg = induced_metric(out.solution).sqrt_det
    HV = form.apply(V).values
    lhs = -sqrtg[..., None] * HV
    scale = np.abs(dR).max()
    assert np.abs(dR - lhs).max() <= 1e-6 * scale


def test_eigen_config_validation():
    with pytest.raises(ValueError):
        EigenConfig(tol=-1.0)


def test_unconverged_eigen_solve_is_undetermined(unit_square):
    from minsurf import criteria_report

    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.3, 3))
    rep = stability_index(out.solution, EigenConfig(max_iters=1))
    assert not rep.converged
    assert rep.verdict == "undetermined"
    assert rep.summary()["morse_index_bound"] is None
    verdict = criteria_report(out.solution, stability=rep)
    assert any("undetermined" in note for note in verdict.notes)
