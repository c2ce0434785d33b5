import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf import (
    ContradictionDetected,
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
from minsurf._stencils import _edge
from minsurf.assembly import Factorization, NodeBlockOperator
from minsurf.families import (
    affine_map,
    holomorphic_power_map,
    random_interior_values,
    random_smooth_map,
)
from minsurf.variation import _factor


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


@pytest.mark.parametrize(
    "build",
    [
        lambda f: SecondVariationForm(f),
        lambda f: stability_index(f, EigenConfig(max_iters=2)),
    ],
    ids=["form", "stability_index"],
)
def test_not_minimal_warning_names_the_calling_line(unit_square, rng, build):
    f = random_smooth_map(unit_square, 2, rng, amplitude=0.5)
    with pytest.warns(NotMinimalWarning) as caught:
        build(f)
    (w,) = [w for w in caught if issubclass(w.category, NotMinimalWarning)]
    assert (w.filename, w.lineno) == (build.__code__.co_filename, build.__code__.co_firstlineno)


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


def test_stability_index_matches_arpack(unit_square, csr):
    # independent eigensolver oracle on the assembled pencil
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.35, 3))
    form = SecondVariationForm(out.solution)
    S, B = form.assemble()
    theta_arpack = spla.eigsh(
        csr(S), k=1, M=sp.diags(B), sigma=-1.0, which="LM", return_eigenvectors=False
    )[0]
    rep = stability_index(out.solution)
    assert rep.min_eigenvalue == pytest.approx(theta_arpack, rel=1e-7)


def dense_pencil_spectrum(f):
    S, B = SecondVariationForm(f, warn=False).assemble()
    return scipy.linalg.eigh(S @ np.eye(S.shape[0]), np.diag(B), eigvals_only=True)


def solved_holomorphic(nodes, amplitude):
    grid = build_grid(2, [(0, 1), (0, 1)], (nodes, nodes))
    out = solve_dirichlet(holomorphic_power_map(grid, amplitude, 3))
    assert out.converged
    return out.solution


@pytest.mark.parametrize(
    "build,max_iterations",
    [
        (lambda: solved_holomorphic(13, 5.0), 18),
        (lambda: solved_holomorphic(17, 6.0), 15),
        (lambda: solved_holomorphic(21, 4.5), 16),
        (
            lambda: random_smooth_map(
                build_grid(2, [(0, 1), (0, 1)], (15, 15)), 2, np.random.default_rng(2), amplitude=3.0
            ),
            7,
        ),
    ],
    ids=["holomorphic-13-5", "holomorphic-17-6", "holomorphic-21-4.5", "indefinite"],
)
def test_stability_index_matches_dense_eigh(build, max_iterations):
    # the solved maps pack near-double eigenvalues close to zero (17^2, s = 6:
    # 0.0193, 0.0194, 0.0397, 0.0398, ...); the random map has ten below zero.
    # The iteration caps are the counts of plain block inverse iteration, which
    # keeps no previous block in its Rayleigh-Ritz space
    f = build()
    spectrum = dense_pencil_spectrum(f)
    rep = stability_index(f, warn=False)
    assert rep.converged and rep.iterations <= max_iterations
    assert abs(rep.min_eigenvalue - spectrum[0]) <= 1e-10 * abs(spectrum[0])
    assert rep.morse_index == np.count_nonzero(spectrum < -rep.epsilon)
    assert_counts_are_dense_counts(f, spectrum)


def assert_counts_are_dense_counts(f, spectrum):
    """The factorization's inertia count at -epsilon's place and between eigenvalues is the dense count."""
    S, B = SecondVariationForm(f, warn=False).assemble()
    for k in sorted({0, (len(spectrum) - 1) // 3, (len(spectrum) - 1) // 2}):
        for sigma in (spectrum[k] - 1e-3 * abs(spectrum[k]), 0.5 * (spectrum[k] + spectrum[k + 1])):
            assert _factor(S, B, sigma)[1] == np.count_nonzero(spectrum < sigma)


@pytest.mark.parametrize(
    "build,previous_block_iterations",
    [
        (lambda: solved_holomorphic(13, 5.0), 13),
        (lambda: solved_holomorphic(17, 6.0), 11),
        (lambda: solved_holomorphic(21, 4.5), 11),
        (
            lambda: random_smooth_map(
                build_grid(2, [(0, 1), (0, 1)], (15, 15)), 2, np.random.default_rng(2), amplitude=3.0
            ),
            7,
        ),
        (lambda: GridMap.constant(build_grid(3, [(0, 1)] * 3, (5, 4, 6)), [0.0] * 3), 21),
    ],
    ids=["holomorphic-13-5", "holomorphic-17-6", "holomorphic-21-4.5", "indefinite", "flat-box-m3"],
)
def test_residual_in_the_space_takes_no_more_iterations(build, previous_block_iterations):
    # the caps are the counts of the Rayleigh-Ritz space [LU^-1 B X_k, X_{k-1}],
    # which holds neither X_k nor the residual
    rep = stability_index(build(), warn=False)
    assert rep.converged and rep.iterations <= previous_block_iterations


@given(
    counts=st.lists(st.integers(3, 7), min_size=1, max_size=3),
    m=st.integers(1, 3),
    amplitude=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_morse_index_is_the_dense_count_below_epsilon(counts, m, amplitude, seed):
    grid = build_grid(len(counts), [(0.0, 1.0)] * len(counts), tuple(counts))
    f = random_smooth_map(grid, m, np.random.default_rng(seed), amplitude=amplitude)
    rep = stability_index(f, warn=False)
    spectrum = dense_pencil_spectrum(f)
    assert rep.morse_index == np.count_nonzero(spectrum < -rep.epsilon)
    if len(spectrum) > 1:
        assert_counts_are_dense_counts(f, spectrum)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_maps_have_morse_index_zero(n):
    # for m = 1 the integrand sqrt(1 + |p|^2) is convex, so no map is unstable
    grid = build_grid(n, [(0.0, 1.0)] * n, (9,) * n)
    for seed in range(3):
        f = random_smooth_map(grid, 1, np.random.default_rng(seed), amplitude=6.0)
        assert SecondVariationForm(f, warn=False).corners_convex()
        rep = stability_index(f, warn=False)
        assert rep.morse_index == 0 and rep.verdict == "stable"


@pytest.mark.parametrize("amplitude,convex", [(0.3, True), (6.0, False)])
def test_corner_convexity_of_solved_maps(amplitude, convex, monkeypatch):
    # a convex map's count at -epsilon is 0 without reading pivots; the other is counted
    import minsurf.variation

    real, definite = minsurf.variation._factor, []

    def recording(*args, **kwargs):
        definite.append(kwargs.get("definite", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(minsurf.variation, "_factor", recording)
    f = solved_holomorphic(17, amplitude)
    assert SecondVariationForm(f, warn=False).corners_convex() is convex
    assert stability_index(f, warn=False).morse_index == 0
    assert definite == [convex]


def test_corner_hessian_is_built_once_per_stability_index(monkeypatch):
    # the convexity test and the assembly share the m n corner flux columns; the 4^3
    # cells of this grid are one slab of the convexity test
    real, calls = SecondVariationForm._unit_flux, []

    def counting(self, b, j, *part):
        calls.append((b, j))
        return real(self, b, j, *part)

    monkeypatch.setattr(SecondVariationForm, "_unit_flux", counting)
    grid = build_grid(3, [(0.0, 1.0)] * 3, (5, 5, 5))
    f = random_smooth_map(grid, 2, np.random.default_rng(0), amplitude=1.0)
    stability_index(f, warn=False)
    assert len(calls) == 2 * 3


def anisotropic_form(n, m, seed=0):
    """A second-variation form on a box with unequal sides and counts, at a random map."""
    counts = tuple((9, 7, 5, 4)[n - 1] + i for i in range(n))
    grid = build_grid(n, [(0.0, 1.0 + 0.37 * i) for i in range(n)], counts)
    f = random_smooth_map(grid, m, np.random.default_rng(10 * n + m + seed), amplitude=2.0)
    return SecondVariationForm(f, warn=False)


def unit_corner_field(m, n, b, j):
    E = np.zeros((m, n) + (1,) * (n + 1))
    E[b, j] = 1.0
    return E


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_unit_flux_is_the_flux_of_the_unit_field_bit_for_bit(n, m):
    form = anisotropic_form(n, m)
    # a slab of two cell planes along the first axis, as the convexity test cuts them
    slab = (Ellipsis, slice(1, 3)) + (slice(None),) * (n - 1)
    for b, j in itertools.product(range(m), range(n)):
        flux = form._flux(unit_corner_field(m, n, b, j))
        assert np.array_equal(form._unit_flux(b, j), flux)
        assert np.array_equal(form._unit_flux(b, j, slab), flux[slab])


def reference_node_blocks(form):
    """The node blocks by the plain loop: ``_flux`` of each unit field, scattered through ``_edge``."""
    n, m, h = form.grid.n, form.m, form.grid.spacings
    cells = tuple(c - 1 for c in form.grid.counts)
    blocks = np.zeros((3**n, m, m) + form.grid.counts)
    for b, j in itertools.product(range(m), range(n)):
        column = form._flux(unit_corner_field(m, n, b, j))
        for c, nu in enumerate(itertools.product((0, 1), repeat=n)):
            for i in range(n):
                k_ij = (form._wc / (h[i] * h[j])) * column[:, i, c]
                for s, t in itertools.product((0, 1), repeat=2):
                    k = (3**n - 1) // 2 + (t - nu[j]) * 3 ** (n - 1 - j) - (s - nu[i]) * 3 ** (n - 1 - i)
                    target = blocks[k, :, b][_edge(cells, nu, i, s)]
                    (np.add if s == t else np.subtract)(target, k_ij, out=target)
    return blocks


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_node_blocks_are_the_reference_loop_bit_for_bit(n, m, monkeypatch):
    import minsurf.variation

    reference = reference_node_blocks(anisotropic_form(n, m))
    assert np.array_equal(anisotropic_form(n, m).node_blocks(), reference)
    # on the columns the convexity test kept, built one cell plane per slab
    monkeypatch.setattr(minsurf.variation, "_CONVEXITY_CHUNK", 1)
    form = anisotropic_form(n, m)
    form.corners_convex()
    assert np.array_equal(form.node_blocks(), reference)


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
    assert rep.summary()["morse_index"] is None
    verdict = criteria_report(out.solution, stability=rep)
    assert any("undetermined" in note for note in verdict.notes)


def test_first_iterate_is_one_step_of_block_inverse_iteration(unit_square):
    # the first Rayleigh-Ritz space has no previous block: it is the span of
    # the solves with the seeded block alone
    f = solve_dirichlet(holomorphic_power_map(unit_square, 0.3, 3)).solution
    rep = stability_index(f, EigenConfig(max_iters=1), warn=False)

    form = SecondVariationForm(f, warn=False)
    assert form.corners_convex()  # so the iteration runs on the factorization at -epsilon
    S, B = form.assemble()
    epsilon = 1e-8 * float(np.median(np.abs(S.diagonal() / B)))
    factor, _ = _factor(S, B, -epsilon, definite=True)
    sb = np.sqrt(B)
    X = np.random.default_rng(EigenConfig().seed).standard_normal((sb.size, 4))
    Q, _ = np.linalg.qr(sb[:, None] * factor.solve(B[:, None] * X))
    X = Q / sb[:, None]
    theta = float(np.linalg.eigh(X.T @ (S @ X))[0][0])
    assert rep.min_eigenvalue == theta
    assert rep.rayleigh_history == (theta,)


def forge_first_count(monkeypatch, count):
    """The inertia count at -epsilon reads ``count``; every later factorization is real."""
    import minsurf.variation

    real = minsurf.variation._factor
    calls = []

    def forged(*args, **kwargs):
        lu, k = real(*args, **kwargs)
        calls.append(k)
        return lu, count if len(calls) == 1 else k

    monkeypatch.setattr(minsurf.variation, "_factor", forged)


def test_uncertified_count_is_undetermined(unit_square, monkeypatch):
    from minsurf import criteria_report

    f = solve_dirichlet(holomorphic_power_map(unit_square, 0.3, 3)).solution
    forge_first_count(monkeypatch, None)
    rep = stability_index(f)
    assert rep.converged and rep.min_eigenvalue > rep.epsilon
    assert rep.verdict == "undetermined" and rep.morse_index is None
    verdict = criteria_report(f, stability=rep)
    assert "stability index undetermined: eigenvalue count not certified" in verdict.notes


def test_count_contradicting_the_eigenvalue_raises(unit_square, monkeypatch):
    f = solve_dirichlet(holomorphic_power_map(unit_square, 0.3, 3)).solution
    forge_first_count(monkeypatch, 1)
    with pytest.raises(ContradictionDetected):
        stability_index(f)


def chain_operator(diagonal, coupling):
    """The tridiagonal operator on a 1-D grid with m = 1, as node blocks."""
    blocks = np.zeros((3, 1, 1, len(diagonal)))
    blocks[1, 0, 0] = diagonal
    blocks[2, 0, 0, :-1] = coupling  # node p with p + 1
    blocks[0, 0, 0, 1:] = coupling  # node p with p - 1
    return NodeBlockOperator(blocks, ((-1,), (0,), (1,)))


def test_factor_gives_no_count_for_an_infinite_pivot():
    # SuperLU's second pivot of [[1, 1e200], [1e200, 1]] overflowed; here both nodes are one
    # front, whose eigenvalues 1 -+ 1e200 are finite, and the count is certified
    S = chain_operator(np.ones(2), np.array([1e200]))
    assert _factor(S, np.ones(2), 0.0)[1] == np.count_nonzero(np.linalg.eigvalsh(S @ np.eye(2)) < 0) == 1
    # 40 nodes are two leaf fronts and one separator front, node 20; the coupling 1e200
    # between node 19 and the separator makes the separator's pivot 1 - 1e400 = -inf
    coupling = np.zeros(39)
    coupling[19] = 1e200
    S = chain_operator(np.ones(40), coupling)
    with np.errstate(over="ignore", invalid="ignore"):
        factor, count = _factor(S, np.ones(40), 0.0)
        assert count is None
        assert not np.isfinite(factor.solve(np.ones(40))).all()


def test_factor_gives_no_count_for_a_round_off_small_pivot():
    # positive definite, but the second pivot is 1e-14 of the largest diagonal entry
    S = chain_operator(np.array([1.0, 1.0 + 1e-14, 1.0]), np.array([1.0, 0.0]))
    factor, count = _factor(S, np.ones(3), 0.0)
    assert count is None
    assert np.count_nonzero(np.linalg.eigvalsh(S @ np.eye(3)) < 0) == 0


def test_an_exactly_singular_pivot_block_raises_as_superlu_did():
    # node 20 is a front of its own whose pivot block is exactly [0]
    diagonal, coupling = np.ones(40), np.full(39, 0.1)
    diagonal[20], coupling[19:21] = 0.0, 0.0
    S = chain_operator(diagonal, coupling)
    with pytest.raises(RuntimeError, match="exactly singular"):
        Factorization(S)
    assert _factor(S, np.ones(40), 0.0) == (None, None)


def test_factor_counts_a_pivot_block_with_zero_diagonal():
    # SuperLU exchanged the rows of this matrix and gave no count; the front's pivot block
    # is eliminated through its eigenvalues -1, 1 and 2, and counted
    S = chain_operator(np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0]))
    factor, count = _factor(S, np.ones(3), 0.0)
    assert count == np.count_nonzero(np.linalg.eigvalsh(S @ np.eye(3)) < 0) == 1
    assert np.allclose(S @ factor.solve(np.arange(3.0)), np.arange(3.0), rtol=0, atol=1e-15)
