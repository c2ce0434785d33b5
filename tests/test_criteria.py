import numpy as np
import pytest

from minsurf import (
    ContradictionDetected,
    EigenConfig,
    GridMap,
    SearchRegime,
    SolverConfig,
    StabilityReport,
    VariationField,
    counterexample_search,
    criteria_report,
    distance_decreasing_verdict,
    jacobian,
    rank_estimate,
    run_dd_campaign,
    run_rank_campaign,
    singular_spectrum,
    solve_dirichlet,
    stability_index,
    two_jacobian_verdict,
    uniqueness_experiment,
)
from minsurf.families import affine_map, holomorphic_power_map, random_smooth_map


def spectrum_of(f):
    return singular_spectrum(jacobian(f))


def test_dd_zero_map_strict(unit_square):
    S = spectrum_of(GridMap.constant(unit_square, [0.0, 0.0]))
    v = distance_decreasing_verdict(S)
    assert v.verdict == "strict"
    assert v.sup_lambda_max == 0.0
    assert v.strict_margin == 1.0


def test_dd_identity_non_strict(unit_square):
    S = spectrum_of(GridMap.from_function(unit_square, lambda X: X))
    v = distance_decreasing_verdict(S)
    assert v.verdict == "non-strict"
    assert v.sup_lambda_max == pytest.approx(1.0, abs=1e-12)


def test_dd_holomorphic_conformal_stretch(unit_square):
    # conformal map: both stretches equal |f'| = 0.4 |z|, sup = 0.4 sqrt(2)
    f = GridMap.from_function(
        unit_square,
        lambda X: 0.2
        * np.stack([X[..., 0] ** 2 - X[..., 1] ** 2, 2 * X[..., 0] * X[..., 1]], -1),
    )
    S = spectrum_of(f)
    v = distance_decreasing_verdict(S)
    assert v.verdict == "strict"
    assert S.sup_lambda_max("closure") == pytest.approx(0.4 * np.sqrt(2), rel=1e-10)


def test_dd_fails_beyond_one(unit_square):
    S = spectrum_of(affine_map(unit_square, [[1.5, 0.0], [0.0, 0.2]]))
    assert distance_decreasing_verdict(S).verdict == "fails"


def test_rank_estimate_codim_one(unit_square, rng):
    f = random_smooth_map(unit_square, 1, rng, amplitude=0.8)
    S = spectrum_of(f)
    assert rank_estimate(S, 1e-8) <= 1


def test_rank_estimate_zero_map(unit_square):
    S = spectrum_of(GridMap.constant(unit_square, [0.0, 0.0]))
    assert rank_estimate(S, 1e-8) == 0


def test_rank_estimate_holomorphic(unit_square):
    S = spectrum_of(holomorphic_power_map(unit_square, 0.3, 2))
    assert rank_estimate(S, 1e-8 * S.sup_lambda_max("closure")) == 2


def test_two_jacobian_codim_one_always_passes(unit_square, rng):
    f = random_smooth_map(unit_square, 1, rng, amplitude=2.0)
    S = spectrum_of(f)
    v = two_jacobian_verdict(S, rank_estimate(S, 1e-8))
    assert v.verdict == "passes"
    assert v.vacuous
    assert v.sup_two_jacobian < 1e-12


def test_two_jacobian_holomorphic_bound(unit_square):
    # p = 2 bound is 1: conformal product lambda1*lambda2 = |f'|^2 <= 0.32 here
    S = spectrum_of(holomorphic_power_map(unit_square, 0.4, 2))
    v = two_jacobian_verdict(S, 2)
    assert v.verdict == "passes"
    assert v.rank_bound == 1.0


def test_two_jacobian_triple_constant_fails():
    from minsurf import build_grid

    g = build_grid(3, [(0, 1)] * 3, (5, 5, 5))
    f = affine_map(g, 0.8 * np.eye(3))
    S = spectrum_of(f)
    v = two_jacobian_verdict(S, 3)
    # lambda1*lambda2 = 0.64 > 1/2
    assert v.verdict == "fails"
    assert v.sup_two_jacobian == pytest.approx(0.64, rel=1e-12)
    assert v.rank_bound == pytest.approx(0.5)


def test_two_jacobian_rejects_negative_p(unit_square):
    S = spectrum_of(GridMap.constant(unit_square, [0.0]))
    with pytest.raises(ValueError):
        two_jacobian_verdict(S, -1)


@pytest.mark.parametrize("tol", [-1e-9, float("nan")])
@pytest.mark.parametrize(
    "verdict",
    [distance_decreasing_verdict, lambda S, tol: two_jacobian_verdict(S, 2, tol)],
    ids=["dd", "tj"],
)
def test_verdicts_reject_negative_or_nan_tol(unit_square, verdict, tol):
    S = spectrum_of(GridMap.constant(unit_square, [0.0]))
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        verdict(S, tol=tol)


_NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda grid: SolverConfig(tol_residual_sup=_NAN),
        lambda grid: EigenConfig(tol=_NAN),
        lambda grid: criteria_report(holomorphic_power_map(grid, 3.0, 2), rank_tol=_NAN),
        lambda grid: counterexample_search(SearchRegime("distance_decreasing", 2, lam_high=2.0), 1000, tol=_NAN),
        lambda grid: run_dd_campaign(2, 1000, seed=0, tol=_NAN),
        lambda grid: run_rank_campaign(3, 2, 1000, seed=0, tol=_NAN),
        lambda grid: uniqueness_experiment(holomorphic_power_map(grid, 0.3, 3), 2, uniq_tol=_NAN),
    ],
    ids=["solver", "eigen", "rank-tol", "search", "dd-campaign", "rank-campaign", "uniqueness"],
)
def test_library_entry_points_reject_nan_tolerances(unit_square, call):
    with pytest.raises(ValueError, match="must be positive"):
        call(unit_square)


def test_criteria_report_affine_dd(unit_square):
    f = affine_map(unit_square, [[0.3, 0.1], [0.0, 0.2]])
    st = stability_index(f, warn=False)
    verdict = criteria_report(f, stability=st)
    assert verdict.minimal
    assert verdict.dd.verdict == "strict"
    assert verdict.tj.verdict == "passes"
    assert "distance-decreasing-stability" in verdict.applicable
    assert verdict.stability_min_eigenvalue >= -verdict.stability_epsilon


def test_criteria_report_zero_map(unit_square):
    verdict = criteria_report(GridMap.constant(unit_square, [0.0, 0.0]))
    assert verdict.dd.verdict == "strict"
    assert verdict.tj.verdict == "passes"
    assert verdict.tj.vacuous


def test_criteria_report_solved_graph_lists_both(unit_square):
    out = solve_dirichlet(holomorphic_power_map(unit_square, 0.2, 2))
    verdict = criteria_report(out.solution, stability=stability_index(out.solution))
    assert verdict.dd.verdict == "strict"
    assert set(verdict.applicable) >= {
        "distance-decreasing-stability",
        "two-jacobian-stability",
    }
    assert verdict.dimension_bound == 1.0


def test_criteria_report_flags_non_minimal(unit_square, rng):
    f = random_smooth_map(unit_square, 2, rng, amplitude=0.5)
    verdict = criteria_report(f)
    assert not verdict.minimal
    assert any("not minimal" in note for note in verdict.notes)
    assert verdict.applicable == ()


def test_contradiction_detected_on_inconsistent_inputs(unit_square):
    # a fabricated negative index against a solidly strict verdict must raise
    f = affine_map(unit_square, [[0.2, 0.0], [0.0, 0.1]])
    fake = StabilityReport(
        min_eigenvalue=-1.0,
        eigenvector=VariationField(
            grid=unit_square, values=np.zeros(unit_square.counts + (2,))
        ),
        rayleigh_history=(-1.0,),
        verdict="unstable",
        morse_index=1,
        epsilon=1e-8,
        converged=True,
        iterations=1,
        factorizations=1,
        eigen_residual=0.0,
    )
    with pytest.raises(ContradictionDetected):
        criteria_report(f, stability=fake)


def test_criteria_monotone_under_scaling(unit_square):
    f = holomorphic_power_map(unit_square, 0.6, 2)
    S1 = spectrum_of(f)
    assert distance_decreasing_verdict(S1).verdict == "strict"
    for c in (0.75, 0.5, 0.25):
        scaled = GridMap(grid=unit_square, values=c * f.values)
        v = distance_decreasing_verdict(spectrum_of(scaled))
        assert v.verdict == "strict"
        assert v.sup_lambda_max == pytest.approx(c * S1.sup_lambda_max("interior"), rel=1e-12)


def test_tj_verdict_rotation_invariant(unit_square, rng):
    f = random_smooth_map(unit_square, 2, rng, amplitude=0.7)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    fQ = GridMap(grid=unit_square, values=f.values @ Q.T)
    S, SQ = spectrum_of(f), spectrum_of(fQ)
    p = rank_estimate(S, 1e-8)
    v1, v2 = two_jacobian_verdict(S, p), two_jacobian_verdict(SQ, p)
    assert v1.verdict == v2.verdict
    assert v1.sup_two_jacobian == pytest.approx(v2.sup_two_jacobian, rel=1e-10)
