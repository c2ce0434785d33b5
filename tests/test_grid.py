import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf import (
    DomainGrid,
    GridMap,
    build_grid,
    induced_metric,
    jacobian,
    singular_spectrum,
)


def test_build_grid_smallest_legal():
    g = build_grid(2, [(0, 1), (0, 1)], (3, 3))
    assert g.num_nodes == 9
    assert g.num_interior == 1
    assert g.spacings == (0.5, 0.5)
    assert g.boundary_mask.sum() == 8


def test_build_grid_1d_interior_nodes():
    g = build_grid(1, [(0, 2)], (5,))
    assert g.spacings == (0.5,)
    interior = g.coordinates()[g.interior_mask]
    np.testing.assert_allclose(interior[:, 0], [0.5, 1.0, 1.5])


def test_build_grid_node_counting():
    g = build_grid(2, [(0, 1), (0, 1)], (65, 65))
    assert g.num_nodes == 4225
    assert g.num_interior == 3969


@pytest.mark.parametrize(
    "n,extents,counts",
    [
        (2, [(0, 1), (0, 1)], (2, 3)),
        (2, [(0, 1), (1, 1)], (3, 3)),
        (2, [(0, float("inf")), (0, 1)], (3, 3)),
        (0, [], ()),
        (2, [(0, 1)], (3, 3)),
    ],
)
def test_build_grid_rejects_bad_input(n, extents, counts):
    with pytest.raises(ValueError):
        build_grid(n, extents, counts)


@pytest.mark.parametrize(
    "extents, counts, message",
    [
        (((0.0, 1.0), (1.0, 0.0)), (3, 3), "axis 1: need a < b, got [1.0, 0.0]"),
        (((0.0, float("inf")), (0.0, 1.0)), (3, 3), "axis 0: extents must be finite, got [0.0, inf]"),
        (((0.0, 1.0), (0.0, 1.0)), (3, 2), "axis 1: need at least 3 nodes, got 2"),
        (((0.0, 1.0),), (3, 3), "extents and counts must have equal length"),
        ((), (), "domain dimension must be >= 1, got 0"),
    ],
)
def test_domain_grid_rejects_degenerate_axes(extents, counts, message):
    with pytest.raises(ValueError) as err:
        DomainGrid(extents=extents, counts=counts)
    assert str(err.value) == message


def test_quadrature_weights_sum_to_volume():
    g = build_grid(2, [(0, 2), (-1, 1)], (9, 13))
    assert g.quadrature_weights.sum() == pytest.approx(4.0, rel=1e-14)


def test_gridmap_rejects_nonfinite(unit_square):
    vals = np.zeros(unit_square.counts + (1,))
    vals[3, 3, 0] = np.nan
    with pytest.raises(ValueError):
        GridMap(grid=unit_square, values=vals)


def test_gridmap_values_read_only(unit_square):
    f = GridMap.constant(unit_square, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 3.0


def test_gridmap_leaves_caller_array_writable(unit_square, rng):
    a = rng.standard_normal(unit_square.counts + (2,))
    f = GridMap(grid=unit_square, values=a)
    assert a.flags.writeable
    assert not np.shares_memory(a, f.values)
    a[1, 1, 0] += 1.0
    assert f.values[1, 1, 0] != a[1, 1, 0]


def test_with_interior_values_preserves_boundary_bits(unit_square, rng):
    f = GridMap(grid=unit_square, values=rng.standard_normal(unit_square.counts + (2,)))
    g = f.with_interior_values(rng.standard_normal(unit_square.counts + (2,)))
    assert np.array_equal(
        f.values[unit_square.boundary_mask], g.values[unit_square.boundary_mask]
    )
    assert not np.array_equal(f.values, g.values)


def test_jacobian_exact_on_affine(unit_square, rng):
    A = rng.standard_normal((3, 2))
    b = rng.standard_normal(3)
    f = GridMap.from_function(unit_square, lambda X: X @ A.T + b)
    J = jacobian(f)
    assert np.abs(J.values - A).max() < 1e-12


def test_jacobian_exact_on_quadratic(unit_square):
    f = GridMap.from_function(
        unit_square, lambda X: np.stack([X[..., 0] ** 2, np.zeros(X.shape[:-1])], -1)
    )
    J = jacobian(f)
    X = unit_square.coordinates()
    interior = unit_square.interior_mask
    assert np.abs(J.values[..., 0, 0][interior] - 2 * X[..., 0][interior]).max() < 1e-12


def test_jacobian_second_order_including_boundary():
    errs = []
    for N in (11, 21):
        g = build_grid(2, [(0, 1), (0, 1)], (N, N))
        f = GridMap.from_function(
            g, lambda X: np.stack([np.sin(X[..., 0]), np.zeros(X.shape[:-1])], -1)
        )
        J = jacobian(f)
        exact = np.cos(g.coordinates()[..., 0])
        errs.append(np.abs(J.values[..., 0, 0] - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.4 < ratio < 4.6  # h halves, so second order means ratio near 4


@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
@settings(max_examples=25, deadline=None)
def test_jacobian_linearity(a, b):
    g = build_grid(2, [(0, 1), (0, 1)], (9, 9))
    rng = np.random.default_rng(5)
    f1 = GridMap(grid=g, values=rng.standard_normal(g.counts + (2,)))
    f2 = GridMap(grid=g, values=rng.standard_normal(g.counts + (2,)))
    combo = GridMap(grid=g, values=a * f1.values + b * f2.values)
    lhs = jacobian(combo).values
    rhs = a * jacobian(f1).values + b * jacobian(f2).values
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + abs(a) + abs(b))


def test_singular_spectrum_identity(unit_square):
    f = GridMap.from_function(unit_square, lambda X: X)
    S = singular_spectrum(jacobian(f))
    assert np.abs(S.values - 1.0).max() < 1e-12
    assert np.abs(S.two_jacobian - 1.0).max() < 1e-12


def test_singular_spectrum_rank_one_two_jacobian_zero(unit_square, rng):
    u = rng.standard_normal(3)
    v = rng.standard_normal(2)
    f = GridMap.from_function(unit_square, lambda X: (X @ v)[..., None] * u)
    S = singular_spectrum(jacobian(f))
    assert S.sup_two_jacobian("closure") < 1e-10


def test_singular_spectrum_sorted_nonincreasing(unit_square, rng):
    f = GridMap(grid=unit_square, values=rng.standard_normal(unit_square.counts + (3,)))
    S = singular_spectrum(jacobian(f))
    assert np.all(np.diff(S.values, axis=-1) <= 1e-15)
    assert np.all(S.values >= 0)


def _wedge_sup_bruteforce(J, rng, samples):
    """sup |Jv ^ Jw| over orthonormal pairs by dense random sampling."""
    n = J.shape[1]
    v = rng.standard_normal((samples, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = rng.standard_normal((samples, n))
    w -= np.sum(w * v, axis=1, keepdims=True) * v
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    Jv = v @ J.T
    Jw = w @ J.T
    cross = np.sum(Jv**2, 1) * np.sum(Jw**2, 1) - np.sum(Jv * Jw, 1) ** 2
    return float(np.sqrt(np.maximum(cross, 0.0).max()))


@pytest.mark.parametrize(
    "shape,gap",
    [((3, 2), 1e-12), ((3, 3), 1e-3), ((2, 4), 1e-2)],
)
def test_two_jacobian_is_wedge_operator_norm(shape, gap, rng):
    # independent oracle: brute-force maximization over sampled 2-planes;
    # the sampling gap widens with the plane-manifold dimension
    J = rng.standard_normal(shape)
    s = np.linalg.svd(J, compute_uv=False)
    brute = _wedge_sup_bruteforce(J, rng, 100_000)
    assert brute <= s[0] * s[1] + 1e-12
    assert brute >= s[0] * s[1] * (1 - gap)


def test_singular_values_invariant_under_target_rotation(unit_square, rng):
    f = GridMap(grid=unit_square, values=rng.standard_normal(unit_square.counts + (3,)))
    J = jacobian(f)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = np.einsum("ab,...bi->...ai", Q, J.values)
    s1 = np.linalg.svd(J.values, compute_uv=False)
    s2 = np.linalg.svd(rotated, compute_uv=False)
    assert np.abs(s1 - s2).max() < 1e-12


def test_metric_constant_map_is_identity(unit_square):
    f = GridMap.constant(unit_square, [0.7])
    M = induced_metric(f)
    assert np.abs(M.values - np.eye(2)).max() < 1e-14
    assert np.abs(M.det - 1.0).max() < 1e-14


def test_metric_1d_slope_two():
    g = build_grid(1, [(0, 1)], (9,))
    f = GridMap.from_function(g, lambda X: 2.0 * X)
    M = induced_metric(f)
    assert np.abs(M.values[..., 0, 0] - 5.0).max() < 1e-12
    assert np.abs(M.inverse[..., 0, 0] - 0.2).max() < 1e-12


def test_metric_eigenvalues_match_spectrum(unit_square, rng):
    f = GridMap(grid=unit_square, values=0.5 * rng.standard_normal(unit_square.counts + (3,)))
    J = jacobian(f)
    S = singular_spectrum(J)
    M = induced_metric(f, J)
    eigs = np.sort(np.linalg.eigvalsh(M.values), axis=-1)[..., ::-1]
    expected = 1.0 + np.concatenate(
        [S.values**2, np.zeros(S.values.shape[:-1] + (0,))], axis=-1
    )
    assert np.abs(eigs - expected).max() / np.abs(expected).max() < 1e-10
    assert np.all(M.det >= 1.0 - 1e-14)


def test_two_jacobian_dominated_by_lambda_max_squared(unit_square, rng):
    f = GridMap(grid=unit_square, values=rng.standard_normal(unit_square.counts + (3,)))
    S = singular_spectrum(jacobian(f))
    assert np.all(S.two_jacobian <= S.lambda_max**2 + 1e-13)
