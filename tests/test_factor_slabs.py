"""The factorization eliminates each batch of fronts in bounded slabs, with the same arithmetic as one stack."""

import tracemalloc

import numpy as np
import pytest

import minsurf.assembly as assembly
from minsurf import SecondVariationForm, build_grid, harmonic_extension
from minsurf.assembly import Factorization, hessian_matrix
from minsurf.families import holomorphic_power_map, random_smooth_map

from test_variation import chain_operator

ONE_FRONT = 1  # every slab is one front
ONE_SLAB = 1 << 62  # every batch is one slab


def factor(monkeypatch, budget, *args):
    monkeypatch.setattr(assembly, "_SLAB_BYTES", budget)
    return Factorization(*args)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("counts", [(20, 14), (9, 9, 8), (6, 6, 5, 5)])
def test_one_front_slabs_equal_one_slab_bit_for_bit(counts, m, monkeypatch):
    grid = build_grid(len(counts), [(0.0, 1.0)] * len(counts), counts)
    f = random_smooth_map(grid, m, np.random.default_rng(sum(counts) + m), amplitude=0.8)
    S, B = SecondVariationForm(f, warn=False).assemble()
    assert any(batch.pivots.shape[0] > 1 for batch in assembly._symbolic(S.nodes, m))
    theta = np.linalg.eigvalsh((S @ np.eye(S.shape[0])) / np.sqrt(np.outer(B, B)))
    rhs = np.random.default_rng(m).standard_normal((S.shape[0], 3))
    # the Hessian, and pencils shifted into its spectrum, whose negative pivots take the eigh
    # branch; at some shift a batch holds positive definite and indefinite pivot blocks alike,
    # and every front of it goes through eigh, as in one stack
    below = [max(1, int(q * len(theta))) for q in (0.02, 0.05, 0.1)]
    for sigma in [0.0] + [0.5 * (theta[k - 1] + theta[k]) for k in below]:
        fronts, slab = (factor(monkeypatch, budget, S, sigma, B) for budget in (ONE_FRONT, ONE_SLAB))
        assert fronts.count == slab.count == np.count_nonzero(theta < sigma)
        assert fronts.stored == slab.stored
        assert np.array_equal(fronts.solve(rhs), slab.solve(rhs))


def second_front_of_a_batch(n):
    """A node of a chain of n nodes that is the second one-node front of a batch of several."""
    batch = next(b for b in assembly._symbolic((n,), 1) if b.pivots.shape == (2, 1))
    return int(batch.pivots[1, 0])


@pytest.mark.parametrize("budget", [ONE_FRONT, ONE_SLAB])
def test_an_exactly_singular_block_in_a_later_slab_raises(budget, monkeypatch):
    diagonal, coupling = np.full(135, 2.0), np.full(134, -1.0)
    node = second_front_of_a_batch(135)
    diagonal[node], coupling[node - 1 : node + 1] = 0.0, 0.0
    with pytest.raises(RuntimeError, match="exactly singular"):
        factor(monkeypatch, budget, chain_operator(diagonal, coupling))


def test_a_non_finite_slab_leaves_no_count_and_no_finite_solve(monkeypatch):
    # the coupling 1e200 into that front makes its pivot -inf
    coupling = np.full(134, -1.0)
    coupling[second_front_of_a_batch(135) - 1] = 1e200
    S = chain_operator(np.full(135, 2.0), coupling)
    with np.errstate(over="ignore", invalid="ignore"):
        fronts, slab = (factor(monkeypatch, budget, S) for budget in (ONE_FRONT, ONE_SLAB))
        assert fronts.count is slab.count is None
        x = fronts.solve(np.ones(135))
        assert not np.isfinite(x).all()
        assert np.array_equal(x, slab.solve(np.ones(135)), equal_nan=True)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("nodes", [(133,), (10, 7), (95, 95), (15, 15, 15), (4, 5, 3, 3)])
def test_slabs_find_their_entries_by_bisection_on_ascending_places(nodes, m):
    for batch in assembly._symbolic(nodes, m):
        assert np.all(np.diff(batch.gather[0]) >= 0)
        for _, _, parent, _ in batch.children:
            assert np.all(np.diff(parent) > 0)


def traced_transient(H):
    """Traced peak bytes of one factorization of H beyond its stored factor."""
    tracemalloc.start()
    try:
        stored = Factorization(H).stored
        return tracemalloc.get_traced_memory()[1] - 8 * stored
    finally:
        tracemalloc.stop()


def harmonic_hessian(size):
    grid = build_grid(2, [(0.0, 1.0)] * 2, (size, size))
    return hessian_matrix(SecondVariationForm(harmonic_extension(holomorphic_power_map(grid, 0.3, 3)), warn=False))


def test_slabs_halve_the_transient_memory_at_97(monkeypatch):
    H = harmonic_hessian(97)
    Factorization(H)  # the symbolic analysis is cached, not measured
    slabbed = traced_transient(H)
    monkeypatch.setattr(assembly, "_SLAB_BYTES", ONE_SLAB)
    # 12.4 MB against 28.0 MB; what remains is mostly the Schur complements waiting for their parents
    assert slabbed <= 0.5 * traced_transient(H)


def test_the_workspace_is_no_larger_than_the_largest_slab():
    H = harmonic_hessian(21)
    Factorization(H)
    # 0.54 MB at 21^2: no batch fills a whole slab
    assert traced_transient(H) < assembly._SLAB_BYTES
