"""The area Hessian assembled element by element equals the operator it assembles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf import SecondVariationForm, build_grid, solve_dirichlet, stability_index
from minsurf.assembly import hessian_matrix
from minsurf.families import holomorphic_power_map, random_smooth_map


def dense_oracle(form):
    """One hessian_values call per interior unit vector, read on the interior dofs."""
    grid, m = form.grid, form.m
    interior = grid.interior_mask
    size = int(interior.sum()) * m
    H = np.empty((size, size))
    for col in range(size):
        unit = np.zeros(size)
        unit[col] = 1.0
        probe = np.zeros(grid.counts + (m,))
        probe[interior] = unit.reshape(-1, m)
        H[:, col] = form.hessian_values(probe)[interior].ravel()
    return H


def stencil_pattern(grid, m):
    """Interior node pairs within Chebyshev distance one that differ in at most two coordinates, times m x m."""
    nodes = np.argwhere(grid.interior_mask)
    delta = np.abs(nodes[:, None, :] - nodes[None, :, :])
    near = (delta.max(axis=-1) <= 1) & (np.count_nonzero(delta, axis=-1) <= 2)
    return np.kron(near, np.ones((m, m), dtype=bool))


def check_exact(grid, m, seed):
    f = random_smooth_map(grid, m, np.random.default_rng(seed), amplitude=0.8)
    form = SecondVariationForm(f, warn=False)
    S = hessian_matrix(form)
    dense = dense_oracle(form)
    assert np.abs(S @ np.eye(S.shape[0]) - dense).max() <= 1e-13 * np.abs(dense).max()
    # the operator stores the offsets that differ in at most two coordinates, and the
    # oracle is exactly zero outside them
    assert S.offsets == tuple(d for d in itertools.product((-1, 0, 1), repeat=grid.n) if np.count_nonzero(d) <= 2)
    assert not dense[~stencil_pattern(grid, m)].any()


BOXES = [
    ((3,), [(0.0, 1.0)]),
    ((3, 5), [(-0.5, 0.7), (0.0, 1.9)]),
    ((3, 3, 3), [(0.0, 1.0), (0.2, 0.9), (-1.0, 0.4)]),
    ((8,), [(0.0, 1.3)]),
    ((6, 4), [(0.0, 0.3), (-1.0, 1.0)]),
    ((5, 4, 6), [(0.0, 1.0), (0.2, 0.9), (-1.0, 0.4)]),
]


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("counts,extents", BOXES)
def test_hessian_matrix_equals_the_dense_oracle(counts, extents, m):
    check_exact(build_grid(len(counts), extents, counts), m, seed=sum(counts) + m)


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    counts=st.lists(st.integers(3, 6), min_size=3, max_size=3),
    lengths=st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_hessian_matrix_equals_the_dense_oracle_on_random_boxes(n, m, counts, lengths, seed):
    grid = build_grid(n, [(-0.3, -0.3 + length) for length in lengths[:n]], tuple(counts[:n]))
    check_exact(grid, m, seed)


def test_solve_and_stability_make_no_hessian_probes(monkeypatch):
    calls = []
    probe = SecondVariationForm.hessian_values

    def counting(self, values):
        calls.append(values.shape)
        return probe(self, values)

    monkeypatch.setattr(SecondVariationForm, "hessian_values", counting)
    for n, size in ((2, 9), (3, 5)):
        grid = build_grid(n, [(0.0, 1.0)] * n, (size,) * n)
        outcome = solve_dirichlet(holomorphic_power_map(grid, 0.3, 3))
        assert outcome.converged and outcome.iterations >= 1
        assert stability_index(outcome.solution).converged
    assert calls == []


def test_node_blocks_vanish_off_the_two_axis_offsets():
    # a corner Jacobian couples nodes differing in at most two coordinates
    grid = build_grid(3, [(0.0, 1.0)] * 3, (4, 5, 4))
    f = random_smooth_map(grid, 2, np.random.default_rng(5), amplitude=0.8)
    blocks = SecondVariationForm(f, warn=False).node_blocks()
    for k, delta in enumerate(itertools.product((-1, 0, 1), repeat=3)):
        assert (np.count_nonzero(delta) == 3) == (not blocks[k].any())


def test_node_blocks_vanish_off_the_two_axis_offsets_in_4d():
    # 48 of the 81 offsets differ in three or four coordinates; their blocks are exact zeros
    grid = build_grid(4, [(0.0, 1.0)] * 4, (4, 3, 4, 5))
    f = random_smooth_map(grid, 2, np.random.default_rng(5), amplitude=0.8)
    blocks = SecondVariationForm(f, warn=False).node_blocks()
    vanishing = [k for k in range(3**4) if not blocks[k].any()]
    assert vanishing == [k for k, d in enumerate(itertools.product((-1, 0, 1), repeat=4)) if np.count_nonzero(d) > 2]
    assert len(vanishing) == 48
