import numpy as np
import pytest

from minsurf import build_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def unit_square():
    return build_grid(2, [(0.0, 1.0), (0.0, 1.0)], (17, 17))


def unit_box(n, counts):
    return build_grid(n, [(0.0, 1.0)] * n, counts)


def _csr(S):
    """A ``NodeBlockOperator`` as a scipy CSR matrix, entry for entry from its node blocks."""
    import scipy.sparse as sp

    nodes, m = S.nodes, S.m
    coords = np.indices(nodes).reshape(len(nodes), -1).T
    rows, cols, vals = [], [], []
    for block, delta in zip(S.blocks, S.offsets):
        target = coords + delta
        inside = np.all((target >= 0) & (target < nodes), axis=1)
        p, q = np.flatnonzero(inside), np.ravel_multi_index(target[inside].T, nodes)
        for a in range(m):
            for b in range(m):
                rows.append(p * m + a)
                cols.append(q * m + b)
                vals.append(block[a, b].ravel()[p])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=S.shape)


@pytest.fixture
def csr():
    """The oracle conversion of a ``NodeBlockOperator`` to a scipy sparse matrix."""
    return _csr
