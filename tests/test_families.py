"""The sampled families take one entry per target component and never broadcast."""

import numpy as np
import pytest

from minsurf import build_grid
from minsurf.families import affine_map, trigonometric_map

GRID = build_grid(2, [(0.0, 1.0), (-1.0, 1.0)], (5, 7))
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("offset", [[0.1], [0.1, 0.2, 0.3], 0.1, [[0.1, 0.2]]])
def test_affine_offset_needs_one_entry_per_component(offset):
    with pytest.raises(ValueError) as err:
        affine_map(GRID, IDENTITY, offset)
    assert str(err.value) == f"offset must have shape (2,), one entry per component, got {np.shape(offset)}"


@pytest.mark.parametrize("phases", [[0.1], [0.1, 0.2, 0.3], 0.1, [[0.1, 0.2]]])
def test_trigonometric_phases_need_one_entry_per_component(phases):
    with pytest.raises(ValueError) as err:
        trigonometric_map(GRID, [0.5, 2.0], IDENTITY, phases)
    assert str(err.value) == f"phases must have shape (2,), one entry per component, got {np.shape(phases)}"

