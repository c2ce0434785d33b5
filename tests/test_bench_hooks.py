"""The benchmark's trace hooks still find what they wrap and read.

``perfbench/child.py`` replaces functions under the names their callers look
up and reads iteration counts from result objects; a renamed or deleted
target silently drops per-layer metrics from a traced run. These tests catch
that in the unit suite.
"""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

from minsurf.chains import CampaignReport, SearchReport
from minsurf.solver import SolveOutcome
from minsurf.variation import StabilityReport

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def hooks():
    if not CHILD.exists():
        pytest.skip("no perfbench/child.py in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.HOOKS


def test_every_hook_target_is_callable(hooks):
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize(
    "cls, names",
    [
        (SolveOutcome, {"iterations", "fallback_iterations", "area_history"}),
        (StabilityReport, {"iterations"}),
        (CampaignReport, {"samples"}),
        (SearchReport, {"samples_evaluated"}),
    ],
)
def test_hook_readers_find_their_fields(cls, names):
    assert names <= {f.name for f in fields(cls)}
