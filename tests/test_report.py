"""The report rule: every non-nodal field of a result object reaches report.json."""

import dataclasses
import json

import numpy as np
import pytest

from minsurf import build_grid
from minsurf.area import AreaReport, minimal_system_residual
from minsurf.chains import CampaignReport, run_dd_campaign
from minsurf.cli import run
from minsurf.config import parse_config
from minsurf.families import holomorphic_power_map, random_interior_values
from minsurf.grid import GridMap
from minsurf.homotopy import (
    HomotopyProfile,
    JacobiConvexityReport,
    UniquenessReport,
    area_profile,
    jacobi_norm_convexity,
    linear_homotopy,
    uniqueness_experiment,
)
from minsurf.report import Summarized, to_jsonable
from minsurf.solver import SolveOutcome, solve_dirichlet
from minsurf.variation import StabilityReport, stability_index

GRID = {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [9, 9]}
HOLO = {"family": "holomorphic_power", "amplitude": 0.3, "power": 3}


def _boundary():
    return holomorphic_power_map(build_grid(2, [(0.0, 1.0)] * 2, (9, 9)), 0.3, 3)


def _homotopy():
    f0 = solve_dirichlet(_boundary()).solution
    bump = random_interior_values(f0.grid, f0.m, np.random.default_rng(0), amplitude=0.05)
    return linear_homotopy(f0, GridMap(grid=f0.grid, values=f0.values + bump), 5)


# class -> (builder, nodal fields left out, fields added beyond the dataclass fields)
CASES = {
    AreaReport: (lambda: minimal_system_residual(_boundary()), {"residual"}, set()),
    SolveOutcome: (lambda: solve_dirichlet(_boundary()), {"solution"}, set()),
    StabilityReport: (
        lambda: stability_index(solve_dirichlet(_boundary()).solution, warn=False),
        {"eigenvector"},
        set(),
    ),
    CampaignReport: (lambda: run_dd_campaign(2, 200, seed=1), set(), set()),
    HomotopyProfile: (lambda: area_profile(_homotopy()), set(), set()),
    JacobiConvexityReport: (lambda: jacobi_norm_convexity(_homotopy()), set(), set()),
    UniquenessReport: (
        lambda: uniqueness_experiment(solve_dirichlet(_boundary()).solution, init_count=2),
        set(),
        {"unique_in_dd_class"},
    ),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_summary_holds_every_non_nodal_field(cls):
    build, nodal, extra = CASES[cls]
    obj = build()
    assert isinstance(obj, cls) and isinstance(obj, Summarized)
    names = {f.name for f in dataclasses.fields(cls)}
    assert nodal <= names and not extra & names
    summary = obj.summary()
    assert set(summary) == (names - nodal) | extra
    for name in names - nodal:
        value = getattr(obj, name)
        if isinstance(value, tuple) and value and hasattr(value[0], "summary"):
            assert summary[name] == [v.summary() for v in value]
        elif isinstance(value, tuple):
            assert isinstance(summary[name], list)
    assert json.loads(json.dumps(to_jsonable(summary))) == to_jsonable(summary)


def _key_paths(obj, prefix=""):
    """Dotted key paths of a JSON value; list elements share the suffix ``[]``."""
    if isinstance(obj, dict):
        paths = set()
        for k, v in obj.items():
            paths |= _key_paths(v, f"{prefix}.{k}" if prefix else k)
        return paths or {prefix}
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        return {p for v in obj for p in _key_paths(v, prefix + "[]")}
    return {prefix}


_OUTCOME = [
    "area_history", "converged", "factorizations", "fallback_iterations", "init_hash", "iterations",
    "message", "residual_l2_norm", "residual_sup_norm", "status",
]
_CRITERIA = [
    "applicable", "dd_verdict", "dimension_bound", "minimal", "notes", "rank_bound",
    "rank_estimate", "rank_tol", "residual_sup_norm", "stability_epsilon",
    "stability_min_eigenvalue", "strict_margin", "sup_lambda_max", "sup_lambda_max_closure",
    "sup_two_jacobian", "sup_two_jacobian_closure", "tj_verdict",
]
_SPECTRUM = [
    "sup_lambda_max", "sup_lambda_max_closure", "sup_two_jacobian", "sup_two_jacobian_closure"
]
_STABILITY = [
    "converged", "eigen_residual", "epsilon", "factorizations", "iterations", "min_eigenvalue",
    "morse_index", "rayleigh_history", "verdict",
]
_PROFILE = [
    "areas", "convexity_ok", "dd_envelope_ok", "endpoint_derivatives", "scale",
    "second_differences", "sup_lambda_max_path", "t_samples", "tol",
]
_MARGINS = [
    "lam_high", "min_E1_minus_E2", "min_E3", "min_F0", "min_F0_minus_split",
    "min_Fdiag_minus_Flower", "min_Flower", "min_Foffdiag",
]
_SEARCH = [
    "best_C[]", "best_lambda", "best_margin", "best_values.E1", "best_values.E2",
    "best_values.E3", "best_values.in_hypothesis", "best_values.scale", "cap_products", "chain",
    "found", "lam_high", "lam_low", "n", "p", "samples_evaluated", "seed",
]
_ROWS = ["h", "nodes_per_axis", "value"]

RESULT_KEYS = {
    "solve": (
        {"command": "solve", "grid": GRID, "boundary": HOLO},
        ["area.residual_l2_norm", "area.residual_sup_norm", "area.total_area"]
        + [f"criteria.{k}" for k in _CRITERIA]
        + [f"solve.{k}" for k in _OUTCOME]
        + [f"spectrum.{k}" for k in _SPECTRUM]
        + [f"stability.{k}" for k in _STABILITY],
    ),
    "homotopy": (
        {
            "command": "homotopy",
            "grid": GRID,
            "homotopy": {
                "f0": dict(HOLO, solve=True),
                "f1": dict(HOLO, solve=True, bump_amplitude=0.05),
                "t_count": 5,
                "uniqueness_inits": 2,
            },
        },
        ["jacobi.max_deviation_from_constant", "jacobi.worst_second_difference"]
        + [f"profile.{k}" for k in _PROFILE]
        + ["uniqueness.distance_decreasing", "uniqueness.max_dd_pair_distance"]
        + [f"uniqueness.outcomes[].{k}" for k in _OUTCOME]
        + ["uniqueness.pairwise_sup[]", "uniqueness.uniq_tol", "uniqueness.unique_in_dd_class"]
        + ["uniqueness.violations"],
    ),
    "sweep": (
        {
            "command": "sweep",
            "grid": GRID,
            "sweep": dict(HOLO, amplitude=1.0, s_values=[0.1, 0.2], stability=True),
        },
        ["sweep.first_failure"]
        + [
            f"sweep.steps[].{k}"
            for k in sorted(
                set(_OUTCOME) - {"area_history"}
                | {"amplitude", "min_eigenvalue", "stability_verdict"}
                | {"sup_lambda_max", "sup_two_jacobian"}
            )
        ],
    ),
    "oracle": (
        {
            "command": "oracle",
            "oracle": {
                "samples": 200,
                "n_values": [2, 3],
                "p_values": [2],
                "searches": [
                    {"chain": "distance_decreasing", "n": 2, "lam_high": 2.0, "budget": 500}
                ],
            },
        },
        [
            f"campaigns[].{k}"
            for k in ("chain", "identity_max_defect", "n", "p", "passed", "samples", "seed")
        ]
        + [f"campaigns[].worst_margins.{k}" for k in _MARGINS]
        + [f"searches[].{k}" for k in _SEARCH],
    ),
    "validate": (
        {"command": "validate", "validate": {"counts": [9, 9], "oracle_samples": 100, "trials": 1}},
        [f"checks[].{k}" for k in ("name", "passed", "threshold", "value")]
        + [f"convergence.flat_eigenvalue[].{k}" for k in _ROWS]
        + [f"convergence.residual_sup[].{k}" for k in _ROWS]
        + ["passed"],
    ),
}


@pytest.mark.parametrize("command", list(RESULT_KEYS))
def test_result_key_paths_are_pinned(command, tmp_path):
    doc, expected = RESULT_KEYS[command]
    code, report = run(parse_config({**doc, "output_dir": str(tmp_path / "out")}))
    assert code == 0, report["assertion_failures"]
    assert sorted(_key_paths(report["results"])) == sorted(expected)
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["results"] == json.loads(json.dumps(to_jsonable(report["results"])))


def test_nodal_data_is_left_out_by_type():
    grid = build_grid(2, [(0.0, 1.0)] * 2, (5, 5))

    @dataclasses.dataclass(frozen=True)
    class Probe(Summarized):
        array: np.ndarray
        field: GridMap
        pairs: tuple[tuple[float, ...], ...]
        inner: AreaReport

    inner = AreaReport(
        total_area=1.0, residual=np.zeros((5, 5, 1)), residual_sup_norm=0.0, residual_l2_norm=0.0
    )
    probe = Probe(np.ones(3), GridMap.constant(grid, [0.0]), ((1.0, 2.0), (3.0,)), inner)
    assert probe.summary() == {
        "pairs": [[1.0, 2.0], [3.0]],
        "inner": {"total_area": 1.0, "residual_sup_norm": 0.0, "residual_l2_norm": 0.0},
    }
