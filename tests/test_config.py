"""The run-config schema: every key of every section, its resolved value, and
the error each kind of malformed value produces."""

import pytest

from minsurf import ConfigError
from minsurf.config import parse_config

GRID = {"extents": [[0.0, 2.0], [-1.0, 1.0]], "counts": [9, 11]}
HOLOMORPHIC = {"family": "holomorphic_power", "amplitude": 0.3, "power": 3}
SOLVE = {"command": "solve", "grid": GRID, "boundary": HOLOMORPHIC}


def test_top_level_keys_resolve():
    cfg = parse_config({**SOLVE, "seed": 17, "threads": 3, "output_dir": "runs/x"})
    assert (cfg.command, cfg.seed, cfg.threads, cfg.output_dir) == ("solve", 17, 3, "runs/x")


def test_top_level_defaults():
    cfg = parse_config(SOLVE)
    assert (cfg.seed, cfg.threads, cfg.output_dir) == (0, 1, "runs/solve")
    assert cfg.homotopy is None and cfg.sweep is None


def test_overrides_replace_document_values():
    cfg = parse_config({**SOLVE, "seed": 4}, {"seed": 8, "threads": None, "output_dir": "o"})
    assert (cfg.seed, cfg.threads, cfg.output_dir) == (8, 1, "o")


def test_raw_embeds_document_verbatim():
    doc = {**SOLVE, "solver": {"max_newton_iters": 7}}
    assert parse_config(doc).raw == doc


def test_grid_resolves():
    grid = parse_config(SOLVE).grid
    assert grid.extents == ((0.0, 2.0), (-1.0, 1.0))
    assert grid.counts == (9, 11)
    assert all(isinstance(a, float) for pair in grid.extents for a in pair)


@pytest.mark.parametrize(
    "boundary, params",
    [
        (
            {"family": "affine", "matrix": [[1, 2], [3, 4]], "offset": [5, 6]},
            {"matrix": [[1, 2], [3, 4]], "offset": [5, 6]},
        ),
        ({"family": "affine", "matrix": [[1, 0]]}, {"matrix": [[1, 0]], "offset": None}),
        (
            {"family": "holomorphic_power", "amplitude": 2, "power": 4},
            {"amplitude": 2.0, "power": 4},
        ),
        (
            {
                "family": "trigonometric",
                "amplitudes": [0.1],
                "wavevectors": [[1, 2]],
                "phases": [0.5],
            },
            {"amplitudes": [0.1], "wavevectors": [[1, 2]], "phases": [0.5]},
        ),
        (
            {"family": "trigonometric", "amplitudes": [0.1], "wavevectors": [[1, 2]]},
            {"amplitudes": [0.1], "wavevectors": [[1, 2]], "phases": None},
        ),
        ({"family": "custom", "path": "map.json"}, {"path": "map.json"}),
    ],
)
def test_boundary_families_resolve(boundary, params):
    spec = parse_config({**SOLVE, "boundary": boundary}).boundary
    assert spec.family == boundary["family"]
    assert spec.params == params
    assert isinstance(spec.params.get("amplitude", 0.0), float)
    assert (spec.solve, spec.bump_amplitude) == (False, 0.0)


def test_solver_resolves():
    solver = parse_config(
        {
            **SOLVE,
            "solver": {
                "tol_residual_sup": 1e-9,
                "max_newton_iters": 7,
                "max_fallback_iters": 11,
            },
        }
    ).solver
    assert solver.tol_residual_sup == 1e-9
    assert (solver.max_newton_iters, solver.max_fallback_iters) == (7, 11)


def test_solver_defaults():
    solver = parse_config(SOLVE).solver
    assert solver.tol_residual_sup == 1e-10
    assert (solver.max_newton_iters, solver.max_fallback_iters) == (50, 5000)


def test_stability_resolves():
    stability = parse_config(
        {**SOLVE, "stability": {"enabled": False, "tol": 1, "max_iters": 9}}
    ).stability
    assert (stability.enabled, stability.tol, stability.max_iters) == (False, 1.0, 9)
    assert isinstance(stability.tol, float)
    default = parse_config(SOLVE).stability
    assert (default.enabled, default.tol, default.max_iters) == (True, 1e-8, 400)


def test_criteria_resolves():
    criteria = parse_config(
        {**SOLVE, "criteria": {"tol": 0, "rank_tol": 1e-6, "minimal_tol": 1e-5}}
    ).criteria
    assert (criteria.tol, criteria.rank_tol, criteria.minimal_tol) == (0.0, 1e-6, 1e-5)
    assert parse_config({**SOLVE, "criteria": {"rank_tol": None}}).criteria.rank_tol is None
    default = parse_config(SOLVE).criteria
    assert (default.tol, default.rank_tol, default.minimal_tol) == (1e-9, None, 1e-8)


def test_homotopy_resolves():
    doc = {
        "command": "homotopy",
        "grid": GRID,
        "homotopy": {
            "f0": {**HOLOMORPHIC, "solve": True},
            "f1": {"family": "affine", "matrix": [[1, 0]], "bump_amplitude": 0.05},
            "t_count": 5,
            "uniqueness_inits": 3,
            "uniq_tol": 1e-6,
        },
    }
    homotopy = parse_config(doc).homotopy
    assert (homotopy.f0.family, homotopy.f0.solve, homotopy.f0.bump_amplitude) == (
        "holomorphic_power",
        True,
        0.0,
    )
    assert (homotopy.f1.family, homotopy.f1.solve, homotopy.f1.bump_amplitude) == (
        "affine",
        False,
        0.05,
    )
    assert homotopy.f0.params == {"amplitude": 0.3, "power": 3}
    assert (homotopy.t_count, homotopy.uniqueness_inits, homotopy.uniq_tol) == (5, 3, 1e-6)
    minimal = parse_config({**doc, "homotopy": {"f0": HOLOMORPHIC, "f1": HOLOMORPHIC}}).homotopy
    assert (minimal.t_count, minimal.uniqueness_inits, minimal.uniq_tol) == (33, 0, 1e-7)


def test_sweep_resolves():
    doc = {
        "command": "sweep",
        "grid": GRID,
        "sweep": {**HOLOMORPHIC, "s_values": [0.1, 1], "stability": True},
    }
    sweep = parse_config(doc).sweep
    assert sweep.amplitudes == (0.1, 1.0)
    assert sweep.stability is True
    assert sweep.base.family == "holomorphic_power"
    assert sweep.base.params == {"amplitude": 0.3, "power": 3}
    ramp = parse_config({**doc, "sweep": {**HOLOMORPHIC, "s_max": 0.9, "steps": 3}}).sweep
    assert ramp.amplitudes == pytest.approx((0.3, 0.6, 0.9), abs=1e-15)
    assert ramp.stability is False


def _search_values(search):
    # a resolved search carries the fields of a chains.SearchRegime plus a budget
    names = ("chain", "n", "p", "lam_low", "lam_high", "cap_products", "budget")
    return {name: getattr(search, name) for name in names}


def test_oracle_resolves():
    oracle = parse_config(
        {
            "command": "oracle",
            "oracle": {
                "chains": ["rank"],
                "n_values": [3, 5],
                "p_values": [2],
                "samples": 123,
                "lambda_high": 0.5,
                "tol": 1e-10,
                "searches": [
                    {
                        "chain": "rank",
                        "n": 3,
                        "p": 2,
                        "lam_low": 0.1,
                        "lam_high": 1.5,
                        "cap_products": False,
                        "budget": 77,
                    },
                    {"chain": "distance_decreasing", "n": 2},
                ],
            },
        }
    ).oracle
    assert oracle.chains == ("rank",)
    assert (oracle.n_values, oracle.p_values) == ((3, 5), (2,))
    assert (oracle.samples, oracle.lambda_high, oracle.tol) == (123, 0.5, 1e-10)
    assert [_search_values(s) for s in oracle.searches] == [
        {
            "chain": "rank",
            "n": 3,
            "p": 2,
            "lam_low": 0.1,
            "lam_high": 1.5,
            "cap_products": False,
            "budget": 77,
        },
        {
            "chain": "distance_decreasing",
            "n": 2,
            "p": None,
            "lam_low": 0.0,
            "lam_high": 1.0,
            "cap_products": True,
            "budget": 10_000,
        },
    ]


def test_oracle_defaults():
    oracle = parse_config({"command": "oracle"}).oracle
    assert oracle.chains == ("distance_decreasing", "rank")
    assert (oracle.n_values, oracle.p_values) == ((2, 3, 4), (2, 3, 4))
    assert (oracle.samples, oracle.lambda_high, oracle.tol, oracle.searches) == (
        100_000,
        1.0,
        1e-12,
        (),
    )


def test_validate_resolves():
    validate = parse_config(
        {
            "command": "validate",
            "validate": {"oracle_samples": 500, "counts": [9, 9, 9], "trials": 2},
        }
    ).validate
    assert (validate.oracle_samples, validate.counts, validate.trials) == (500, (9, 9, 9), 2)
    default = parse_config({"command": "validate"}).validate
    assert (default.oracle_samples, default.counts, default.trials) == (20_000, (17, 17), 3)


HOMOTOPY = {"command": "homotopy", "grid": GRID, "homotopy": {"f0": HOLOMORPHIC, "f1": HOLOMORPHIC}}
SWEEP = {"command": "sweep", "grid": GRID, "sweep": {**HOLOMORPHIC, "s_values": [0.5]}}
ORACLE = {"command": "oracle"}
SEARCH = {"chain": "distance_decreasing", "n": 2}


def _with(base, section, **values):
    return {**base, section: {**base.get(section, {}), **values}}


def _search(**values):
    return {"command": "oracle", "oracle": {"searches": [{**SEARCH, **values}]}}


# (config, prefix of the error message): per section an unknown key, a wrong
# type and, where the section has a range rule, a value below its minimum
BAD = {
    "top-unknown": ({**SOLVE, "grids": GRID}, "grids:"),
    "top-type": ({**SOLVE, "seed": "x"}, "seed:"),
    "top-min": ({**SOLVE, "threads": 0}, "threads:"),
    "command-unknown": ({**SOLVE, "command": "fly"}, "command:"),
    "grid-unknown": (_with(SOLVE, "grid", spacing=1), "grid.spacing:"),
    "grid-type": (_with(SOLVE, "grid", counts=5), "grid.counts:"),
    "grid-missing": ({**SOLVE, "grid": {"counts": [9, 9]}}, "grid.extents:"),
    "grid-min": (_with(SOLVE, "grid", counts=[9, 2]), "grid.counts[1]: must be >= 3"),
    "grid-reversed": (_with(SOLVE, "grid", extents=[[2.0, 0.0], [-1.0, 1.0]]), "grid: axis 0:"),
    "grid-empty": (_with(SOLVE, "grid", extents=[[0.0, 2.0], [1.0, 1.0]]), "grid: axis 1:"),
    "grid-infinite": (_with(SOLVE, "grid", extents=[[0.0, float("inf")], [-1.0, 1.0]]), "grid: axis 0:"),
    "grid-nan": (_with(SOLVE, "grid", extents=[[0.0, 2.0], [float("nan"), 1.0]]), "grid: axis 1:"),
    "boundary-unknown": (_with(SOLVE, "boundary", matrix=[[1, 0]]), "boundary.matrix:"),
    "boundary-type": (_with(SOLVE, "boundary", amplitude="big"), "boundary.amplitude:"),
    "boundary-bool": (_with(SOLVE, "boundary", amplitude=True), "boundary.amplitude:"),
    "boundary-min": (_with(SOLVE, "boundary", power=0), "boundary.power:"),
    "boundary-family": ({**SOLVE, "boundary": {"family": "spiral"}}, "boundary.family:"),
    "boundary-missing": (
        {**SOLVE, "boundary": {"family": "holomorphic_power"}},
        "boundary.amplitude:",
    ),
    "boundary-endpoint-key": (_with(SOLVE, "boundary", solve=True), "boundary.solve:"),
    "solver-unknown": (_with(SOLVE, "solver", jacobian_fd_step=1e-6), "solver.jacobian_fd_step:"),
    "solver-type": (_with(SOLVE, "solver", max_newton_iters=2.5), "solver.max_newton_iters:"),
    "solver-bool": (_with(SOLVE, "solver", tol_residual_sup=True), "solver.tol_residual_sup:"),
    "solver-min": (_with(SOLVE, "solver", max_backtracks=0), "solver.max_backtracks:"),
    "solver-positive": (
        _with(SOLVE, "solver", sufficient_decrease=0),
        "solver.sufficient_decrease:",
    ),
    "stability-unknown": (_with(SOLVE, "stability", seed=3), "stability.seed:"),
    "stability-type": (_with(SOLVE, "stability", enabled="yes"), "stability.enabled:"),
    "stability-min": (_with(SOLVE, "stability", max_iters=0), "stability.max_iters:"),
    "stability-positive": (_with(SOLVE, "stability", tol=0), "stability.tol:"),
    "criteria-unknown": (_with(SOLVE, "criteria", rank=2), "criteria.rank:"),
    "criteria-type": (_with(SOLVE, "criteria", tol="x"), "criteria.tol:"),
    "criteria-positive": (_with(SOLVE, "criteria", rank_tol=-1.0), "criteria.rank_tol:"),
    "criteria-minimal": (_with(SOLVE, "criteria", minimal_tol=0), "criteria.minimal_tol:"),
    "homotopy-unknown": (_with(HOMOTOPY, "homotopy", steps=3), "homotopy.steps:"),
    "homotopy-type": (_with(HOMOTOPY, "homotopy", f0=5), "homotopy.f0:"),
    "homotopy-endpoint-type": (
        _with(HOMOTOPY, "homotopy", f0={**HOLOMORPHIC, "solve": "yes"}),
        "homotopy.f0.solve:",
    ),
    "homotopy-min": (_with(HOMOTOPY, "homotopy", t_count=2), "homotopy.t_count:"),
    "homotopy-inits": (
        _with(HOMOTOPY, "homotopy", uniqueness_inits=-1),
        "homotopy.uniqueness_inits:",
    ),
    "homotopy-inits-one": (
        _with(HOMOTOPY, "homotopy", uniqueness_inits=1),
        "homotopy: uniqueness_inits: 0 turns the experiment off",
    ),
    "homotopy-positive": (_with(HOMOTOPY, "homotopy", uniq_tol=0), "homotopy.uniq_tol:"),
    "sweep-unknown": (_with(SWEEP, "sweep", solve=True), "sweep.solve:"),
    "sweep-type": (_with(SWEEP, "sweep", stability=1), "sweep.stability:"),
    "sweep-positive": (
        {**SWEEP, "sweep": {**HOLOMORPHIC, "s_max": 0, "steps": 2}},
        "sweep.s_max:",
    ),
    "sweep-min": ({**SWEEP, "sweep": {**HOLOMORPHIC, "s_max": 1, "steps": 0}}, "sweep.steps:"),
    "oracle-unknown": (_with(ORACLE, "oracle", budget=5), "oracle.budget:"),
    "oracle-type": (_with(ORACLE, "oracle", chains="rank"), "oracle.chains:"),
    "oracle-chain": (_with(ORACLE, "oracle", chains=["cycle"]), "oracle.chains"),
    "oracle-min": (_with(ORACLE, "oracle", samples=0), "oracle.samples:"),
    "oracle-positive": (_with(ORACLE, "oracle", lambda_high=0), "oracle.lambda_high:"),
    "oracle-n-min": (_with(ORACLE, "oracle", n_values=[2, 1]), "oracle.n_values[1]: must be >= 2"),
    "oracle-n-negative": (_with(ORACLE, "oracle", n_values=[-1]), "oracle.n_values[0]: must be >= 2"),
    "oracle-p-min": (_with(ORACLE, "oracle", p_values=[1]), "oracle.p_values[0]: must be >= 2"),
    "search-unknown": (_search(seed=1), "oracle.searches[0].seed:"),
    "search-type": (_search(cap_products="no"), "oracle.searches[0].cap_products:"),
    "search-chain": (_search(chain="cycle"), "oracle.searches[0]"),
    "search-min": (_search(n=1), "oracle.searches[0].n:"),
    "search-p-min": (_search(chain="rank", n=3, p=1), "oracle.searches[0].p:"),
    "search-dd-p": (_search(p=5), "oracle.searches[0]: p applies to the rank chain only"),
    "search-budget": (_search(budget=0), "oracle.searches[0].budget:"),
    "validate-unknown": (_with(ORACLE, "validate", seed=1), "validate.seed:"),
    "validate-type": (_with(ORACLE, "validate", counts=17), "validate.counts:"),
    "validate-min": (_with(ORACLE, "validate", oracle_samples=99), "validate.oracle_samples:"),
    "validate-trials": (_with(ORACLE, "validate", trials=0), "validate.trials:"),
    "validate-counts": (_with(ORACLE, "validate", counts=[2, 2]), "validate.counts[0]: must be >= 3"),
}


@pytest.mark.parametrize("doc, prefix", list(BAD.values()), ids=list(BAD))
def test_malformed_config_names_its_key(doc, prefix):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    # a top-level key has no section; tolerate a bare "." before it
    assert str(err.value).lstrip(".").startswith(prefix)


@pytest.mark.parametrize("section", ["grid", "homotopy", "sweep", "boundary"])
def test_section_required_by_command(section):
    docs = {"grid": SOLVE, "boundary": SOLVE, "homotopy": HOMOTOPY, "sweep": SWEEP}
    doc = {k: v for k, v in docs[section].items() if k != section}
    with pytest.raises(ConfigError, match=section):
        parse_config(doc)
