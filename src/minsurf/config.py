"""Strict parsing of run configurations.

Configs are YAML or JSON documents (JSON parses as YAML) with a fixed
schema; any unrecognized key aborts before computation with the offending
path in the message. Every run report embeds the resolved config verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .families import affine_map, holomorphic_power_map, trigonometric_map
from .grid import DomainGrid, GridMap, build_grid
from .serialize import load_map
from .solver import SolverConfig
from .variation import EigenConfig

COMMANDS = ("solve", "analyze", "homotopy", "oracle", "sweep", "validate")

_REQUIRED = object()


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


def _get(d: dict, key: str, path: str, types, default=_REQUIRED):
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: required key missing")
        return default
    value = d[key]
    if types is not None and not isinstance(value, types):
        raise ConfigError(
            f"{path}.{key}: expected {getattr(types, '__name__', types)}, got {type(value).__name__}"
        )
    return value


def _get_number(d, key, path, default=_REQUIRED, positive=False):
    value = _get(d, key, path, (int, float), default)
    if value is not default and isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a number")
    if positive and value is not None and value <= 0:
        raise ConfigError(f"{path}.{key}: must be positive")
    return float(value) if value is not None else value


def _get_int(d, key, path, default=_REQUIRED, minimum=None):
    value = _get(d, key, path, int, default)
    if isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if minimum is not None and value is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}")
    return value


@dataclass(frozen=True)
class GridSpec:
    extents: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]

    def build(self) -> DomainGrid:
        return build_grid(len(self.counts), self.extents, self.counts)


def _parse_grid(d: dict, path: str) -> GridSpec:
    _check_keys(d, {"extents", "counts"}, path)
    extents = _get(d, "extents", path, list)
    counts = _get(d, "counts", path, list)
    try:
        extents = tuple((float(a), float(b)) for a, b in extents)
        counts = tuple(int(c) for c in counts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed extents or counts ({exc})") from None
    if len(extents) != len(counts):
        raise ConfigError(f"{path}: extents and counts must have equal length")
    return GridSpec(extents=extents, counts=counts)


_FAMILY_KEYS = {
    "affine": {"matrix", "offset"},
    "holomorphic_power": {"amplitude", "power"},
    "trigonometric": {"amplitudes", "wavevectors", "phases"},
    "custom": {"path"},
}


@dataclass(frozen=True)
class MapSpec:
    """A named analytic family (or a stored map) sampled on the grid."""

    family: str
    params: dict
    solve: bool = False
    bump_amplitude: float = 0.0

    def sample(self, grid: DomainGrid) -> GridMap:
        p = self.params
        if self.family == "affine":
            return affine_map(grid, p["matrix"], p.get("offset"))
        if self.family == "holomorphic_power":
            return holomorphic_power_map(grid, p["amplitude"], p["power"])
        if self.family == "trigonometric":
            return trigonometric_map(grid, p["amplitudes"], p["wavevectors"], p.get("phases"))
        if self.family == "custom":
            f = load_map(p["path"])
            if f.grid.counts != grid.counts or f.grid.extents != grid.extents:
                raise ConfigError(
                    f"custom map grid {f.grid.counts} does not match configured grid {grid.counts}"
                )
            return f
        raise ConfigError(f"unknown family {self.family!r}")


def _parse_mapspec(d: dict, path: str, extra_keys: set[str] | None = None) -> MapSpec:
    family = _get(d, "family", path, str)
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"{path}.family: unknown family {family!r}")
    allowed = {"family"} | _FAMILY_KEYS[family] | (extra_keys or set())
    _check_keys(d, allowed, path)
    params: dict = {}
    if family == "affine":
        params["matrix"] = _get(d, "matrix", path, list)
        params["offset"] = _get(d, "offset", path, list, None)
    elif family == "holomorphic_power":
        params["amplitude"] = _get_number(d, "amplitude", path)
        params["power"] = _get_int(d, "power", path, minimum=1)
    elif family == "trigonometric":
        params["amplitudes"] = _get(d, "amplitudes", path, list)
        params["wavevectors"] = _get(d, "wavevectors", path, list)
        params["phases"] = _get(d, "phases", path, list, None)
    elif family == "custom":
        params["path"] = _get(d, "path", path, str)
    solve = bool(_get(d, "solve", path, bool, False)) if extra_keys and "solve" in extra_keys else False
    bump = 0.0
    if extra_keys and "bump_amplitude" in extra_keys:
        bump = _get_number(d, "bump_amplitude", path, 0.0)
    return MapSpec(family=family, params=params, solve=solve, bump_amplitude=bump)


def _parse_solver(d: dict, path: str) -> SolverConfig:
    allowed = {
        "tol_residual_sup",
        "max_newton_iters",
        "max_fallback_iters",
        "line_search_factor",
        "sufficient_decrease",
        "max_backtracks",
    }
    _check_keys(d, allowed, path)
    base = SolverConfig()
    return SolverConfig(
        tol_residual_sup=_get_number(d, "tol_residual_sup", path, base.tol_residual_sup, positive=True),
        max_newton_iters=_get_int(d, "max_newton_iters", path, base.max_newton_iters, minimum=1),
        max_fallback_iters=_get_int(d, "max_fallback_iters", path, base.max_fallback_iters, minimum=1),
        line_search_factor=_get_number(d, "line_search_factor", path, base.line_search_factor, positive=True),
        sufficient_decrease=_get_number(d, "sufficient_decrease", path, base.sufficient_decrease, positive=True),
        max_backtracks=_get_int(d, "max_backtracks", path, base.max_backtracks, minimum=1),
    )


@dataclass(frozen=True)
class StabilitySpec:
    enabled: bool = True
    tol: float = 1e-8
    max_iters: int = 400

    def eigen_config(self, seed: int) -> EigenConfig:
        return EigenConfig(tol=self.tol, max_iters=self.max_iters, seed=seed)


def _parse_stability(d: dict, path: str) -> StabilitySpec:
    _check_keys(d, {"enabled", "tol", "max_iters"}, path)
    return StabilitySpec(
        enabled=bool(_get(d, "enabled", path, bool, True)),
        tol=_get_number(d, "tol", path, 1e-8, positive=True),
        max_iters=_get_int(d, "max_iters", path, 400, minimum=1),
    )


@dataclass(frozen=True)
class CriteriaSpec:
    tol: float = 1e-9
    rank_tol: float | None = None
    minimal_tol: float = 1e-8


def _parse_criteria(d: dict, path: str) -> CriteriaSpec:
    _check_keys(d, {"tol", "rank_tol", "minimal_tol"}, path)
    rank_tol = d.get("rank_tol")
    if rank_tol is not None:
        rank_tol = _get_number(d, "rank_tol", path, positive=True)
    return CriteriaSpec(
        tol=_get_number(d, "tol", path, 1e-9),
        rank_tol=rank_tol,
        minimal_tol=_get_number(d, "minimal_tol", path, 1e-8, positive=True),
    )


@dataclass(frozen=True)
class HomotopySpec:
    f0: MapSpec
    f1: MapSpec
    t_count: int = 33
    uniqueness_inits: int = 0
    uniq_tol: float = 1e-7


def _parse_homotopy(d: dict, path: str) -> HomotopySpec:
    _check_keys(d, {"f0", "f1", "t_count", "uniqueness_inits", "uniq_tol"}, path)
    extra = {"solve", "bump_amplitude"}
    return HomotopySpec(
        f0=_parse_mapspec(_get(d, "f0", path, dict), f"{path}.f0", extra),
        f1=_parse_mapspec(_get(d, "f1", path, dict), f"{path}.f1", extra),
        t_count=_get_int(d, "t_count", path, 33, minimum=3),
        uniqueness_inits=_get_int(d, "uniqueness_inits", path, 0, minimum=0),
        uniq_tol=_get_number(d, "uniq_tol", path, 1e-7, positive=True),
    )


@dataclass(frozen=True)
class SweepSpec:
    base: MapSpec
    amplitudes: tuple[float, ...]
    stability: bool = False


def _parse_sweep(d: dict, path: str) -> SweepSpec:
    allowed = {"family", "s_values", "s_max", "steps", "stability"} | set().union(*_FAMILY_KEYS.values())
    _check_keys(d, allowed, path)
    base = _parse_mapspec({k: v for k, v in d.items() if k not in {"s_values", "s_max", "steps", "stability"}}, path)
    if "s_values" in d:
        s_values = tuple(float(s) for s in _get(d, "s_values", path, list))
    else:
        s_max = _get_number(d, "s_max", path, positive=True)
        steps = _get_int(d, "steps", path, minimum=1)
        s_values = tuple(float(s) for s in np.linspace(s_max / steps, s_max, steps))
    if not s_values:
        raise ConfigError(f"{path}: need at least one amplitude")
    return SweepSpec(
        base=base,
        amplitudes=s_values,
        stability=bool(_get(d, "stability", path, bool, False)),
    )


@dataclass(frozen=True)
class SearchSpec:
    chain: str
    n: int
    p: int | None
    lam_low: float
    lam_high: float
    cap_products: bool
    budget: int


@dataclass(frozen=True)
class OracleSpec:
    chains: tuple[str, ...] = ("distance_decreasing", "rank")
    n_values: tuple[int, ...] = (2, 3, 4)
    p_values: tuple[int, ...] = (2, 3, 4)
    samples: int = 100_000
    lambda_high: float = 1.0
    tol: float = 1e-12
    searches: tuple[SearchSpec, ...] = ()


def _parse_search(d: dict, path: str) -> SearchSpec:
    _check_keys(d, {"chain", "n", "p", "lam_low", "lam_high", "cap_products", "budget"}, path)
    chain = _get(d, "chain", path, str)
    if chain not in ("distance_decreasing", "rank"):
        raise ConfigError(f"{path}.chain: unknown chain {chain!r}")
    p = d.get("p")
    if p is not None:
        p = _get_int(d, "p", path, minimum=2)
    return SearchSpec(
        chain=chain,
        n=_get_int(d, "n", path, minimum=2),
        p=p,
        lam_low=_get_number(d, "lam_low", path, 0.0),
        lam_high=_get_number(d, "lam_high", path, 1.0),
        cap_products=bool(_get(d, "cap_products", path, bool, True)),
        budget=_get_int(d, "budget", path, 10_000, minimum=1),
    )


def _parse_oracle(d: dict, path: str) -> OracleSpec:
    _check_keys(d, {"chains", "n_values", "p_values", "samples", "lambda_high", "tol", "searches"}, path)
    chains = tuple(_get(d, "chains", path, list, ["distance_decreasing", "rank"]))
    for c in chains:
        if c not in ("distance_decreasing", "rank"):
            raise ConfigError(f"{path}.chains: unknown chain {c!r}")
    searches = tuple(
        _parse_search(s, f"{path}.searches[{i}]")
        for i, s in enumerate(_get(d, "searches", path, list, []))
    )
    return OracleSpec(
        chains=chains,
        n_values=tuple(int(v) for v in _get(d, "n_values", path, list, [2, 3, 4])),
        p_values=tuple(int(v) for v in _get(d, "p_values", path, list, [2, 3, 4])),
        samples=_get_int(d, "samples", path, 100_000, minimum=1),
        lambda_high=_get_number(d, "lambda_high", path, 1.0, positive=True),
        tol=_get_number(d, "tol", path, 1e-12, positive=True),
        searches=searches,
    )


@dataclass(frozen=True)
class ValidateSpec:
    oracle_samples: int = 20_000
    counts: tuple[int, ...] = (17, 17)
    trials: int = 3


def _parse_validate(d: dict, path: str) -> ValidateSpec:
    _check_keys(d, {"oracle_samples", "counts", "trials"}, path)
    return ValidateSpec(
        oracle_samples=_get_int(d, "oracle_samples", path, 20_000, minimum=100),
        counts=tuple(int(c) for c in _get(d, "counts", path, list, [17, 17])),
        trials=_get_int(d, "trials", path, 3, minimum=1),
    )


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    threads: int
    output_dir: str
    grid: GridSpec | None
    boundary: MapSpec | None
    solver: SolverConfig
    stability: StabilitySpec
    criteria: CriteriaSpec
    homotopy: HomotopySpec | None
    sweep: SweepSpec | None
    oracle: OracleSpec
    validate: ValidateSpec
    raw: dict = field(repr=False, default_factory=dict)


_TOP_KEYS = {
    "command",
    "seed",
    "threads",
    "output_dir",
    "grid",
    "boundary",
    "solver",
    "stability",
    "criteria",
    "homotopy",
    "sweep",
    "oracle",
    "validate",
}


def parse_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    doc = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    _check_keys(doc, _TOP_KEYS, "")
    command = _get(doc, "command", "", str)
    if command not in COMMANDS:
        raise ConfigError(f"command: unknown command {command!r} (expected one of {COMMANDS})")
    seed = _get_int(doc, "seed", "", 0)
    threads = _get_int(doc, "threads", "", 1, minimum=1)
    output_dir = _get(doc, "output_dir", "", str, f"runs/{command}")

    grid = _parse_grid(doc["grid"], "grid") if "grid" in doc else None
    boundary = (
        _parse_mapspec(doc["boundary"], "boundary") if "boundary" in doc else None
    )
    solver = _parse_solver(doc.get("solver", {}), "solver")
    stability = _parse_stability(doc.get("stability", {}), "stability")
    criteria = _parse_criteria(doc.get("criteria", {}), "criteria")
    homotopy = _parse_homotopy(doc["homotopy"], "homotopy") if "homotopy" in doc else None
    sweep = _parse_sweep(doc["sweep"], "sweep") if "sweep" in doc else None
    oracle = _parse_oracle(doc.get("oracle", {}), "oracle")
    validate = _parse_validate(doc.get("validate", {}), "validate")

    if command in ("solve", "analyze"):
        if grid is None:
            raise ConfigError(f"grid: required for command {command!r}")
        if boundary is None:
            raise ConfigError(f"boundary: required for command {command!r}")
    if command == "homotopy":
        if grid is None or homotopy is None:
            raise ConfigError("grid and homotopy sections are required for command 'homotopy'")
    if command == "sweep":
        if grid is None or sweep is None:
            raise ConfigError("grid and sweep sections are required for command 'sweep'")

    return RunConfig(
        command=command,
        seed=seed,
        threads=threads,
        output_dir=output_dir,
        grid=grid,
        boundary=boundary,
        solver=solver,
        stability=stability,
        criteria=criteria,
        homotopy=homotopy,
        sweep=sweep,
        oracle=oracle,
        validate=validate,
        raw=doc,
    )


def load_config(path, overrides: dict | None = None) -> RunConfig:
    text = Path(path).read_text()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{location}: {exc}") from None
    return parse_config(doc, overrides)
