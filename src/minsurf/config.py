"""Strict parsing of run configurations.

Configs are JSON or YAML documents. JSON is parsed as JSON first: the YAML
1.1 resolver would read an exponent float like ``1e-9`` as a string. Each
section is read into the dataclass that owns its settings (``DomainGrid``,
``SolverConfig``, ...) and each map family into the function that samples it
(``affine_map``, ...): the keys are the fields, or the parameters after
``grid``, with their defaults, and each value's kind is the field's type or
the parameter's annotation. A short table per section and family adds the
range rules. An unknown key or a malformed value aborts before computation
with the offending path in the message. Every run report embeds the config
verbatim.
"""

from __future__ import annotations

import functools
import inspect
import json
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .chains import CHAIN_DD, CHAIN_RANK, SearchRegime
from .criteria import DEFAULT_TOL
from .errors import ConfigError
from .families import affine_map, holomorphic_power_map, trigonometric_map
from .grid import DomainGrid, GridMap
from .serialize import load_map
from .solver import SolverConfig
from .variation import DEFAULT_MINIMAL_TOL, EigenConfig

COMMANDS = ("solve", "analyze", "homotopy", "oracle", "sweep", "validate")
_CHAINS = (CHAIN_DD, CHAIN_RANK)
_POSITIVE = "positive"

_hints = functools.cache(typing.get_type_hints)


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _mapping(d, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(d).__name__}")
    return d


def _check_keys(d: dict, allowed, path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{_at(path, key)}: unknown key")


def _check(v, where: str, check) -> None:
    """``check`` is None, a tuple of allowed values, or _POSITIVE or a minimum for a finite v."""
    if check is None:
        return
    if isinstance(check, tuple):
        if v not in check:
            raise ConfigError(f"{where}: unknown value {v!r} (expected one of {check})")
    elif not np.isfinite(v):
        raise ConfigError(f"{where}: must be finite")
    elif check == _POSITIVE:
        if v <= 0:
            raise ConfigError(f"{where}: must be positive")
    elif v < check:
        raise ConfigError(f"{where}: must be >= {check}")


def _value(kind, v, where: str, check=None):
    """``v`` read as ``kind``.

    Kinds: float (any number), int, bool, str, list, ``X | None``, a tuple
    type read from a list (``check`` then applies to each element), a
    dataclass read as a nested section (``check`` is its range rules), and
    ``MapSpec``, read as a homotopy endpoint.
    """
    args = typing.get_args(kind)
    if type(None) in args:
        return None if v is None else _value(args[0], v, where, check)
    if typing.get_origin(kind) is tuple:
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{where}: expected list, got {type(v).__name__}")
        kinds = args[:1] * len(v) if args[-1] is Ellipsis else args
        if len(kinds) != len(v):
            raise ConfigError(f"{where}: expected {len(kinds)} entries, got {len(v)}")
        return tuple(_value(k, x, f"{where}[{i}]", check) for i, (k, x) in enumerate(zip(kinds, v)))
    if kind is MapSpec:
        return _parse_mapspec(v, where, endpoint=True)
    if is_dataclass(kind):
        return _section(kind, v, where, check)
    if not isinstance(v, (int, float) if kind is float else kind) or (
        isinstance(v, bool) and kind is not bool
    ):
        name = "a number" if kind is float else kind.__name__
        raise ConfigError(f"{where}: expected {name}, got {type(v).__name__}")
    v = float(v) if kind is float else v
    _check(v, where, check)
    return v


def _read(d: dict, key: str, path: str, kind, default=MISSING, check=None):
    """``d[key]`` read as ``kind``; ``default`` when absent, unless MISSING (required)."""
    if key in d:
        return _value(kind, d[key], _at(path, key), check)
    if default is MISSING:
        raise ConfigError(f"{_at(path, key)}: required key missing")
    return default


def _keys(fn, given=()) -> dict:
    """{parameter: (annotated kind, default or MISSING)} of a dataclass or function, except ``given``."""
    params = [p for p in inspect.signature(fn).parameters.values() if p.name not in given]
    return {p.name: (_hints(fn)[p.name], MISSING if p.default is p.empty else p.default) for p in params}


def _section(cls, d, path: str, checks: dict | None = None, **given):
    """Dataclass ``cls`` read from mapping ``d``.

    The keys are the fields of ``cls`` (see ``_keys``) except the ``given``
    ones, which the caller fills, and ``checks`` maps a field to its range
    rule (see ``_check``). A ValueError from the dataclass's own validation
    becomes a ConfigError at ``path``.
    """
    keys, checks = _keys(cls, given), checks or {}
    _check_keys(_mapping(d, path), keys, path)
    values = {k: _read(d, k, path, kind, default, checks.get(k)) for k, (kind, default) in keys.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _custom_map(grid: DomainGrid, path: str) -> GridMap:
    """The map stored at ``path``, which must be sampled on ``grid``."""
    f = load_map(path)
    if not f.grid.compatible_with(grid):
        raise ConfigError(f"custom map grid {f.grid.counts} does not match configured grid {grid.counts}")
    return f


# family name: the function that samples it; its parameters after ``grid`` are the family's keys
_FAMILIES = {
    "affine": affine_map,
    "holomorphic_power": holomorphic_power_map,
    "trigonometric": trigonometric_map,
    "custom": _custom_map,
}


@dataclass(frozen=True)
class MapSpec:
    """A named analytic family (or a stored map) sampled on the grid.

    ``solve`` and ``bump_amplitude`` are keys of homotopy endpoints only.
    """

    family: str
    params: dict
    solve: bool = False
    bump_amplitude: float = 0.0

    def sample(self, grid: DomainGrid) -> GridMap:
        return _FAMILIES[self.family](grid, **self.params)


def _parse_mapspec(d, path: str, endpoint: bool = False) -> MapSpec:
    family = _read(_mapping(d, path), "family", path, str)
    if family not in _FAMILIES:
        raise ConfigError(f"{path}.family: unknown family {family!r}")
    keys, checks = _keys(_FAMILIES[family], given=("grid",)), _CHECKS.get(family, {})
    rest = {k: v for k, v in d.items() if k != "family" and k not in keys}
    if not endpoint:
        _check_keys(rest, (), path)
    params = {k: _read(d, k, path, kind, default, checks.get(k)) for k, (kind, default) in keys.items()}
    return _section(MapSpec, rest, path, family=family, params=params)


@dataclass(frozen=True)
class StabilitySpec(EigenConfig):
    """The eigen-solve settings, plus whether to run it; the seed is the run's."""

    enabled: bool = True


@dataclass(frozen=True)
class CriteriaSpec:
    tol: float = DEFAULT_TOL
    rank_tol: float | None = None
    minimal_tol: float = DEFAULT_MINIMAL_TOL


@dataclass(frozen=True)
class HomotopySpec:
    f0: MapSpec
    f1: MapSpec
    t_count: int = 33
    uniqueness_inits: int = 0
    uniq_tol: float = 1e-7

    def __post_init__(self):
        if self.uniqueness_inits == 1:
            raise ValueError("uniqueness_inits: 0 turns the experiment off, otherwise at least 2")


@dataclass(frozen=True)
class SweepSpec:
    base: MapSpec
    amplitudes: tuple[float, ...]
    stability: bool = False


_SWEEP_KEYS = ("s_values", "s_max", "steps", "stability")


def _parse_sweep(d, path: str) -> SweepSpec:
    own = {k: v for k, v in _mapping(d, path).items() if k in _SWEEP_KEYS}
    base = _parse_mapspec({k: v for k, v in d.items() if k not in own}, path)
    if "s_values" in own:
        conflicting = [k for k in ("s_max", "steps") if k in own]
        if conflicting:
            raise ConfigError(f"{path}: s_values excludes {' and '.join(conflicting)}")
        amplitudes = _read(own, "s_values", path, tuple[float, ...])
    else:
        s_max = _read(own, "s_max", path, float, check=_POSITIVE)
        steps = _read(own, "steps", path, int, check=1)
        amplitudes = tuple(float(s) for s in np.linspace(s_max / steps, s_max, steps))
    if not amplitudes:
        raise ConfigError(f"{path}: need at least one amplitude")
    return SweepSpec(base, amplitudes, _read(own, "stability", path, bool, False))


@dataclass(frozen=True)
class _Search(SearchRegime):
    """One counterexample search: its sampling regime plus a sample budget."""

    budget: int = 10_000


@dataclass(frozen=True)
class OracleSpec:
    chains: tuple[str, ...] = _CHAINS
    n_values: tuple[int, ...] = (2, 3, 4)
    p_values: tuple[int, ...] = (2, 3, 4)
    samples: int = 100_000
    lambda_high: float = 1.0
    tol: float = 1e-12
    searches: tuple[_Search, ...] = ()

    def __post_init__(self):
        if not (self.dd_ns or self.rank_nps or self.searches):
            raise ValueError("selects no campaign and no search")

    @property
    def dd_ns(self) -> tuple[int, ...]:
        """n of each distance-decreasing campaign."""
        return self.n_values if CHAIN_DD in self.chains else ()

    @property
    def rank_nps(self) -> list[tuple[int, int]]:
        """(n, p) of each rank campaign: every pair with p <= n."""
        chosen = CHAIN_RANK in self.chains
        return [(n, p) for n in self.n_values for p in self.p_values if chosen and p <= n]


@dataclass(frozen=True)
class ValidateSpec:
    oracle_samples: int = 20_000
    counts: tuple[int, ...] = (17, 17)
    trials: int = 3


# range rules of each section and family (see _check)
_CHECKS = {
    "grid": {"counts": 3},
    "holomorphic_power": {"power": 1},
    "solver": {"tol_residual_sup": _POSITIVE, "max_newton_iters": 1, "max_fallback_iters": 1},
    "stability": {"tol": _POSITIVE, "max_iters": 1},
    "criteria": {"tol": 0, "rank_tol": _POSITIVE, "minimal_tol": _POSITIVE},
    "homotopy": {"t_count": 3, "uniqueness_inits": 0, "uniq_tol": _POSITIVE},
    "oracle": {
        "chains": _CHAINS,
        "n_values": 2,
        "p_values": 2,
        "samples": 1,
        "lambda_high": _POSITIVE,
        "tol": _POSITIVE,
        "searches": {"chain": _CHAINS, "n": 2, "p": 2, "budget": 1},
    },
    "validate": {"oracle_samples": 100, "counts": 3, "trials": 1},
}

# sections a command cannot run without
_NEEDS = {
    "solve": ("grid", "boundary"),
    "analyze": ("grid", "boundary"),
    "homotopy": ("grid", "homotopy"),
    "sweep": ("grid", "sweep"),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    output_dir: str
    grid: DomainGrid | None
    boundary: MapSpec | None
    solver: SolverConfig
    stability: StabilitySpec
    criteria: CriteriaSpec
    homotopy: HomotopySpec | None
    sweep: SweepSpec | None
    oracle: OracleSpec
    validate: ValidateSpec
    raw: dict = field(repr=False, default_factory=dict)


def parse_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    doc = dict(_mapping(doc, "config root"))
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    _check_keys(doc, [f.name for f in fields(RunConfig) if f.name != "raw"], "")
    command = _read(doc, "command", "", str, check=COMMANDS)
    seed = _read(doc, "seed", "", int, 0, check=0)

    def section(name, cls, **given):
        return _section(cls, doc.get(name, {}), name, _CHECKS.get(name), **given)

    config = RunConfig(
        command=command,
        seed=seed,
        output_dir=_read(doc, "output_dir", "", str, f"runs/{command}"),
        grid=section("grid", DomainGrid) if "grid" in doc else None,
        boundary=_parse_mapspec(doc["boundary"], "boundary") if "boundary" in doc else None,
        solver=section("solver", SolverConfig),
        stability=section("stability", StabilitySpec, seed=seed),
        criteria=section("criteria", CriteriaSpec),
        homotopy=section("homotopy", HomotopySpec) if "homotopy" in doc else None,
        sweep=_parse_sweep(doc["sweep"], "sweep") if "sweep" in doc else None,
        oracle=section("oracle", OracleSpec),
        validate=section("validate", ValidateSpec),
        raw=doc,
    )
    for name in _NEEDS.get(command, ()):
        if name not in doc:
            raise ConfigError(f"{name}: required for command {command!r}")
    return config


def load_config(path, overrides: dict | None = None) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        import yaml  # only a config that is not JSON pays for the YAML parser

        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            location = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ConfigError(f"config parse error{location}: {exc}") from None
    return parse_config(doc, overrides)
