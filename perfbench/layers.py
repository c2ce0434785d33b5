"""Per-layer metrics computed from the spans of one traced run.

Each metric names the span kinds it is computed from. A span kind whose
hooks all lost their targets (see ``child.HOOKS``) is absent, and so is
every metric built on it: it is reported by name as absent, never as 0.
A metric of a layer the workload does not reach reads 0 calls and 0 s.
"""

from __future__ import annotations

from child import HOOKS


class _Spans:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                self.child_s[s["parent"]] += s["end"] - s["start"]

    def of(self, name: str, parent: str | None = None) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name
            and (parent is None or (s["parent"] is not None and self.spans[s["parent"]]["name"] == parent))
        ]

    def count(self, name: str, parent: str | None = None) -> int:
        return len(self.of(name, parent))

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.of(name, parent))

    def self_s(self, name: str) -> float:
        """Duration minus the time covered by child spans (spans nest)."""
        return sum(
            s["end"] - s["start"] - self.child_s[i]
            for i, s in enumerate(self.spans)
            if s["name"] == name
        )

    def attr(self, name: str, key: str, reduce=sum, parent: str | None = None):
        """Reduced attribute of the spans; None (absent) if any span lacks it."""
        values = [s.get(key) for s in self.of(name, parent)]
        if any(v is None for v in values):
            return None
        return reduce(values) if values else 0


def _ratio(num, den, scale=1.0):
    if num is None or den is None:
        return None
    return scale * num / den if den else 0.0


# name -> (unit, better, span kinds it needs, value from spans and bytes written)
PER_LAYER = {
    "area.residual_calls": ("count", "lower", ("area.residual",), lambda t, b: t.count("area.residual")),
    "area.residual_s": ("s", "lower", ("area.residual",), lambda t, b: t.total("area.residual")),
    "area.residual_ms": (
        "ms", "lower", ("area.residual",),
        lambda t, b: _ratio(t.total("area.residual"), t.count("area.residual"), 1e3),
    ),
    "area.area_calls": ("count", "lower", ("area.area",), lambda t, b: t.count("area.area")),
    "area.area_s": ("s", "lower", ("area.area",), lambda t, b: t.total("area.area")),
    "solver.solve_s": ("s", "lower", ("solver.solve",), lambda t, b: t.total("solver.solve")),
    "solver.newton_iters": (
        "count", "lower", ("solver.solve",), lambda t, b: t.attr("solver.solve", "newton_iters"),
    ),
    "solver.fallback_iters": (
        "count", "lower", ("solver.solve",), lambda t, b: t.attr("solver.solve", "fallback_iters"),
    ),
    "solver.harmonic_s": ("s", "lower", ("solver.harmonic",), lambda t, b: t.total("solver.harmonic")),
    "solver.newton_assembly_s": (
        "s", "lower", ("solver.newton_assembly",), lambda t, b: t.total("solver.newton_assembly"),
    ),
    "solver.residual_evals_per_newton": (
        "count", "lower", ("solver.newton_assembly", "area.residual"),
        lambda t, b: _ratio(
            t.count("area.residual", parent="solver.newton_assembly"),
            t.count("solver.newton_assembly"),
        ),
    ),
    "solver.linear_solves": (
        "count", "lower", ("scipy.spsolve", "solver.solve"),
        lambda t, b: t.count("scipy.spsolve", parent="solver.solve"),
    ),
    "solver.linear_solve_s": (
        "s", "lower", ("scipy.spsolve", "solver.solve"),
        lambda t, b: t.total("scipy.spsolve", parent="solver.solve"),
    ),
    "solver.matrix_nnz": (
        "count", "lower", ("scipy.spsolve", "solver.solve"),
        lambda t, b: t.attr("scipy.spsolve", "nnz", max, parent="solver.solve"),
    ),
    "solver.line_search_trials": (
        "count", "lower", ("area.area", "solver.solve"),
        lambda t, b: t.count("area.area", parent="solver.solve"),
    ),
    "solver.line_search_accept_ratio": (
        "ratio", "higher", ("area.area", "solver.solve"),
        lambda t, b: _ratio(
            t.attr("solver.solve", "accepted_steps"), t.count("area.area", parent="solver.solve")
        ),
    ),
    "variation.stability_s": (
        "s", "lower", ("variation.stability",), lambda t, b: t.total("variation.stability"),
    ),
    "variation.hessian_assembly_s": (
        "s", "lower", ("variation.hessian_assembly",),
        lambda t, b: t.total("variation.hessian_assembly"),
    ),
    "variation.factorizations": ("count", "lower", ("scipy.splu",), lambda t, b: t.count("scipy.splu")),
    "variation.factor_s": ("s", "lower", ("scipy.splu",), lambda t, b: t.total("scipy.splu")),
    "variation.lu_fill_nnz": (
        "count", "lower", ("scipy.splu",), lambda t, b: t.attr("scipy.splu", "fill_nnz", max),
    ),
    "variation.eigen_iters": (
        "count", "lower", ("variation.stability",),
        lambda t, b: t.attr("variation.stability", "eigen_iters"),
    ),
    "variation.eigen_s": (
        "s", "lower",
        ("variation.stability", "variation.hessian_assembly", "scipy.splu", "area.residual"),
        lambda t, b: t.self_s("variation.stability"),
    ),
    "criteria.report_s": ("s", "lower", ("criteria.report",), lambda t, b: t.total("criteria.report")),
    "grid.spectrum_calls": ("count", "lower", ("grid.spectrum",), lambda t, b: t.count("grid.spectrum")),
    "grid.spectrum_s": ("s", "lower", ("grid.spectrum",), lambda t, b: t.total("grid.spectrum")),
    "homotopy.profile_s": ("s", "lower", ("homotopy.profile",), lambda t, b: t.total("homotopy.profile")),
    "homotopy.jacobi_s": ("s", "lower", ("homotopy.jacobi",), lambda t, b: t.total("homotopy.jacobi")),
    "homotopy.uniqueness_s": (
        "s", "lower", ("homotopy.uniqueness",), lambda t, b: t.total("homotopy.uniqueness"),
    ),
    "chains.campaign_s": ("s", "lower", ("chains.campaign",), lambda t, b: t.total("chains.campaign")),
    "chains.campaign_samples_per_s": (
        "1/s", "higher", ("chains.campaign",),
        lambda t, b: _ratio(t.attr("chains.campaign", "samples"), t.total("chains.campaign")),
    ),
    "chains.search_s": ("s", "lower", ("chains.search",), lambda t, b: t.total("chains.search")),
    "chains.search_evals": (
        "count", "lower", ("chains.search",), lambda t, b: t.attr("chains.search", "evals"),
    ),
    "cli.config_s": ("s", "lower", ("cli.config",), lambda t, b: t.total("cli.config")),
    "cli.emit_s": ("s", "lower", ("cli.emit",), lambda t, b: t.total("cli.emit")),
    "cli.bytes_written": ("bytes", "lower", (), lambda t, b: b),
}

# Reported next to the layers: traced wall_s minus untraced wall_s of the
# same config, measured in the same benchmark run.
OVERHEAD = ("trace.overhead_s", "s", "lower")


def absent_kinds(absent_hooks: list[str]) -> set[str]:
    """Span kinds none of whose hook targets exist."""
    targets: dict[str, list[str]] = {}
    for kind, module, attr, _ in HOOKS:
        targets.setdefault(kind, []).append(f"{module}.{attr}")
    missing = set(absent_hooks)
    return {kind for kind, names in targets.items() if all(n in missing for n in names)}


def layer_metrics(trace: dict, bytes_written: int) -> tuple[dict, list[str]]:
    """(metric name -> value, names of absent metrics) for one traced run."""
    gone = absent_kinds(trace["absent_hooks"])
    spans = _Spans(trace["spans"])
    values, absent = {}, []
    for name, (_, _, needs, fn) in PER_LAYER.items():
        value = None if gone.intersection(needs) else fn(spans, bytes_written)
        if value is None:
            absent.append(name)
        else:
            values[name] = value
    return values, absent
