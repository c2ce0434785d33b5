"""Run report assembly, JSON encoding, and plot-ready CSV emission."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = ["Summarized", "to_jsonable", "write_report", "sha256_file", "emit_plot_data"]


def _summarized(value):
    if hasattr(value, "summary"):
        return value.summary()
    if isinstance(value, (list, tuple)):
        return [_summarized(v) for v in value]
    if isinstance(value, dict):
        return {k: _summarized(v) for k, v in value.items()}
    return value


class Summarized:
    """Mixin for result dataclasses: ``summary()`` reports every field by name.

    Nested results are summarized, tuples become lists, and nodal data (numpy
    arrays and grid fields, i.e. anything carrying a ``.grid``) is left out:
    it goes to the artifacts instead.
    """

    def summary(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {
            name: _summarized(v)
            for name, v in values.items()
            if not isinstance(v, np.ndarray) and not hasattr(v, "grid")
        }


def to_jsonable(obj):
    """Recursively convert numpy scalars and arrays for JSON encoding."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _profile_table(results, grid, fields):
    profile = results.get("profile")
    if not profile:
        return None
    d2 = [""] + list(profile["second_differences"]) + [""]
    rows = zip(profile["t_samples"], profile["areas"], d2, profile["sup_lambda_max_path"])
    return ["t", "area", "d2area", "sup_lambda_max"], rows


def _sweep_table(results, grid, fields):
    sweep = results.get("sweep")
    if not sweep:
        return None
    rows = [
        [s["amplitude"], s["converged"], s.get("sup_lambda_max", ""), s.get("min_eigenvalue", "")]
        for s in sweep["steps"]
    ]
    return ["s", "converged", "sup_lambda_max", "theta_min"], rows


def _residual_table(results, grid, fields):
    residual = fields.get("residual")
    if residual is None or grid is None:
        return None
    m = residual.shape[-1]
    coords = grid.coordinates().reshape(-1, grid.n).tolist()
    res = residual.reshape(-1, m).tolist()
    header = ["node"] + [f"x{i}" for i in range(grid.n)] + [f"residual{a}" for a in range(m)]
    return header, [[i, *x, *r] for i, (x, r) in enumerate(zip(coords, res))]


def _violations_table(results, grid, fields):
    found = [s for s in results.get("searches") or () if s.get("found")]
    if not found:
        return None
    k = max(len(s["best_lambda"]) for s in found)
    rows = []
    for s in found:
        # the n x n pairing block sits in the top-left of the k x k layout
        C = [list(r) + [""] * (k - len(r)) for r in s["best_C"]]
        C += [[""] * k] * (k - len(C))
        lam = list(s["best_lambda"]) + [""] * (k - len(s["best_lambda"]))
        values = json.dumps(s["best_values"], sort_keys=True)
        flat = [v for r in C for v in r]
        rows.append([s["chain"], s["n"], s.get("p") or "", s["best_margin"], *lam, *flat, values])
    header = (
        ["chain", "n", "p", "margin"]
        + [f"lam{i}" for i in range(k)]
        + [f"C{i}_{j}" for i in range(k) for j in range(k)]
        + ["values"]
    )
    return header, rows


def _checks_table(results, grid, fields):
    checks = results.get("checks")
    if not checks:
        return None
    return ["name", "passed", "value", "threshold"], [
        [c["name"], c["passed"], c["value"], c["threshold"]] for c in checks
    ]


def _convergence_table(results, grid, fields):
    convergence = results.get("convergence")
    if not convergence:
        return None
    rows = [
        [kind, r["nodes_per_axis"], r["h"], r["value"]]
        for kind, table in sorted(convergence.items())
        for r in table
    ]
    return ["kind", "nodes_per_axis", "h", "value"], rows


# CSV stem -> (results, grid, fields) -> (header, rows), or None when the section is absent
_TABLES = {
    "homotopy_profile": _profile_table,
    "sweep": _sweep_table,
    "residual_field": _residual_table,
    "oracle_violations": _violations_table,
    "validate_checks": _checks_table,
    "convergence": _convergence_table,
}


def emit_plot_data(results: dict, outdir: Path, grid=None, fields: dict | None = None):
    """Write plot-ready CSV files for whichever report sections are present.

    Returns (emitted file names, absent section names). ``fields`` may carry
    full nodal arrays (residual field, eigenvector) that are too large for
    the JSON report.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    emitted: list[str] = []
    absent: list[str] = []
    fields = fields or {}
    for stem, table in _TABLES.items():
        made = table(results, grid, fields)
        if made is None:
            absent.append(stem)
            continue
        header, rows = made
        with open(outdir / f"{stem}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        emitted.append(f"{stem}.csv")
    return emitted, absent
