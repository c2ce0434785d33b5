"""Child-process entry points of the benchmark.

    python child.py setup CONFIG T0
        Imports the CLI and parses CONFIG the way ``minsurf run`` does, then
        prints one JSON line ``{"setup_s": ..., "module": ...}``. T0 is the
        parent's ``time.monotonic()`` just before the spawn; the monotonic
        clock is shared by all processes of the machine.
    python child.py trace CONFIG SPANS RUN_ID
        Runs ``minsurf run CONFIG`` with a span recorded around every call
        into a layer (see HOOKS), writes the spans to SPANS as JSON and exits
        with the CLI's exit code.

Hooks are installed from the outside: each public function is replaced,
under the name through which its caller looks it up, by a wrapper that
records a span. Nothing in the program is edited. A hook whose target no
longer exists is listed as absent in SPANS and the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


# Attributes read after a span has ended, from the call's result and its
# first argument: iteration counts come from the public outcome objects.
def _solve_attrs(out, first):
    return {
        "newton_iters": out.iterations,
        "fallback_iters": out.fallback_iterations,
        "accepted_steps": len(out.area_history) - 1,
    }


def _stability_attrs(out, first):
    return {"eigen_iters": out.iterations}


def _campaign_attrs(out, first):
    return {"samples": out.samples}


def _search_attrs(out, first):
    return {"evals": out.samples_evaluated}


def _spsolve_attrs(out, matrix):
    return {"nnz": int(matrix.nnz)}


def _splu_attrs(out, matrix):
    return {"fill_nnz": int(out.L.nnz + out.U.nnz)}


# (span name, module, attribute looked up by the caller, attributes)
HOOKS = (
    ("cli.config", "minsurf.cli", "load_config", None),
    ("cli.emit", "minsurf.cli", "emit_plot_data", None),
    ("cli.emit", "minsurf.cli", "save_map", None),
    ("cli.emit", "minsurf.cli", "write_report", None),
    ("area.residual", "minsurf.cli", "minimal_system_residual", None),
    ("area.residual", "minsurf.solver", "minimal_system_residual", None),
    ("area.residual", "minsurf.variation", "minimal_system_residual", None),
    ("area.residual", "minsurf.criteria", "minimal_system_residual", None),
    ("area.area", "minsurf.solver", "discrete_area", None),
    ("area.area", "minsurf.homotopy", "discrete_area", None),
    ("grid.spectrum", "minsurf.cli", "singular_spectrum", None),
    ("grid.spectrum", "minsurf.homotopy", "singular_spectrum", None),
    ("grid.spectrum", "minsurf.criteria", "singular_spectrum", None),
    ("solver.solve", "minsurf.cli", "solve_dirichlet", _solve_attrs),
    ("solver.solve", "minsurf.homotopy", "solve_dirichlet", _solve_attrs),
    ("solver.harmonic", "minsurf.solver", "harmonic_extension", None),
    ("solver.harmonic", "minsurf.homotopy", "harmonic_extension", None),
    ("solver.newton_assembly", "minsurf.solver", "colored_stencil_matrix", None),
    ("scipy.spsolve", "scipy.sparse.linalg", "spsolve", _spsolve_attrs),
    ("variation.stability", "minsurf.cli", "stability_index", _stability_attrs),
    ("variation.hessian_assembly", "minsurf.variation", "colored_stencil_matrix", None),
    ("scipy.splu", "scipy.sparse.linalg", "splu", _splu_attrs),
    ("criteria.report", "minsurf.cli", "criteria_report", None),
    ("homotopy.profile", "minsurf.cli", "area_profile", None),
    ("homotopy.jacobi", "minsurf.cli", "jacobi_norm_convexity", None),
    ("homotopy.uniqueness", "minsurf.cli", "uniqueness_experiment", None),
    ("chains.campaign", "minsurf.cli", "run_dd_campaign", _campaign_attrs),
    ("chains.campaign", "minsurf.cli", "run_rank_campaign", _campaign_attrs),
    ("chains.search", "minsurf.cli", "counterexample_search", _search_attrs),
)


class SpanRecorder:
    """Spans kept in memory: name, start, end, parent index, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                try:
                    span.update(attrs(out, args[0] if args else None))
                except AttributeError as exc:
                    span["attrs_error"] = str(exc)
            return out

        return traced


def install(recorder: SpanRecorder, hooks=HOOKS) -> list[str]:
    """Wrap every hook target; returns the targets that do not exist."""
    absent = []
    for name, module, attr, attrs in hooks:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            absent.append(f"{module}.{attr}")
            continue
        target = getattr(mod, attr, None)
        if not callable(target):
            absent.append(f"{module}.{attr}")
            continue
        setattr(mod, attr, recorder.wrap(name, target, attrs))
    return absent


def _setup(config: str, t0: float) -> int:
    import minsurf.cli

    minsurf.cli.load_config(config)
    elapsed = time.monotonic() - t0
    print(json.dumps({"setup_s": elapsed, "module": minsurf.cli.__file__}))
    return 0


def _trace(config: str, spans_path: str, run_id: str) -> int:
    import minsurf.cli

    recorder = SpanRecorder(run_id)
    absent = install(recorder)
    main = recorder.wrap("cli.main", minsurf.cli.main)
    try:
        code = main(["run", config])
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"run": run_id, "absent_hooks": absent, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(_setup(rest[0], float(rest[1])))
    if mode == "trace":
        sys.exit(_trace(*rest))
    sys.exit(f"unknown mode {mode!r}")
