"""Command-line entry point orchestrating all experiments from config files.

Exit codes: 0 when every asserted invariant held, 1 when a mathematical
assertion failed (a contradiction between a criterion and the stability
index, a chain violation inside its hypotheses, a uniqueness violation),
2 for operational failures (bad input, solver or eigen-solve
non-convergence). A report is written whenever the output directory is
usable.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .area import codim1_residual, fd_gradient_check, minimal_system_residual
from .chains import counterexample_search, run_dd_campaign, run_rank_campaign
from .config import MapSpec, RunConfig, load_config, parse_config
from .criteria import criteria_report
from .errors import ConfigError, ContradictionDetected
from .families import (
    affine_map,
    holomorphic_power_map,
    random_interior_values,
    random_smooth_map,
)
from .grid import GridMap, build_grid, jacobian, singular_spectrum
from .homotopy import (
    DD_TOL,
    area_profile,
    jacobi_norm_convexity,
    linear_homotopy,
    uniqueness_experiment,
)
from .report import emit_plot_data, sha256_file, to_jsonable, write_report
from .serialize import save_map
from .solver import _KeptFactor, harmonic_extension, solve_dirichlet
from .variation import SecondVariationForm, VariationField, first_variation, stability_index

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_OPERATIONAL = 2


def _sample_endpoint(spec: MapSpec, grid, cfg: RunConfig, rng) -> GridMap:
    f = spec.sample(grid)
    if spec.solve:
        outcome = solve_dirichlet(f, cfg=cfg.solver)
        if not outcome.converged:
            raise RuntimeError(f"endpoint solve did not converge ({outcome.status})")
        f = outcome.solution
    if spec.bump_amplitude:
        bump = random_interior_values(grid, f.m, rng, amplitude=spec.bump_amplitude)
        f = GridMap(grid=grid, values=f.values + bump)
    return f


def _stability(f: GridMap, cfg: RunConfig, failures: list, where: str = "", kept=None):
    """Stability index of f, not judging minimality; an undetermined verdict is a failure."""
    st = stability_index(f, cfg.stability, warn=False, kept=kept)
    if st.verdict == "undetermined":
        detail = f"in {st.iterations} iterations (residual {st.eigen_residual:.3e})"
        reason = "eigenvalue count not certified" if st.converged else f"eigen-solve did not converge {detail}"
        failures.append(f"{where}{reason}; stability undetermined")
    return st


def _analysis_sections(f: GridMap, cfg: RunConfig, results: dict, failures: list, fields: dict, kept=None):
    spectrum = singular_spectrum(jacobian(f))
    results["spectrum"] = {
        "sup_lambda_max": spectrum.sup_lambda_max("interior"),
        "sup_lambda_max_closure": spectrum.sup_lambda_max("closure"),
        "sup_two_jacobian": spectrum.sup_two_jacobian("interior"),
        "sup_two_jacobian_closure": spectrum.sup_two_jacobian("closure"),
    }
    area = minimal_system_residual(f)
    results["area"] = area.summary()
    fields["residual"] = area.residual
    stability = None
    if cfg.stability.enabled:
        stability = _stability(f, cfg, failures, kept=kept)
        results["stability"] = stability.summary()
        fields["eigenvector"] = stability.eigenvector
    verdict = criteria_report(
        f,
        S=spectrum,
        stability=stability,
        tol=cfg.criteria.tol,
        rank_tol=cfg.criteria.rank_tol,
        minimal_tol=cfg.criteria.minimal_tol,
        area=area,
    )
    results["criteria"] = verdict.summary()
    return verdict


def _cmd_solve(cfg: RunConfig, results: dict, failures: list, fields: dict, timings: dict) -> int:
    grid = cfg.grid.build()
    boundary = cfg.boundary.sample(grid)
    kept = _KeptFactor()  # Newton's last factorization, which the stability check may iterate on
    outcome = solve_dirichlet(boundary, cfg=cfg.solver, kept=kept)
    results["solve"] = outcome.summary()
    fields["solution"] = outcome.solution
    if not outcome.converged:
        failures.append(f"solver did not converge: {outcome.status}")
        return EXIT_OPERATIONAL
    _analysis_sections(outcome.solution, cfg, results, failures, fields, kept)
    return EXIT_OPERATIONAL if failures else EXIT_OK


def _cmd_analyze(cfg: RunConfig, results: dict, failures: list, fields: dict, timings: dict) -> int:
    grid = cfg.grid.build()
    f = cfg.boundary.sample(grid)
    fields["solution"] = f
    _analysis_sections(f, cfg, results, failures, fields)
    return EXIT_OPERATIONAL if failures else EXIT_OK


def _cmd_homotopy(cfg: RunConfig, results: dict, failures: list, fields: dict, timings: dict) -> int:
    grid = cfg.grid.build()
    rng = np.random.default_rng(cfg.seed)
    f0 = _sample_endpoint(cfg.homotopy.f0, grid, cfg, rng)
    f1 = _sample_endpoint(cfg.homotopy.f1, grid, cfg, rng)
    homotopy = linear_homotopy(f0, f1, cfg.homotopy.t_count)
    profile = area_profile(homotopy)
    results["profile"] = profile.summary()
    results["jacobi"] = jacobi_norm_convexity(homotopy).summary()
    if not profile.dd_envelope_ok:
        failures.append("operator-norm envelope violated along the homotopy")
    dd_path = max(profile.sup_lambda_max_path) <= 1.0 + DD_TOL
    if dd_path and not profile.convexity_ok:
        failures.append("area profile convexity violated on a distance-decreasing path")
    unconverged = []
    if cfg.homotopy.uniqueness_inits:
        report = uniqueness_experiment(
            f0,
            init_count=cfg.homotopy.uniqueness_inits,
            cfg=cfg.solver,
            seed=cfg.seed,
            uniq_tol=cfg.homotopy.uniq_tol,
        )
        results["uniqueness"] = report.summary()
        if not report.unique_in_dd_class:
            failures.append("distinct distance-decreasing solutions found for one boundary")
        unconverged = [
            f"uniqueness init {i}: solver did not converge: {o.status}"
            for i, o in enumerate(report.outcomes)
            if not o.converged
        ]
    code = EXIT_ASSERTION if failures else EXIT_OPERATIONAL if unconverged else EXIT_OK
    failures += unconverged
    return code


def _cmd_sweep(cfg: RunConfig, results: dict, failures: list, fields: dict, timings: dict) -> int:
    """Solve along the amplitudes in order; each step's stability check may iterate on its Newton factorization.

    A step after a converged one starts from the harmonic extension of its boundary plus
    the last solution's departure from the harmonic extension of its own, which is exactly
    0 on the boundary; a step after a failed one starts from the harmonic extension alone.
    """
    grid = cfg.grid.build()
    base = cfg.sweep.base.sample(grid)
    steps, correction = [], None
    for s in cfg.sweep.amplitudes:
        harmonic = harmonic_extension(GridMap(grid=grid, values=s * base.values))
        start = harmonic if correction is None else harmonic.with_interior_values(harmonic.values + correction)
        kept = _KeptFactor()  # this step's Newton factorization, released when the next step makes its own
        outcome = solve_dirichlet(harmonic, init=start, cfg=cfg.solver, kept=kept)
        step = {"amplitude": s, **outcome.summary()}
        step.pop("area_history")
        if not outcome.converged:
            failures.append(f"amplitude {s}: solver did not converge: {outcome.status}")
            correction = None
        else:
            correction = outcome.solution.values - harmonic.values
            spectrum = singular_spectrum(jacobian(outcome.solution))
            step["sup_lambda_max"] = spectrum.sup_lambda_max("interior")
            step["sup_two_jacobian"] = spectrum.sup_two_jacobian("interior")
            if cfg.sweep.stability:
                st = _stability(outcome.solution, cfg, failures, where=f"amplitude {s}: ", kept=kept)
                step["min_eigenvalue"] = st.min_eigenvalue
                step["stability_verdict"] = st.verdict
        steps.append(step)
    first_failure = next((step["amplitude"] for step in steps if not step["converged"]), None)
    results["sweep"] = {"steps": steps, "first_failure": first_failure}
    return EXIT_OPERATIONAL if failures else EXIT_OK


PR_SET_PDEATHSIG = 1  # prctl option: the signal a process gets when its parent dies


def _die_with(parent: int):
    """Pool initializer: the worker is killed when ``parent`` dies, so a killed command leaves no worker."""
    import ctypes
    import signal

    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it died before the call
        os._exit(1)


@contextlib.contextmanager
def _chunk_map(timings: dict):
    """A ``map`` for the campaigns' chunks: a process pool's, one worker per usable CPU, or the builtin.

    The pool (Linux only) is fork-started, since a spawned or forkserver worker would
    import numpy and minsurf again; the executor forks every worker at its first task,
    before it starts a thread of its own. It is shut down, its workers joined, when the
    block ends. The number of processes that score chunks goes to ``timings["oracle_workers"]``.
    """
    workers = len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1
    timings["oracle_workers"] = workers
    if workers == 1:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, get_context("fork"), initializer=_die_with, initargs=(os.getpid(),))
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_oracle(cfg: RunConfig, results: dict, failures: list, fields: dict, timings: dict) -> int:
    """Campaigns, their chunks scored through ``_chunk_map``, then the searches.

    Each campaign and search is called here, by the name this module imports it under,
    so a wrapper put on that name sees every call; only chunks go to the pool.
    """
    spec = cfg.oracle
    campaigns = []
    # one seed per campaign and search, in run order
    count = len(spec.dd_ns) + len(spec.rank_nps) + len(spec.searches)
    child = iter(np.random.SeedSequence(cfg.seed).generate_state(count).tolist())
    with _chunk_map(timings) as chunk_map:
        for n in spec.dd_ns:
            rep = run_dd_campaign(
                n, spec.samples, seed=next(child), lam_high=spec.lambda_high, tol=spec.tol, map=chunk_map
            )
            campaigns.append(rep.summary())
            if not rep.passed:
                failures.append(f"distance-decreasing chain violated inside hypotheses at n={n}")
        for n, p in spec.rank_nps:
            rep = run_rank_campaign(n, p, spec.samples, seed=next(child), tol=spec.tol, map=chunk_map)
            campaigns.append(rep.summary())
            if not rep.passed:
                failures.append(f"rank chain violated inside hypotheses at n={n}, p={p}")
    results["campaigns"] = campaigns
    searches = []
    for search in spec.searches:
        report = counterexample_search(search, search.budget, seed=next(child), tol=spec.tol)
        searches.append(report.summary())
        if search.in_hypothesis and report.found:
            failures.append(
                f"counterexample found inside hypotheses ({search.chain}, n={search.n})"
            )
    results["searches"] = searches
    return EXIT_ASSERTION if failures else EXIT_OK


def _cmd_validate(cfg: RunConfig, results: dict, failures: list, fields: dict, timings: dict) -> int:
    """Built-in verification suite at small sizes."""
    spec = cfg.validate
    rng = np.random.default_rng(cfg.seed)
    checks = []

    def check(name, value, threshold, larger_is_bad=True):
        passed = value <= threshold if larger_is_bad else value >= threshold
        checks.append(
            {
                "name": name,
                "passed": bool(passed),
                "value": float(value),
                "threshold": float(threshold),
            }
        )
        if not passed:
            failures.append(f"validate check failed: {name}")

    n = len(spec.counts)
    grid = build_grid(n, [(0.0, 1.0)] * n, spec.counts)
    matrix = rng.standard_normal((2, n))
    affine = affine_map(grid, matrix, rng.standard_normal(2))

    check("affine_residual_sup", minimal_system_residual(affine).residual_sup_norm, 1e-12)

    outcome = solve_dirichlet(affine, cfg=cfg.solver)
    iters = float(outcome.iterations) if outcome.converged else float("inf")
    check("solve_affine_iterations", iters, 0.0)

    smooth = random_smooth_map(grid, 2, rng, amplitude=0.4)
    worst = 0.0
    for step in (1e-3, 1e-4, 1e-5, 1e-6):
        worst = fd_gradient_check(smooth, trials=spec.trials, step=step, rng=rng)
        if worst <= 1e-6:
            break
    check("adjointness_fd_min_rel", worst, 1e-6)

    V = VariationField(grid=grid, values=random_interior_values(grid, 2, rng))
    fv = first_variation(smooth, V)
    rep = minimal_system_residual(smooth)
    pair = -float(np.sum(grid.quadrature_weights[..., None] * rep.residual * V.values))
    check("pairing_identity_rel", abs(fv - pair) / max(abs(fv), abs(pair), 1e-30), 1e-10)

    worst = 0.0
    for _ in range(5):
        f1 = random_smooth_map(grid, 1, rng, amplitude=0.6)
        r1 = minimal_system_residual(f1)
        r2 = codim1_residual(f1)
        scale = max(r1.residual_sup_norm, r2.residual_sup_norm, 1e-30)
        worst = max(worst, float(np.abs(r1.residual - r2.residual).max()) / scale)
    check("codim1_equivalence_rel", worst, 1e-10)

    form = SecondVariationForm(smooth, warn=False)
    W = VariationField(grid=grid, values=random_interior_values(grid, 2, rng))
    s1 = form.weighted_inner(W, form.apply(V))
    s2 = form.weighted_inner(V, form.apply(W))
    check("hessian_symmetry_rel", abs(s1 - s2) / max(abs(s1), abs(s2), 1e-30), 1e-10)

    dd = run_dd_campaign(2, spec.oracle_samples, seed=cfg.seed)
    check("chain_identity_E2_E3", dd.identity_max_defect, 1e-12)
    check("chain_E1_minus_E2_min", dd.worst_margins["min_E1_minus_E2"], -1e-12, larger_is_bad=False)
    check("chain_E3_min", dd.worst_margins["min_E3"], -1e-12, larger_is_bad=False)
    rank = run_rank_campaign(3, 2, spec.oracle_samples, seed=cfg.seed + 1)
    check("rank_chain_identity_F0_split", rank.identity_max_defect, 1e-12)
    check(
        "rank_chain_min_margin",
        min(rank.worst_margins.values()),
        -1e-12,
        larger_is_bad=False,
    )

    # the flat map's theta is the smallest Dirichlet eigenvalue of the discrete
    # Laplacian, known exactly on every grid
    st = stability_index(GridMap.constant(grid, [0.0]), cfg.stability, warn=False)
    target = sum(
        (2.0 - 2.0 * np.cos(np.pi / (N - 1))) / h**2 for N, h in zip(grid.counts, grid.spacings)
    )
    check("flat_eigenvalue_rel_err", abs(st.min_eigenvalue - target) / target, 1e-8)

    if n == 2:
        # residual-vs-h and eigenvalue-vs-h tables for plotting
        residual_rows = []
        eigen_rows = []
        for N in (9, 17, 33):
            gN = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], (N, N))
            sup = minimal_system_residual(holomorphic_power_map(gN, 0.3, 3)).residual_sup_norm
            residual_rows.append({"nodes_per_axis": N, "h": gN.spacings[0], "value": sup})
            stN = stability_index(GridMap.constant(gN, [0.0]), cfg.stability, warn=False)
            eigen_rows.append(
                {"nodes_per_axis": N, "h": gN.spacings[0], "value": stN.min_eigenvalue}
            )
        results["convergence"] = {"residual_sup": residual_rows, "flat_eigenvalue": eigen_rows}
        order = np.log2(residual_rows[-2]["value"] / residual_rows[-1]["value"])
        check("residual_refinement_order", abs(order - 2.0), 0.3)

    results["checks"] = checks
    results["passed"] = not failures
    return EXIT_ASSERTION if failures else EXIT_OK


_HANDLERS = {
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "homotopy": _cmd_homotopy,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "validate": _cmd_validate,
}


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Execute a parsed config; returns (exit code, report dict)."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    results: dict = {}
    failures: list[str] = []
    fields: dict = {}
    timings: dict = {}
    started = time.perf_counter()
    exit_code = EXIT_OK
    try:
        exit_code = _HANDLERS[cfg.command](cfg, results, failures, fields, timings)
    except ContradictionDetected as exc:
        failures.append(str(exc))
        exit_code = EXIT_ASSERTION
    except (ConfigError, FileNotFoundError, ValueError, RuntimeError) as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
        exit_code = EXIT_OPERATIONAL
    timings["command_seconds"] = time.perf_counter() - started

    grid = None
    if cfg.grid is not None:
        grid = cfg.grid.build()
    emitted, absent = emit_plot_data(results, outdir, grid=grid, fields=fields)
    if "solution" in fields:
        save_map(fields["solution"], outdir / "solution.json")
        emitted.append("solution.json")
    if "eigenvector" in fields:
        save_map(
            GridMap(grid=fields["eigenvector"].grid, values=fields["eigenvector"].values),
            outdir / "eigenvector.json",
        )
        emitted.append("eigenvector.json")

    manifest = {name: sha256_file(outdir / name) for name in sorted(emitted)}
    report = {
        "command": cfg.command,
        "seed": cfg.seed,
        "config": to_jsonable(cfg.raw),
        "results": results,
        "assertion_failures": failures,
        "artifacts": {"files": manifest, "absent": sorted(absent)},
        "exit_code": exit_code,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "timings": timings,
    }
    write_report(report, outdir / "report.json")
    return exit_code, report


DEFAULT_VALIDATE = {"command": "validate", "seed": 0, "output_dir": "runs/validate"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minsurf",
        description="Minimal-graph laboratory: Dirichlet solves, stability, inequality campaigns",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run_p = sub.add_parser("run", help="execute a config file")
    run_p.add_argument("config", help="path to a YAML or JSON run config")
    val_p = sub.add_parser("validate", help="run the built-in verification suite")
    for p in (run_p, val_p):
        p.add_argument("--output-dir", default=None, help="override the report directory")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
    args = parser.parse_args(argv)

    overrides = {"output_dir": args.output_dir, "seed": args.seed}
    try:
        if args.subcommand == "run":
            cfg = load_config(args.config, overrides)
        else:
            cfg = parse_config(dict(DEFAULT_VALIDATE), overrides)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL

    code, report = run(cfg)
    summary = {
        "command": cfg.command,
        "exit_code": code,
        "report": str(Path(cfg.output_dir) / "report.json"),
    }
    if report["assertion_failures"]:
        summary["failures"] = report["assertion_failures"]
    print(json.dumps(to_jsonable(summary), sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
