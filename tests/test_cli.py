import functools
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import minsurf.chains
import minsurf.cli
from minsurf import ConfigError, NotMinimalWarning, build_grid, save_map
from minsurf.cli import main, run
from minsurf.config import load_config, parse_config
from minsurf.families import holomorphic_power_map
from minsurf.report import sha256_file


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


BASE_SOLVE = {
    "command": "solve",
    "seed": 3,
    "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [17, 17]},
    "boundary": {"family": "holomorphic_power", "amplitude": 0.3, "power": 3},
}


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({**BASE_SOLVE, "grids": {}})


def test_unknown_nested_key_rejected_with_path():
    doc = {**BASE_SOLVE, "boundary": {"family": "affine", "matrx": [[1, 0]]}}
    with pytest.raises(ConfigError, match="boundary.matrx"):
        parse_config(doc)


def test_unknown_command_rejected():
    with pytest.raises(ConfigError, match="command"):
        parse_config({"command": "fly"})


def test_missing_required_section_rejected():
    with pytest.raises(ConfigError, match="boundary"):
        parse_config({"command": "solve", "grid": BASE_SOLVE["grid"]})


def test_solve_command_end_to_end(tmp_path):
    cfg = parse_config({**BASE_SOLVE, "output_dir": str(tmp_path / "out")})
    code, report = run(cfg)
    assert code == 0
    assert report["results"]["solve"]["converged"]
    assert report["results"]["criteria"]["dd_verdict"] == "strict"
    files = report["artifacts"]["files"]
    for name, digest in files.items():
        assert sha256_file(tmp_path / "out" / name) == digest
    assert "solution.json" in files
    assert (tmp_path / "out" / "report.json").exists()


def test_solve_nonconvergence_exit_2(tmp_path):
    doc = {
        **BASE_SOLVE,
        "output_dir": str(tmp_path / "out"),
        "solver": {"max_newton_iters": 1, "max_fallback_iters": 1, "tol_residual_sup": 1e-14},
        "stability": {"enabled": False},
    }
    code, report = run(parse_config(doc))
    if code != 0:  # the tiny caps are expected to bite
        assert code == 2
        assert report["assertion_failures"]


def test_solve_converged_on_the_last_allowed_step_exit_0(tmp_path):
    grid = {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [5, 5]}
    boundary = {"family": "holomorphic_power", "amplitude": 0.4, "power": 3}
    caps = {"max_newton_iters": 1, "max_fallback_iters": 1}
    doc = {**BASE_SOLVE, "grid": grid, "boundary": boundary, "output_dir": str(tmp_path / "capped")}
    _, capped = run(parse_config({**doc, "solver": {**caps, "tol_residual_sup": 1e-14}}))
    assert capped["results"]["solve"]["status"] == "max_iterations"
    # a tolerance just above the residual after the last allowed step is met by it
    tol = capped["results"]["solve"]["residual_sup_norm"] * (1 + 1e-6)
    doc = {**doc, "output_dir": str(tmp_path / "out"), "solver": {**caps, "tol_residual_sup": tol}}
    code, report = run(parse_config(doc))
    assert (report["results"]["solve"]["converged"], report["results"]["solve"]["status"]) == (True, "converged")
    assert (code, report["assertion_failures"]) == (0, [])


def test_unconverged_eigen_solve_exit_2(tmp_path):
    doc = {
        **BASE_SOLVE,
        "output_dir": str(tmp_path / "out"),
        "stability": {"max_iters": 1},
    }
    code, report = run(parse_config(doc))
    assert code == 2
    assert report["results"]["solve"]["converged"]
    assert report["results"]["stability"]["verdict"] == "undetermined"
    assert any("eigen-solve did not converge" in msg for msg in report["assertion_failures"])


def test_analyze_custom_map(tmp_path, rng):
    g = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], (9, 9))
    f = holomorphic_power_map(g, 0.2, 2)
    map_path = tmp_path / "input.json"
    save_map(f, map_path)
    doc = {
        "command": "analyze",
        "output_dir": str(tmp_path / "out"),
        "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [9, 9]},
        "boundary": {"family": "custom", "path": str(map_path)},
        "stability": {"enabled": False},
    }
    code, report = run(parse_config(doc))
    assert code == 0
    assert report["results"]["spectrum"]["sup_lambda_max"] > 0
    assert "residual_field.csv" in report["artifacts"]["files"]


def test_oracle_out_of_hypothesis_witnesses_are_findings(tmp_path):
    doc = {
        "command": "oracle",
        "seed": 12,
        "output_dir": str(tmp_path / "out"),
        "oracle": {
            "samples": 5000,
            "n_values": [2],
            "p_values": [2],
            "searches": [
                {"chain": "distance_decreasing", "n": 2, "lam_high": 2.0, "budget": 4000}
            ],
        },
    }
    code, report = run(parse_config(doc))
    assert code == 0  # witnesses outside hypotheses are findings, not failures
    search = report["results"]["searches"][0]
    assert search["found"]
    assert search["best_values"]["E3"] < 0
    assert "oracle_violations.csv" in report["artifacts"]["files"]


def test_oracle_in_hypothesis_campaigns_pass(tmp_path):
    doc = {
        "command": "oracle",
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
        "oracle": {"samples": 10_000, "n_values": [2, 3], "p_values": [2]},
    }
    code, report = run(parse_config(doc))
    assert code == 0
    assert all(c["passed"] for c in report["results"]["campaigns"])


# the campaigns and searches of the benchmark's oracle workload, at reduced size
_ORACLE_SET = {
    "samples": 60_000,
    "n_values": [2, 3, 4],
    "p_values": [2, 3],
    "searches": [
        {"chain": "distance_decreasing", "n": 2, "lam_high": 2.0, "budget": 20_000},
        {"chain": "rank", "n": 3, "p": 2, "lam_high": 1.5, "cap_products": False, "budget": 20_000},
        {"chain": "distance_decreasing", "n": 3, "lam_high": 1.0, "budget": 20_000},
    ],
}


@pytest.mark.parametrize("seed", [29000, 71000, 5])
def test_oracle_workload_outcomes(tmp_path, seed):
    doc = {"command": "oracle", "seed": seed, "output_dir": str(tmp_path / "out"), "oracle": _ORACLE_SET}
    code, report = run(parse_config(doc))
    assert code == 0, report["assertion_failures"]
    campaigns = report["results"]["campaigns"]
    assert len(campaigns) == 3 + 5 and all(c["passed"] for c in campaigns)
    dd_witness, rank_witness, dd_inside = report["results"]["searches"]
    # the analytic witness: E3 = -3/5 at scale 2
    assert dd_witness["found"] and abs(dd_witness["best_margin"] + 0.3) <= 1e-9
    assert rank_witness["found"]
    assert not dd_inside["found"]


def _oracle_run(tmp_path, name, cpus, monkeypatch):
    """The reduced oracle config, run as if this process may use ``cpus``: a pool when there are two or more."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    out = tmp_path / name
    code, report = run(parse_config({"command": "oracle", "seed": 29000, "output_dir": str(out), "oracle": _ORACLE_SET}))
    assert multiprocessing.active_children() == []
    assert report["timings"]["oracle_workers"] == len(cpus)
    return code, report, out


def test_pool_and_serial_oracle_runs_write_the_same_bytes(tmp_path, monkeypatch):
    docs, tables = [], []
    for name, cpus in (("pool", {0, 1}), ("serial", {0})):
        code, _, out = _oracle_run(tmp_path, name, cpus, monkeypatch)
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        for volatile in ("timestamp", "timings"):
            doc.pop(volatile)
        doc["config"].pop("output_dir")
        docs.append(doc)
        tables.append((out / "oracle_violations.csv").read_bytes())
    assert docs[0] == docs[1]
    assert tables[0] == tables[1]
    assert docs[0]["results"]["searches"][0]["found"]  # the table holds a witness


def test_a_dead_worker_ends_the_oracle_run(tmp_path, monkeypatch):
    # forked workers inherit the patch; the parent never scores a chunk itself
    monkeypatch.setattr(minsurf.chains, "_columns", lambda *args: os._exit(3))
    code, report, out = _oracle_run(tmp_path, "out", {0, 1}, monkeypatch)
    assert code == 2
    assert len(report["assertion_failures"]) == 1 and "BrokenProcessPool" in report["assertion_failures"][0]
    assert json.loads((out / "report.json").read_text())["exit_code"] == 2


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["pool", "serial"])
def test_a_failing_chunk_ends_the_oracle_run(tmp_path, monkeypatch, cpus):
    def fail(*args):
        raise ValueError("no chunk scored")

    monkeypatch.setattr(minsurf.chains, "_columns", fail)
    code, report, _ = _oracle_run(tmp_path, "out", cpus, monkeypatch)
    assert code == 2
    assert report["assertion_failures"] == ["ValueError: no chunk scored"]


def _alive(pid):
    """Whether process ``pid`` exists and is not a zombie, read from /proc."""
    try:
        return (Path("/proc") / str(pid) / "stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _children(pid):
    """The live processes whose parent is ``pid``."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            kids.append(int(stat.parent.name))
    return kids


def _poll(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the oracle opens a pool only on two or more CPUs")
def test_a_killed_oracle_command_leaves_no_worker(tmp_path):
    # campaigns long enough to be killed while the pool is open
    oracle = {"samples": 4_000_000, "n_values": [4], "p_values": [2], "searches": []}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"command": "oracle", "output_dir": str(tmp_path / "out"), "oracle": oracle}))
    env = {**os.environ, "PYTHONPATH": str(Path(minsurf.__file__).resolve().parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "minsurf.cli", "run", str(path)], env=env)
    try:
        assert _poll(lambda: len(_children(proc.pid)) == len(os.sched_getaffinity(0)))
        workers = _children(proc.pid)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert _poll(lambda: not any(_alive(pid) for pid in workers))


def test_benchmark_hooks_on_the_oracle_run_in_this_process(tmp_path, monkeypatch):
    # wrapped as perfbench/child.py's SpanRecorder.wrap does: such a closure does not pickle
    calls = {}

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls.setdefault(name, []).append(os.getpid())
            return fn(*args, **kwargs)

        return traced

    for name in ("run_dd_campaign", "run_rank_campaign", "counterexample_search"):
        monkeypatch.setattr(minsurf.cli, name, wrap(name, getattr(minsurf.cli, name)))
    code, report, _ = _oracle_run(tmp_path, "out", {0, 1}, monkeypatch)
    assert code == 0, report["assertion_failures"]
    assert calls == {
        "run_dd_campaign": [os.getpid()] * 3,
        "run_rank_campaign": [os.getpid()] * 5,
        "counterexample_search": [os.getpid()] * 3,
    }


def test_homotopy_command_emits_profile_csv(tmp_path):
    doc = {
        "command": "homotopy",
        "seed": 2,
        "output_dir": str(tmp_path / "out"),
        "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [13, 13]},
        "homotopy": {
            "t_count": 9,
            "f0": {"family": "holomorphic_power", "amplitude": 0.2, "power": 2, "solve": True},
            "f1": {
                "family": "holomorphic_power",
                "amplitude": 0.2,
                "power": 2,
                "bump_amplitude": 0.05,
            },
        },
    }
    code, report = run(parse_config(doc))
    assert code == 0
    csv_path = tmp_path / "out" / "homotopy_profile.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,area,d2area,sup_lambda_max"


def test_sweep_command_reports_steps(tmp_path):
    doc = {
        "command": "sweep",
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
        "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [13, 13]},
        "sweep": {
            "family": "holomorphic_power",
            "amplitude": 1.0,
            "power": 2,
            "s_values": [0.1, 0.3],
        },
    }
    code, report = run(parse_config(doc))
    assert code == 0
    steps = report["results"]["sweep"]["steps"]
    assert len(steps) == 2
    assert steps[0]["sup_lambda_max"] < steps[1]["sup_lambda_max"]
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_unconverged_eigen_solve_exit_2(tmp_path):
    doc = {
        "command": "sweep",
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
        "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [13, 13]},
        "sweep": {
            "family": "holomorphic_power",
            "amplitude": 1.0,
            "power": 2,
            "s_values": [0.3],
            "stability": True,
        },
        "stability": {"max_iters": 1},
    }
    code, report = run(parse_config(doc))
    assert code == 2
    assert report["results"]["sweep"]["steps"][0]["stability_verdict"] == "undetermined"
    assert report["assertion_failures"]


def test_cli_main_validate_and_exit_codes(tmp_path, capsys):
    code = main(["validate", "--output-dir", str(tmp_path / "v"), "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip())["exit_code"] == 0
    conv = (tmp_path / "v" / "convergence.csv").read_text().splitlines()
    assert conv[0] == "kind,nodes_per_axis,h,value"
    assert any(line.startswith("residual_sup") for line in conv[1:])
    assert any(line.startswith("flat_eigenvalue") for line in conv[1:])


def test_cli_main_bad_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"command": "solve", "grid": {"wrong": 1}})
    code = main(["run", str(path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_report_embeds_resolved_config(tmp_path):
    doc = {**BASE_SOLVE, "output_dir": str(tmp_path / "out")}
    code, report = run(parse_config(doc))
    assert report["config"]["boundary"] == doc["boundary"]
    assert report["config"]["seed"] == doc["seed"]


def test_absent_sections_noted_in_manifest(tmp_path):
    doc = {**BASE_SOLVE, "output_dir": str(tmp_path / "out")}
    _, report = run(parse_config(doc))
    assert "homotopy_profile" in report["artifacts"]["absent"]
    assert "sweep" in report["artifacts"]["absent"]


def test_analysis_computes_one_residual_per_map(tmp_path, monkeypatch):
    import minsurf.area
    import minsurf.cli as cli_module
    import minsurf.criteria
    import minsurf.variation

    calls = []
    original = minsurf.area.minimal_system_residual

    def counting(f):
        calls.append(f)
        return original(f)

    for module in (minsurf.area, cli_module, minsurf.criteria, minsurf.variation):
        monkeypatch.setattr(module, "minimal_system_residual", counting)
    cfg = parse_config({**BASE_SOLVE, "output_dir": str(tmp_path / "out")})
    assert cfg.stability.enabled
    f = holomorphic_power_map(cfg.grid.build(), 0.3, 3)
    results, failures, fields = {}, [], {}
    cli_module._analysis_sections(f, cfg, results, failures, fields)
    assert "stability" in results and "criteria" in results
    assert len(calls) == 1


def test_sweep_unconverged_solve_exit_2(tmp_path):
    doc = {
        "command": "sweep",
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
        "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [13, 13]},
        "sweep": {
            "family": "holomorphic_power",
            "amplitude": 1.0,
            "power": 2,
            "s_values": [0.2, 3.0, 0.4],
        },
        "solver": {"max_newton_iters": 1, "max_fallback_iters": 2},
    }
    code, report = run(parse_config(doc))
    assert code == 2
    sweep = report["results"]["sweep"]
    assert [step["converged"] for step in sweep["steps"]] == [True, False, True]
    assert sweep["first_failure"] == 3.0
    assert any("amplitude 3.0" in msg for msg in report["assertion_failures"])


def _sweep_steps(tmp_path, family, s_values, counts=(17, 17), stability=False):
    n = len(counts)
    doc = {
        "command": "sweep",
        "output_dir": str(tmp_path / "out"),
        "grid": {"extents": [[0.0, 1.0]] * n, "counts": list(counts)},
        "sweep": {**family, "s_values": s_values, "stability": stability},
    }
    code, report = run(parse_config(doc))
    assert code == 0
    assert report["results"]["sweep"]["first_failure"] is None
    return report["results"]["sweep"]["steps"]


def test_sweep_affine_family_converges_at_every_step(tmp_path, rng):
    affine = {"family": "affine", "matrix": rng.standard_normal((2, 2)).tolist()}
    steps = _sweep_steps(tmp_path, affine, [0.0, 0.25, 0.5, 1.0])
    assert all(step["converged"] and step["residual_sup_norm"] <= 1e-10 for step in steps)


def test_sweep_zero_amplitude_is_the_zero_map(tmp_path):
    holomorphic = {"family": "holomorphic_power", "amplitude": 1.0, "power": 3}
    (step,) = _sweep_steps(tmp_path, holomorphic, [0.0])
    assert step["iterations"] == 0 and step["residual_sup_norm"] == 0.0


def test_sweep_holomorphic_stretch_grows_with_amplitude(tmp_path):
    holomorphic = {"family": "holomorphic_power", "amplitude": 1.0, "power": 2}
    steps = _sweep_steps(tmp_path, holomorphic, [0.1, 0.2, 0.3, 0.4, 0.5])
    # stretch grows with the boundary amplitude; recorded, not assumed
    assert np.all(np.diff([step["sup_lambda_max"] for step in steps]) > 0)


def test_sweep_step_starts_from_the_last_correction(tmp_path):
    # the last solution's departure from its harmonic extension, moved onto the new boundary,
    # leaves one Newton factorization per step, within and beyond the corner-convex amplitudes
    holomorphic = {"family": "holomorphic_power", "amplitude": 1.0, "power": 3}
    steps = _sweep_steps(tmp_path, holomorphic, [0.1, 0.3, 0.5, 0.8, 1.2, 2.0])
    assert [step["factorizations"] for step in steps] == [1] * 6


def test_trigonometric_sweep_converges_at_every_step(tmp_path):
    trigonometric = {
        "family": "trigonometric",
        "amplitudes": [1.0, 1.0],
        "wavevectors": [[3.0, 1.0, 0.0], [0.0, 3.0, 1.0]],
    }
    steps = _sweep_steps(tmp_path, trigonometric, [1.0, 2.0, 3.0, 4.0], counts=(9, 9, 9))
    assert all(step["converged"] for step in steps)


def test_sweep_stability_iterates_on_the_step_factorization(tmp_path, monkeypatch):
    import minsurf.assembly

    calls = []
    init = minsurf.assembly.Factorization.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(minsurf.assembly.Factorization, "__init__", counting)
    holomorphic = {"family": "holomorphic_power", "amplitude": 1.0, "power": 3}
    steps = _sweep_steps(tmp_path, holomorphic, [0.1, 0.3, 0.4], counts=(13, 13), stability=True)
    assert [step["stability_verdict"] for step in steps] == ["stable"] * 3
    # one Newton factorization per corner-convex step, which its stability check iterates on
    assert len(calls) == len(steps)


SWEEP_DOC = {
    "command": "sweep",
    "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [9, 9]},
    "sweep": {"family": "holomorphic_power", "amplitude": 1.0, "power": 2, "s_values": [0.1]},
}


@pytest.mark.parametrize(
    "doc, path",
    [
        ({**BASE_SOLVE, "solver": {"line_search_factor": 1.5}}, "solver"),
        ({**BASE_SOLVE, "solver": 5}, "solver"),
        ({"command": "oracle", "oracle": {"p_values": [1]}}, "oracle.p_values[0]: must be >= 2"),
        ({**BASE_SOLVE, "grid": 5}, "grid"),
        ({"command": "oracle", "oracle": {"n_values": ["a"]}}, "oracle.n_values"),
        ({**SWEEP_DOC, "sweep": {**SWEEP_DOC["sweep"], "s_values": ["a"]}}, "sweep.s_values"),
        ({**BASE_SOLVE, "criteria": {"tol": -1e-9}}, "criteria.tol"),
        ({**BASE_SOLVE, "seed": -1}, "seed"),
        (
            {"command": "oracle", "oracle": {"searches": [{"chain": "rank", "n": 3}]}},
            "oracle.searches[0]",
        ),
        (
            {
                "command": "oracle",
                "oracle": {"searches": [{"chain": "distance_decreasing", "n": 2, "lam_low": 2.0}]},
            },
            "oracle.searches[0]",
        ),
        ({**BASE_SOLVE, "grid": {**BASE_SOLVE["grid"], "counts": [2, 5]}}, "grid.counts[0]: must be >= 3"),
        ({**BASE_SOLVE, "grid": {"extents": [[1.0, 0.0], [0.0, 1.0]], "counts": [5, 5]}}, "grid: axis 0"),
        ({**BASE_SOLVE, "grid": {"extents": [[0.0, 1.0], [0.0, float("inf")]], "counts": [5, 5]}}, "grid: axis 1"),
        ({"command": "validate", "validate": {"counts": [2, 2]}}, "validate.counts[0]: must be >= 3"),
        (
            {"command": "oracle", "oracle": {"lambda_high": float("inf")}},
            "oracle.lambda_high: must be finite",
        ),
        ({**BASE_SOLVE, "criteria": {"tol": float("nan")}}, "criteria.tol: must be finite"),
        (
            {
                "command": "oracle",
                "oracle": {
                    "searches": [{"chain": "rank", "n": 3, "p": 2, "lam_high": float("inf")}]
                },
            },
            "oracle.searches[0]: need 0 <= lam_low <= lam_high < inf",
        ),
        ({**BASE_SOLVE, "threads": 2}, "threads: unknown key"),
        (
            {"command": "oracle", "oracle": {"n_values": [2], "p_values": [3], "chains": ["rank"]}},
            "oracle: selects no campaign and no search",
        ),
        ({"command": "oracle", "oracle": {"n_values": []}}, "oracle: selects no campaign and no search"),
    ],
    ids=[
        "line-search-factor",
        "solver-not-mapping",
        "p-values-below-2",
        "grid-not-mapping",
        "n-values-element",
        "s-values-element",
        "criteria-tol-negative",
        "seed-negative",
        "rank-search-without-p",
        "search-lam-low-above-high",
        "grid-counts-below-3",
        "grid-extents-reversed",
        "grid-extents-infinite",
        "validate-counts-below-3",
        "oracle-lambda-high-infinite",
        "criteria-tol-nan",
        "search-lam-high-infinite",
        "threads-key",
        "oracle-no-rank-pair",
        "oracle-no-n-values",
    ],
)
def test_malformed_value_exit_2(tmp_path, capsys, doc, path):
    config = write_config(tmp_path, {**doc, "output_dir": str(tmp_path / "out")})
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}")
    assert not (tmp_path / "out").exists()


def test_threads_flag_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, {**BASE_SOLVE, "output_dir": str(tmp_path / "out")})
    with pytest.raises(SystemExit) as exc:
        main(["run", str(config), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_directory_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_non_utf8_config_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"command: solve\noutput_dir: caf\xe9\n")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_json_config_with_exponent_float_runs(tmp_path):
    grid = {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [5, 5]}
    doc = {**BASE_SOLVE, "grid": grid, "solver": {"tol_residual_sup": 1e-9}, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert "1e-09" in path.read_text()
    assert main(["run", str(path)]) == 0


def test_yaml_exponent_float_parses(tmp_path):
    path = write_config(tmp_path, {**BASE_SOLVE, "solver": {"tol_residual_sup": 1e-9}})
    assert "e-09" in path.read_text()
    assert load_config(path).solver.tol_residual_sup == 1e-9


def test_unparsable_config_reports_its_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"command": "solve",\n  "seed": [3\n')
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config parse error at line")


def test_stability_carries_run_seed():
    cfg = parse_config({**BASE_SOLVE, "seed": 11}, {"seed": 13})
    assert (cfg.stability.seed, cfg.stability.enabled) == (13, True)


def test_homotopy_unconverged_uniqueness_solve_exit_2(tmp_path):
    holo = {"family": "holomorphic_power", "amplitude": 0.3, "power": 3}
    doc = {
        "command": "homotopy",
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [13, 13]},
        "solver": {"max_newton_iters": 1, "max_fallback_iters": 1},
        "homotopy": {
            "f0": holo,
            "f1": {**holo, "bump_amplitude": 0.05},
            "t_count": 9,
            "uniqueness_inits": 4,
        },
    }
    code, report = run(parse_config(doc))
    outcomes = report["results"]["uniqueness"]["outcomes"]
    assert not any(o["converged"] for o in outcomes)
    assert code == 2
    assert report["assertion_failures"] == [
        f"uniqueness init {i}: solver did not converge: {o['status']}"
        for i, o in enumerate(outcomes)
    ]


def test_oracle_runs_more_than_200_campaigns(tmp_path):
    doc = {
        "command": "oracle",
        "output_dir": str(tmp_path / "out"),
        "oracle": {"samples": 1, "n_values": list(range(2, 26)), "p_values": list(range(2, 13))},
    }
    code, report = run(parse_config(doc))
    assert code == 0
    assert len(report["results"]["campaigns"]) == 24 + 209
    assert (tmp_path / "out" / "report.json").exists()


def test_oracle_seeds_are_a_prefix_of_the_seed_sequence(tmp_path):
    doc = {
        "command": "oracle",
        "seed": 17,
        "output_dir": str(tmp_path / "out"),
        "oracle": {
            "samples": 100,
            "n_values": [2, 3],
            "p_values": [2, 3],
            "searches": [{"chain": "distance_decreasing", "n": 2, "budget": 100}],
        },
    }
    code, report = run(parse_config(doc))
    assert code == 0
    results = report["results"]
    seeds = [c["seed"] for c in results["campaigns"] + results["searches"]]
    assert len(seeds) == 2 + 3 + 1
    assert seeds == np.random.SeedSequence(17).generate_state(200)[: len(seeds)].tolist()


@pytest.mark.parametrize("counts", [[3, 3], [4, 3], [5], [3, 3, 3]])
def test_validate_flat_eigenvalue_is_exact_on_coarse_grids(tmp_path, counts):
    doc = {
        "command": "validate",
        "output_dir": str(tmp_path / "out"),
        "validate": {"counts": counts, "oracle_samples": 200},
    }
    code, report = run(parse_config(doc))
    assert code == 0, report["assertion_failures"]
    (flat,) = [c for c in report["results"]["checks"] if c["name"] == "flat_eigenvalue_rel_err"]
    assert flat["passed"] and flat["value"] <= 1e-8


def test_validate_fails_on_a_rank_identity_defect(tmp_path, monkeypatch):
    import minsurf.chains
    from minsurf.chains import chain_scale

    original = minsurf.chains.rank_chain_terms

    def skewed(lam, C, p):
        F0, Fd, Fo, Fl = original(lam, C, p)
        return F0 + 1e-6 * chain_scale(C), Fd, Fo, Fl

    monkeypatch.setattr(minsurf.chains, "rank_chain_terms", skewed)
    doc = {
        "command": "validate",
        "output_dir": str(tmp_path / "out"),
        "validate": {"counts": [5, 5], "oracle_samples": 200},
    }
    code, report = run(parse_config(doc))
    assert code == 1
    (row,) = [c for c in report["results"]["checks"] if c["name"] == "rank_chain_identity_F0_split"]
    assert not row["passed"] and row["value"] == pytest.approx(1e-6, rel=1e-6)


def test_oracle_tol_governs_searches(tmp_path):
    # the analytic witness at lam_high 1.001 has margin -5.0e-4, inside oracle.tol
    search = {"chain": "distance_decreasing", "n": 2, "lam_high": 1.001, "budget": 2000}
    doc = {
        "command": "oracle",
        "output_dir": str(tmp_path / "out"),
        "oracle": {"samples": 1000, "n_values": [2], "p_values": [2], "tol": 1e-2, "searches": [search]},
    }
    code, report = run(parse_config(doc))
    assert code == 0
    (result,) = report["results"]["searches"]
    assert -1e-2 < result["best_margin"] < 0
    assert not result["found"]


def test_eigen_solve_does_not_judge_minimality(tmp_path):
    doc = {
        "command": "analyze",
        "output_dir": str(tmp_path / "out"),
        "grid": {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [13, 13]},
        "boundary": {"family": "holomorphic_power", "amplitude": 0.4, "power": 3},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run(parse_config(doc))
    assert code == 0
    assert not report["results"]["criteria"]["minimal"]
    assert report["results"]["stability"]["converged"]
    assert not [w for w in caught if issubclass(w.category, NotMinimalWarning)]


_GRID13 = {"extents": [[0.0, 1.0], [0.0, 1.0]], "counts": [13, 13]}
_HOLO = {"family": "holomorphic_power", "amplitude": 0.3, "power": 3}
_DETERMINISM = {
    "solve": BASE_SOLVE,
    "homotopy": {
        "command": "homotopy",
        "grid": _GRID13,
        "homotopy": {
            "f0": {**_HOLO, "solve": True},
            "f1": {**_HOLO, "solve": True, "bump_amplitude": 0.05},
            "t_count": 9,
            "uniqueness_inits": 3,
        },
    },
    "oracle": {
        "command": "oracle",
        "oracle": {"samples": 120_000, "n_values": [2, 3], "p_values": [2], "searches": _ORACLE_SET["searches"]},
    },
    "sweep": {
        "command": "sweep",
        "grid": _GRID13,
        "sweep": {**_HOLO, "s_values": [0.3, 0.6], "stability": True},
    },
}


@pytest.mark.parametrize("command", list(_DETERMINISM))
def test_reports_are_deterministic(tmp_path, command):
    reports = []
    for name in ("a", "b"):
        code, _ = run(parse_config({**_DETERMINISM[command], "seed": 7, "output_dir": str(tmp_path / name)}))
        assert code == 0
        doc = json.loads((tmp_path / name / "report.json").read_text())
        for volatile in ("timestamp", "timings"):
            doc.pop(volatile)
        doc["config"].pop("output_dir")
        reports.append(json.dumps(doc, sort_keys=True))
    assert reports[0] == reports[1]
