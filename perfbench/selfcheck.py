"""Self-check of the benchmark at smoke sizes.

    python3 -m pytest -q perfbench/selfcheck.py

Not collected by the repository's own test run (the file name does not
match ``test_*.py``); it spawns the benchmark as a user would.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import child
import layers
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert BENCHMARK["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, (u, b, bound) in run.END_TO_END.items()
    ]
    per_layer = [{"name": n, "unit": u, "better": b} for n, (u, b, _, _) in layers.PER_LAYER.items()]
    per_layer.append(dict(zip(("name", "unit", "better"), layers.OVERHEAD)))
    assert BENCHMARK["per_layer"] == per_layer


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_smoke_run_is_correct(name):
    result = last_json(bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0",
                             "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name, evals", [("solve-2d", 18), ("solve-3d", 54)])
def test_traced_smoke_run_reports_every_layer(name, evals):
    result = last_json(bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1",
                             "--smoke"))
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["solver.residual_evals_per_newton"]["value"] == evals
    assert result["metrics"]["variation.factorizations"]["value"] >= 1
    assert result["metrics"]["chains.campaign_s"]["value"] == 0


def test_fails_without_the_program():
    bare = run.OUT / "bare-checkout"  # only BENCHMARK.json and the benchmark's files
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_hook_target_is_absent_not_zero():
    recorder = child.SpanRecorder("r")
    hooks = [("solver.newton_assembly", "minsurf.solver", "no_such_function", None)]
    assert child.install(recorder, hooks) == ["minsurf.solver.no_such_function"]
    gone = [f"{m}.{a}" for kind, m, a, _ in child.HOOKS if kind == "solver.newton_assembly"]
    values, absent = layers.layer_metrics({"absent_hooks": gone, "spans": []}, 0)
    assert {"solver.newton_assembly_s", "solver.residual_evals_per_newton"} <= set(absent)
    assert "solver.newton_assembly_s" not in values
    assert values["area.residual_calls"] == 0


def test_self_time_subtracts_children():
    spans = [
        {"name": "variation.stability", "parent": None, "start": 0.0, "end": 10.0,
         "eigen_iters": 3},
        {"name": "scipy.splu", "parent": 0, "start": 1.0, "end": 3.0, "fill_nnz": 5},
        {"name": "variation.hessian_assembly", "parent": 0, "start": 4.0, "end": 8.0},
    ]
    values, absent = layers.layer_metrics({"absent_hooks": [], "spans": spans}, 0)
    assert not absent
    assert values["variation.eigen_s"] == pytest.approx(4.0)
    assert values["variation.stability_s"] == pytest.approx(10.0)
    assert values["variation.lu_fill_nnz"] == 5
    assert values["variation.eigen_iters"] == 3


def test_gate_rejects_unconverged_eigen_solve():
    report = {
        "assertion_failures": [],
        "results": {
            "solve": {"converged": True, "residual_sup_norm": 1e-12},
            "stability": {"converged": False, "eigen_residual": 58.0,
                          "min_eigenvalue": 18.017231295872904, "verdict": "stable"},
            "criteria": {"dd_verdict": "strict", "tj_verdict": "passes"},
        },
    }
    problems = workloads.check("solve-2d", 0, report)
    assert problems == ["eigen-solve not converged (residual 58.0)"]
