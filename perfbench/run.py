"""minsurf benchmark: end-to-end metrics of ``minsurf run`` and a layer trace.

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs to be installed):

    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1            # every workload, one table
    python3 perfbench/run.py --list-metrics            # every metric with its unit
    python3 perfbench/run.py --smoke ...               # tiny sizes, for the self-check

One benchmark run measures one workload. ``--trace 0`` spawns fresh
``python -m minsurf.cli run CONFIG`` children one at a time for about
``--seconds`` seconds and reports medians of their end-to-end metrics;
``--trace 1`` runs one untraced and one traced child of the same config and
reports the per-layer metrics. Every child's output passes the correctness
gate in ``workloads.py`` or counts as failed. The last line of standard
output is the JSON result; provenance is printed on the line before it and
kept, with the per-child figures, under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# name -> (unit, better, bound); see BENCHMARK.json. Host speed on the shared
# 2-core VM this was tuned on drifts by up to a quarter over minutes, so the
# times get the largest bound allowed; memory moves by a few per cent.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

EXTRA_SETUP_PROBES = 2  # timed set-ups before the first child; one more per child and at the end
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0  # every child is killed after this much of the whole run


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Child:
    """One child process: exit code, spawn-to-exit wall time, max RSS."""

    def __init__(self, argv: list[str], log: Path, deadline: float):
        with open(log, "w") as out:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=out)
            watchdog = threading.Timer(max(deadline - start, 0.1), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.monotonic() - start
                # reaped here, so Popen must not signal or wait for it again
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
        self.exit_code = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB


def program_present() -> bool:
    return (ROOT / "src" / "minsurf" / "cli.py").is_file()


def setup_probe(config: Path, log: Path, deadline: float) -> float:
    """Spawn-to-parsed time of one process that imports the CLI and parses config."""
    argv = [sys.executable, str(HERE / "child.py"), "setup", str(config), repr(time.monotonic())]
    child = Child(argv, log, deadline)
    lines = log.read_text().splitlines()
    if child.exit_code != 0 or not lines:
        raise RuntimeError(f"set-up probe failed (exit {child.exit_code}); see {log}")
    result = json.loads(lines[-1])
    if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"minsurf imported from {result['module']}, not from {ROOT / 'src'}")
    return result["setup_s"]


def run_workload_child(name, seed, workdir, smoke, deadline, trace=False):
    """Run one child; returns (Child, problems, spans or None, bytes written)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    outdir = workdir / "out"
    config = workdir / "config.json"
    config.write_text(json.dumps(workloads.make_config(name, seed, str(outdir), smoke)))
    if trace:
        spans_path = workdir / "spans.json"
        argv = [sys.executable, str(HERE / "child.py"), "trace", str(config), str(spans_path),
                f"{name}/seed{seed}"]
    else:
        argv = [sys.executable, "-m", "minsurf.cli", "run", str(config)]
    child = Child(argv, workdir / "log.txt", deadline)
    report = None
    if (outdir / "report.json").is_file():
        report = json.loads((outdir / "report.json").read_text())
    problems = workloads.check(name, child.exit_code, report, smoke)
    spans = None
    if trace and spans_path.is_file():
        spans = json.loads(spans_path.read_text())
    bytes_written = sum(p.stat().st_size for p in outdir.iterdir()) if outdir.is_dir() else 0
    # keep report.json and spans; the maps and CSV files are only written to be timed
    for p in outdir.iterdir() if outdir.is_dir() else ():
        if p.name != "report.json":
            p.unlink()
    return child, problems, spans, bytes_written


def child_seed(seed: int, i: int) -> int:
    """Seed written into the config of the i-th child of a run."""
    return seed * 1000 + i


def measure(name: str, seed: int, seconds: float, smoke: bool, begin: float) -> dict:
    """Untraced run: children back to back for about ``seconds``.

    Set-up probes are spread over the same window, one before each child,
    so that both medians see the same stretch of machine time.
    """
    deadline = begin + RUN_LIMIT_S
    rundir = OUT / name / f"seed{seed}"
    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir(parents=True)
    probe_config = rundir / "setup.json"
    probe_config.write_text(
        json.dumps(workloads.make_config(name, child_seed(seed, 0), str(rundir / "unused"), smoke))
    )

    def probe(log: str) -> float:
        return setup_probe(probe_config, rundir / log, deadline)

    probe("setup-warmup.txt")  # untimed: fills bytecode and page caches
    setups = [probe(f"setup-{i}.txt") for i in range(EXTRA_SETUP_PROBES)]
    children = []
    start = time.monotonic()
    while True:
        setups.append(probe(f"setup-{len(setups)}.txt"))
        i = len(children)
        child, problems, _, _ = run_workload_child(
            name, child_seed(seed, i), rundir / f"c{i}", smoke, deadline
        )
        children.append({"seed": child_seed(seed, i), "wall_s": child.wall_s,
                         "peak_rss_mb": child.rss_mb, "exit_code": child.exit_code,
                         "problems": problems})
        walls = [c["wall_s"] for c in children]
        # start another child only if it should end within half a child of the window
        if time.monotonic() - start + statistics.median(walls) / 2 > seconds:
            break
    if time.monotonic() < deadline:
        setups.append(probe(f"setup-{len(setups)}.txt"))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    return {"metrics": metrics, "children": children, "setup_samples": setups}


def measure_traced(name: str, seed: int, smoke: bool, begin: float) -> dict:
    """One untraced and one traced child of the same config; per-layer metrics."""
    deadline = begin + RUN_LIMIT_S
    rundir = OUT / name / f"seed{seed}-trace"
    s = child_seed(seed, 0)
    plain, plain_problems, _, _ = run_workload_child(name, s, rundir / "plain", smoke, deadline)
    traced, problems, spans, bytes_written = run_workload_child(
        name, s, rundir / "traced", smoke, deadline, trace=True
    )
    children = [
        {"seed": s, "traced": False, "wall_s": plain.wall_s, "exit_code": plain.exit_code,
         "problems": plain_problems},
        {"seed": s, "traced": True, "wall_s": traced.wall_s, "exit_code": traced.exit_code,
         "problems": problems},
    ]
    if spans is None:
        children[1]["problems"].append("no spans written")
        return {"metrics": {}, "absent": list(layers.PER_LAYER), "children": children}
    values, absent = layers.layer_metrics(spans, bytes_written)
    values[layers.OVERHEAD[0]] = traced.wall_s - plain.wall_s
    return {"metrics": values, "absent": absent, "absent_hooks": spans["absent_hooks"],
            "children": children}


def provenance(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None  # a source checkout without git metadata has only src_sha256
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "samples": workloads.sample_count(name, smoke),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    begin = time.monotonic()
    if trace:
        body = measure_traced(name, seed, smoke, begin)
        metric_units = {n: spec[0] for n, spec in layers.PER_LAYER.items()}
        metric_units[layers.OVERHEAD[0]] = layers.OVERHEAD[1]
    else:
        body = measure(name, seed, seconds, smoke, begin)
        metric_units = {n: spec[0] for n, spec in END_TO_END.items()}
    failed = sum(1 for c in body["children"] if c["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(body["children"]),
        "failed": failed,
        "metrics": {
            n: {"value": body["metrics"][n], "unit": unit}
            for n, unit in metric_units.items()
            if n in body["metrics"]
        },
    }
    record = {"provenance": provenance(name, seed, seconds, smoke), **body, "result": result}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def list_metrics() -> None:
    for name, (unit, better, bound) in END_TO_END.items():
        print(f"end_to_end  {name:36s} {unit:6s} {better:6s} bound {bound}")
    for name, (unit, better, _, _) in layers.PER_LAYER.items():
        print(f"per_layer   {name:36s} {unit:6s} {better}")
    name, unit, better = layers.OVERHEAD
    print(f"per_layer   {name:36s} {unit:6s} {better}")


def print_table(records: list[dict]) -> None:
    """One row per metric, one column per workload; fail_rate last."""
    names = [rec["provenance"]["workload"] for rec in records]
    header = {k: v for k, v in records[0]["provenance"].items() if k != "samples"}
    print(json.dumps(header | {"workload": names}))
    units = {}
    for rec in records:
        units |= {n: m["unit"] for n, m in rec["result"]["metrics"].items()}
        units |= {n: "absent" for n in rec.get("absent", []) if n not in units}
    units["fail_rate"] = "ratio"
    print(f"{'metric':34s} {'unit':6s}" + "".join(f"{n:>15s}" for n in names))
    for metric, unit in units.items():
        cells = []
        for rec in records:
            r = rec["result"]
            if metric == "fail_rate":
                cells.append(f"{r['failed'] / r['attempted']:15.6g}")
            elif metric in r["metrics"]:
                cells.append(f"{r['metrics'][metric]['value']:15.6g}")
            else:
                cells.append(f"{'absent':>15s}")
        print(f"{metric:34s} {unit:6s}" + "".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; not a measurement")
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.list_metrics:
        list_metrics()
        return 0
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not program_present():
        print(f"minsurf sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.all else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_one(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        records.append(record)
        for child in record["children"]:
            for problem in child["problems"]:
                print(f"{name} seed {child['seed']}: {problem}", file=sys.stderr)
    if args.all:
        print_table(records)
        return 0 if all(rec["result"]["correct"] for rec in records) else 1
    record = records[0]
    print(json.dumps({"provenance": record["provenance"], "absent": record.get("absent", [])}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
