"""Workload configs and the correctness gate behind ``fail_rate``.

Each workload is one ``minsurf run CONFIG`` invocation. The config is made
from the workload name and a seed only; the program sees nothing else. The
gate reads the run's exit code and ``report.json`` and returns the list of
reasons the run is wrong (empty when it is right).
"""

from __future__ import annotations

import math

NAMES = ("solve-2d", "solve-3d", "uniqueness-2d", "oracle")

# Nodes per axis, or chain samples per campaign: (full run, smoke run). The
# smoke sizes let the self-check finish in seconds; they are never timed.
SIZES = {
    "solve-2d": (97, 17),
    "solve-3d": (17, 7),
    "uniqueness-2d": (21, 13),
    "oracle": (400_000, 2_000),
}
SEARCH_BUDGET = (200_000, 2_000)

# Smallest second-variation eigenvalue, recorded once from the unmodified
# program (it does not depend on the seed, which only moves the eigensolver's
# start vector). Keyed by nodes per axis.
THETA_REFERENCE = {
    "solve-2d": {97: 18.017231295872904, 17: 17.966271829912685},
    "solve-3d": {17: 27.433415572573008, 7: 26.917241604860155},
}
THETA_RTOL = 1e-6

HOLOMORPHIC = {"family": "holomorphic_power", "amplitude": 0.3, "power": 3}


def make_config(name: str, seed: int, output_dir: str, smoke: bool = False) -> dict:
    """The ``minsurf run`` config of workload ``name`` at ``seed``."""
    size = SIZES[name][1 if smoke else 0]
    cfg = {"seed": int(seed), "output_dir": output_dir}
    if name in ("solve-2d", "solve-3d"):
        dim = 2 if name == "solve-2d" else 3
        cfg.update(
            command="solve",
            grid={"extents": [[0.0, 1.0]] * dim, "counts": [size] * dim},
            boundary=dict(HOLOMORPHIC),
            stability={"enabled": True},
        )
    elif name == "uniqueness-2d":
        cfg.update(
            command="homotopy",
            grid={"extents": [[0.0, 1.0]] * 2, "counts": [size] * 2},
            homotopy={
                "f0": dict(HOLOMORPHIC, solve=True),
                "f1": dict(HOLOMORPHIC, solve=True, bump_amplitude=0.05),
                "t_count": 33,
                "uniqueness_inits": 4,
            },
        )
    elif name == "oracle":
        budget = SEARCH_BUDGET[1 if smoke else 0]
        cfg.update(
            command="oracle",
            oracle={
                "samples": size,
                "n_values": [2, 3, 4],
                "p_values": [2, 3],
                "searches": [
                    {"chain": "distance_decreasing", "n": 2, "lam_high": 2.0, "budget": budget},
                    {
                        "chain": "rank",
                        "n": 3,
                        "p": 2,
                        "lam_high": 1.5,
                        "cap_products": False,
                        "budget": budget,
                    },
                    {"chain": "distance_decreasing", "n": 3, "lam_high": 1.0, "budget": budget},
                ],
            },
        )
    else:
        raise ValueError(f"unknown workload {name!r} (expected one of {NAMES})")
    return cfg


def sample_count(name: str, smoke: bool = False) -> int:
    """Grid nodes per axis, or chain samples per campaign for the oracle."""
    return SIZES[name][1 if smoke else 0]


def check(name: str, exit_code: int, report: dict | None, smoke: bool = False) -> list[str]:
    """Reasons the run of workload ``name`` is wrong; empty when it passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report is None:
        return problems + ["no report.json"]
    if report.get("assertion_failures"):
        problems.append(f"assertion failures: {report['assertion_failures']}")
    results = report.get("results", {})
    if name in ("solve-2d", "solve-3d"):
        problems += _check_solve(name, results, smoke)
    elif name == "uniqueness-2d":
        problems += _check_uniqueness(results)
    else:
        problems += _check_oracle(results)
    return problems


def _check_solve(name: str, results: dict, smoke: bool) -> list[str]:
    problems = []
    solve = results.get("solve", {})
    if not solve.get("converged") or not solve.get("residual_sup_norm", math.inf) <= 1e-10:
        problems.append(f"solve not converged to 1e-10: {solve.get('residual_sup_norm')}")
    stability = results.get("stability", {})
    # an unconverged eigen-solve still yields a verdict and exit 0; it is a failure
    if not stability.get("converged"):
        problems.append(f"eigen-solve not converged (residual {stability.get('eigen_residual')})")
    theta = stability.get("min_eigenvalue")
    reference = THETA_REFERENCE[name][sample_count(name, smoke)]
    if theta is None or not math.isfinite(theta):
        problems.append("no stability eigenvalue")
    elif abs(theta - reference) > THETA_RTOL * abs(reference):
        problems.append(f"theta {theta!r} differs from reference {reference!r}")
    criteria = results.get("criteria", {})
    if criteria.get("dd_verdict") != "strict":
        problems.append(f"distance-decreasing verdict {criteria.get('dd_verdict')!r}")
    if criteria.get("tj_verdict") != "passes":
        problems.append(f"two-Jacobian verdict {criteria.get('tj_verdict')!r}")
    return problems


def _check_uniqueness(results: dict) -> list[str]:
    problems = []
    uniq = results.get("uniqueness", {})
    outcomes = uniq.get("outcomes", [])
    if len(outcomes) != 4 or not all(o.get("converged") for o in outcomes):
        problems.append("not all 4 uniqueness solves converged")
    if not uniq.get("unique_in_dd_class"):
        problems.append("uniqueness in the distance-decreasing class not shown")
    if not results.get("profile", {}).get("convexity_ok"):
        problems.append("area profile not convex")
    return problems


def _check_oracle(results: dict) -> list[str]:
    problems = []
    campaigns = results.get("campaigns", [])
    if len(campaigns) != 3 + 5 or not all(c.get("passed") for c in campaigns):
        problems.append("a chain campaign failed or is missing")
    searches = results.get("searches", [])
    if len(searches) != 3:
        return problems + [f"expected 3 searches, got {len(searches)}"]
    dd_outside, rank_outside, dd_inside = searches
    if not dd_outside.get("found") or abs(dd_outside.get("best_margin", 0.0) + 0.3) > 1e-9:
        problems.append(f"DD n=2 witness margin {dd_outside.get('best_margin')!r}, expected -0.3")
    if not rank_outside.get("found"):
        problems.append("rank n=3 p=2 search found no witness outside the hypotheses")
    if dd_inside.get("found"):
        problems.append("DD n=3 search found a witness inside the hypotheses")
    return problems
