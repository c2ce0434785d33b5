"""Straight-line homotopies between maps with common boundary data.

In a flat target the geodesic homotopy between two maps is the segment
f_t = (1-t) f0 + t f1, the variation field f1 - f0 is constant in t, and
the area restricted to the segment is convex whenever every intermediate
map is distance-decreasing. The experiments here sample that profile, check
convexity of the nodewise Jacobian norms, and rerun the Dirichlet solve
from many initializations to exhibit uniqueness in the distance-decreasing
regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .area import discrete_area
from .errors import BoundaryMismatch
from .families import random_interior_values
from .grid import GridMap, jacobian, singular_spectrum
from .report import Summarized
from .solver import SolverConfig, SolveOutcome, _map_hash, harmonic_extension, solve_dirichlet

__all__ = [
    "Homotopy",
    "HomotopyProfile",
    "JacobiConvexityReport",
    "UniquenessReport",
    "linear_homotopy",
    "area_profile",
    "jacobi_norm_convexity",
    "uniqueness_experiment",
]

BOUNDARY_TOL = 1e-12
PROFILE_TOL = 1e-9  # area_profile's convexity band, relative to 1 + max |area|
INIT_PERTURBATION = 0.2  # amplitude of the bumps added to the harmonic extension
DD_TOL = 1e-9  # slack on sup lambda_max <= 1 for a distance-decreasing map


@dataclass(frozen=True)
class Homotopy:
    f0: GridMap
    f1: GridMap
    t_samples: tuple[float, ...]

    def map_at(self, t: float) -> GridMap:
        vals = (1.0 - t) * self.f0.values + t * self.f1.values
        # keep boundary rows bit-for-bit t-independent; float blending of the
        # (matching) endpoint values could wobble them by an ulp
        mask = self.f0.grid.boundary_mask
        vals[mask] = self.f0.values[mask]
        return GridMap(grid=self.f0.grid, values=vals)

    def maps(self):
        return [self.map_at(t) for t in self.t_samples]


def linear_homotopy(f0: GridMap, f1: GridMap, t_count: int = 33) -> Homotopy:
    """Straight-line family between two maps sharing grid, target, and boundary."""
    if t_count < 3:
        raise ValueError("need at least 3 samples along the homotopy")
    if not f0.grid.compatible_with(f1.grid) or f0.m != f1.m:
        raise BoundaryMismatch("endpoints live on different grids or targets")
    gap = float(np.abs(f0.boundary_values() - f1.boundary_values()).max(initial=0.0))
    if gap > BOUNDARY_TOL:
        raise BoundaryMismatch(f"endpoints disagree on the boundary by {gap:.3e}")
    ts = tuple(float(t) for t in np.linspace(0.0, 1.0, t_count))
    return Homotopy(f0=f0, f1=f1, t_samples=ts)


@dataclass(frozen=True)
class HomotopyProfile(Summarized):
    """Area along the homotopy with discrete convexity diagnostics."""

    t_samples: tuple[float, ...]
    areas: tuple[float, ...]
    second_differences: tuple[float, ...]  # at interior t-samples
    endpoint_derivatives: tuple[float, float]  # one-sided second-order estimates
    sup_lambda_max_path: tuple[float, ...]
    convexity_ok: bool
    dd_envelope_ok: bool
    tol: float
    scale: float


def area_profile(homotopy: Homotopy) -> HomotopyProfile:
    """Sample the area along the homotopy and test discrete convexity.

    The convexity verdict asks every second difference to clear
    -PROFILE_TOL * scale with scale = 1 + max |area|. The nodewise operator-norm
    envelope (no intermediate map stretches beyond the endpoints) is checked
    at the same time since it is what propagates the distance-decreasing
    hypothesis along the path.
    """
    ts = np.asarray(homotopy.t_samples)
    maps = homotopy.maps()
    areas = np.array([discrete_area(f) for f in maps])
    dt = ts[1] - ts[0]
    d2 = (areas[2:] - 2.0 * areas[1:-1] + areas[:-2]) / dt**2
    d_left = (-3.0 * areas[0] + 4.0 * areas[1] - areas[2]) / (2.0 * dt)
    d_right = (3.0 * areas[-1] - 4.0 * areas[-2] + areas[-3]) / (2.0 * dt)
    sups = [singular_spectrum(jacobian(f)).sup_lambda_max("closure") for f in maps]
    scale = 1.0 + float(np.abs(areas).max())
    envelope = max(sups[0], sups[-1]) + 1e-12
    return HomotopyProfile(
        t_samples=tuple(float(t) for t in ts),
        areas=tuple(float(a) for a in areas),
        second_differences=tuple(float(v) for v in d2),
        endpoint_derivatives=(float(d_left), float(d_right)),
        sup_lambda_max_path=tuple(float(s) for s in sups),
        convexity_ok=bool(np.all(d2 >= -PROFILE_TOL * scale)),
        dd_envelope_ok=bool(max(sups) <= envelope),
        tol=PROFILE_TOL,
        scale=scale,
    )


@dataclass(frozen=True)
class JacobiConvexityReport(Summarized):
    """Convexity data for the squared nodewise Jacobi norms t -> |d_i f_t|^2.

    Along a straight-line family the second t-derivative is the constant
    2 |d_i (f1 - f0)|^2, so the worst second difference must be nonnegative
    and the deviation from that constant is pure round-off.
    """

    worst_second_difference: float
    max_deviation_from_constant: float


def jacobi_norm_convexity(homotopy: Homotopy) -> JacobiConvexityReport:
    ts = np.asarray(homotopy.t_samples)
    dt = ts[1] - ts[0]
    norms = np.stack(
        [np.sum(jacobian(f).values ** 2, axis=-2) for f in homotopy.maps()], axis=0
    )  # (T,) + counts + (n,)
    d2 = (norms[2:] - 2.0 * norms[1:-1] + norms[:-2]) / dt**2
    diff = GridMap(
        grid=homotopy.f0.grid, values=homotopy.f1.values - homotopy.f0.values
    )
    expected = 2.0 * np.sum(jacobian(diff).values ** 2, axis=-2)
    return JacobiConvexityReport(
        worst_second_difference=float(d2.min()),
        max_deviation_from_constant=float(np.abs(d2 - expected).max()),
    )


@dataclass(frozen=True)
class UniquenessReport(Summarized):
    """Multi-initialization solve outcomes with pairwise distances."""

    outcomes: tuple[SolveOutcome, ...]
    distance_decreasing: tuple[bool, ...]
    pairwise_sup: tuple[tuple[float, ...], ...]
    max_dd_pair_distance: float
    uniq_tol: float
    violations: tuple[dict, ...]

    @property
    def unique_in_dd_class(self) -> bool:
        return len(self.violations) == 0

    def summary(self) -> dict:
        return super().summary() | {"unique_in_dd_class": self.unique_in_dd_class}


def uniqueness_experiment(
    boundary: GridMap,
    init_count: int = 4,
    cfg: SolverConfig | None = None,
    seed: int = 0,
    uniq_tol: float = 1e-7,
    harmonic: SolveOutcome | None = None,
) -> UniquenessReport:
    """Solve from several initializations and compare the solutions found.

    Initializations are the harmonic extension plus seeded interior
    perturbations. ``harmonic`` may be the outcome of an earlier
    ``solve_dirichlet`` with the same ``cfg`` from the harmonic extension of
    this boundary; it stands for the first start's solve only if its
    ``init_hash`` is that start's. For every converged pair whose solutions
    are both distance-decreasing the pairwise sup distance must not exceed
    ``uniq_tol``; offending pairs are returned with full homotopy
    diagnostics because they would falsify the implementation.
    """
    if init_count < 2:
        raise ValueError("need at least two initializations")
    if not uniq_tol > 0:  # NaN too
        raise ValueError("uniq_tol must be positive")
    rng = np.random.default_rng(seed)
    base = harmonic_extension(boundary)
    inits = [base]
    for _ in range(init_count - 1):
        bump = random_interior_values(boundary.grid, boundary.m, rng, amplitude=INIT_PERTURBATION)
        inits.append(GridMap(grid=boundary.grid, values=base.values + bump))
    if harmonic is None or harmonic.init_hash != _map_hash(base):
        harmonic = solve_dirichlet(boundary, init=base, cfg=cfg)
    outcomes = (harmonic,) + tuple(solve_dirichlet(boundary, init=ini, cfg=cfg) for ini in inits[1:])
    dd_flags = []
    for o in outcomes:
        sup = singular_spectrum(jacobian(o.solution)).sup_lambda_max("closure")
        dd_flags.append(bool(o.converged and sup <= 1.0 + DD_TOL))
    k = len(outcomes)
    dists = np.zeros((k, k))
    violations = []
    max_dd_dist = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            d = float(
                np.abs(outcomes[i].solution.values - outcomes[j].solution.values).max()
            )
            dists[i, j] = dists[j, i] = d
            if dd_flags[i] and dd_flags[j]:
                max_dd_dist = max(max_dd_dist, d)
                if d > uniq_tol:
                    profile = area_profile(
                        linear_homotopy(outcomes[i].solution, outcomes[j].solution)
                    )
                    violations.append(
                        {"pair": [i, j], "sup_distance": d, "profile": profile.summary()}
                    )
    return UniquenessReport(
        outcomes=outcomes,
        distance_decreasing=tuple(dd_flags),
        pairwise_sup=tuple(tuple(float(v) for v in row) for row in dists),
        max_dd_pair_distance=max_dd_dist,
        uniq_tol=uniq_tol,
        violations=tuple(violations),
    )
