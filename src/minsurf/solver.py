"""Damped Newton solver for the discrete minimal surface system.

The iteration descends on the discrete area. The Newton matrix is the exact
area Hessian of :class:`~minsurf.variation.SecondVariationForm`, the same
operator the stability analysis diagonalizes, assembled element by element
from the corner tensor. Each iteration spends one step: Newton while
``max_newton_iters`` lasts, then gradient (fallback) while
``max_fallback_iters`` lasts. Steps are
accepted by backtracking on the area value. An unusable Newton direction, or
one whose line search fails, is replaced by the gradient on the same step.
Boundary values never change, bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .area import discrete_area, minimal_system_residual
from .assembly import dissection_permutation
from .assembly import hessian_matrix as colored_stencil_matrix  # the name perfbench's span hook wraps
from .grid import GridMap
from .report import Summarized
from .variation import SecondVariationForm

__all__ = [
    "SolverConfig",
    "SolveOutcome",
    "ContinuationReport",
    "harmonic_extension",
    "solve_dirichlet",
    "continuation_solve",
]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_LINE_SEARCH_STALL = "line_search_stall"

# backtracking line search: step factor, Armijo constant, number of trials
BACKTRACK_FACTOR = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class SolverConfig:
    tol_residual_sup: float = 1e-10
    max_newton_iters: int = 50
    max_fallback_iters: int = 5000

    def __post_init__(self):
        if self.tol_residual_sup <= 0:
            raise ValueError("tolerances must be positive")
        if min(self.max_newton_iters, self.max_fallback_iters) <= 0:
            raise ValueError("iteration caps must be positive")


@dataclass(frozen=True)
class SolveOutcome(Summarized):
    solution: GridMap
    converged: bool
    status: str
    iterations: int
    fallback_iterations: int
    residual_sup_norm: float
    residual_l2_norm: float
    area_history: tuple[float, ...]
    init_hash: str
    message: str = ""


def _map_hash(f: GridMap) -> str:
    digest = hashlib.sha256()
    digest.update(repr((f.grid.extents, f.grid.counts, f.m)).encode())
    digest.update(np.ascontiguousarray(f.values).tobytes())
    return digest.hexdigest()


def harmonic_extension(boundary: GridMap) -> GridMap:
    """Componentwise harmonic extension of the boundary values.

    Solves the standard 2n+1 point Laplacian with the given Dirichlet data
    exactly by sine-basis diagonalization, and copies boundary entries
    unchanged; the default initializer for Dirichlet solves.
    """
    grid = boundary.grid
    inner = (slice(1, -1),) * grid.n
    data = np.where(grid.interior_mask[..., None], 0.0, boundary.values)
    rhs = lam = 0.0
    bases = []
    for ax, (c, h) in enumerate(zip(grid.counts, grid.spacings)):
        # only boundary neighbours of interior nodes are nonzero in data
        for shift in (slice(0, -2), slice(2, None)):
            rhs = rhs + data[inner[:ax] + (shift,) + inner[ax + 1 :]] / h**2
        # orthonormal symmetric sine matrix and eigenvalues of this axis' second difference
        k = np.arange(1, c - 1)
        bases.append(np.sqrt(2.0 / (c - 1)) * np.sin(np.pi * np.outer(k, k) / (c - 1)))
        lam = np.add.outer(lam, (2.0 - 2.0 * np.cos(np.pi * k / (c - 1))) / h**2)

    def transform(u):
        for ax, Q in enumerate(bases):
            u = np.moveaxis(np.tensordot(Q, u, axes=(1, ax)), 0, ax)
        return u

    values = boundary.values.copy()
    values[inner] = transform(transform(rhs) / lam[..., None])
    return GridMap(grid=grid, values=values)


def _newton_direction(f, report, w):
    """The Newton step on the exact area Hessian, or None if unusable."""
    grid = f.grid
    hessian = colored_stencil_matrix(SecondVariationForm(f, warn=False))
    # residual is -grad/w, so H d = -grad reads H d = w * residual
    rhs = (w * report.residual)[grid.interior_mask].ravel()
    p = dissection_permutation(grid, f.m)
    d = np.empty_like(rhs)
    try:
        d[p] = spla.spsolve(hessian[p][:, p].tocsc(), rhs[p], permc_spec="NATURAL")
    except RuntimeError:
        return None
    direction = np.zeros_like(f.values)
    direction[grid.interior_mask] = d.reshape(-1, f.m)
    return direction if np.all(np.isfinite(d)) else None


def _line_search(f, direction, area0, report, w):
    """Backtracking on the area value; returns (new map, new area) or None.

    A direction along which the area does not descend is refused before any
    area evaluation. Near the residual floor the true area decrease of a
    Newton step falls below the round-off resolution of the area itself, so
    a step whose area change is within a few ulp of zero is also accepted
    when it at least halves the residual. The recorded history is then
    nonincreasing up to that round-off band.
    """
    # slope of the area along the direction; residual is -grad/w
    slope = -float(np.sum(w * report.residual * direction))
    if slope >= 0:
        return None
    lam = 1.0
    floor = 4.0 * np.finfo(float).eps * (1.0 + abs(area0))
    for _ in range(MAX_BACKTRACKS):
        cand = f.with_interior_values(f.values + lam * direction)
        area = discrete_area(cand)
        if area <= area0 + SUFFICIENT_DECREASE * lam * slope and area < area0:
            return cand, area
        if area <= area0 + floor:
            res = minimal_system_residual(cand).residual_sup_norm
            if res <= 0.5 * report.residual_sup_norm:
                return cand, area
        lam *= BACKTRACK_FACTOR
    return None


def solve_dirichlet(
    boundary: GridMap,
    init: GridMap | None = None,
    cfg: SolverConfig | None = None,
) -> SolveOutcome:
    """Solve the Dirichlet problem for the minimal surface system.

    ``boundary`` prescribes the values on the box faces (its interior entries
    seed nothing); ``init`` defaults to the harmonic extension and must agree
    with the boundary data exactly on boundary nodes. Non-convergence is
    reported in the outcome, not raised, so amplitude sweeps can continue.
    """
    cfg = cfg or SolverConfig()
    if init is None:
        init = harmonic_extension(boundary)
    if not init.grid.compatible_with(boundary.grid) or init.m != boundary.m:
        raise ValueError("init and boundary live on different grids")
    if not np.array_equal(
        init.values[init.grid.boundary_mask], boundary.values[boundary.grid.boundary_mask]
    ):
        raise ValueError("init disagrees with boundary data on boundary nodes")

    w = init.grid.quadrature_weights[..., None]
    init_hash = _map_hash(init)
    f = init
    report = minimal_system_residual(f)
    areas = [report.total_area]
    newton_iters = 0
    fallback_iters = 0

    def finish(status: str, message: str = "") -> SolveOutcome:
        # report always belongs to the current f
        return SolveOutcome(
            solution=f,
            converged=status == STATUS_CONVERGED,
            status=status,
            iterations=newton_iters,
            fallback_iterations=fallback_iters,
            residual_sup_norm=report.residual_sup_norm,
            residual_l2_norm=report.residual_l2_norm,
            area_history=tuple(areas),
            init_hash=init_hash,
            message=message,
        )

    while report.residual_sup_norm > cfg.tol_residual_sup:
        result = None
        if newton_iters < cfg.max_newton_iters:
            newton_iters += 1
            direction = _newton_direction(f, report, w)
            if direction is not None:
                result = _line_search(f, direction, areas[-1], report, w)
        elif fallback_iters < cfg.max_fallback_iters:
            fallback_iters += 1
        else:
            return finish(STATUS_MAX_ITERATIONS, "iteration caps exhausted")
        if result is None:
            # gradient descent on the area: direction = residual field
            result = _line_search(f, report.residual, areas[-1], report, w)
        if result is None:
            return finish(STATUS_LINE_SEARCH_STALL, "no step achieved an area decrease")
        f, area = result
        areas.append(area)
        report = minimal_system_residual(f)
    return finish(STATUS_CONVERGED)


@dataclass(frozen=True)
class ContinuationReport(Summarized):
    amplitudes: tuple[float, ...]
    outcomes: tuple[SolveOutcome, ...]
    first_failure: float | None


def continuation_solve(
    boundary_family,
    amplitudes,
    cfg: SolverConfig | None = None,
) -> ContinuationReport:
    """Solve along an amplitude sweep, warm-starting each step from the last.

    ``boundary_family(s)`` returns the boundary map at amplitude s. Failed
    steps are recorded and the sweep continues from the harmonic extension of
    the next boundary.
    """
    amplitudes = tuple(float(s) for s in amplitudes)
    if not amplitudes:
        raise ValueError("need at least one amplitude")
    outcomes = []
    prev: GridMap | None = None
    first_failure = None
    for s in amplitudes:
        boundary = boundary_family(s)
        init = None
        if prev is not None:
            carried = boundary.values.copy()
            carried[boundary.grid.interior_mask] = prev.values[boundary.grid.interior_mask]
            init = GridMap(grid=boundary.grid, values=carried)
        outcome = solve_dirichlet(boundary, init=init, cfg=cfg)
        outcomes.append(outcome)
        if not outcome.converged and first_failure is None:
            first_failure = s
        prev = outcome.solution if outcome.converged else None
    return ContinuationReport(
        amplitudes=amplitudes, outcomes=tuple(outcomes), first_failure=first_failure
    )
