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

A solve keeps the factorization (``assembly.Factorization``) of the last
Newton matrix it factored. Every Newton system, on its own exact Hessian,
is solved by iterative refinement on that factorization to a residual of
``REFINE_TOL`` times the right-hand side: an inexact Newton method with
forcing term ``REFINE_TOL``, whose direction can differ from a direct
solve's by up to cond(H) times ``REFINE_TOL`` relative. Only when
refinement stalls is the new Hessian factored afresh
(``SolveOutcome.factorizations``); the first solve on a fresh factorization
is refined too, since it does not pivot across its fronts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .area import discrete_area, minimal_system_residual
from .assembly import Factorization
from .assembly import hessian_matrix as colored_stencil_matrix  # the name perfbench's span hook wraps
from .grid import GridMap
from .report import Summarized
from .variation import SecondVariationForm

__all__ = [
    "SolverConfig",
    "SolveOutcome",
    "harmonic_extension",
    "solve_dirichlet",
]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_LINE_SEARCH_STALL = "line_search_stall"

# backtracking line search: step factor, Armijo constant, number of trials
BACKTRACK_FACTOR = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_BACKTRACKS = 40
# refinement on the kept factorization: relative residual that ends it, and the steps it
# may take before the Newton matrix is factored afresh (as it is sooner when a step fails to
# halve the residual, or the rate seen so far cannot reach REFINE_TOL in time)
REFINE_TOL = 1e-12
MAX_REFINE_STEPS = 10


@dataclass(frozen=True)
class SolverConfig:
    tol_residual_sup: float = 1e-10
    max_newton_iters: int = 50
    max_fallback_iters: int = 5000

    def __post_init__(self):
        if not self.tol_residual_sup > 0:  # NaN too
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
    factorizations: int
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


class _KeptFactor:
    """The factorization of the last Newton matrix factored in one solve.

    ``factor`` is None until the first Newton step. It lives as long as its holder: a
    ``solve_dirichlet`` that made it releases it on return, while the ``solve`` command
    of ``minsurf run``, and each step of ``sweep``, makes it, hands it to the solve and
    then to ``stability_index``, whose iteration may run on it.

    ``solve`` refines x <- x + F^-1 (rhs - H x) from x = 0 on the kept factorization F,
    the residual taken by H's own product, until it is at most ``REFINE_TOL`` times rhs.
    A step that fails to halve the residual, a rate of contraction that cannot reach that
    target within ``MAX_REFINE_STEPS``, or those steps run out, drops F and factors H
    afresh; that factorization is kept in its place and refined on in the same way, and
    its last iterate is returned if that stalls too.
    """

    def __init__(self):
        self.factor = None
        self.factorizations = 0

    def _refine(self, hessian, rhs):
        """(x, whether it met the target) after refinement on the kept factorization."""
        x = np.zeros_like(rhs)
        residual = rhs
        norm = np.linalg.norm(rhs)
        target = REFINE_TOL * norm
        for left in range(MAX_REFINE_STEPS - 1, -1, -1):
            x = x + self.factor.solve(residual)
            residual = rhs - hessian @ x
            previous, norm = norm, np.linalg.norm(residual)
            if norm <= target:
                return x, True
            rate = norm / previous
            # a step that fails to halve the residual, or a rate that cannot reach the
            # target in the steps left, ends it (NaN too)
            if not (rate <= 0.5 and norm * rate**left <= target):
                break
        return x, False

    def solve(self, hessian, rhs):
        """H^-1 rhs; raises RuntimeError if H is factored and exactly singular."""
        if self.factor is not None:
            x, done = self._refine(hessian, rhs)
            if done:
                return x
        self.factor = None  # dropped before the fresh one is built
        self.factor = Factorization(hessian)
        self.factorizations += 1
        return self._refine(hessian, rhs)[0]


def _newton_direction(f, report, w, kept):
    """The Newton step on the exact area Hessian, or None if unusable."""
    grid = f.grid
    hessian = colored_stencil_matrix(SecondVariationForm(f, warn=False))
    # residual is -grad/w, so H d = -grad reads H d = w * residual
    rhs = (w * report.residual)[grid.interior_mask].ravel()
    try:
        d = kept.solve(hessian, rhs)
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
    kept: _KeptFactor | None = None,
) -> SolveOutcome:
    """Solve the Dirichlet problem for the minimal surface system.

    ``boundary`` prescribes the values on the box faces (its interior entries
    seed nothing); ``init`` defaults to the harmonic extension and must agree
    with the boundary data exactly on boundary nodes. Non-convergence is
    reported in the outcome, not raised, so amplitude sweeps can continue.
    Newton keeps its factorization in ``kept``, a new ``_KeptFactor`` made here when not given.
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
    if kept is None:
        kept = _KeptFactor()  # released when the solve returns

    def finish(status: str, message: str = "") -> SolveOutcome:
        # report always belongs to the current f
        return SolveOutcome(
            solution=f,
            converged=status == STATUS_CONVERGED,
            status=status,
            iterations=newton_iters,
            fallback_iterations=fallback_iters,
            factorizations=kept.factorizations,
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
            direction = _newton_direction(f, report, w, kept)
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
