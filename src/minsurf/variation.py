"""First and second variation of the discrete graph area for vertical fields.

Variations move the map, not the surface: along the straight line f + tV the
corner Jacobian is linear in t, so the exact t-derivatives of the discrete
area are available in closed form. With G the corner metric of the base map
and M = J^T B + B^T J (B the corner Jacobian of V) they read

    dA/dt   = sum w sqrt(g) tr(G^-1 J^T B)
    d2A/dt2 = sum w sqrt(g) [tr(G^-1 B^T B) - 1/2 tr(G^-1 M G^-1 M)
                             + 1/4 (tr G^-1 M)^2]

The second line is the stability quadratic form; its polarization gives a
symmetric operator whose smallest eigenvalue in the quadrature-weighted
inner product is the stability index.

Both are exact at any map but measure stability only at a minimal one, which
``criteria_report`` decides. ``warn=True`` adds a ``NotMinimalWarning`` from
one residual sweep against ``DEFAULT_MINIMAL_TOL``; Newton and the CLI do not.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._stencils import _edge, cell_counts, corner_jacobians, corner_metrics, corner_offsets, corner_weight
from ._stencils import scatter_corner_flux, small_matmul
from .area import minimal_system_residual  # the name perfbench's span hook wraps
from .assembly import dissection_permutation
from .assembly import hessian_matrix as colored_stencil_matrix  # the name perfbench's span hook wraps
from .errors import NotMinimalWarning
from .grid import GridMap, induced_metric
from .report import Summarized

__all__ = [
    "VariationField",
    "StabilityReport",
    "EigenConfig",
    "SecondVariationForm",
    "first_variation",
    "stability_index",
]

DEFAULT_MINIMAL_TOL = 1e-8


@dataclass(frozen=True)
class VariationField:
    """Vertical variation direction, supported on interior nodes.

    Boundary entries are forced to exact zeros at construction, which is the
    discrete form of the compact-support requirement.
    """

    grid: object
    values: np.ndarray  # counts + (m,)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape[: self.grid.n] != self.grid.counts:
            raise ValueError("variation values do not match the grid")
        if vals.ndim == self.grid.n:
            vals = vals[..., None]
        if not np.all(np.isfinite(vals)):
            raise ValueError("variation values must be finite")
        vals[self.grid.boundary_mask] = 0.0
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[-1]


def _as_values(V: VariationField | np.ndarray) -> np.ndarray:
    return V.values if isinstance(V, VariationField) else np.asarray(V, dtype=float)


def _warn_if_not_minimal(f: GridMap) -> None:
    """One residual sweep; a ``NotMinimalWarning`` names the line that called our caller."""
    sup = minimal_system_residual(f).residual_sup_norm
    if sup > DEFAULT_MINIMAL_TOL:
        warnings.warn(
            "second variation evaluated at a non-minimal map "
            f"(residual sup {sup:.3e} > {DEFAULT_MINIMAL_TOL:.1e}); "
            "values are diagnostic only",
            NotMinimalWarning,
            stacklevel=3,
        )


class SecondVariationForm:
    """Precomputed second-variation machinery at a fixed base map.

    Its area Hessian (:meth:`hessian_values`) is the package's only Hessian:
    Newton's method solves with it, and weighted by the nodewise metric
    <V, W> = sum_nodes w sqrt(det G) <V, W> it is the stability operator
    (:meth:`apply_values`, :meth:`assemble`), whose eigenproblem discretizes
    the continuum one. With ``warn``, one residual sweep warns if f is not
    minimal to ``DEFAULT_MINIMAL_TOL``.
    """

    def __init__(self, f: GridMap, warn: bool = True):
        self.f = f
        self.grid = f.grid
        self.m = f.m
        if warn:
            _warn_if_not_minimal(f)
        self._J = corner_jacobians(f.values, self.grid)
        self._Ginv, self._sqrtg = corner_metrics(self._J)
        self._JGi = small_matmul(self._J, self._Ginv)
        self._wc = corner_weight(self.grid)
        self._interior = self.grid.interior_mask

    @cached_property
    def _node_weight(self) -> np.ndarray:
        # built on first use: Newton reads only hessian_values
        return self.grid.quadrature_weights * induced_metric(self.f).sqrt_det

    # -- scalar quantities ------------------------------------------------

    def directional_derivative(self, V: VariationField | np.ndarray) -> float:
        """Exact d/dt of the discrete area along f + tV at t = 0."""
        B = corner_jacobians(_as_values(V), self.grid)
        return float(self._wc * np.sum(self._sqrtg * self._JGi * B))

    def _corner_terms(self, B: np.ndarray):
        """M = J^T B + B^T J and tr(G^-1 M) = 2 <J G^-1, B> per corner."""
        M = small_matmul(self._J.swapaxes(0, 1), B)
        M = M + M.swapaxes(0, 1)
        return M, 2.0 * np.sum(self._JGi * B, axis=(0, 1))

    def quadratic(self, V: VariationField | np.ndarray) -> float:
        """Exact d2/dt2 of the discrete area along f + tV at t = 0."""
        B = corner_jacobians(_as_values(V), self.grid)
        M, tau = self._corner_terms(B)
        GM = small_matmul(self._Ginv, M)
        t1 = np.sum(small_matmul(B, self._Ginv) * B, axis=(0, 1))
        t2 = 0.5 * np.sum(GM * GM.swapaxes(0, 1), axis=(0, 1))
        return float(self._wc * np.sum(self._sqrtg * (t1 - t2 + 0.25 * tau**2)))

    # -- operator form ----------------------------------------------------

    def _flux(self, B: np.ndarray) -> np.ndarray:
        """Corner flux of H along the corner Jacobian B, per corner K_c B.

        K_c is the Hessian of sqrt det(I + J^T J) in J, and
        K_c B = sqrt(g) [(B - J G^-1 M) G^-1 + 1/2 tr(G^-1 M) J G^-1].
        """
        M, tau = self._corner_terms(B)
        # (B - J G^-1 M) G^-1 = B G^-1 - J G^-1 M G^-1
        flux = small_matmul(B - small_matmul(self._JGi, M), self._Ginv)
        flux += 0.5 * tau * self._JGi
        flux *= self._sqrtg
        return flux

    def hessian_values(self, Vvals: np.ndarray) -> np.ndarray:
        """H V, the exact derivative of the area gradient along V, zero on boundary rows."""
        flux = self._flux(corner_jacobians(Vvals, self.grid))
        out = self._wc * scatter_corner_flux(flux, self.grid)
        return np.where(self._interior[..., None], out, 0.0)

    def node_blocks(self) -> np.ndarray:
        """H = w_c sum_c D_c^T K_c D_c as node blocks, shape (3^n, m, m) + counts.

        Entry [k, a, b] at node p couples (p, a) with (p + delta_k, b), where delta_k is
        the k-th offset of {-1, 0, 1}^n in lexicographic order. K_c is applied to one unit
        corner field E_bj at a time; the edge leaving corner nu along axis i touches, at
        its end s, the node nu with entry i set to s, and differences with sign +-1/h_i.
        """
        n, m, h = self.grid.n, self.m, self.grid.spacings
        cells = cell_counts(self.grid)
        blocks = np.zeros((3**n, m, m) + self.grid.counts)
        for b, j in itertools.product(range(m), range(n)):
            unit = np.zeros((m, n) + (1,) * (n + 1))
            unit[b, j] = 1.0
            column = self._flux(unit)  # entries (a, i) of K_c E_bj
            for c, nu in enumerate(corner_offsets(n)):
                for i in range(n):
                    k_ij = (self._wc / (h[i] * h[j])) * column[:, i, c]
                    for s, t in itertools.product((0, 1), repeat=2):
                        # offset from the row node (nu, entry i set to s) to the column node (entry j set to t)
                        k = (3**n - 1) // 2 + (t - nu[j]) * 3 ** (n - 1 - j) - (s - nu[i]) * 3 ** (n - 1 - i)
                        target = blocks[k, :, b][_edge(cells, nu, i, s)]
                        (np.add if s == t else np.subtract)(target, k_ij, out=target)
        return blocks

    def apply_values(self, Vvals: np.ndarray) -> np.ndarray:
        """H V / w as a nodal array; <W, HV>_w equals the polarized quadratic form."""
        return self.hessian_values(Vvals) / self._node_weight[..., None]

    def apply(self, V: VariationField) -> VariationField:
        return VariationField(grid=self.grid, values=self.apply_values(_as_values(V)))

    def weighted_inner(self, V: VariationField | np.ndarray, W: VariationField | np.ndarray) -> float:
        prod = np.sum(_as_values(V) * _as_values(W), axis=-1)
        return float(np.sum(self._node_weight * prod))

    def assemble(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """Hessian over interior dofs and the weights B: S v = theta B v is the stability pencil."""
        S = colored_stencil_matrix(self)
        B_diag = np.repeat(self._node_weight[self._interior], self.m)
        S = (S + S.T) * 0.5
        return S.tocsr(), B_diag


def first_variation(f: GridMap, V: VariationField) -> float:
    """Derivative of the discrete area along the vertical variation V.

    Agrees with -sum_nodes w <residual, V> to round-off because the residual
    is the exact area gradient; vanishes on minimal graphs.
    """
    return SecondVariationForm(f, warn=False).directional_derivative(V)


@dataclass(frozen=True)
class EigenConfig:
    tol: float = 1e-8
    max_iters: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters <= 0:
            raise ValueError("eigensolver tolerance and iteration cap must be positive")


@dataclass(frozen=True)
class StabilityReport(Summarized):
    """Smallest eigenvalue of the stability operator with its eigenvector."""

    min_eigenvalue: float
    eigenvector: VariationField
    rayleigh_history: tuple[float, ...]
    verdict: str  # stable / marginal / unstable, or undetermined when not converged
    epsilon: float
    converged: bool
    iterations: int
    eigen_residual: float

    def summary(self) -> dict:
        # only the sign of the bottom eigenvalue is computed, so the unstable
        # count is reported as a bound
        bound = {"unstable": "at least 1", "undetermined": None}.get(self.verdict, "0")
        return super().summary() | {"morse_index_bound": bound}


def _gershgorin_lower_bound(S: sp.csr_matrix, B_diag: np.ndarray) -> float:
    sb = np.sqrt(B_diag)
    absS = abs(S)
    row_weighted = absS.dot(1.0 / sb) / sb
    diag = S.diagonal()
    centers = diag / B_diag
    radii = row_weighted - np.abs(diag) / B_diag
    return float(np.min(centers - radii))


def _smallest_eigenpair(S: sp.csr_matrix, B_diag: np.ndarray, cfg: EigenConfig, perm: np.ndarray):
    """Block shifted inverse iteration on the pencil S v = theta B v.

    The initial shift sits below the Gershgorin lower bound of the weighted
    pencil, keeping S - sigma B positive definite. A small block with
    Rayleigh-Ritz extraction handles clustered bottom eigenvalues (the flat
    operator carries one copy of the spectrum per target component); once
    the smallest Ritz value settles, the shift is moved next to it so the
    final convergence is fast even when the Gershgorin bound is far away.
    Each S - sigma B is factored in the dof order ``perm``.
    """
    size = B_diag.shape[0]
    block = min(4, size)
    sb = np.sqrt(B_diag)
    lower = _gershgorin_lower_bound(S, B_diag)
    sigma = lower - 1e-2 * (abs(lower) + 1.0)
    B = sp.diags(B_diag)
    inverse = np.argsort(perm)

    def shifted_solver(shift):
        lu = spla.splu((S - shift * B)[perm][:, perm].tocsc(), permc_spec="NATURAL")
        return lambda Y: lu.solve(Y[perm])[inverse]

    solve = shifted_solver(sigma)
    rng = np.random.default_rng(cfg.seed)
    X = rng.standard_normal((size, block))

    def b_orthonormalize(Y):
        Q, _ = np.linalg.qr(sb[:, None] * Y)
        return Q / sb[:, None]

    X = b_orthonormalize(X)
    history: list[float] = []
    theta = np.inf
    converged = False
    resid = np.inf
    refactors = 0
    it = 0
    for it in range(1, cfg.max_iters + 1):
        X = b_orthonormalize(solve(B_diag[:, None] * X))
        SX = S.dot(X)
        ritz_vals, U = np.linalg.eigh(X.T @ SX)
        X = X @ U
        SX = SX @ U
        theta = float(ritz_vals[0])
        history.append(theta)
        r = SX[:, 0] - theta * (B_diag * X[:, 0])
        resid = float(np.sqrt(np.sum(r * r / B_diag)))
        # absolute residual contract in the weighted norm, ||v||_B = 1
        if resid <= cfg.tol:
            converged = True
            break
        settled = len(history) >= 4 and abs(history[-1] - history[-2]) <= 1e-3 * (
            1.0 + abs(theta)
        )
        if settled and refactors < 3 and theta - sigma > 0.3 * (abs(theta) + 1.0):
            gap = float(ritz_vals[-1] - ritz_vals[0]) if block > 1 else abs(theta)
            sigma = theta - max(0.05 * gap, 1e-3 * (1.0 + abs(theta)))
            del solve  # free the old factorization before the new one is built
            solve = shifted_solver(sigma)
            refactors += 1
    return theta, X[:, 0], history, converged, it, resid


def stability_index(f: GridMap, cfg: EigenConfig | None = None, warn: bool = True) -> StabilityReport:
    """Smallest eigenvalue of the second-variation form over interior variations.

    The verdict uses the band epsilon = 1e-8 * median weighted diagonal:
    stable above +epsilon, unstable below -epsilon, marginal in between. An
    eigen-solve that stops at its iteration cap yields no verdict: it reads
    "undetermined" whatever the last Ritz value was. With ``warn``, one
    residual sweep warns if f is not minimal, as :class:`SecondVariationForm` does.
    """
    cfg = cfg or EigenConfig()
    if warn:
        _warn_if_not_minimal(f)
    form = SecondVariationForm(f, warn=False)
    S, B_diag = form.assemble()
    perm = dissection_permutation(f.grid, f.m)
    theta, v, history, converged, iters, resid = _smallest_eigenpair(S, B_diag, cfg, perm)
    epsilon = 1e-8 * float(np.median(np.abs(S.diagonal() / B_diag)))
    if not converged:
        verdict = "undetermined"
    elif theta > epsilon:
        verdict = "stable"
    elif theta < -epsilon:
        verdict = "unstable"
    else:
        verdict = "marginal"
    vec = np.zeros(f.grid.counts + (f.m,))
    vec[f.grid.interior_mask] = v.reshape(-1, f.m)
    return StabilityReport(
        min_eigenvalue=theta,
        eigenvector=VariationField(grid=f.grid, values=vec),
        rayleigh_history=tuple(history),
        verdict=verdict,
        epsilon=epsilon,
        converged=converged,
        iterations=iters,
        eigen_residual=resid,
    )
