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
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ._stencils import _edge, cell_counts, corner_jacobians, corner_metrics, corner_offsets, corner_weight
from ._stencils import scatter_corner_flux, small_matmul
from .area import minimal_system_residual  # the name perfbench's span hook wraps
from .assembly import Factorization, NodeBlockOperator
from .assembly import hessian_matrix as colored_stencil_matrix  # the name perfbench's span hook wraps
from .errors import ContradictionDetected, NotMinimalWarning
from .grid import GridMap, induced_metric
from .report import Summarized

if TYPE_CHECKING:
    from .solver import _KeptFactor

__all__ = [
    "VariationField",
    "StabilityReport",
    "EigenConfig",
    "SecondVariationForm",
    "first_variation",
    "stability_index",
]

DEFAULT_MINIMAL_TOL = 1e-8
_CONVEXITY_CHUNK = 4096  # corners per slab of the convexity test
# the eigen-iteration applies S to its whole basis afresh when the triangular factor of the
# basis has a diagonal entry below this times its largest: carried products would lose accuracy
_CARRY_TOL = 1e-2


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


@lru_cache(maxsize=8)  # a run assembles on one grid, validate on a few
def _scatter_plan(cells: tuple[int, ...]) -> tuple:
    """Per axis j, the rows (corner c, axis i, targets) of ``node_blocks``' scatter, in (c, i) order.

    The edge leaving corner nu along axis i touches, at its end s, the node nu with entry
    i set to s, and differences with sign +-1/h_i. Each of the 4 targets (s, t) is the
    offset k from that row node to the column node (entry j set to t), the ``_edge`` index
    of the row nodes, and ``np.add`` when s = t, else ``np.subtract``.
    """
    n, centre = len(cells), (3 ** len(cells) - 1) // 2

    def targets(nu, i, j):
        return tuple(
            (
                centre + (t - nu[j]) * 3 ** (n - 1 - j) - (s - nu[i]) * 3 ** (n - 1 - i),
                _edge(cells, nu, i, s),
                np.add if s == t else np.subtract,
            )
            for s, t in itertools.product((0, 1), repeat=2)
        )

    return tuple(
        tuple((c, i, targets(nu, i, j)) for c, nu in enumerate(corner_offsets(n)) for i in range(n))
        for j in range(n)
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
        self._kept_columns = None  # set by corners_convex

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

    def _unit_flux(self, b: int, j: int, part=(Ellipsis,)) -> np.ndarray:
        """``_flux`` of the unit corner field E_bj, bit for bit, on the cells ``part``.

        For B = E_bj the only nonzero entries of M = J^T B + B^T J are M_jl = J_bl and
        M_kj = J_bk off the diagonal and M_jj = 2 J_bj, and 1/2 tr(G^-1 M) = (J G^-1)_bj.
        So column l != j of X = J G^-1 M is (J G^-1)_{:j} J_bl and column j is the k-ordered
        sum of ``small_matmul``: the products by exact zeros are left out, the rest is
        ``_flux``'s arithmetic in its order. ``part`` indexes the trailing cell axes of
        every corner array.
        """
        J, JGi = self._J[part], self._JGi[part]
        X = np.empty(JGi.shape)
        for l in range(self.grid.n):
            if l != j:
                np.multiply(JGi[:, j], J[b, l], out=X[:, l])
        Mj = [2.0 * J[b, k] if k == j else J[b, k] for k in range(self.grid.n)]  # column j of M
        np.multiply(JGi[:, 0], Mj[0], out=X[:, j])
        for k in range(1, self.grid.n):
            X[:, j] += JGi[:, k] * Mj[k]
        np.negative(X, out=X)  # Y = E_bj - X
        X[b, j] += 1.0
        flux = small_matmul(X, self._Ginv[part])
        flux += JGi[b, j] * JGi
        flux *= self._sqrtg[part]
        return flux

    def hessian_values(self, Vvals: np.ndarray) -> np.ndarray:
        """H V, the exact derivative of the area gradient along V, zero on boundary rows."""
        flux = self._flux(corner_jacobians(Vvals, self.grid))
        out = self._wc * scatter_corner_flux(flux, self.grid)
        return np.where(self._interior[..., None], out, 0.0)

    def node_blocks(self) -> np.ndarray:
        """H = w_c sum_c D_c^T K_c D_c as node blocks, shape (3^n, m, m) + counts.

        Entry [k, a, b] at node p couples (p, a) with (p + delta_k, b), where delta_k is
        the k-th offset of {-1, 0, 1}^n in lexicographic order. Column (b, j) of K_c is
        ``_unit_flux(b, j)``, and ``_scatter_plan`` sends each of its entries (a, i) at
        corner c to its four node blocks. Columns that ``corners_convex`` kept are
        consumed: they are freed on return.
        """
        n, m, h = self.grid.n, self.m, self.grid.spacings
        plan = _scatter_plan(cell_counts(self.grid))
        blocks = np.zeros((3**n, m, m) + self.grid.counts)
        columns, self._kept_columns = self._hessian_columns(), None
        for (b, j), column in zip(itertools.product(range(m), range(n)), columns):
            for c, i, targets in plan[j]:
                k_ij = (self._wc / (h[i] * h[j])) * column[:, i, c]
                for k, edge, op in targets:
                    target = blocks[k, :, b][edge]
                    op(target, k_ij, out=target)
        return blocks

    def _hessian_columns(self):
        """K_c E_bj for each unit corner field E_bj in (b, j) order, entries (a, i) per corner.

        The ones ``corners_convex`` kept, else computed one at a time.
        """
        if self._kept_columns is not None:
            return self._kept_columns
        return (self._unit_flux(b, j) for b, j in itertools.product(range(self.m), range(self.grid.n)))

    def corners_convex(self) -> bool:
        """Whether every corner Hessian K_c is positive definite, which makes H positive semidefinite.

        Builds the columns ``_unit_flux`` of K_c and keeps them, so a later ``node_blocks``
        computes none again. It works in slabs of whole cell planes along the first axis,
        about ``_CONVEXITY_CHUNK`` corners each, so the flux temporaries and the Cholesky
        copies stay small. Newton assembles without this test and never holds the columns
        at once.
        """
        mn, n = self.m * self.grid.n, self.grid.n
        columns = np.empty((mn,) + self._J.shape)
        planes = max(1, _CONVEXITY_CHUNK // self._sqrtg[:, 0].size)  # per slab
        convex = True
        for start in range(0, self._J.shape[3], planes):
            part = (Ellipsis, slice(start, start + planes)) + (slice(None),) * (n - 1)
            for column, (b, j) in zip(columns, itertools.product(range(self.m), range(n))):
                column[part] = self._unit_flux(b, j, part)
            K = columns[(slice(None),) + part].reshape(mn, mn, -1).T  # per corner, [(a, i), (b, j)]
            if convex:
                try:
                    np.linalg.cholesky(K)
                except np.linalg.LinAlgError:
                    convex = False
        self._kept_columns = columns
        return convex

    def apply_values(self, Vvals: np.ndarray) -> np.ndarray:
        """H V / w as a nodal array; <W, HV>_w equals the polarized quadratic form."""
        return self.hessian_values(Vvals) / self._node_weight[..., None]

    def apply(self, V: VariationField) -> VariationField:
        return VariationField(grid=self.grid, values=self.apply_values(_as_values(V)))

    def weighted_inner(self, V: VariationField | np.ndarray, W: VariationField | np.ndarray) -> float:
        prod = np.sum(_as_values(V) * _as_values(W), axis=-1)
        return float(np.sum(self._node_weight * prod))

    def assemble(self) -> tuple[NodeBlockOperator, np.ndarray]:
        """Hessian over interior dofs and the weights B: S v = theta B v is the stability pencil."""
        S = colored_stencil_matrix(self)
        return S, np.repeat(self._node_weight[self._interior], self.m)


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
        if not self.tol > 0 or self.max_iters <= 0:  # NaN too
            raise ValueError("eigensolver tolerance and iteration cap must be positive")


@dataclass(frozen=True)
class StabilityReport(Summarized):
    """Smallest eigenvalue of the stability operator with its eigenvector."""

    min_eigenvalue: float
    eigenvector: VariationField
    rayleigh_history: tuple[float, ...]
    verdict: str  # stable / marginal / unstable, or undetermined
    morse_index: int | None  # number of eigenvalues below -epsilon; None when undetermined
    epsilon: float
    converged: bool
    iterations: int
    factorizations: int  # made here: 0 on the solve's kept factorization, else 1 plus the bisection steps
    eigen_residual: float


def _gershgorin_lower_bound(S: NodeBlockOperator, B_diag: np.ndarray) -> float:
    sb = np.sqrt(B_diag)
    row_weighted = (S.absolute() @ (1.0 / sb)) / sb
    diag = S.diagonal()
    centers = diag / B_diag
    radii = row_weighted - np.abs(diag) / B_diag
    return float(np.min(centers - radii))


def _factor(S: NodeBlockOperator, B_diag: np.ndarray, sigma: float, definite: bool = False):
    """The factorization of S - sigma B with its count of negative pivots.

    By Sylvester's law of inertia the negative pivots count the eigenvalues of the
    pencil below sigma. The count is None (sigma may be an eigenvalue) when a pivot is
    non-finite or round-off small; both are None when a pivot block is exactly
    singular. For a ``definite`` S - sigma B it is 0 whatever the pivots read.
    """
    try:
        factor = Factorization(S, sigma, B_diag)
    except RuntimeError:  # an exactly singular pivot block
        return None, None
    return factor, 0 if definite else factor.count


def _unit_scale(V: np.ndarray, B_diag: np.ndarray) -> np.ndarray:
    """Per column of V, the factor that gives it unit B-norm; 0 for a zero column."""
    norm = np.sqrt(B_diag @ V**2)
    return np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)


def _smallest_eigenpair(
    S: NodeBlockOperator, B_diag: np.ndarray, epsilon: float, cfg: EigenConfig, convex: bool, kept: _KeptFactor | None
):
    """LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) on the pencil S v = theta B v with a factorization F.

    The count k of eigenvalues below -epsilon (the Morse index, None when not
    certified) comes from factoring S + epsilon B; it is 0 without a count when
    every corner Hessian is positive definite (``convex``), since then S is
    positive semidefinite. A convex map iterates on ``kept.factor``, the solve's
    factorization of a nearby Hessian, if one probe shows that it inverts S: with
    W = B X_0, ||S F^-1 W - W||_F <= ||W||_F / 2. Otherwise it iterates on the
    factorization of S + epsilon B when k = 0; else the shift is bisected on
    inertia between a Gershgorin lower bound and -epsilon until a shift with no
    eigenvalue below it lies within 0.1 (1 + |sigma|) of one with some, and it
    iterates on that factorization. F changes only the number of steps: theta,
    the residual test and k come from S, B and the corner test alone.

    A block of 4 handles clustered bottom eigenvalues (the flat operator has
    one copy of the spectrum per target component). The first Rayleigh-Ritz
    space is the span of F^-1 B X_0 alone; every later one is
    [X_k, F^-1 R_k, P_k] with R_k = S X_k - B X_k Theta_k and P_k the part of
    X_k outside the span of X_{k-1}, so it spans X_k, F^-1 R_k and X_{k-1}; its
    new columns have unit B-norm. S is applied to F^-1 R_k alone, as S X_k and
    S P_k are carried: with the columns scaled by sqrt(B) equal to Q T (T the
    transposed Cholesky factor of their Gram matrix), the B-orthonormal basis is
    the space times T^-1 and S times it the carried products times T^-1. When
    T is ill-conditioned (a diagonal entry below ``_CARRY_TOL`` times the
    largest), and for the first space, the basis comes from a Householder QR
    and S is applied to all of it. The residual test that ends the iteration
    reads a freshly applied S X_k. The lowest 4 Ritz pairs are the next block.
    Also returns the number of factorizations made.
    """
    sb = np.sqrt(B_diag)
    block = min(4, sb.size)
    X = np.random.default_rng(cfg.seed).standard_normal((sb.size, block))
    W = B_diag[:, None] * X
    factor, morse, factorizations = None, 0, 0
    if convex and kept is not None and kept.factor is not None:
        Y = kept.factor.solve(W)
        if np.linalg.norm(S @ Y - W) <= 0.5 * np.linalg.norm(W):  # NaN fails
            factor = kept.factor
    if factor is None:
        factor, morse = _factor(S, B_diag, -epsilon, definite=convex)
        factorizations = 1
        if morse != 0:
            lower = _gershgorin_lower_bound(S, B_diag)
            lo, hi = lower - 1e-2 * (abs(lower) + 1.0), -epsilon
            while True:
                sigma = 0.5 * (lo + hi)
                factor, count = _factor(S, B_diag, sigma)
                factorizations += 1
                if count != 0:
                    hi = sigma
                elif hi - sigma <= 0.1 * (1.0 + abs(sigma)):
                    break
                else:
                    lo = sigma
        Y = factor.solve(W)
    space = np.empty((sb.size, 3 * block))  # sqrt(B) [X_k, F^-1 R_k, P_k]
    products = np.empty_like(space)  # S [X_k, F^-1 R_k, P_k]
    np.multiply(sb[:, None], Y, out=space[:, :block])
    width = block  # the first space holds the solves alone
    del W, Y  # the kept factorization may be alive: hold no n-row array longer than needed
    history: list[float] = []
    for it in range(1, cfg.max_iters + 1):  # max_iters >= 1 sets theta, resid and it
        basis = space[:, :width]
        fresh = it == 1 or width > sb.size
        if not fresh:
            try:
                T_inv = np.linalg.inv(np.linalg.cholesky(basis.T @ basis).T)
            except np.linalg.LinAlgError:
                fresh = True
            else:
                diag = np.abs(np.diagonal(T_inv))  # the inverses of T's diagonal
                fresh = not diag.max() < diag.min() / _CARRY_TOL  # NaN too
        if fresh:
            Z = np.linalg.qr(basis)[0] / sb[:, None]
            SZ = S @ Z
        else:
            Z, SZ = (basis @ T_inv) / sb[:, None], products[:, :width] @ T_inv
        ritz_vals, U = np.linalg.eigh(Z.T @ SZ)
        U = U[:, :block]
        X, SX, theta = Z @ U, SZ @ U, float(ritz_vals[0])
        history.append(theta)
        R = SX - B_diag[:, None] * X * ritz_vals[:block]
        resid = float(np.sqrt(np.sum(R[:, 0] ** 2 / B_diag)))
        if resid <= cfg.tol and not fresh:  # carried products are checked against a fresh one
            SX = S @ X
            R = SX - B_diag[:, None] * X * ritz_vals[:block]
            resid = float(np.sqrt(np.sum(R[:, 0] ** 2 / B_diag)))
        # absolute residual contract in the weighted norm, ||v||_B = 1
        if resid <= cfg.tol:
            break
        # the next space [X_k, F^-1 R_k, P_k], its new columns of unit B-norm, and S times it
        if width > block:
            P, SP = Z[:, block:width] @ U[block:], SZ[:, block:width] @ U[block:]
            scale = _unit_scale(P, B_diag)
            np.multiply(sb[:, None], P * scale, out=space[:, 2 * block :])
            np.multiply(SP, scale, out=products[:, 2 * block :])
        del SZ  # freed before the next step builds its own
        W = factor.solve(R)
        W *= _unit_scale(W, B_diag)
        np.multiply(sb[:, None], W, out=space[:, block : 2 * block])
        products[:, block : 2 * block] = S @ W
        np.multiply(sb[:, None], X, out=space[:, :block])
        products[:, :block] = SX
        width = 3 * block if width > block else 2 * block
    return theta, X[:, 0], history, resid <= cfg.tol, it, resid, morse, factorizations


def stability_index(
    f: GridMap, cfg: EigenConfig | None = None, warn: bool = True, kept: _KeptFactor | None = None
) -> StabilityReport:
    """Smallest eigenvalue of the second-variation form over interior variations.

    The verdict uses the band epsilon = 1e-8 * median weighted diagonal:
    stable above +epsilon, unstable below -epsilon, marginal in between. The
    Morse index is 0 when every corner Hessian is positive definite and is
    counted by inertia at -epsilon otherwise. The verdict is "undetermined",
    with no Morse index, when the eigen-solve stops at its iteration cap or
    the count is not certified; a Morse index that disagrees with the
    converged eigenvalue raises ContradictionDetected.
    With ``warn``, one residual sweep warns if f is not minimal.

    ``kept`` is the ``solver._KeptFactor`` that a ``solve_dirichlet`` of f filled.
    On a corner-convex map the eigen-solve iterates on its factorization if that
    passes a one-block probe, and then factors nothing (``factorizations`` 0);
    otherwise it factors S + epsilon B as it does without ``kept``. The
    factorization changes only the iteration count, never the residual test, the
    verdict or the Morse index.
    """
    cfg = cfg or EigenConfig()
    if warn:
        _warn_if_not_minimal(f)
    form = SecondVariationForm(f, warn=False)
    convex = form.corners_convex()
    S, B_diag = form.assemble()
    del form  # and the corner Hessian it kept, before any factorization
    # the median by sort: np.median would import numpy.ma (11 ms)
    ratios = np.sort(np.abs(S.diagonal() / B_diag))
    epsilon = 1e-8 * float(0.5 * (ratios[(ratios.size - 1) // 2] + ratios[ratios.size // 2]))
    theta, v, history, converged, iters, resid, morse, factorizations = _smallest_eigenpair(
        S, B_diag, epsilon, cfg, convex, kept
    )
    if converged and morse is not None and (theta < -epsilon) != (morse > 0):
        raise ContradictionDetected(
            f"stability eigenvalue {theta:.6e} contradicts {morse} eigenvalues counted below {-epsilon:.3e}"
        )
    if not converged or morse is None:
        verdict, morse = "undetermined", None
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
        morse_index=morse,
        epsilon=epsilon,
        converged=converged,
        iterations=iters,
        factorizations=factorizations,
        eigen_residual=resid,
    )
