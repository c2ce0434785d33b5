"""Tensor-product box grids and pointwise calculus of sampled maps.

The domain is an axis-aligned box with uniformly spaced nodes along each
axis. Maps into R^m are stored nodewise, and every derived field
(Jacobian, singular values, induced metric) is a plain array indexed the
same way as the nodes, so downstream code can slice by the grid masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "DomainGrid",
    "GridMap",
    "JacobianField",
    "SingularSpectrumField",
    "MetricField",
    "build_grid",
    "jacobian",
    "singular_spectrum",
    "induced_metric",
]


@dataclass(frozen=True)
class DomainGrid:
    """Axis-aligned box [a_1,b_1] x ... x [a_n,b_n] with N_k nodes per axis.

    Construction rejects a box without axes and degenerate axes: each needs
    finite extents with a_k < b_k and at least 3 nodes, so that it carries
    interior nodes.
    """

    extents: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("domain dimension must be >= 1, got 0")
        if len(self.extents) != len(self.counts):
            raise ValueError("extents and counts must have equal length")
        for k, ((a, b), c) in enumerate(zip(self.extents, self.counts)):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError(f"axis {k}: extents must be finite, got [{a}, {b}]")
            if not a < b:
                raise ValueError(f"axis {k}: need a < b, got [{a}, {b}]")
            if c < 3:
                raise ValueError(f"axis {k}: need at least 3 nodes, got {c}")

    @property
    def n(self) -> int:
        return len(self.counts)

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple((b - a) / (c - 1) for (a, b), c in zip(self.extents, self.counts))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linspace(a, b, c) for (a, b), c in zip(self.extents, self.counts))

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """Boolean node array, True where any index sits on a face of the box."""
        mask = np.zeros(self.counts, dtype=bool)
        for axis in range(self.n):
            sl = [slice(None)] * self.n
            sl[axis] = 0
            mask[tuple(sl)] = True
            sl[axis] = -1
            mask[tuple(sl)] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def interior_mask(self) -> np.ndarray:
        mask = ~self.boundary_mask
        mask.setflags(write=False)
        return mask

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """Composite trapezoidal node weights (tensor product of 1-d rules)."""
        vecs = []
        for h, c in zip(self.spacings, self.counts):
            v = np.full(c, h)
            v[0] *= 0.5
            v[-1] *= 0.5
            vecs.append(v)
        w = reduce(np.multiply.outer, vecs)
        w.setflags(write=False)
        return w

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.counts))

    @property
    def num_interior(self) -> int:
        return int(np.prod([c - 2 for c in self.counts]))

    @property
    def volume(self) -> float:
        return float(math.prod(b - a for a, b in self.extents))

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape counts + (n,)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def compatible_with(self, other: "DomainGrid") -> bool:
        return self.counts == other.counts and self.extents == other.extents


def build_grid(n: int, extents, counts) -> DomainGrid:
    """An n-dimensional grid from numbers of any numeric type; ``DomainGrid`` checks the axes."""
    extents = tuple((float(a), float(b)) for a, b in extents)
    counts = tuple(int(c) for c in counts)
    if len(extents) != n or len(counts) != n:
        raise ValueError(
            f"expected {n} extents and counts, got {len(extents)} and {len(counts)}"
        )
    return DomainGrid(extents=extents, counts=counts)


@dataclass(frozen=True)
class GridMap:
    """A map Omega -> R^m sampled at every grid node.

    Values are stored read-only; solvers produce updated copies through
    :meth:`with_interior_values`, which preserves boundary entries bit for
    bit (the Dirichlet contract).
    """

    grid: DomainGrid
    values: np.ndarray  # counts + (m,)

    def __post_init__(self):
        # always a private copy: freezing must not reach the caller's array
        vals = np.array(self.values, dtype=float, order="C")
        if vals.ndim != self.grid.n + 1 or vals.shape[: self.grid.n] != self.grid.counts:
            raise ValueError(
                f"values shape {vals.shape} does not match grid counts {self.grid.counts} + (m,)"
            )
        if vals.shape[-1] < 1:
            raise ValueError("target dimension m must be >= 1")
        if not np.all(np.isfinite(vals)):
            raise ValueError("map values must be finite at every node")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    @classmethod
    def from_function(cls, grid: DomainGrid, fn) -> "GridMap":
        """Sample ``fn``: ``fn`` maps a coordinate array (..., n) to (..., m)."""
        vals = np.asarray(fn(grid.coordinates()), dtype=float)
        if vals.shape[: grid.n] != grid.counts:
            raise ValueError("sampling function returned wrong leading shape")
        if vals.ndim == grid.n:
            vals = vals[..., None]
        return cls(grid=grid, values=vals)

    @classmethod
    def constant(cls, grid: DomainGrid, vec) -> "GridMap":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        vals = np.broadcast_to(vec, grid.counts + vec.shape).copy()
        return cls(grid=grid, values=vals)

    def with_interior_values(self, full_values: np.ndarray) -> "GridMap":
        """New map taking interior entries from ``full_values``, boundary from self."""
        new = self.values.copy()
        interior = self.grid.interior_mask
        new[interior] = np.asarray(full_values, dtype=float)[interior]
        return GridMap(grid=self.grid, values=new)

    def boundary_values(self) -> np.ndarray:
        return self.values[self.grid.boundary_mask]


@dataclass(frozen=True)
class JacobianField:
    """Nodewise m x n matrices approximating df.

    Interior nodes use centered second-order differences, boundary nodes
    one-sided second-order stencils, so the field is exact on affine maps.
    """

    grid: DomainGrid
    values: np.ndarray  # counts + (m, n)
    stencil: str = "centered-2 interior / one-sided-2 boundary"


def jacobian(f: GridMap) -> JacobianField:
    """Finite-difference Jacobian of a sampled map."""
    g = f.grid
    J = np.empty(g.counts + (f.m, g.n))
    for a in range(f.m):
        grads = np.gradient(f.values[..., a], *g.spacings, edge_order=2)
        if g.n == 1:
            grads = [grads]
        for i in range(g.n):
            J[..., a, i] = grads[i]
    return JacobianField(grid=g, values=J)


@dataclass(frozen=True)
class SingularSpectrumField:
    """Nodewise singular values of the Jacobian, sorted nonincreasing."""

    grid: DomainGrid
    values: np.ndarray  # counts + (min(m, n),)

    @property
    def lambda_max(self) -> np.ndarray:
        return self.values[..., 0]

    @cached_property
    def two_jacobian(self) -> np.ndarray:
        """Product of the two largest stretches; zero for rank <= 1 maps."""
        if self.values.shape[-1] < 2:
            return np.zeros(self.grid.counts)
        return self.values[..., 0] * self.values[..., 1]

    def _region_mask(self, region: str) -> np.ndarray:
        if region == "interior":
            return self.grid.interior_mask
        if region == "closure":
            return np.ones(self.grid.counts, dtype=bool)
        raise ValueError(f"unknown region {region!r}")

    def sup_lambda_max(self, region: str = "interior") -> float:
        return float(self.lambda_max[self._region_mask(region)].max())

    def sup_two_jacobian(self, region: str = "interior") -> float:
        return float(self.two_jacobian[self._region_mask(region)].max())


def singular_spectrum(J: JacobianField) -> SingularSpectrumField:
    """Singular values of every nodewise Jacobian matrix."""
    s = np.linalg.svd(J.values, compute_uv=False)
    return SingularSpectrumField(grid=J.grid, values=s)


@dataclass(frozen=True)
class MetricField:
    """Induced graph metric G = I + J^T J with determinant and inverse."""

    grid: DomainGrid
    values: np.ndarray  # counts + (n, n)
    det: np.ndarray  # counts

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.values)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return np.sqrt(self.det)


def induced_metric(f: GridMap, J: JacobianField | None = None) -> MetricField:
    """Induced metric of the graph of ``f`` from its nodewise Jacobian."""
    if J is None:
        J = jacobian(f)
    n = f.grid.n
    G = np.einsum("...ai,...aj->...ij", J.values, J.values) + np.eye(n)
    return MetricField(grid=f.grid, values=G, det=np.linalg.det(G))
