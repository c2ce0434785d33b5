"""The area Hessian as node blocks, and its factorization on the nested-dissection tree.

The area Hessian, which serves both as the Newton matrix and as the
stability operator, couples each node only with nodes within Chebyshev
distance one that differ from it in at most two coordinates: a corner
Jacobian reaches no farther. ``hessian_matrix`` keeps its per-offset node
blocks, built element by element from the corner tensor, as a
``NodeBlockOperator`` on the interior dofs.

``Factorization`` factors such an operator, optionally shifted by -sigma B,
with dense numpy linear algebra on the fronts of the nested-dissection tree
(the multifrontal method: Duff & Reid, ACM TOMS 9, 1983) and counts its
negative pivots, which by Haynsworth's inertia additivity (Linear Algebra
Appl. 1, 1968) count its negative eigenvalues.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_LEAF_NODES = 8  # dissection blocks this small are not split further
_FRONT_NODES = 32  # a subtree of at most this many nodes is one dense front
_SLAB_BYTES = 2 << 20  # fronts of one batch are eliminated this many bytes of front stack at a time
PIVOT_TOL = 1e-11  # a pivot below this times the largest diagonal entry leaves the count uncertified


@functools.lru_cache(maxsize=None)
def _dissection_nodes(shape: tuple[int, ...]) -> np.ndarray:
    """Nested-dissection order of the nodes of a box of this shape, read-only; ``Factorization`` eliminates in it.

    The middle node plane across the longest axis separates the halves under a radius-one
    stencil; the halves come first, each ordered the same way, then the plane.
    """
    order = np.arange(int(np.prod(shape)))
    if order.size > _LEAF_NODES:
        ax = int(np.argmax(shape))
        mid = shape[ax] // 2
        low, plane, high = np.split(order.reshape(shape), [mid, mid + 1], axis=ax)
        halves = [b.ravel()[_dissection_nodes(b.shape)] for b in (low, high)]
        order = np.concatenate(halves + [plane.ravel()])
    order.setflags(write=False)
    return order


@functools.lru_cache(maxsize=None)
def _stencil(n: int) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """The offsets of {-1, 0, 1}^n that differ from 0 in at most two coordinates, with their lexicographic indices.

    The Hessian blocks of every other offset are zero by construction: 8 of 27 in 3-D, 48 of 81 in 4-D.
    """
    offsets = list(itertools.product((-1, 0, 1), repeat=n))
    keep = [k for k, d in enumerate(offsets) if np.count_nonzero(d) <= 2]
    return keep, tuple(offsets[k] for k in keep)


class NodeBlockOperator:
    """A symmetric operator on the interior dofs (node-major, components fastest) held as node blocks.

    ``blocks`` has shape (len(offsets), m, m) + interior node counts: ``blocks[j, a, b]`` at
    node p couples (p, a) with (p + offsets[j], b); the blocks of pairs that leave the interior are not read.
    """

    def __init__(self, blocks: np.ndarray, offsets: tuple[tuple[int, ...], ...]):
        self.blocks = blocks
        self.offsets = offsets
        self.m = blocks.shape[1]
        self.nodes = blocks.shape[3:]
        size = self.m * math.prod(self.nodes)
        self.shape = (size, size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with one vector or with the k columns of a (size, k) array."""
        m, nodes = self.m, self.nodes
        cols = np.asarray(x, dtype=float).reshape(self.shape[0], -1)
        padded = np.zeros((m, cols.shape[1]) + tuple(c + 2 for c in nodes))
        padded[(Ellipsis,) + (slice(1, -1),) * len(nodes)] = np.moveaxis(
            cols.reshape(nodes + (m, -1)), (-2, -1), (0, 1)
        )
        out = np.zeros((m, cols.shape[1]) + nodes)
        for block, delta in zip(self.blocks, self.offsets):
            window = padded[(Ellipsis,) + tuple(slice(1 + d, 1 + d + c) for d, c in zip(delta, nodes))]
            out += np.einsum("ab...,bk...->ak...", block, window)
        return np.moveaxis(out, (0, 1), (-2, -1)).reshape(np.shape(x))

    def diagonal(self) -> np.ndarray:
        center = self.offsets.index((0,) * len(self.nodes))
        return np.diagonal(self.blocks[center]).reshape(-1)

    def absolute(self) -> NodeBlockOperator:
        """The entrywise absolute value, whose products are the Gershgorin row sums."""
        return NodeBlockOperator(np.abs(self.blocks), self.offsets)


def hessian_matrix(form) -> NodeBlockOperator:
    """The Hessian of a ``SecondVariationForm`` on the interior dofs, from ``form.node_blocks()``.

    Only the offsets of ``_stencil`` are kept: the blocks of the others are exact zeros.
    """
    n = form.grid.n
    keep, offsets = _stencil(n)
    return NodeBlockOperator(form.node_blocks()[(keep, Ellipsis) + (slice(1, -1),) * n], offsets)


class _Batch(NamedTuple):
    """Fronts of one height of the tree with the same numbers of pivot and update dofs.

    ``pivots`` and ``update`` hold natural dof indices per front. ``gather`` places the
    operator's blocks in the fronts: (front, pivot node, front node, operator node, offset).
    Each entry of ``children`` is (batch, its fronts, their parents' places in this batch,
    the place of each of their update dofs in the parent front), one entry per batch and
    child slot, so no front of this batch appears twice in one entry.
    """

    pivots: np.ndarray
    update: np.ndarray
    gather: tuple[np.ndarray, ...]
    children: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]


def _front_ranges(shape: tuple[int, ...]) -> list[tuple[int, int, tuple[int, ...]]]:
    """The fronts in post-order: (first pivot, end, children) as ranges of dissection positions.

    A subtree of at most ``_FRONT_NODES`` nodes is one front; every larger one splits as
    ``_dissection_nodes`` does, and its front holds the separating plane.
    """
    fronts: list[tuple[int, int, tuple[int, ...]]] = []

    def visit(shape, start):
        size = math.prod(shape)
        if size == 0:
            return []
        if size <= _FRONT_NODES:
            fronts.append((start, start + size, ()))
            return [len(fronts) - 1]
        ax = int(np.argmax(shape))
        low = shape[:ax] + (shape[ax] // 2,) + shape[ax + 1 :]
        high = shape[:ax] + (shape[ax] - low[ax] - 1,) + shape[ax + 1 :]
        kids = visit(low, start) + visit(high, start + math.prod(low))
        fronts.append((start + math.prod(low) + math.prod(high), start + size, tuple(kids)))
        return [len(fronts) - 1]

    visit(shape, 0)
    return fronts


@functools.lru_cache(maxsize=8)  # a run factors on one grid, validate on a few
def _symbolic(nodes: tuple[int, ...], m: int) -> tuple[_Batch, ...]:
    """The batches of fronts of the interior box ``nodes`` with m components, in elimination order."""
    n, order = len(nodes), _dissection_nodes(nodes)
    total = order.size
    pos = np.empty(total, dtype=np.intp)
    pos[order] = np.arange(total)
    rank = np.full(tuple(c + 2 for c in nodes), -1, dtype=np.intp)
    rank[(slice(1, -1),) * n] = np.arange(total).reshape(nodes)
    neighbour = sliding_window_view(rank, (3,) * n).reshape(-1, 3**n)[:, _stencil(n)[0]]
    # dissection position of each stencil neighbour of the node at each position, -1 outside
    npos = np.where(neighbour >= 0, pos[neighbour], -1)[order]

    fronts = _front_ranges(nodes)
    height = []
    for _, _, kids in fronts:
        height.append(1 + max((height[k] for k in kids), default=-1))
    ends = np.array([end for _, end, _ in fronts])
    # a front's update set: its pivots' neighbours and its children's update sets not yet
    # eliminated, found for all fronts of one height by one sort of (front, position) keys
    # (np.unique would import numpy.ma, 11 ms)
    update = [None] * len(fronts)
    for level in range(max(height) + 1):
        ids = [f for f, h in enumerate(height) if h == level]
        owners = ids + [f for f in ids for _ in fronts[f][2]]
        parts = [npos[fronts[f][0] : fronts[f][1]].ravel() for f in ids]
        parts += [update[k] for f in ids for k in fronts[f][2]]
        owner = np.repeat(owners, [len(part) for part in parts])
        q = np.concatenate(parts)
        keys = np.sort((owner * total + q)[q >= ends[owner]])
        keys = keys[np.diff(keys, prepend=-1) > 0]
        bounds = np.searchsorted(keys, np.array(ids + [len(fronts)]) * total)
        for f, lo, hi in zip(ids, bounds, bounds[1:]):
            update[f] = keys[lo:hi] - f * total
    def shape(f):
        return height[f], fronts[f][1] - fronts[f][0], update[f].size

    groups = [list(g) for _, g in itertools.groupby(sorted(range(len(fronts)), key=shape), key=shape)]
    place = {f: (b, i) for b, group in enumerate(groups) for i, f in enumerate(group)}  # batch, index in it

    def dofs(positions):
        return (order[positions][..., None] * m + np.arange(m)).reshape(positions.shape[0], positions.shape[1] * m)

    batches = []
    for group in groups:
        first = np.array([fronts[f][0] for f in group])
        end = np.array([fronts[f][1] for f in group])
        p = end[0] - first[0]
        piv = first[:, None] + np.arange(p)
        upd = np.array([update[f] for f in group], dtype=np.intp)
        upd_keys = (np.arange(len(group))[:, None] * total + upd).ravel()

        def local(front, q):
            """Place of position q in the front: its pivots first, then its update set."""
            in_update = p + np.searchsorted(upd_keys, front * total + q) - front * upd.shape[1]
            return np.where(q < end[front], q - first[front], in_update)

        q = npos[piv]
        front, row, k = np.nonzero(q >= first[:, None, None])  # pivots' neighbours not yet eliminated
        q = q[front, row, k]
        gather = (front, row, local(front, q), order[piv[front, row]], k)

        slots = {}
        for parent, f in enumerate(group):
            for slot, kid in enumerate(fronts[f][2]):
                slots.setdefault((place[kid][0], slot), []).append((place[kid][1], parent))
        children = []
        for (child, _), pairs in sorted(slots.items()):
            sel, parent = (np.array(a) for a in zip(*pairs))
            kid_upd = batches[child].update[sel][:, ::m] // m  # nodes of the kids' update sets
            at = local(np.repeat(parent, kid_upd.shape[1]).reshape(kid_upd.shape), pos[kid_upd])
            children.append((child, sel, parent, (at[..., None] * m + np.arange(m)).reshape(len(sel), at.shape[1] * m)))
        batches.append(_Batch(dofs(piv), dofs(upd), gather, tuple(children)))
    return tuple(batches)


def _inverse(A: np.ndarray, out: np.ndarray, definite: bool) -> np.ndarray:
    """Writes A^-1 into ``out`` for a stack of symmetric pivot blocks and returns their pivots.

    The pivots are Cholesky's L_ii^2 when ``definite`` (LinAlgError if a block is not
    positive definite), else the eigenvalues of every block. A non-finite stack gives NaN
    for both.
    """
    if not np.isfinite(A).all():
        out[...] = np.nan
        return np.full(A.shape[:2], np.nan)
    if definite:
        L = np.linalg.cholesky(A)
        out[...] = np.linalg.inv(A)
        return np.diagonal(L, axis1=1, axis2=2) ** 2
    lam, Q = np.linalg.eigh(A)
    if not lam.all():
        raise RuntimeError("Factor is exactly singular")
    np.matmul(Q / lam[:, None, :], Q.transpose(0, 2, 1), out=out)
    return lam


def _assemble_fronts(F: np.ndarray, batch: _Batch, first: int, blocks: np.ndarray, schur: list, shift) -> None:
    """Fills F with the fronts first, first + 1, ... of the batch.

    Each front gets its pivot rows from the operator's ``blocks`` and their mirror, the
    Schur complements its children pass up, and -``shift`` on its pivot diagonal. The
    entries and child pairs of these fronts are found by bisection: ``batch.gather[0]``
    and each child entry's parent places ascend.
    """
    fronts, width, _ = F.shape
    pm, m = batch.pivots.shape[1], blocks.shape[1]
    end = first + fronts
    part = fronts < batch.pivots.shape[0]
    F.fill(0.0)
    front, row, col, node, k = batch.gather
    if part:
        lo, hi = front.searchsorted((first, end))
        front, row, col, node, k = front[lo:hi] - first, row[lo:hi], col[lo:hi], node[lo:hi], k[lo:hi]
    F.reshape(fronts, width // m, m, width // m, m)[front, row, :, col, :] = blocks[k, :, :, node]
    F[:, pm:, :pm] = F[:, :pm, pm:].transpose(0, 2, 1)
    for child, sel, parent, at in batch.children:
        if part:
            lo, hi = parent.searchsorted((first, end))
            sel, parent, at = sel[lo:hi], parent[lo:hi] - first, at[lo:hi]
        # one flat index is cheaper than three broadcast ones
        flat = (parent[:, None, None] * width + at[:, :, None]) * width + at[:, None, :]
        F.reshape(-1)[flat] += schur[child][sel]
    if shift is not None:
        diag = np.arange(pm)
        F[:, diag, diag] -= shift[batch.pivots[first:end]]


class Factorization:
    """H - sigma B factored front by front on the nested-dissection tree, with its inertia.

    H is a ``NodeBlockOperator`` and B the diagonal ``weights`` (none: sigma is 0). Each
    front gathers its pivot rows from H's blocks and adds the Schur complements its children
    pass up (extend-add); its pivot block is factored by Cholesky, or through its
    eigendecomposition when it is not positive definite, and it passes up the Schur
    complement on its update set. Fronts of one height and shape form a batch, eliminated
    in slabs of consecutive fronts whose dense stack fits in ``_SLAB_BYTES``, or one front
    when a single front is larger. Each slab is assembled in one workspace, allocated once per
    factorization at the size of the largest slab, and every slab's inverse, update rows and
    Schur complement are written into arrays made once per batch. The stored factor is one
    array. A batch with a pivot block that is not positive definite goes through the
    eigendecomposition in every slab, so each front meets the same LAPACK and BLAS calls as
    in one stack of the whole batch, whatever the slab size. Nothing is pivoted across fronts.

    ``count`` is the number of negative pivots, which is the number of eigenvalues of the
    pencil below sigma, or None when a pivot is non-finite or below ``PIVOT_TOL`` times the
    largest diagonal entry of |H| + |sigma| B. An exactly singular pivot block raises
    RuntimeError. ``stored`` is the number of matrix entries kept for the solves.
    """

    def __init__(self, operator: NodeBlockOperator, sigma: float = 0.0, weights: np.ndarray | None = None):
        m = operator.m
        self._batches = _symbolic(operator.nodes, m)
        blocks = operator.blocks.reshape(operator.blocks.shape[:3] + (-1,))
        bound = np.abs(operator.diagonal())
        if weights is not None:
            bound = bound + abs(sigma) * weights
        scale = float(np.max(bound, initial=0.0))
        shift = sigma * weights if weights is not None and sigma else None
        waiting = [0] * len(self._batches)  # child entries not yet added into their parents
        for batch in self._batches:
            for child, *_ in batch.children:
                waiting[child] += 1
        # one array holds the stored factor, every batch's G and T, so that no small long-lived
        # array lands on the heap between slab temporaries and pins it; one workspace holds the
        # largest slab of fronts that any batch eliminates at a time
        shapes = [batch.pivots.shape + batch.update.shape[1:] for batch in self._batches]
        steps = [max(1, _SLAB_BYTES // (8 * (p + u) ** 2)) for _, p, u in shapes]
        factor = np.empty(sum(f * p * (p + u) for f, p, u in shapes))
        work = np.empty(max(min(step, f) * (p + u) ** 2 for (f, p, u), step in zip(shapes, steps)))
        schur: list[np.ndarray | None] = [None] * len(self._batches)
        self._factors = []
        count, certified, used = 0, True, 0
        for i, (batch, (fronts, pm, u), step) in enumerate(zip(self._batches, shapes, steps)):
            width = pm + u
            G = factor[used : used + fronts * pm * pm].reshape(fronts, pm, pm)
            T = factor[used + G.size : used + fronts * pm * width].reshape(fronts, u, pm)
            used += fronts * pm * width
            S = schur[i] = np.empty((fronts, u, u))
            pivots = np.empty((fronts, pm))
            for definite in (True, False):
                try:
                    for a in range(0, fronts, step):
                        s = slice(a, a + step)
                        F = work[: min(step, fronts - a) * width * width].reshape(-1, width, width)
                        _assemble_fronts(F, batch, a, blocks, schur, shift)
                        pivots[s] = _inverse(F[:, :pm, :pm], G[s], definite)
                        np.matmul(F[:, pm:, :pm], G[s], out=T[s])
                        np.matmul(T[s], F[:, :pm, pm:], out=S[s])
                        np.subtract(F[:, pm:, pm:], S[s], out=S[s])
                    break
                except np.linalg.LinAlgError:
                    # a block is not positive definite: every slab goes through eigh, unless that failed
                    if not definite:
                        raise
            for child, *_ in batch.children:
                waiting[child] -= 1
                if not waiting[child]:
                    schur[child] = None
            self._factors.append((G, T))
            count += int(np.count_nonzero(pivots < 0))
            # NaN fails the comparison too
            certified = certified and bool(np.all(np.abs(pivots) > PIVOT_TOL * scale))
        self.count = count if certified else None
        self.stored = factor.size

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(H - sigma B)^-1 rhs for one vector or the k columns of a (size, k) array, natural order."""
        b = np.asarray(rhs, dtype=float)
        cols = b.reshape(b.shape[0], -1)
        passed, kept = [], []  # per batch: update vectors passed up, pivot parts kept
        for batch, (G, T) in zip(self._batches, self._factors):
            fronts, pm = batch.pivots.shape
            v = np.zeros((fronts, pm + batch.update.shape[1], cols.shape[1]))
            v[:, :pm] = cols[batch.pivots]
            for child, sel, parent, at in batch.children:
                v[parent[:, None], at] += passed[child][sel]
            kept.append(v[:, :pm])
            passed.append(v[:, pm:] - T @ v[:, :pm])
        x = np.empty_like(cols)
        for batch, (G, T), y in zip(reversed(self._batches), reversed(self._factors), reversed(kept)):
            x[batch.pivots] = G @ y - T.transpose(0, 2, 1) @ x[batch.update]
        return x.reshape(b.shape)
