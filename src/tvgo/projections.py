"""Blockwise pseudoinverses of reduced incidence matrices, nullspace
projections, antiprojection lengths, the inverse scaling factor, and weights.

The reduced operator splits into independent blocks, one per connected
component left after deleting the active edges.  Tree components admit an
exact combinatorial pseudoinverse (each column is a centered, signed subtree
indicator).  A subtree occupies a contiguous interval of the component's
depth-first preorder, so the column norms follow from the subtree sizes and
the noise correlations of a whole (n, B) block from one prefix sum along the
preorder, in O(n_i B) array operations without materializing anything
dense.  Components containing cycles, or parallel edges (which add up in the
Laplacian), keep a dense block from one Cholesky factor of their Laplacian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from scipy.linalg import lapack

from .graphs import ActiveSet, edge_endpoints

DENSE_CHUNK = 256   # tail columns gathered at once when building a dense block


class _TreeBlock:
    """Pseudoinverse block of a tree component, kept in implicit form.

    Column for edge e equals sign_e * (1_B - |B|/n_c) restricted to the
    component, where B is the vertex set cut off from the (local) root by
    deleting e and sign_e is +1 when the edge head lies in B.  B is the
    subtree of the edge's child vertex, which occupies the preorder positions
    [lo_e, hi_e), so every subtree sum is a difference of two preorder prefix
    sums.  The index arrays are built here, never on first use, because the
    experiment's thread pool shares one block between its workers.
    """

    def __init__(self, vertices: np.ndarray, ends_local: np.ndarray):
        # vertices: global 0-based ids; ends_local: (k, 2) local (tail, head)
        self.vertices = vertices
        self.nc = nc = len(vertices)
        k = len(ends_local)
        if k != nc - 1:
            raise ValueError("tree block must have n_c - 1 edges")
        tail, head = ends_local[:, 0], ends_local[:, 1]
        adj = sp.coo_matrix((np.ones(k), (tail, head)), shape=(nc, nc))
        # preorder and parent pointers from local root 0 (the root's parent
        # is negative)
        preorder, parent = csgraph.depth_first_order(
            adj, 0, directed=False, return_predecessors=True)
        if len(preorder) != nc:
            raise ValueError("component is not connected")
        # subtree sizes by reverse preorder accumulation
        par = parent.tolist()
        sub = [1] * nc
        for v in reversed(preorder.tolist()):
            if par[v] >= 0:
                sub[par[v]] += sub[v]
        sub = np.array(sub, dtype=np.int64)
        # per edge: the child vertex (far side from root) and orientation sign
        head_below = parent[head] == tail
        if not np.all(head_below | (parent[tail] == head)):
            raise ValueError("edge does not match tree structure")
        self.child = np.where(head_below, head, tail)
        self.sign = np.where(head_below, 1.0, -1.0)
        self.cut_size = sub[self.child]
        self.frac = self.cut_size / nc
        tin = np.empty(nc, dtype=np.int64)
        tin[preorder] = np.arange(nc)
        self.lo = tin[self.child]
        self.hi = self.lo + self.cut_size
        # with inclusive prefix sums C, the subtree sums to C[hi-1] - C[lo-1];
        # a child is never the root, so lo >= 1
        self.last = self.hi - 1
        self.before = self.lo - 1
        self.rows = vertices[preorder]

    def column_norms_sq(self) -> np.ndarray:
        """Squared l2 norms of the pseudoinverse columns: b*(n_c-b)/n_c."""
        b = self.cut_size.astype(np.float64)
        return b * (self.nc - b) / self.nc

    def apply_transpose(self, V: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """Column-wise inner products (D+)' V for V of shape (n, B).

        col_e' v = sign_e * (sum_B v - |B|/n_c * sum_C v), with sum_B v =
        C[hi_e - 1] - C[lo_e - 1] for the inclusive prefix sums C of v in
        preorder.  `work`, a C-ordered array of shape (>= n_c, B), holds the
        prefix sums when given (its contents are overwritten); the result is
        the only fresh (k, B) array.
        """
        # gathered, summed and scaled in place: every (n_c, B) temporary is
        # new memory to fault in on each block of trials
        B = V.shape[1]
        C = np.empty((self.nc, B)) if work is None else work[:self.nc]
        np.take(V, self.rows, axis=0, out=C, mode="clip")  # unbuffered; rows are in range
        np.cumsum(C, axis=0, out=C)
        out = C[self.last]
        out -= C[self.before]
        # the k = n_c - 1 rows before the total C[-1] hold its product with frac
        out -= np.multiply(self.frac[:, None], C[-1], out=C[:-1])
        out *= self.sign[:, None]
        return out

    def to_dense(self, n: int) -> np.ndarray:
        """Materialized (n, k) block embedded at the component's vertices."""
        out = np.zeros((n, len(self.child)), dtype=np.float64)
        pos = np.arange(self.nc)[:, None]   # preorder position of each row
        out[self.rows] = self.sign * (((self.lo <= pos) & (pos < self.hi)) - self.frac)
        return out


class _DenseBlock:
    """Dense pseudoinverse block of a component with cycles or parallel edges.

    M = L + 11'/n_c, L = B'B, has M^-1 = L+ + 11'/n_c, so column e of B+ = L+ B'
    is M^-1[:, head_e] - M^-1[:, tail_e]: one Cholesky factor of M builds it.
    """

    def __init__(self, vertices: np.ndarray, ends_local: np.ndarray):
        # vertices: global 0-based ids; ends_local: (k, 2) local (tail, head)
        self.vertices = vertices
        nc = len(vertices)
        adj = sp.coo_matrix((np.ones(len(ends_local)), ends_local.T), shape=(nc, nc))
        M = csgraph.laplacian((adj + adj.T).toarray())
        M += 1.0 / nc
        # M is symmetric, so its transpose is the Fortran-ordered array LAPACK
        # factors and inverts in place: one (n_c, n_c) array throughout
        R, info = lapack.dpotrf(M.T, overwrite_a=True)   # M = R'R, R upper
        # a squared pivot is at least M's least eigenvalue, which exceeds
        # 4/n_c^2 on a connected component (Mohar 1991); else M is singular
        if info != 0 or R.diagonal().min() * nc < 1.0:
            raise ValueError("component is not connected")
        Minv, _ = lapack.dpotri(R, overwrite_c=True)  # upper triangle only
        # dpotrf zeroed the strict lower triangle, so adding the transpose
        # mirrors the upper one and doubles the diagonal, which is restored
        diag = Minv.diagonal().copy()
        Minv += Minv.T
        np.fill_diagonal(Minv, diag)
        # Minv is symmetric, so the rows of its C-ordered transpose are its
        # columns: those of the heads are gathered, those of the tails in
        # chunks subtracted in place, so the only (k, n_c) array is the block
        rows = Minv.T
        pinv_t = rows[ends_local[:, 1]]
        tail = ends_local[:, 0]
        for lo in range(0, len(tail), DENSE_CHUNK):
            pinv_t[lo:lo + DENSE_CHUNK] -= rows[tail[lo:lo + DENSE_CHUNK]]
        self.pinv = pinv_t.T

    def column_norms_sq(self) -> np.ndarray:
        return np.sum(self.pinv ** 2, axis=0)

    def apply_transpose(self, V: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        return self.pinv.T @ V[self.vertices]   # needs no work array

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros((n, self.pinv.shape[1]), dtype=np.float64)
        out[self.vertices, :] = self.pinv
        return out


@dataclass
class PseudoInverse:
    """Block-structured Moore-Penrose pseudoinverse of a reduced incidence
    matrix, with columns ordered like the rows of the reduced operator."""

    n: int
    n_cols: int
    blocks: list
    col_of_block: list[np.ndarray]  # per block: global column positions

    def column_norms(self) -> np.ndarray:
        """l2 norms of the n_cols pseudoinverse columns."""
        out = np.empty(self.n_cols)
        for blk, cols in zip(self.blocks, self.col_of_block):
            out[cols] = np.sqrt(blk.column_norms_sq())
        return out

    def apply_transpose(self, V: np.ndarray) -> np.ndarray:
        """(D+)' V, shape (n_cols,) or (n_cols, B) matching V."""
        V = np.asarray(V, dtype=np.float64)
        single = V.ndim == 1
        V2 = V[:, None] if single else V
        out = np.empty((self.n_cols, V2.shape[1]))
        for blk, cols in zip(self.blocks, self.col_of_block):
            out[cols] = blk.apply_transpose(V2)
        return out[:, 0] if single else out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n_cols))
        for blk, cols in zip(self.blocks, self.col_of_block):
            out[:, cols] = blk.to_dense(self.n)
        return out


def pseudoinverse(D: sp.spmatrix, active: ActiveSet) -> PseudoInverse:
    """Blockwise pseudoinverse of the reduced operator D with the rows in S
    removed: a _TreeBlock for each tree component, a _DenseBlock for the rest."""
    if len(active.inactive) == 0:
        raise ValueError("no rows to invert: every edge is active")
    ends = edge_endpoints(D)[np.asarray(active.inactive) - 1]
    comp_vertices = active.component_vertices()
    # local vertex index within each component
    local = np.empty(active.n, dtype=np.int64)
    for verts in comp_vertices:
        local[verts] = np.arange(len(verts))
    # group inactive edges by component, keeping row order within each group
    edge_lab = active.comp_label[ends]
    split = np.flatnonzero(edge_lab[:, 0] != edge_lab[:, 1])
    if len(split):
        raise ValueError(f"inactive edge {active.inactive[split[0]]} spans two components")
    order = np.argsort(edge_lab[:, 0], kind="stable")
    bounds = np.searchsorted(edge_lab[order, 0], np.arange(active.r_S + 1))
    blocks, col_of_block = [], []
    for c, verts in enumerate(comp_vertices):
        cols = order[bounds[c]:bounds[c + 1]]
        if len(cols) == 0:
            continue
        block = _TreeBlock if len(cols) == len(verts) - 1 else _DenseBlock
        blocks.append(block(verts, local[ends[cols]]))
        col_of_block.append(cols)
    return PseudoInverse(n=active.n, n_cols=len(active.inactive),
                         blocks=blocks, col_of_block=col_of_block)


def componentwise_mean(labels: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mean of v over each component of the 0-based vertex labels, replicated
    on the component's vertices; v has shape (n,) or (n, B)."""
    v = np.asarray(v, dtype=np.float64)
    sizes = np.bincount(labels).astype(np.float64)
    if v.ndim == 1:
        return (np.bincount(labels, weights=v) / sizes)[labels]
    # the indicator product sums each component's rows in vertex order, as
    # bincount does, so every column equals its 1-D mean bit for bit
    n = len(labels)
    members = sp.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(len(sizes), n))
    return (members @ v / sizes[:, None])[labels]


def project_nullspace(active: ActiveSet, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of v onto the nullspace of the reduced operator:
    the componentwise mean of v replicated on each component."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != active.n:
        raise ValueError(f"vector length {v.shape[0]} != n = {active.n}")
    return componentwise_mean(active.comp_label, v)


def antiproject_nullspace(active: ActiveSet, v: np.ndarray) -> np.ndarray:
    """v minus its nullspace projection (the rowspan part of v)."""
    return np.asarray(v, dtype=np.float64) - project_nullspace(active, v)


@dataclass(frozen=True)
class TheoryReport:
    """Antiprojection lengths, inverse scaling factor, and weights for a
    reduced operator.

    omega[i-1] is the scaled norm of the pseudoinverse column matched to edge
    i (zero on active edges), gamma is its maximum over inactive edges, and
    weights[i-1] = 1 - omega[i-1]/gamma (so active edges carry weight 1).
    pinv is the pseudoinverse the report was computed from, kept for the
    noise events; it is left out of to_dict, repr and comparison.
    """

    omega: np.ndarray
    gamma: float
    weights: np.ndarray
    r_S: int
    component_sizes: tuple[int, ...]
    pinv: PseudoInverse = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "omega": self.omega.tolist(),
            "gamma": self.gamma,
            "weights": self.weights.tolist(),
            "r_S": self.r_S,
            "component_sizes": list(self.component_sizes),
        }


def theory_report(D: sp.spmatrix, active: ActiveSet) -> TheoryReport:
    """Compute omega, gamma and the weight vector for (D, S)."""
    pinv = pseudoinverse(D, active)
    omega = np.zeros(active.m)
    omega[np.asarray(active.inactive) - 1] = pinv.column_norms() / math.sqrt(active.n)
    gamma = float(omega.max())
    if gamma <= 0.0:
        raise ValueError("inverse scaling factor is zero; reduced operator is degenerate")
    weights = 1.0 - omega / gamma
    return TheoryReport(omega=omega, gamma=gamma, weights=weights,
                        r_S=active.r_S, component_sizes=active.comp_sizes, pinv=pinv)


def gamma_bound(family: str, n: int, n_max: int, grid_constant: float | None = None) -> float:
    """Closed-form upper bound on the inverse scaling factor.

    Trees and cycles (cycle requires a nonempty active set): sqrt((n_max+1)/(4n)).
    Grids: grid_constant * sqrt(log(n_max)/n); the multiplicative constant is
    not pinned down by theory and must be supplied by the caller.
    """
    if family in ("tree", "path", "cycle"):
        return math.sqrt((n_max + 1) / (4.0 * n))
    if family == "grid":
        if grid_constant is None or grid_constant <= 0:
            raise ValueError("grid family requires a positive grid_constant")
        return grid_constant * math.sqrt(math.log(n_max) / n)
    raise ValueError(f"no scaling-factor bound for family {family!r}")
