"""Blockwise pseudoinverses of reduced incidence matrices, nullspace
projections, antiprojection lengths, the inverse scaling factor, and weights.

The reduced operator splits into independent blocks, one per connected
component left after deleting the active edges.  Tree components admit an
exact combinatorial pseudoinverse (each column is a centered, signed subtree
indicator).  A subtree occupies a contiguous interval of the component's
depth-first preorder, so the column norms follow from the subtree sizes and
the noise correlations of a whole (n, B) block from one prefix sum along the
preorder, in O(n_i B) array operations without materializing anything
dense.  Every other component has cycles or parallel edges (which add up
in its Laplacian L) and takes a Laplacian block: column e is L+ d_e, so
(D+)' V = B L+ V is one Laplacian solve of the gathered rows followed by
the differences of heads and tails.  `splitting.laplacian` picks the solve.
A component whose edges are those of a whole h x w rectangle in its local
ids, as every component of a grid cut into rectangles is, takes the grid's
DCT-II (`griddct`), which diagonalises L, so its column norms ||L+ d_e||
follow in closed form from two products of small matrices per edge
direction.  Every other one takes the grounded sparse factor of L, and its
column norms from n_c solves, one per column of L+.  Neither materializes
an (n_c, n_c) array.

Both kinds of block apply their transpose through one interface of two
steps, which the noise events of a Monte Carlo run also take one at a
time.  `gather(V, work)` forms what the edges read: a tree block gathers
the rows in preorder and sums them, a Laplacian block solves with its
gathered rows.  `edge_sums(G, lo, hi, out, tmp)` forms the sums of a range
of edges into two caller-owned arrays: subtree sums for a tree block, heads
minus tails for a Laplacian block, allocating nothing.  So one
`apply_transpose` serves both kinds, and the events reduce any block slab
by slab.  With an even number of columns a tree block's prefix sum runs on
the complex128 view of the C-ordered (n_c, B) array.  numpy's accumulate
walks down each column one dependent add after another, so it is bound by
the add's latency; a complex add is two independent float64 adds, of the
real parts and of the imaginary parts, made in the same row order as the
float64 cumsum makes them.  The bits are the same, at about half the time
(0.96 -> 0.48 ms on a 4,077-vertex block of 64 columns).  An odd number of
columns keeps the float64 cumsum.

`gather` takes a caller-owned `work` array when given one, for the
gathered rows or prefix sums, so the noise events reuse one set of arrays
per thread instead of allocating block-sized ones per batch of trials; a
Laplacian block's solve still allocates its own.  A block's edge order is
its own: `PseudoInverse` records, per block, the global column of each of
the block's edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from . import splitting
from .graphs import ActiveSet, edge_endpoints

SOLVE_CHUNK = 256   # columns of L+ solved, and edges differenced, at once for column norms


def _preorder(nc: int, tail: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depth-first preorder from vertex 0 of the graph on nc vertices with
    the given 0-based edges, and each vertex's parent (negative at the root
    and at vertices not reached), as scipy's undirected search of their
    COO adjacency gives them.

    That search takes a vertex's out-neighbours by ascending id, then its
    in-neighbours by ascending id.  The symmetric adjacency built here lists
    each row's entries in that order, by one sorted int64 key
    src * 2 nc + (0 out, 1 in) * nc + dst, so a directed search of it visits
    the same vertices in the same order, without scipy's COO conversion and
    transposed copy.
    """
    key = np.concatenate([tail * (2 * nc) + head, head * (2 * nc) + (nc + tail)])
    key.sort()
    indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=nc) + np.bincount(head, minlength=nc), out=indptr[1:])
    adj = sp.csr_matrix((np.ones(len(key)), key % nc, indptr), shape=(nc, nc))
    return csgraph.depth_first_order(adj, 0, directed=True, return_predecessors=True)


class _Block:
    """What the two kinds of pseudoinverse block share: (D+)' V in the two
    steps of their common interface, `gather(V, work=None)` and
    `edge_sums(G, lo, hi, out, tmp)` (see the module docstring), with
    `order`, the position each of the block's edges was given in, and
    `sign`, the sign each edge's sum takes in its column."""

    def apply_transpose(self, V: np.ndarray) -> np.ndarray:
        """Column-wise inner products (D+)' V for V of shape (n, B): the
        gather, then the edge sums of all k edges at once, signed."""
        G = self.gather(V)
        out = np.empty((len(self.order), V.shape[1]))
        self.edge_sums(G, 0, len(out), out, np.empty_like(out))
        out *= self.sign[:, None]
        return out

    def to_dense(self, n: int) -> np.ndarray:
        """Materialized (n, k) block embedded at the component's vertices."""
        out = np.zeros((n, len(self.order)))
        out[self.vertices] = self.apply_transpose(np.eye(n)[:, self.vertices]).T
        return out


class _TreeBlock(_Block):
    """Pseudoinverse block of a tree component, kept in implicit form.

    Column for edge e equals sign_e * (1_B - |B|/n_c) restricted to the
    component, where B is the vertex set cut off from the (local) root by
    deleting e and sign_e is +1 when the edge head lies in B.  B is the
    subtree of the edge's child vertex, which occupies a contiguous run of
    preorder positions, so every subtree sum is a difference of two preorder
    prefix sums.  The block keeps its edges in the preorder of their child
    vertices (`order` maps them back to the order they were given in), which
    makes one of the two prefix sums of every edge a plain slice.  The index
    arrays are built here, never on first use, because the experiment's
    thread pool shares one block between its workers.
    """

    def __init__(self, vertices: np.ndarray, ends_local: np.ndarray):
        # vertices: global 0-based ids; ends_local: (k, 2) local (tail, head)
        self.vertices = vertices
        self.nc = nc = len(vertices)
        k = len(ends_local)
        if k != nc - 1:
            raise ValueError("tree block must have n_c - 1 edges")
        tail, head = ends_local[:, 0], ends_local[:, 1]
        preorder, parent = _preorder(nc, tail, head)
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
        child = np.where(head_below, head, tail)
        tin = np.empty(nc, dtype=np.int64)
        tin[preorder] = np.arange(nc)
        # the block's edges in the preorder of their child vertices: every
        # vertex but the root is the child of one edge, so the edge in
        # position i cuts off the subtree starting at preorder position i + 1,
        # and the prefix sum before it is row i of the prefix sums
        self.order = np.empty(k, dtype=np.int64)
        self.order[tin[child] - 1] = np.arange(k)
        child = child[self.order]
        self.sign = np.where(head_below[self.order], 1.0, -1.0)
        self.cut_size = sub[child]
        self.frac = self.cut_size / nc
        # with inclusive prefix sums C, the subtree sums to C[last] - C[i]
        self.last = np.arange(k) + self.cut_size
        self.rows = vertices[preorder]

    def column_norms_sq(self) -> np.ndarray:
        """Squared l2 norms of the pseudoinverse columns: b*(n_c-b)/n_c."""
        b = self.cut_size.astype(np.float64)
        return b * (self.nc - b) / self.nc

    def gather(self, V: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """Inclusive prefix sums C, of shape (n_c, B), of the rows of V of
        shape (n, B) taken in preorder; `work`, a C-ordered array of shape
        (>= n_c, B), holds them when given (its contents are overwritten).

        For even B the sums run on the complex128 view of C, whose element j
        pairs columns 2j and 2j + 1: a complex add is the two float64 adds of
        its real and imaginary parts, made in the same row order, so C holds
        the bits of the float64 cumsum, in about half its time.
        """
        B = V.shape[1]
        C = np.empty((self.nc, B)) if work is None else work[:self.nc]
        np.take(V, self.rows, axis=0, out=C, mode="clip")  # unbuffered; rows are in range
        S = C.view(np.complex128) if B % 2 == 0 else C
        np.cumsum(S, axis=0, out=S)
        return C

    def edge_sums(self, C: np.ndarray, lo: int, hi: int, out: np.ndarray,
                  tmp: np.ndarray) -> np.ndarray:
        """Unsigned subtree sums sum_B v - |B|/n_c * sum_C v of the block's
        edges lo:hi, from the prefix sums C of `gather`, into `out` of shape
        (hi - lo, B); `tmp`, of the same shape, takes frac_e * C[-1].  With
        sum_B v = C[last_e] - C[i] for the block position i of edge e, the
        edge's column is sign_e times its sum."""
        np.take(C, self.last[lo:hi], axis=0, out=out, mode="clip")
        out -= C[lo:hi]
        out -= np.multiply(self.frac[lo:hi, None], C[-1], out=tmp)
        return out


class _LaplacianBlock(_Block):
    """Pseudoinverse block of a component with cycles or parallel edges,
    kept in implicit form.

    Column e of B+ = L+ B' is L+ (1_head - 1_tail), so (D+)' V = B L+ V is
    one Laplacian solve of the gathered rows followed by heads minus tails,
    every sign +1.  `splitting.laplacian` picks the solve: the grid's DCT on
    a whole rectangle, whose column norms then follow in closed form
    (`griddct.GridDCT.edge_norms_sq`); else the grounded factor, whose
    solve takes centred rows and differs from L+ by a constant per column,
    which the differences cancel, and whose column norms take n_c solves.
    The block keeps its edges in the order they were given in.
    """

    def __init__(self, vertices: np.ndarray, ends_local: np.ndarray):
        # vertices: global 0-based ids; ends_local: (k, 2) local (tail, head)
        self.vertices = vertices
        self.tail, self.head = ends_local.T.copy()   # each contiguous, as np.take reads them
        self.lap_solve, self.dct = splitting.laplacian(len(vertices), ends_local)
        self.order, self.sign = np.arange(len(ends_local)), np.ones(len(ends_local))

    def column_norms_sq(self) -> np.ndarray:
        """Squared row norms of B L+ (those of B+'): in closed form on a
        rectangle, else from n_c solves, those of the unit vectors,
        SOLVE_CHUNK at a time, whose heads minus tails go SOLVE_CHUNK edges
        at a time through two reused buffers."""
        if self.dct is not None:
            return self.dct.edge_norms_sq(np.column_stack((self.tail, self.head)))
        nc, k = len(self.vertices), len(self.order)
        out = np.zeros(k)
        bufs = np.empty((2, min(SOLVE_CHUNK, k) * min(SOLVE_CHUNK, nc)))
        for lo in range(0, nc, SOLVE_CHUNK):
            G = np.eye(nc, min(SOLVE_CHUNK, nc - lo), -lo)
            G -= G.mean(axis=0)
            X = self.lap_solve(G)
            w = X.shape[1]
            for e in range(0, k, SOLVE_CHUNK):
                rows = min(SOLVE_CHUNK, k - e)
                # C-ordered views: np.take writes into them in place, where
                # it would fill a strided one through a copy
                P, tmp = (b[:rows * w].reshape(rows, w) for b in bufs)
                self.edge_sums(X, e, e + rows, P, tmp)
                out[e:e + rows] += np.einsum("ij,ij->i", P, P)
        return out

    def gather(self, V: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """L+ G, of shape (n_c, B), of the rows G of V of shape (n, B) at
        the block's vertices, which the grounded route centres first;
        `work`, a C-ordered array of shape (>= n_c, B), takes G when given
        (its contents are overwritten).  The solve allocates its own
        (n_c, B) arrays."""
        G = np.take(V, self.vertices, axis=0, mode="clip",
                    out=None if work is None else work[:len(self.vertices)])
        if self.dct is None:
            G -= G.mean(axis=0)
        return self.lap_solve(G)

    def edge_sums(self, X: np.ndarray, lo: int, hi: int, out: np.ndarray,
                  tmp: np.ndarray) -> np.ndarray:
        """Heads minus tails of the block's edges lo:hi in the solve X of
        `gather`, into `out` of shape (hi - lo, B), with the tails in `tmp`
        of the same shape; allocates nothing."""
        np.take(X, self.head[lo:hi], axis=0, out=out, mode="clip")
        out -= np.take(X, self.tail[lo:hi], axis=0, out=tmp, mode="clip")
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


def pseudoinverse(D: sp.spmatrix, active: ActiveSet,
                  ends: np.ndarray | None = None) -> PseudoInverse:
    """Blockwise pseudoinverse of the reduced operator D with the rows in S
    removed: a _TreeBlock for each tree component and a _LaplacianBlock for
    each of the rest.  ends, D's 0-based edge endpoints, are read from D when
    not given."""
    if len(active.inactive_rows) == 0:
        raise ValueError("no rows to invert: every edge is active")
    ends = (edge_endpoints(D) if ends is None else ends)[active.inactive_rows]
    comp_vertices = active.component_vertices()
    # local vertex index within each component
    local = np.empty(active.n, dtype=np.int64)
    for verts in comp_vertices:
        local[verts] = np.arange(len(verts))
    # group inactive edges by component, keeping row order within each group
    edge_lab = active.comp_label[ends]
    split = np.flatnonzero(edge_lab[:, 0] != edge_lab[:, 1])
    if len(split):
        raise ValueError(f"inactive edge {active.inactive_rows[split[0]] + 1} spans two components")
    order = np.argsort(edge_lab[:, 0], kind="stable")
    bounds = np.searchsorted(edge_lab[order, 0], np.arange(active.r_S + 1))
    blocks, col_of_block = [], []
    for c, verts in enumerate(comp_vertices):
        cols = order[bounds[c]:bounds[c + 1]]
        if len(cols) == 0:
            continue
        block = _TreeBlock if len(cols) == len(verts) - 1 else _LaplacianBlock
        blocks.append(block(verts, local[ends[cols]]))
        col_of_block.append(cols[blocks[-1].order])
    return PseudoInverse(n=active.n, n_cols=len(active.inactive_rows),
                         blocks=blocks, col_of_block=col_of_block)


def component_indicator(labels: np.ndarray) -> sp.csr_matrix:
    """(components, n) 0/1 matrix whose product with an (n, B) block sums
    each component's rows in vertex order, as bincount does."""
    n = len(labels)
    return sp.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(labels.max() + 1, n))


def componentwise_mean(labels: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mean of v over each component of the 0-based vertex labels, replicated
    on the component's vertices; v has shape (n,) or (n, B)."""
    v = np.asarray(v, dtype=np.float64)
    sizes = np.bincount(labels).astype(np.float64)
    if v.ndim == 1:
        return (np.bincount(labels, weights=v) / sizes)[labels]
    # every column equals its 1-D mean bit for bit
    return (component_indicator(labels) @ v / sizes[:, None])[labels]


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


def theory_report(D: sp.spmatrix, active: ActiveSet,
                  ends: np.ndarray | None = None) -> TheoryReport:
    """Compute omega, gamma and the weight vector for (D, S); ends, D's
    0-based edge endpoints, are read from D when not given."""
    pinv = pseudoinverse(D, active, ends)
    omega = np.zeros(active.m)
    omega[active.inactive_rows] = pinv.column_norms() / math.sqrt(active.n)
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
