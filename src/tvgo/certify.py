"""How a candidate solution is certified, never trusting solver convergence
alone.

Both certificates measure || (Y - f)/n - lam D'v ||_inf over subgradient
certificates v with ||v||_inf <= 1, fixed to sign(Df) on the rows
_active_rows calls active.  kkt_residual solves a linear program for the
best v.  kkt_bound builds one v from the solver's own dual, made exact on a
spanning forest of the free edges by subtree sums; it is feasible for that
program, so its residual bounds the program's optimum from above.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from . import graphs, projections
from .splitting import Splitting

ACTIVE_TOL_SCALE = 1e-6   # KKT: |(Df)_i| above this fraction of the data scale is active


def _active_rows(Df: np.ndarray, DY: np.ndarray) -> np.ndarray:
    """Rows a certificate fixes to sign(Df): |(Df)_i| above ACTIVE_TOL_SCALE
    times the larger of ||Df||_inf and ||DY||_inf.  The data's scale anchors
    the threshold as well: at fully fused solutions ||Df||_inf is solver
    noise and must not define activity."""
    scale = max(float(np.max(np.abs(Df))), float(np.max(np.abs(DY)))) if Df.size else 0.0
    if scale > 0:
        return np.abs(Df) > ACTIVE_TOL_SCALE * scale
    return np.zeros(len(Df), dtype=bool)


def _start(Y, f_hat, D: sp.spmatrix | Splitting, lam: float, v: np.ndarray | None = None):
    """What both certificates start from: g = (Y - f)/n; and, at lam > 0, D
    as a CSR matrix (a Splitting's own), the dual guess v (m,), zero when
    None, clipped to [-1, 1] and set to sign(Df) on the rows _active_rows
    calls active, and the mask of those rows.  At lam = 0, where ||g||_inf
    is the residual, the last three are None."""
    Y = np.asarray(Y, dtype=np.float64)
    f_hat = np.asarray(f_hat, dtype=np.float64)
    g = (Y - f_hat) / Y.shape[0]
    if lam == 0.0:
        return g, None, None, None
    D = D.D if isinstance(D, Splitting) else sp.csr_matrix(D)
    Df = D @ f_hat
    act = _active_rows(Df, D @ Y)
    v = np.zeros(len(Df)) if v is None else np.clip(v, -1.0, 1.0)
    v[act] = np.sign(Df[act])
    return g, D, v, act


def kkt_bound(Y: np.ndarray, f_hat: np.ndarray, D: sp.spmatrix | Splitting, lam: float,
              v: np.ndarray) -> float:
    """Upper bound on kkt_residual from the dual guess v (m,), such as a
    column of BatchResult.V.  D is a graph incidence matrix or its
    Splitting, whose edge endpoints the forest step reads; of a plain D
    only the endpoints are read, with no solver factor built.

    v is clipped to [-1, 1] and fixed to sign(Df) on the rows kkt_residual
    calls active.  On a spanning forest of the free edges it is then re-solved
    by subtree sums, so that lam D'v = (Y - f)/n holds except for each fused
    component's mean, and clipped again.  The result is feasible for
    kkt_residual's linear program, so || (Y - f)/n - lam D'v ||_inf, which is
    returned, is at least the program's optimum.
    """
    g, Dm, v, act = _start(Y, f_hat, D, lam, v)
    if act is None:
        return float(np.max(np.abs(g)))
    free = np.flatnonzero(~act)
    if len(free):
        ends = D.ends if isinstance(D, Splitting) else graphs.edge_endpoints(Dm)
        rows, delta = _forest_step(ends[free], g - lam * (Dm.T @ v))
        v[free[rows]] += delta / lam
        np.clip(v, -1.0, 1.0, out=v)
    return float(np.max(np.abs(g - lam * (Dm.T @ v))))


def _forest_step(ends: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a spanning forest of the graph with 0-based edge endpoints
    `ends` on len(r) vertices, and the values delta on them with
    D_F' delta = r - (componentwise mean of r) for the forest's incidence D_F.

    Only the vertices the edges cover take part: any other vertex is a
    component of its own, where the centred r is zero and no edge is
    solved for.  A virtual root joined to the first covered vertex of each
    component makes the forest one tree, so one _TreeBlock takes every
    subtree sum: delta is the product of its pseudoinverse's transpose with
    the centred r (zero at the root), and the virtual edges' values, the
    centred sums, are dropped.  The root so has one neighbour per component
    that holds an edge, not one per vertex: scipy's depth-first search is
    quadratic in a vertex's degree.
    """
    covered, ends = np.unique(ends, return_inverse=True)
    ends = ends.reshape(-1, 2)
    r = r[covered]
    n, k = len(r), len(ends)
    labels = graphs.component_labels(n, ends)
    _, roots = np.unique(labels, return_index=True)
    # tree vertex i + 1 is covered vertex i, and 0 the root; edges past the
    # first k are the virtual ones
    tree_ends = np.concatenate([ends + 1, np.column_stack([np.zeros_like(roots), roots + 1])])
    # one edge per vertex pair, so that none add up in the adjacency, whose
    # values are the edges' positions plus one (a zero is no edge)
    lo, hi = tree_ends.min(axis=1), tree_ends.max(axis=1)
    _, first = np.unique(lo * (n + 1) + hi, return_index=True)
    adj = sp.csr_matrix((first + 1.0, tuple(tree_ends[first].T)), shape=(n + 1, n + 1))
    picked = csgraph.depth_first_tree(adj, 0, directed=False).data.astype(np.int64) - 1
    block = projections._TreeBlock(np.arange(n + 1), tree_ends[picked])
    centred = np.concatenate([[0.0], r - projections.componentwise_mean(labels, r)])
    delta = np.empty(n)
    delta[block.order] = block.apply_transpose(centred[:, None])[:, 0]
    real = picked < k
    return picked[real], delta[real]


def kkt_residual(Y: np.ndarray, f_hat: np.ndarray, D: sp.spmatrix | Splitting,
                 lam: float) -> float:
    """Best-case stationarity violation of a candidate solution.

    Searches for a subgradient certificate v with ||v||_inf <= 1, v fixed to
    the sign of (D f)_i on the rows _active_rows calls active, minimizing
    || (Y - f)/n - lam * D'v ||_inf.  Zero at the exact optimum; solved as a
    linear program (scipy.optimize is imported only when one is solved).
    D is any analysis operator, or a Splitting, of which only D is read.
    """
    g, D, v, act = _start(Y, f_hat, D, lam)
    if act is None:
        return float(np.max(np.abs(g)))
    c_fixed = g - lam * (D.T @ v)   # v is zero on the free rows
    free = np.flatnonzero(~act)
    if len(free) == 0:
        return float(np.max(np.abs(c_fixed)))
    from scipy.optimize import linprog   # about 14 MB of RSS, so only when needed

    n = len(g)
    A = (lam * D[free].T).tocsc()  # (n, p)
    p = len(free)
    # variables x = [v (p), r]; minimize r s.t. |c_fixed - A v| <= r, |v| <= 1
    ones = np.ones((n, 1))
    A_ub = sp.vstack([sp.hstack([-A, -ones]), sp.hstack([A, -ones])], format="csc")
    b_ub = np.concatenate([-c_fixed, c_fixed])
    cost = np.zeros(p + 1)
    cost[-1] = 1.0
    bounds = [(-1.0, 1.0)] * p + [(0.0, None)]
    sol = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not sol.success:
        raise RuntimeError(f"KKT certification LP failed: {sol.message}")
    return float(sol.fun)
