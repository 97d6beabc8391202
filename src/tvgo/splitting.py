"""How the solvers solve with a graph's incidence matrix D.

Every linear solve the estimators take, the ADMM f-update's
(I + rho D'D) X = R and the screen's and the polish's D'D X = R, is picked
here once per graph from D's edge endpoints, and held by a Splitting: one
for the whole graph, and one per pattern of fused edges the polish reads
(the graph on the same vertices with those edges alone).  On a row-major
grid the orthonormal DCT-II over the two grid axes diagonalises D'D
(`griddct`, which also says which transforms a grid takes), so no factor
is built and a new rho only rebuilds a diagonal.  Every other graph takes,
for each rho asked for, a SuperLU factor of I + rho D'D and, for D'D, a
factor grounded at one vertex per component: banded Cholesky up to a band
of BAND_MAX, SuperLU past it.  Both matrices are built from the endpoints,
with no sparse product.  `laplacian` makes the one choice between the DCT
and the grounded factor, the package's one factor of a graph Laplacian,
for every Splitting and for every pseudoinverse block with cycles in
`projections`.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from . import graphs, griddct

BAND_MAX = 64           # widest reverse Cuthill-McKee band of a banded Laplacian factor


def laplacian(n: int, ends: np.ndarray, labels: np.ndarray | None = None):
    """(lap_solve, dct) of the graph on n vertices with 0-based edge
    endpoints ends: lap_solve(R), for R with zero mean on every component,
    returns an X with D'D X = R, and may overwrite R.  This is where the
    package picks how it applies a Laplacian's pseudoinverse.

    On the row-major h x w grid (griddct._grid_shape), which is connected,
    dct is its GridDCT and lap_solve divides by the eigenvalues with the zero
    mode dropped, so X is L+ R itself.  Every other graph takes
    _grounded_solve's factor, dct is None, and X is L+ R up to a constant
    per component.  labels are the graph's 0-based component labels; when
    not given, the graph must be connected, which is checked before the
    factor is built (a factor of a disconnected graph fails or is singular).
    """
    if (shape := griddct._grid_shape(n, ends)) is not None:
        dct = griddct.GridDCT(*shape)
        return (lambda R: dct.divide(R, dct.lap_denom)), dct
    if labels is None:
        labels = graphs.component_labels(n, ends)
        if labels.max() > 0:
            raise ValueError("component is not connected")
    return _grounded_solve(ends, labels), None


def _solve_factory(n: int, ends: np.ndarray, labels: np.ndarray):
    """(factory, factory32, lap_solve) of the graph on n vertices whose
    0-based edge endpoints are ends and whose 0-based component labels are
    labels: factory maps rho to solve, where solve(R) returns X with
    (I + rho D'D) X = R, factory32 does the same in float32 on the DCT
    grids and is None on every other graph, and lap_solve is laplacian's.
    All may overwrite R.

    On the row-major grid, the orthonormal DCT-II along both grid axes
    diagonalises D'D, so the solve is exact without a factor and a new rho
    only rebuilds the denominator.  Up to griddct.DCT_MATRIX_MAX_SIDE per
    side the transforms are products with the DCT-II matrices, which do not
    write to R; larger grids take scipy.fft's dctn/idctn.  Every other
    graph, paths included, takes a SuperLU factor of I + rho D'D, built
    from the endpoints when a rho is asked for (on a path its tridiagonal
    factor solves faster than the transforms); a graph no solve is asked
    of builds nothing for one.  A float32 solve takes float32 DCT-II
    matrices or transforms.  There is no float32 factor: in float32,
    1 + 2 rho rounds to 2 rho from rho of about 1e7, so I + rho D'D loses
    its identity, and SuperLU finds it singular from rho = 1e8 on (a path of
    200,000 vertices reached that in float32).
    """
    lap_solve, dct = laplacian(n, ends, labels)
    if dct is None:
        def at(rho):
            degree = np.bincount(ends.ravel(), minlength=n)
            return spla.splu(_symmetric(1.0 + rho * degree, ends[:, 0], ends[:, 1], -rho)).solve
        return at, None, lap_solve

    def factory(dtype):
        def at(rho):
            denom = (1.0 + rho * dct.eig)[:, :, None].astype(dtype, copy=False)
            return lambda R: dct.divide(R, denom)
        return at
    return factory(np.float64), factory(np.float32), lap_solve


def _symmetric(diag: np.ndarray, lo: np.ndarray, hi: np.ndarray, off: float) -> sp.csc_matrix:
    """The symmetric CSC matrix with diag on its diagonal and off at
    (lo, hi) and (hi, lo) for each pair, a repeated pair's entries adding
    up, with sorted row indices: the entries D'D, and I + rho D'D, would
    hold for the edges joining the pairs."""
    idx = np.arange(len(diag))
    off = np.full(len(lo), off)
    return sp.csc_matrix((np.concatenate([diag, off, off]),
                          (np.concatenate([idx, hi, lo]), np.concatenate([idx, lo, hi]))),
                         shape=(len(diag), len(diag)))


def _grounded_solve(ends: np.ndarray, labels: np.ndarray):
    """lap_solve of the Laplacian L = D'D of the graph with 0-based edge
    endpoints ends (parallel edges add up) on len(labels) vertices with
    0-based component labels: X with L X = R for R with zero mean on every
    component, from one Cholesky factor of L grounded at the first vertex of
    each component (X is zero there, and the dropped rows hold because R
    sums to zero over each component).

    L is built from the endpoints with numpy, with no sparse product: the
    degrees (bincount) on the diagonal and -1 per edge at its endpoints'
    positions.  The grounded rows take the reverse Cuthill-McKee order of
    the graph's adjacency, one entry per joined vertex pair with sorted
    columns; L's own pattern adds only the diagonal, which changes no
    comparison of degrees, so the order is the one L would give.  When that
    leaves a band of at most BAND_MAX diagonals below the main one, as on
    paths, cycles and the near-grid subgraphs the polish factors, the factor
    is LAPACK's banded Cholesky, whose few numpy arrays keep the heap of a
    long run compact; a wider band (a bushy tree, or the pseudoinverse
    block of a wide grid component that is no rectangle) takes SuperLU, whose
    ordering keeps such graphs free of fill.
    """
    n = len(labels)
    grounded = np.ones(n, dtype=bool)
    grounded[np.unique(labels, return_index=True)[1]] = False
    # the adjacency's entries as keys row n + column, sorted, each once
    pairs = np.concatenate([ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]])
    pairs.sort()
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    indptr = np.searchsorted(pairs, n * np.arange(n + 1))
    adj = sp.csr_matrix((np.ones(len(pairs)), pairs % n, indptr), shape=(n, n))
    order = csgraph.reverse_cuthill_mckee(adj, symmetric_mode=True)
    rows = order[grounded[order]]
    k = len(rows)
    pos = np.full(n, -1)
    pos[rows] = np.arange(k)
    # each edge between two rows kept, at (hi, lo) below the diagonal
    a, b = pos[ends[:, 0]], pos[ends[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    lo, hi = lo[lo >= 0], hi[lo >= 0]
    diag = np.bincount(ends.ravel(), minlength=n)[rows].astype(np.float64)
    width = int(np.max(hi - lo, initial=0))
    if width <= BAND_MAX:
        band = np.zeros((width + 1, k))
        band[0] = diag
        np.subtract.at(band, (hi - lo, lo), 1.0)
        factor = (sla.cholesky_banded(band, lower=True, check_finite=False), True)

        def solve(R):
            return sla.cho_solve_banded(factor, R, check_finite=False)
    else:
        solve = spla.splu(_symmetric(diag, lo, hi, -1.0)).solve

    def lap_solve(R):
        X = np.zeros_like(R)
        if k:
            X[rows] = solve(R[rows])
        return X
    return lap_solve


class Splitting:
    """What the solvers derive from the incidence matrix D, built once per
    graph (see the module docstring): D', the 0-based edge endpoints ends,
    the component labels, the pure solve factory rho -> solve, the
    Laplacian solve lap_solve that applies (D'D)^+ up to the nullspace, and
    whether the graph has a cycle; on the DCT grids, single holds the
    float32 operators of the plain ladder's loose rungs (a read-only float32
    copy of D, its transpose and the float32 solve factory), and is None on
    every other graph.  It is never written after construction, so threads
    may share it.  ends and labels, when given, are D's endpoints and its
    graph's 0-based component labels, numbered from 0 with no gap, as the
    caller holds them (an experiment reads the endpoints from its graph, the
    polish a pattern's labels from its groups); else they are computed from
    D."""

    def __init__(self, D, ends: np.ndarray | None = None, labels: np.ndarray | None = None):
        self.D = sp.csr_matrix(D)
        self.Dt = self.D.T   # one CSC transpose
        self.ends = graphs.edge_endpoints(self.D) if ends is None else ends
        m, n = self.D.shape
        self.labels = graphs.component_labels(n, self.ends) if labels is None else labels
        self.factory, factory32, self.lap_solve = _solve_factory(n, self.ends, self.labels)
        self.single = None
        if factory32 is not None:
            D32 = self.D.astype(np.float32)
            D32.data.flags.writeable = False
            self.single = (D32, D32.T, factory32)
        # a forest has m = n - (number of components) edges; more means a cycle
        self.cyclic = m > n - self.labels.max() - 1

    def operators(self, dtype) -> tuple:
        """(D, D', rho -> solve) in dtype: float64, or float32 on the graphs
        whose single holds them."""
        return (self.D, self.Dt, self.factory) if dtype == np.float64 else self.single
