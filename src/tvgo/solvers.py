"""Solvers for edge-difference penalized estimation and KKT certification.

solve_analysis minimizes   ||Y - f||_n^2 + 2*lam*||D f||_1
solve_sqrt_analysis minimizes   ||Y - f||_n + 2*lam0*||D f||_1

Both use the same over-relaxed ADMM consensus splitting (f, z = Df) with
residual-balanced penalty adaptation, so any graph incidence matrix works
(paths, cycles, grids, trees).  The square-root problem is solved by an
outer fixed point on the residual scale: with sigma fixed, the minimizer
coincides with the plain solution at lam = 2*lam0*sigma, and the residual
norm of that solution updates sigma.  The iteration starts at the largest
attainable residual norm and decreases monotonically, so it lands on the
largest fixed point; collapse to zero is reported as overfitting.

The splitting solver, _admm_batch, runs on a batch of columns from a
warm-start state its caller builds.  The stopping test runs at iteration 1 and
every CHECK_EVERY-th iteration after it, the iterations at which rho may
adapt; each column leaves the batch at the first of these where it meets the
primal/dual test, with the iterate of that iteration, so no column iterates
much longer than its own test asks; converged[j] means that column j met the
test.  Iteration 1 counts because a warm-started inner solve of the
square-root fixed point often passes there.  The test's anchors are ||DY|| and
the norm of Y minus its componentwise mean, taken once per warm-start state,
so a constant added to a component of Y, which moves the solution by that
constant, changes neither the test nor the penalty balancing.  The
warm-start state keeps each column's iterate from the iteration it left and
one penalty rho: on a change of rho the scaled duals of the columns that
have left are rescaled with the live ones.  rho is held once its adaptation
has reversed direction twice, which stops the few columns left at the end
of a batch (or a single column) from cycling between two penalties.

Everything the solvers derive from D is held by one Splitting: D', the
component labels, the f-update's solve factory, rho -> solve of
(I + rho D'D) F = R, and the screen's Laplacian solve, both picked from D's
edge endpoints, which are read once; on the DCT grids, also float32 copies
of D and D' and a float32 solve factory.  Splitting.subgraph builds the same
fields, as a Subgraph, for the fused edges of a polished column.
When the edges are those of a row-major h x w grid (h, w >= 2; any edge
order or orientation), the orthonormal DCT-II over the two grid axes
diagonalises D'D, so the solve is exact without a factor and a new rho only
rebuilds the diagonal.  On grids up to DCT_MATRIX_MAX_SIDE per side the
transforms are products with the DCT-II matrices C_h and C_w: four stacked
matmuls over the (h, w, B) view of R, each a k x k by k x B product (k = h
or w).  At h, w <= 32 and B <= 64 these stay below OpenBLAS's threading
threshold, so they never compete with an experiment's threads.  Larger
grids keep scipy.fft's dctn/idctn, whose cost grows as hw log(hw) where the
products' grows as hw (h + w).

Every other graph takes a SuperLU factor per rho.  Paths stay on SuperLU:
their tridiagonal factor solves faster than the transforms, which made
mc_path experiments slower.  A Splitting is never written after
construction; each warm-start state keeps the solve of its current rho, so
the outer steps of the square-root fixed point refactor only when rho
changes.  An Experiment builds one Splitting for both batch entry points,
every block and all its threads; a certified solve hands its own to
kkt_bound, which reads its edge endpoints.  The entry points wrap a plain D
in a new Splitting.  Each iteration does one product with D and one with
D', for D'(z - u) in the f-update, and updates z and u in place:
with v = u + alpha Df + (1 - alpha) z, u_new is v clipped to [-k, k] and
z_new = v - u_new (_shrink).  The residual norms take two more products
with D', on check iterations only.

Both estimators run through one batched core, _estimate, which makes every
input check (finite (n, B) observations matching D, a finite level with
lam >= 0 or lambda0 > 0, tol > 0; ValueError before any iteration) and
returns per-column outcomes: a column that does not converge is reported,
not raised.  The batch entry points return them; a single solve is column 0
of a batch of one.  The one fixed-point loop, _sqrt_fixed_point, retires
each column once its scale settles or collapses.

Plain solutions are polished onto their fused groups (Tibshirani & Taylor,
"The solution path of the generalized lasso", Ann. Statist. 2011; the
polishing step of OSQP, Stellato et al., Math. Prog. Comp. 2020).  The
solution is fixed by its fused groups, the components of the edges with
Df = 0, and by the signs s of Df on the other, boundary, edges: it is
constant on each group g, with c_g = mean_g(Y - n lam D_b's) (D_b keeps D's
boundary rows), and it is optimal exactly when sign(Dc) = s on the boundary
and some group dual w on the fused edges F has D_F'w = Y - c - n lam D_b's
and |w| <= n lam.  _fused_screen seeks that w on the fused-edge subgraph,
whose components are the groups: from a guess v0 it takes
v0 + D_F L_F^+ (r - D_F'v0), L_F = D_F'D_F, the nearest point of
{D_F'w = r}, the minimum-norm one for v0 = 0 and the only one on a forest;
on a subgraph with a cycle a column that misses the bound by at most a
give-up ratio then takes a few alternating projections, clipping w to a box
inside the bound and projecting back.  L_F^+ comes from a Cholesky factor
of L_F grounded at one vertex per component (_grounded_solve), with L_F
built from F's edge endpoints by numpy: banded in reverse Cuthill-McKee
order when the band is at most BAND_MAX wide, SuperLU otherwise; on the DCT
grids the Splitting applies L^+ by its transforms, divided by the Laplacian
eigenvalues with the zero mode dropped.

Full fusion is the polish's one-group-per-component case: no boundary edge,
c = Ybar, the componentwise mean, and w a dual of D'w = Y - Ybar, the KKT
condition whose least bound is the generalized lasso's lambda_max.  Before
any ADMM iteration the core screens every column for it from v0 = 0, with
SCREEN_STEPS projections into a box SCREEN_BOX times the bound and the
give-up ratio SCREEN_GIVE_UP.  A column with max|w| <= n lam leaves with
F = Ybar, converged and certified, no iteration and the exact dual
w / (n lam), so kkt_bound certifies it to rounding.  The square-root
estimator screens once, at sigma0 = ||Y - Ybar||_n and lam = 2 lambda0
sigma0: a column fused there has residual norm sigma0, so sigma0, the
largest attainable scale, is its largest fixed point; and fusion at lam
implies fusion at every larger lam, while lam only falls along the
iteration, so a column not fused at sigma0 is fused at no later step.
Every other square-root column runs the fixed point as it would without
the screen.  Every other plain column runs ADMM down a ladder of
tolerances on one warm state (_plain_batch): POLISH_LADDER's rungs looser
than opts.tol, 3e-2 to 1e-4 in steps of about sqrt(10) and then decades,
and last opts.tol itself, with max_iter a budget over the whole ladder.
The state holds the centred columns, Y minus its componentwise mean, and
each iterate is read back as F + mean.  On the DCT grids the rungs at or
above SINGLE_TOL (3e-2 to 1e-3) run on a float32 state, whose every kernel
(the D and D' products, the solve, the shrinkage) costs about half its
float64 one on the 32 x 32 grid; the state switches once to float64 for
the tighter rungs and always for opts.tol, so converged still means the
float64 test; the square-root fixed point keeps a float64 state on Y.
Those loose rungs only reveal each column's groups, signs and dual guess,
and a certificate is built from Y in float64, exact whatever iterate it
started from.  The centring keeps float32 from losing Y: at Y + 1e6
float32's spacing is 0.0625, while the centred columns, and so the state,
do not see the shift.  A float32 state cannot meet a test near its own
rounding, which is set by the size of the centred data, not by the
tolerance: it leaves about eps32 max|centred_j| sqrt(m) in the primal
residual of column j, against tol ||DY_j||_2.  So the ladder leaves
float32 at the first rung whose tol lies within SINGLE_HEADROOM of that
floor for some live column (so a long trend, whose centred data are large
against its differences, keeps to float64 wherever float32 could not meet
the test), and after a float32 rung that spends SINGLE_MAX_ITER
iterations.  Other graphs run the whole ladder
in float64: a float32 SuperLU factor goes singular at large rho, and on
paths and trees float32 rungs saved only 1-3% of a solve.
After each rung the live columns are polished (_polish) and the certified
ones leave the state; a column still uncertified after the last rung keeps
its ADMM iterate and dual.  Each column's fused edges are read at a gap
(_groups_and_signs): with a = |Df| / max(||Df||_inf, ||DY||_inf) sorted,
the cut is the largest ratio between neighbours whose lower end is below
GAP_CAP, the scale itself closing the list, so a true jump of any size
below the cap reads as a jump once the ADMM noise on the fused edges lies
well below it, and a column with no a below the cap reads no fused edge.
||DY||_inf is taken once per _plain_batch call.  The ratios floor a at
the iterate's own rounding, half an ulp of max|f| relative to the scale
(and at least GAP_FLOOR): a float32 iterate's rounding leaves exact zeros
among the noise of its fused edges, and a lower floor would read the step
from those zeros to the noise as the largest gap.
One pass forms every column's groups and candidate (_group_means: one
component labelling of the union of the columns' fused-edge subgraphs, and
bincount means that sum in the order componentwise_mean does) and checks
the signs; only the columns whose signs hold take a subgraph factor, one
per pattern of fused edges per _plain_batch call: the rungs share one dict
from the fused-edge mask to its Subgraph, which stays off the Splitting.
The mask alone fixes the subgraph's edges, its groups' labels and so the
factor, so a factor held from an earlier rung is the one a new build would
give, bit for bit.  A screened column's dual guess is the ADMM dual,
with POLISH_STEPS projections into a box POLISH_BOX times the bound, and a
last check bounds the KKT residual by POLISH_KKT ||Y||_inf.  A certified
column returns the candidate c and the exact dual.  So every certified
plain column is the exact solution, whatever rung its groups and signs
were read at.

Certification never trusts solver convergence alone.  kkt_residual solves a
linear program for the best subgradient certificate.  kkt_bound builds one
certificate from the solver's own dual (BatchResult.V), made exact on a
spanning forest of the free edges by subtree sums; it is feasible for that
program, so its residual bounds the program's optimum from above.  A
certified single solve reports that bound when it is <= kkt_tol and runs
the program only otherwise, so EstimateResult.kkt_residual is a dual upper
bound on the optimum, or the optimum after the fallback.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from . import graphs, projections


def norm_n(v: np.ndarray, axis: int = 0) -> np.ndarray | float:
    """Root mean square norm ||v||_n = ||v||_2 / sqrt(n)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.linalg.norm(v, axis=axis) / math.sqrt(v.shape[axis])
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the splitting solver and the square-root fixed point."""

    tol: float = 1e-8            # relative residual stopping threshold
    max_iter: int = 100_000
    certify: bool = True         # bound the KKT residual from the dual (LP if above kkt_tol)
    kkt_tol: float = 1e-6
    fp_tol: float = 1e-9         # relative tolerance of the sigma fixed point


@dataclass
class BatchResult:
    """Per-column outcomes of one estimator on the columns of Y, shape (n, B).

    converged[j]: column j met the ADMM stopping test or was certified
    (plain), or its scale settled (square root).  lam[j]: the penalty column j was last solved at,
    0 where f = Y.  iterations: inner ADMM iterations of the whole batch.
    V, shape (m, B): column j's scaled ADMM dual rho u / (n lam[j]) clipped
    to [-1, 1], from the iteration it left the batch (for the square root,
    of its last inner solve; zero where lam[j] = 0), the dual guess kkt_bound
    certifies from.  certified[j]: the full-fusion screen or the polish (see
    the module docstring) produced column j's exact solution and an exact
    dual, which V[:, j] then holds, and converged[j] is true.  sigma_hat and
    overfit are set by the square-root estimator only.  A column the screen
    certifies takes no iteration: its F is the componentwise mean of Y;
    iterations is 0 when the screen certifies every column.
    """

    F: np.ndarray
    converged: np.ndarray
    lam: np.ndarray
    iterations: int
    V: np.ndarray
    certified: np.ndarray
    sigma_hat: np.ndarray | None = None
    overfit: np.ndarray | None = None


@dataclass
class EstimateResult:
    """Solution bundle for one estimation problem.

    sigma_hat and overfit are set by the square-root solver only.  objective
    is the attained objective value.  kkt_residual, when certified, is
    kkt_bound's dual upper bound on kkt_residual's linear-program optimum
    where that bound is <= kkt_tol, and the optimum itself after the
    linear-program fallback; None when not certified.  A solve that the
    full-fusion screen certifies reports 0 iterations, and its exact dual
    makes that bound a rounding error (about 1e-17).
    """

    f_hat: np.ndarray
    lambda_used: float
    residual_norm_n: float
    kkt_residual: float | None
    iterations: int
    converged: bool
    objective: float
    sigma_hat: float | None = None
    overfit: bool | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "f_hat": self.f_hat.tolist()}


def check_level(name: str, value: float, zero_ok: bool = False) -> None:
    """Raise ValueError unless value is finite and > 0 (>= 0 with zero_ok).

    Penalty levels and stopping tolerances are checked before any iteration:
    a NaN level would surface as a singular factor, a negative one poses a
    different problem, and a tolerance <= 0 is never met.
    """
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        raise ValueError(f"{name} must be finite and {'>= 0' if zero_ok else '> 0'}, got {value}")


MAX_RHO_REVERSALS = 2   # penalty direction changes before rho is held
OVER_RELAX = 1.8        # ADMM over-relaxation alpha
MAX_OUTER = 500         # square-root fixed-point steps before a column counts as unsettled
OVERFIT_FLOOR = 1e-6    # sigma <= OVERFIT_FLOOR * ||Y||_n flags a square-root overfit
ACTIVE_TOL_SCALE = 1e-6   # KKT: |(Df)_i| above this fraction of the data scale is active
DCT_MATRIX_MAX_SIDE = 32   # largest grid side solved by DCT-II matrix products
BAND_MAX = 64           # widest reverse Cuthill-McKee band of a banded Laplacian factor
CHECK_EVERY = 10        # ADMM iterations between stopping tests and between rho adaptations
# alternating projections of the full-fusion screen (_fused_screen), on graphs with a cycle:
SCREEN_STEPS = 40       # mc_grid square-root columns certified: 974 of 1024 at 10 steps, 1015 at 40
SCREEN_BOX = 0.95       # clip to 5% inside the bound, so a projected v can land within it
SCREEN_GIVE_UP = 1.25   # leave past 1.25 n lam: certified columns start at 0.90-1.06, plain 1.9+
# plain ADMM tolerances the polish (_polish) runs at, from the loosest, then opts.tol
POLISH_LADDER = (3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4) + tuple(10.0 ** -k for k in range(5, 13))
GAP_CAP = 1e-2          # polish: fused edges are cut at a gap of |Df| below this fraction of the scale
GAP_FLOOR = 1e-16       # polish: least floor of |Df| relative to the scale (see _groups_and_signs)
# float32 rungs of the plain ladder, on the DCT grids (_plain_batch):
SINGLE_TOL = 1e-3       # rungs at or above this may run in float32
SINGLE_HEADROOM = 300   # only while the live float32 residual floor lies this far below the tol
SINGLE_MAX_ITER = 500   # a float32 rung that takes this many iterations hands over to float64
POLISH_STEPS = 4        # polish: alternating projections (rescues past 4 steps were ~1 in 20)
POLISH_BOX = 0.99       # polish: the ADMM dual starts near the bound, so clip closer to it
POLISH_KKT = 1e-12      # polish: largest KKT residual accepted, relative to ||Y||_inf


def _grid_shape(D: sp.csr_matrix, ends: np.ndarray) -> tuple[int, int] | None:
    """(h, w) when D, with 0-based edge endpoints ends (so entries +-1,
    which graphs.edge_endpoints checks), is an incidence matrix of the
    row-major h x w grid, h, w >= 2.

    A grid has n = hw vertices and m = 2hw - h - w edges, so h and w are the
    roots of t^2 - (2n - m) t + n.  m distinct vertex pairs that are all grid
    edges are then the whole grid: a pair (lo, lo + 1) with lo not at the end
    of a row, or (lo, lo + w).  Edge order and orientation do not matter, and
    a relabelling of the vertices fails (unless it maps the grid to itself).
    Paths (h = 1) are left out.
    """
    m, n = D.shape
    s = 2 * n - m
    r = math.isqrt(max(s * s - 4 * n, 0))
    h, w = (s - r) // 2, (s + r) // 2
    if s <= 0 or r * r != s * s - 4 * n or h < 2:
        return None
    lo, step = ends.min(axis=1), np.abs(ends[:, 1] - ends[:, 0])
    for shape in ((h, w), (w, h)):
        down = step == shape[1]
        right = (step == 1) & (lo % shape[1] != shape[1] - 1)
        # a grid edge's key, lo or n + lo, is its own, so no key repeats
        # unless an edge joins the same pair as another
        if np.all(down | right) and np.bincount(lo + n * down).max() == 1:
            return shape
    return None


def _solve_factory(D: sp.csr_matrix, ends: np.ndarray, labels: np.ndarray):
    """(factory, factory32, lap_solve) of D, whose 0-based edge endpoints are
    ends: factory maps rho to solve, where solve(R) returns X with
    (I + rho D'D) X = R, factory32 does the same in float32 on the DCT grids
    and is None on every other D, and lap_solve(R), for R with zero mean on
    every component of the 0-based vertex labels, returns an X with
    D'D X = R.  All may overwrite R.

    On the row-major h x w grid (_grid_shape), the orthonormal DCT-II along
    both grid axes diagonalises D'D, with eigenvalues 4 sin^2(pi i / 2h) +
    4 sin^2(pi j / 2w), so the solve is exact without a factor and a new rho
    only rebuilds the denominator; lap_solve divides by the eigenvalues and
    drops the zero mode.  Up to DCT_MATRIX_MAX_SIDE per side the transforms
    are products with the DCT-II matrices, which do not write to R; larger
    grids take scipy.fft's dctn/idctn.  Every other D, paths included,
    takes a SuperLU factor of I + rho D'D per rho (on a path its tridiagonal
    factor solves faster than the transforms) and, for lap_solve,
    _grounded_solve's factor of D'D, built from the endpoints.  A float32
    solve takes float32 DCT-II matrices or transforms.  There is no float32
    factor: in float32, 1 + 2 rho rounds to 2 rho from rho of about 1e7, so
    I + rho D'D loses its identity, and SuperLU finds it singular from
    rho = 1e8 on (a path of 200,000 vertices reached that in float32).
    """
    shape = _grid_shape(D, ends)
    if shape is None:
        DtD = (D.T @ D).tocsc()
        eye = sp.identity(DtD.shape[0], format="csc")
        return (lambda rho: spla.splu((eye + rho * DtD).tocsc()).solve), None, \
            _grounded_solve(ends, labels)
    h, w = shape
    eig = [4.0 * np.sin(np.pi * np.arange(k) / (2 * k)) ** 2 for k in shape]
    if max(shape) > DCT_MATRIX_MAX_SIDE:
        eig = eig[0][:, None] + eig[1][None, :]

        def divide(R, denom):
            X = sfft.dctn(R.reshape(h, w, -1), norm="ortho", axes=(0, 1), overwrite_x=True)
            X /= denom
            return sfft.idctn(X, norm="ortho", axes=(0, 1), overwrite_x=True).reshape(h * w, -1)
    else:
        mats = {np.dtype(np.float64): [sfft.dct(np.eye(k), norm="ortho", axis=0) for k in shape]}
        mats[np.dtype(np.float32)] = [C.astype(np.float32) for C in mats[np.dtype(np.float64)]]
        eig = eig[1][:, None] + eig[0][None, :]   # (w, h), the layout X has when divided

        def divide(R, denom):
            Ch, Cw = mats[denom.dtype]
            X = np.matmul(Cw, R.reshape(h, w, -1))          # along w: (h, w, B)
            X = np.matmul(Ch, X.transpose(1, 0, 2))         # along h: (w, h, B)
            X /= denom
            X = np.matmul(Ch.T, X)
            return np.matmul(Cw.T, X.transpose(1, 0, 2)).reshape(h * w, -1)

    def factory(dtype):
        def at(rho):
            denom = (1.0 + rho * eig)[:, :, None].astype(dtype, copy=False)
            return lambda R: divide(R, denom)
        return at
    lap_denom = eig[:, :, None].copy()
    lap_denom[0, 0] = np.inf   # the zero mode, the constant on the one component
    return factory(np.float64), factory(np.float32), lambda R: divide(R, lap_denom)


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
    long run compact; a wider band (a bushy tree) takes SuperLU, whose
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
        idx = np.arange(k)
        off = -np.ones(len(lo))
        solve = spla.splu(sp.csc_matrix((np.concatenate([diag, off, off]),
                                         (np.concatenate([idx, hi, lo]),
                                          np.concatenate([idx, lo, hi]))),
                                        shape=(k, k))).solve

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
    may share it.  ends, when given, are D's endpoints as the caller holds
    them (an experiment reads them from its graph); else they are read from D."""

    def __init__(self, D, ends: np.ndarray | None = None):
        self.D = sp.csr_matrix(D)
        self.Dt = self.D.T   # one CSC transpose
        self.ends = graphs.edge_endpoints(self.D) if ends is None else ends
        m, n = self.D.shape
        self.labels = graphs.component_labels(n, self.ends)
        # the edges in the order of their first endpoint, and where each
        # vertex's start: the CSR pattern of the adjacency _group_means tiles
        self.by_tail = np.argsort(self.ends[:, 0], kind="stable")
        self.tail_ptr = np.concatenate([[0], np.cumsum(np.bincount(self.ends[:, 0], minlength=n))])
        self.factory, factory32, self.lap_solve = _solve_factory(self.D, self.ends, self.labels)
        self.single = None
        if factory32 is not None:
            D32 = self.D.astype(np.float32)
            D32.data.flags.writeable = False
            self.single = (D32, D32.T, factory32)
        # a forest has m = n - (number of components) edges; more means a cycle
        self.cyclic = m > n - len(np.unique(self.labels))

    def operators(self, dtype) -> tuple:
        """(D, D', rho -> solve) in dtype: float64, or float32 on the graphs
        whose single holds them."""
        return (self.D, self.Dt, self.factory) if dtype == np.float64 else self.single

    def subgraph(self, rows: np.ndarray, labels: np.ndarray) -> Subgraph:
        """What _fused_screen reads of the graph on the same vertices with
        the edges rows (indices) alone, whose component labels the caller
        holds; its Laplacian factor is built from those edges' endpoints."""
        D = self.D[rows]
        return Subgraph(D, D.T, labels, _grounded_solve(self.ends[rows], labels),
                        len(rows) > D.shape[1] - labels.max() - 1)


class Subgraph(NamedTuple):
    """The incidence matrix D of some of a graph's edges, on all its
    vertices, with D', the component labels, lap_solve and whether it has a
    cycle, as a Splitting holds them for the whole graph."""

    D: sp.csr_matrix
    Dt: sp.csc_matrix
    labels: np.ndarray
    lap_solve: Callable
    cyclic: bool


class _AdmmState:
    """Warm-startable state of the batched splitting solver, for one D: each
    column's F, Z and U, in one float dtype, and its two stopping-test
    anchors, one penalty rho, the f-update solve at that rho and dtype and
    the Splitting of D.  A new state starts every column of Y at f = Y,
    z = DY, u = 0, with rho = mean(n lam); centred is Y minus its
    componentwise mean, which the caller holds."""

    def __init__(self, split: Splitting, Y: np.ndarray, lam: np.ndarray, centred: np.ndarray,
                 dtype=np.float64):
        self.split = split
        self.F = Y.astype(dtype, order="C")
        DY = split.D @ Y
        self.Z = DY.astype(dtype, copy=False)
        self.U = np.zeros_like(self.Z)
        self.rho = max(float(np.mean(Y.shape[0] * lam)), 1e-6)
        self.solve = split.operators(dtype)[2](self.rho)
        # absolute anchors keep the stopping test meaningful for fully fused
        # solutions, where z = 0 and a purely relative test can never fire.  A
        # constant added to a component of Y moves f by that constant and
        # leaves z, u and both anchors as they are, so the test ignores it.
        # Y never changes, so neither do they
        self.pri_anchor = np.maximum(np.sqrt(_colsumsq(DY)), 1e-12)
        self.dual_anchor = np.maximum(np.sqrt(_colsumsq(centred)), 1e-12)

    def astype(self, dtype) -> None:
        """Hold F, Z, U and the solve in dtype from now on."""
        if self.F.dtype != dtype:
            self.F, self.Z, self.U = (X.astype(dtype) for X in (self.F, self.Z, self.U))
            self.solve = self.split.operators(dtype)[2](self.rho)

    def keep(self, cols: np.ndarray) -> None:
        """Keep only the columns cols (a mask or indices)."""
        self.F, self.Z, self.U = self.F[:, cols], self.Z[:, cols], self.U[:, cols]
        self.pri_anchor, self.dual_anchor = self.pri_anchor[cols], self.dual_anchor[cols]


def _colsumsq(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", X, X)


def _shrink(V: np.ndarray, k: np.ndarray, U_out: np.ndarray) -> None:
    """Split V into its part clipped to [-k, k], written to U_out, and the
    rest, its soft threshold at k, written over V: three passes.  k is a
    per-column bound, so V and U_out are (rows, len(k))."""
    np.maximum(V, -k, out=U_out)
    np.minimum(U_out, k, out=U_out)
    V -= U_out


def _objective(Y, F, lam, D) -> np.ndarray:
    n = Y.shape[0]
    return _colsumsq(Y - F) / n + 2.0 * lam * np.einsum("ij->j", np.abs(D @ F))


def _admm_batch(state: _AdmmState, Y: np.ndarray, lam: np.ndarray, opts: SolverOptions):
    """Batched splitting solver, from the warm-start state its caller built.

    Y is (n, B), in the dtype of the state's F, Z and U, and lam (B,), with
    B the state's columns; the iteration runs in that dtype, on the
    Splitting's operators of it (Splitting.operators) and the state's solve.
    Minimizes (1/2)||f - Y||_2^2 + n*lam*||z||_1 subject to Df = z (the
    original objective scaled by n/2), with D that of the state's Splitting.
    The stopping test runs at iteration 1 and every CHECK_EVERY-th iteration
    after it; each column leaves the batch at the first of these where it
    meets the test, and the loop ends when no column is live or at max_iter.
    Returns the iterates F (n, B), the state, the iteration count and a
    per-column converged mask (column j met the test).  F is the state's F:
    each column's iterate at the iteration it left the batch (or the last
    one).  The state, updated in place, also holds those iterations' Z and U,
    the batch's one penalty rho and its solve.
    """
    split, rho, solve = state.split, state.rho, state.solve
    dtype = state.F.dtype
    D, Dt, factory = split.operators(dtype)
    n, B = Y.shape
    thresh_scale = (n * lam).astype(dtype)  # soft threshold numerator in the scaled problem
    # the working Z and U are updated in place, so they must not alias the
    # state, whose U is rescaled separately on a change of rho
    Z, U = state.Z.copy(), state.U.copy()
    converged = np.zeros(B, dtype=bool)
    pri_anchor, dual_anchor = state.pri_anchor, state.dual_anchor
    # the working arrays hold the live columns only; Zn and T are (m, live)
    # buffers, and Zn holds the previous z once the new one is in Z
    live = np.arange(B)
    Zn, T = np.empty_like(Z), np.empty_like(Z)
    # a few columns left to themselves can make the adaptation cycle between
    # two penalties, each change undoing the progress since the last; ADMM
    # at a fixed penalty converges, so rho is held after MAX_RHO_REVERSALS
    last_step, reversals = None, 0
    it = 0
    for it in range(1, opts.max_iter + 1):
        # f-update: (I + rho D'D) F = Y + rho D'(z - u), the one D' product
        # an iteration needs
        np.subtract(Z, U, out=T)
        R = Dt @ T
        R *= rho
        R += Y
        F = solve(R)
        DF = D @ F

        # over-relaxed z-update: v = u + alpha Df + (1 - alpha) z; u_new is v
        # clipped to [-k, k] and z_new = v - u_new its soft threshold at k
        np.multiply(DF, OVER_RELAX, out=Zn)
        np.multiply(Z, 1.0 - OVER_RELAX, out=T)
        Zn += T
        Zn += U
        _shrink(Zn, thresh_scale / rho, U)
        Z, Zn = Zn, Z
        if it > 1 and it % CHECK_EVERY:
            continue

        DF -= Z
        r_norm = np.sqrt(_colsumsq(DF))
        np.subtract(Z, Zn, out=T)
        s_norm = rho * np.sqrt(_colsumsq(Dt @ T))
        eps_pri = opts.tol * np.maximum(np.sqrt(_colsumsq(Z)), pri_anchor)
        eps_dual = opts.tol * np.maximum(rho * np.sqrt(_colsumsq(Dt @ U)), dual_anchor)
        done = (r_norm <= eps_pri) & (s_norm <= eps_dual)
        if done.any():
            gone = live[done]
            converged[gone] = True
            state.F[:, gone] = F[:, done]
            state.Z[:, gone] = Z[:, done]
            state.U[:, gone] = U[:, done]
            keep = ~done
            live = live[keep]
            if len(live) == 0:
                break
            Y, F, Z, U = Y[:, keep], F[:, keep], Z[:, keep], U[:, keep]
            Zn, T = np.empty_like(Z), np.empty_like(Z)
            thresh_scale = thresh_scale[keep]
            pri_anchor, dual_anchor = pri_anchor[keep], dual_anchor[keep]
            r_norm, s_norm = r_norm[keep], s_norm[keep]

        if it % CHECK_EVERY == 0 and reversals < MAX_RHO_REVERSALS:
            pr = float(np.linalg.norm(r_norm / pri_anchor))
            # deflating the dual residual biases the balance toward larger
            # penalties, which is where this splitting converges fastest
            dr = float(np.linalg.norm(s_norm / dual_anchor)) / 300.0
            step = 2.0 if pr > 10.0 * dr and rho < 1e12 else \
                0.5 if dr > 10.0 * pr and rho > 1e-12 else None
            if step is not None:
                reversals += last_step is not None and step != last_step
                last_step = step
                rho *= step
                # the scaled dual u = y/rho of the columns that have left is
                # rescaled too, so the whole state stays at one rho
                U /= step
                state.U /= step
                solve = factory(rho)
    if len(live):   # max_iter reached with columns still live
        state.F[:, live], state.Z[:, live], state.U[:, live] = F, Z, U

    state.rho, state.solve = rho, solve
    return state.F, state, it, converged


def _fused_screen(split: Splitting | Subgraph, centred: np.ndarray, bound: np.ndarray,
                  guess: np.ndarray | None = None, steps: int = SCREEN_STEPS,
                  box: float = SCREEN_BOX):
    """Columns of centred, shape (n, B), that some group dual v fits: v on
    split's edges with D'v = centred and |v| <= bound, the per-column
    penalty n lam > 0; and those duals.

    Each column of centred sums to zero over each component of split, whose
    components are the groups: the whole graph's for full fusion (centred is
    then Y minus its componentwise mean), the fused-edge subgraph's for the
    polish.  v starts as the point of {D'v = centred} nearest the guess
    (m, B), or the minimum-norm one, D (D'D)^+ centred, when there is none;
    on a forest it is the only one.  On a graph with a cycle a column that
    misses the bound, but by at most SCREEN_GIVE_UP times, takes up to steps
    alternating projections: v is clipped to box times the bound and
    projected back with the same (D'D)^+.  A column leaves at the first v
    within the bound (certified) or past the give-up ratio.  Returns the
    certified mask (B,) and their scaled duals v / bound, in [-1, 1], shape
    (m, certified).
    """
    D, Dt, lap_solve = split.D, split.Dt, split.lap_solve
    V = D @ lap_solve(centred.copy() if guess is None else centred - Dt @ guess)
    if guess is not None:
        V += guess
    peak = np.max(np.abs(V), axis=0, initial=0.0)
    fused = peak <= bound
    live = np.flatnonzero(~fused & (peak <= SCREEN_GIVE_UP * bound))
    for _ in range(steps if split.cyclic else 0):
        if len(live) == 0:
            break
        clip = box * bound[live]
        W = np.clip(V[:, live], -clip, clip)
        R = Dt @ W
        R -= centred[:, live]
        W -= D @ lap_solve(R)
        V[:, live] = W
        peak = np.max(np.abs(W), axis=0, initial=0.0)
        ok = peak <= bound[live]
        fused[live[ok]] = True
        live = live[~ok & (peak <= SCREEN_GIVE_UP * bound[live])]
    return fused, V[:, fused] / bound[fused]


def _groups_and_signs(D: sp.csr_matrix, dy: np.ndarray, F: np.ndarray):
    """The fused-edge mask of the iterates F, float64 or float32, and the
    signs of DF, zero on the fused edges; both (m, B).  dy (B,) holds each
    column's ||DY||_inf for the data Y.

    Per column, a = |DF| / max(||DF||_inf, ||DY||_inf) is sorted, with the
    scale itself, 1, as a last entry, and the fused edges are those with a at
    most the lower end of the largest ratio between neighbours (gap in
    log a) whose lower end is below GAP_CAP: a true jump of any size below
    that cap reads as a jump once the iterate's noise on the fused edges
    lies well below it.  A column with no a below GAP_CAP reads no fused
    edge; on a graph of one edge the one gap runs to the scale.  Ratios
    divide by a floored at half an ulp of F_j's largest entry relative to
    the scale, u max|F_j| / scale with u the unit roundoff of F's precision,
    and at least at GAP_FLOOR, so exact zeros keep them finite: rounding
    leaves exact zeros among the noise of a float32 iterate's fused edges,
    noise of at most an ulp of F's entries, 2u max|F_j|, and a lower floor
    would read the step from the zeros to the noise as the largest gap.  DF
    is formed with the float64 D.
    """
    DF = D @ F
    S = np.sign(DF)
    A = np.abs(DF, out=DF)
    scale = np.maximum(np.max(A, axis=0, initial=0.0), dy)
    scale = np.where(scale > 0.0, scale, 1.0)
    A /= scale
    peak = np.maximum(np.max(F, axis=0), -np.min(F, axis=0))
    floor = np.maximum(np.finfo(F.dtype).eps / 2 * peak / scale, GAP_FLOOR)
    low = np.sort(A.T, axis=1)                         # (B, m), each row ascending
    ratio = np.ones_like(low)
    ratio[:, :-1] = low[:, 1:]
    ratio /= np.maximum(low, floor[:, None])
    ratio[low >= GAP_CAP] = 0.0
    cut = np.take_along_axis(low, np.argmax(ratio, axis=1)[:, None], axis=1)[:, 0]
    fused = A <= np.where(low[:, 0] < GAP_CAP, cut, -1.0)
    S[fused] = 0.0
    return fused, S


def _group_means(split: Splitting, fused: np.ndarray, T: np.ndarray):
    """The mean of each column of T (n, B) over each of its groups, the
    components of the column's fused edges (fused, (m, B), of split's
    graph), replicated on the group's vertices.

    One component labelling of the union of the B fused-edge subgraphs,
    column j's vertices offset by j n, gives every column's groups; its
    adjacency tiles the Splitting's CSR pattern (by_tail, tail_ptr) and
    keeps the fused entries.  The bincount sums take each group's vertices
    in vertex order, as projections.componentwise_mean does, so the means
    are the same bits.  Returns the means (n, B) and the labels (B, n): row
    j holds column j's group labels as graphs.component_labels numbers
    them, from 0 in the order of each group's smallest vertex."""
    n, B = T.shape
    m = len(split.ends)
    keep = fused[split.by_tail].T.ravel()
    heads = (split.ends[split.by_tail, 1] + (np.arange(B) * n)[:, None]).ravel()[keep]
    kept = np.concatenate([[0], np.cumsum(keep)])   # entries kept before each slot
    indptr = np.concatenate([[0], kept[(np.arange(B)[:, None] * m + split.tail_ptr[1:]).ravel()]])
    labels = graphs.adjacency_labels(sp.csr_matrix((np.ones(len(heads)), heads, indptr),
                                                   shape=(n * B, n * B)))
    means = np.bincount(labels, weights=T.T.ravel()) / np.bincount(labels)
    labels = labels.reshape(B, n)
    # ids follow the smallest vertex, so column j's start at that of vertex j n
    return means[labels].T, labels - labels[:, :1]


def _polish(split: Splitting, Y: np.ndarray, F: np.ndarray, V: np.ndarray,
            lam: np.ndarray, fused: np.ndarray, S: np.ndarray,
            subgraphs: dict[bytes, Subgraph] | None = None) -> np.ndarray:
    """Polish the plain iterates F of Y's columns, both (n, B), at per-column
    penalties lam onto exact solutions, with the scaled duals V (m, B) as
    the guess; returns the mask (B,) of certified columns, whose F and V it
    overwrites with the exact solution and dual.

    fused and S (m, B) are the fused-edge masks and signs the caller read
    off the iterates with _groups_and_signs; S is overwritten.  Column j's
    groups are the components of its fused-edge subgraph and s = S_j on the
    other, boundary, edges.  The candidate is constant on each group
    g, c_g = mean_g(Y) - n lam (D_b's)_g / |g| = mean_g(Y - n lam D_b's)
    with D_b the boundary rows of D: the one f with these groups and signs
    that the KKT conditions allow.  Every column's candidate comes from one
    _group_means call.  A column is certified when sign(Dc) is s on every
    boundary edge and 0 on every fused one, and a group dual w on the fused
    edges with D_F'w = Y - c - n lam D_b's and |w| <= n lam exists:
    _fused_screen seeks it, for the columns whose signs hold only, on the
    fused-edge subgraph, from the guess's fused rows, and a last check
    bounds the KKT residual ||(Y - c)/n - lam D'v||_inf of the dual v (s on
    the boundary, w / (n lam) on the fused edges) by POLISH_KKT ||Y||_inf.
    The fused-edge Subgraph, with its grounded Laplacian factor, is taken
    from subgraphs, a dict keyed by the packed fused-edge mask, and built
    and added there for a mask it does not hold yet: the mask alone fixes
    the subgraph's rows, its groups' labels and the factor, so a Subgraph
    held from an earlier call is the one this call would build.  Without
    subgraphs, each pattern's Subgraph serves this call alone.
    """
    D, Dt = split.D, split.Dt
    n, B = Y.shape
    bound = n * lam
    T = Y - bound * (Dt @ S)
    C, labels = _group_means(split, fused, T)
    ok = np.zeros(B, dtype=bool)
    signs = np.flatnonzero(np.all(np.sign(D @ C) == S, axis=0))
    subgraphs = {} if subgraphs is None else subgraphs
    patterns = {}
    for j, key in zip(signs, np.packbits(fused[:, signs], axis=0).T):
        patterns.setdefault(key.tobytes(), []).append(j)
    for key, cols in patterns.items():
        cols = np.asarray(cols)
        rows = np.flatnonzero(fused[:, cols[0]])
        if key not in subgraphs:
            subgraphs[key] = split.subgraph(rows, labels[cols[0]])
        good, W = _fused_screen(subgraphs[key], T[:, cols] - C[:, cols],
                                bound[cols], V[np.ix_(rows, cols)] * bound[cols],
                                POLISH_STEPS, POLISH_BOX)
        ok[cols[good]] = True
        S[np.ix_(rows, cols[good])] = W
    cols = np.flatnonzero(ok)
    R = Y[:, cols] - C[:, cols]
    R /= n
    R -= lam[cols] * (Dt @ S[:, cols])
    ok[cols] = (np.max(np.abs(R), axis=0, initial=0.0)
                <= POLISH_KKT * np.max(np.abs(Y[:, cols]), axis=0, initial=0.0))
    F[:, ok], V[:, ok] = C[:, ok], S[:, ok]
    return ok


def _plain_batch(split: Splitting, Y: np.ndarray, lam: np.ndarray, mean: np.ndarray,
                 centred: np.ndarray, opts: SolverOptions):
    """The plain estimator on the columns of Y, shape (n, B), none of them
    fully fused, whose componentwise mean and centred Y (Y minus that mean)
    the caller holds: ADMM runs on one warm state of the centred columns
    down the tolerances of POLISH_LADDER looser than opts.tol, then
    opts.tol.  After each rung the live columns' iterates, read back as
    F + mean, are polished, and the certified ones leave the state; the
    last rung's uncertified columns keep their ADMM iterate and dual.
    max_iter bounds the iterations of the whole ladder; a column is
    converged when it met the test at opts.tol or was certified.  Every
    rung's polish shares one dict of fused-edge Subgraphs, so each pattern's
    factor is built once per call, and reads the groups against ||DY||_inf,
    taken once.  Returns (F, converged, certified, V, iterations).

    The state is float32 from the first rung while the Splitting has
    float32 operators (the DCT grids), the rung's tol is at least
    SINGLE_TOL and the live columns' float32 residual floor lies
    SINGLE_HEADROOM below it; it is float64 from the first rung where one
    of these fails, and after a float32 rung that took SINGLE_MAX_ITER
    iterations, and always at opts.tol.  The floor: float32 rounds each
    entry of F by about eps max|F_j|, with max|F_j| about max|centred_j|, so
    over the m edges it leaves about eps max|centred_j| sqrt(m) in
    ||DF_j - z_j||, which the primal test holds to tol ||DY_j||_2 or more.
    """
    n, B = Y.shape
    m = split.D.shape[0]
    F, V = np.empty_like(Y), np.empty((m, B))
    conv, cert = np.zeros(B, dtype=bool), np.zeros(B, dtype=bool)
    DY = split.D @ Y
    dy = np.max(np.abs(DY), axis=0, initial=0.0)
    floor = np.finfo(np.float32).eps * np.sqrt(m) * np.max(np.abs(centred), axis=0) \
        / np.maximum(np.sqrt(_colsumsq(DY)), 1e-12)
    live, it, subgraphs, state = np.arange(B), 0, {}, None
    single = split.single is not None
    for tol in [t for t in POLISH_LADDER if t > opts.tol] + [opts.tol]:
        # once float64, float64 to the end
        single = single and tol >= SINGLE_TOL and tol != opts.tol \
            and SINGLE_HEADROOM * np.max(floor[live]) <= tol
        dtype = np.float32 if single else np.float64
        if state is None:
            state = _AdmmState(split, centred, lam, centred, dtype)
        state.astype(dtype)
        budget = opts.max_iter - it
        Yc_l, lam_l = centred[:, live].astype(dtype, copy=False), lam[live]
        F_l, state, k, conv_l = _admm_batch(state, Yc_l, lam_l, replace(
            opts, tol=tol, max_iter=min(budget, SINGLE_MAX_ITER) if single else budget))
        it += k
        single = single and k < SINGLE_MAX_ITER
        fused, S = _groups_and_signs(split.D, dy[live], F_l)
        F_l = F_l + mean[:, live]
        V_l = _scaled_dual(state.U.astype(np.float64), state.rho, n, lam_l)
        ok = _polish(split, Y[:, live], F_l, V_l, lam_l, fused, S, subgraphs)
        F[:, live], V[:, live], cert[live] = F_l, V_l, ok
        if tol == opts.tol:
            conv[live] = conv_l
        if ok.all() or tol == opts.tol or it >= opts.max_iter:
            break
        live = live[~ok]
        state.keep(~ok)
    return F, conv | cert, cert, V, it


def _estimate(Y, D, level: float, opts: SolverOptions, sqrt: bool) -> BatchResult:
    """The plain (level lam) or, with sqrt, the square-root (level lambda0)
    estimator on the columns of Y, shape (n, B), after every input check.
    D is a Splitting or an incidence matrix, which is wrapped in one here;
    the layers below take the Splitting alone."""
    Y = np.asarray(Y, dtype=np.float64)
    if not np.isfinite(Y).all():
        raise ValueError("observations contain NaN or inf")
    split = D if isinstance(D, Splitting) else None
    D = split.D if split else sp.csr_matrix(D)
    m, n = D.shape
    if Y.ndim != 2 or Y.shape[0] != n:
        raise ValueError(f"dimension mismatch: D has {n} columns, so Y must be ({n},) "
                         f"for one solve or ({n}, B) for a batch")
    check_level("lambda0" if sqrt else "lam", level, zero_ok=not sqrt)
    check_level("tol", opts.tol)
    B = Y.shape[1]
    if not sqrt and level == 0.0:
        return BatchResult(Y.copy(), np.ones(B, dtype=bool), np.zeros(B), 0, np.zeros((m, B)),
                           np.ones(B, dtype=bool))
    split = split or Splitting(D)
    mean = projections.componentwise_mean(split.labels, Y)
    centred = Y - mean
    if sqrt:
        return _sqrt_fixed_point(Y, mean, centred, split, level, opts)
    lam = np.full(B, float(level))
    fused, V_fused = _fused_screen(split, centred, n * lam)
    F, V, conv, cert, it = mean, np.empty((m, B)), np.ones(B, dtype=bool), fused, 0
    V[:, fused] = V_fused
    rest = np.flatnonzero(~fused)
    if len(rest):
        F[:, rest], conv[rest], cert[rest], V[:, rest], it = _plain_batch(
            split, Y[:, rest], lam[rest], mean[:, rest], centred[:, rest], opts)
    return BatchResult(F, conv, lam, it, V, cert)


def _scaled_dual(U: np.ndarray, rho: float, n: int, lam: np.ndarray) -> np.ndarray:
    """rho U / (n lam) clipped to [-1, 1], in place in U: the multiplier v
    of (Y - f)/n = lam D'v that the scaled dual U of the splitting stands for
    (_shrink keeps rho U in [-n lam, n lam] up to rounding)."""
    U *= rho / (n * lam)
    return np.clip(U, -1.0, 1.0, out=U)


def solve_analysis(Y: np.ndarray, D: sp.spmatrix | Splitting, lam: float,
                   opts: SolverOptions | None = None) -> EstimateResult:
    """Solve the penalized least squares problem for one observation vector.

    Parameters
    ----------
    Y : (n,) observation vector.
    D : (m, n) sparse analysis operator (graph incidence matrix), or its
        Splitting.
    lam : penalty level, >= 0.
    opts : solver options; defaults are tuned for certification-grade runs.
    """
    return _solve_one(Y, D, lam, opts, sqrt=False)


def _solve_one(Y, D, level: float, opts: SolverOptions | None, sqrt: bool) -> EstimateResult:
    """The core on the one observation vector Y, read off as an EstimateResult
    and certified when opts asks and a certificate exists (not for an
    unsettled or overfit square-root fit)."""
    opts = opts or SolverOptions()
    Y = np.asarray(Y, dtype=np.float64)
    split = D if isinstance(D, Splitting) else Splitting(D)
    D = split.D
    out = _estimate(Y[:, None], split, level, opts, sqrt)
    f = out.F[:, 0]
    if sqrt:
        objective = norm_n(Y - f) + 2.0 * level * float(np.abs(D @ f).sum())
    else:
        objective = float(_objective(Y[:, None], out.F, out.lam, D)[0])
    res = EstimateResult(f_hat=f, lambda_used=float(out.lam[0]), residual_norm_n=norm_n(Y - f),
                         kkt_residual=None, iterations=out.iterations,
                         converged=bool(out.converged[0]), objective=objective)
    if sqrt:
        res.sigma_hat, res.overfit = float(out.sigma_hat[0]), bool(out.overfit[0])
    if opts.certify and (not sqrt or res.converged and not res.overfit):
        # the dual's bound is an upper bound on the linear program's optimum,
        # so the program runs only when the bound does not pass
        bound = kkt_bound(Y, f, split, res.lambda_used, out.V[:, 0])
        res.kkt_residual = (bound if bound <= opts.kkt_tol else
                            kkt_residual(Y, f, split, res.lambda_used))
    return res


def _active_rows(Df: np.ndarray, DY: np.ndarray) -> np.ndarray:
    """Rows a certificate fixes to sign(Df): |(Df)_i| above ACTIVE_TOL_SCALE
    times the larger of ||Df||_inf and ||DY||_inf.  The data's scale anchors
    the threshold as well: at fully fused solutions ||Df||_inf is solver
    noise and must not define activity."""
    scale = max(float(np.max(np.abs(Df))), float(np.max(np.abs(DY)))) if Df.size else 0.0
    if scale > 0:
        return np.abs(Df) > ACTIVE_TOL_SCALE * scale
    return np.zeros(len(Df), dtype=bool)


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
    Y = np.asarray(Y, dtype=np.float64)
    f_hat = np.asarray(f_hat, dtype=np.float64)
    g = (Y - f_hat) / Y.shape[0]
    if lam == 0.0:
        return float(np.max(np.abs(g)))
    D, Dt, ends = (D.D, D.Dt, D.ends) if isinstance(D, Splitting) else \
        (sp.csr_matrix(D), sp.csr_matrix(D).T, graphs.edge_endpoints(D))
    Df = D @ f_hat
    act = _active_rows(Df, D @ Y)
    v = np.clip(v, -1.0, 1.0)
    v[act] = np.sign(Df[act])
    free = np.flatnonzero(~act)
    if len(free):
        rows, delta = _forest_step(ends[free], g - lam * (Dt @ v))
        v[free[rows]] += delta / lam
        np.clip(v, -1.0, 1.0, out=v)
    return float(np.max(np.abs(g - lam * (Dt @ v))))


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
    Y = np.asarray(Y, dtype=np.float64)
    f_hat = np.asarray(f_hat, dtype=np.float64)
    D = D.D if isinstance(D, Splitting) else sp.csr_matrix(D)
    n = Y.shape[0]
    g = (Y - f_hat) / n
    if lam == 0.0:
        return float(np.max(np.abs(g)))
    Df = D @ f_hat
    act = _active_rows(Df, D @ Y)
    c_fixed = g.copy()
    if act.any():
        c_fixed = c_fixed - lam * (D[act].T @ np.sign(Df[act]))
    free = np.flatnonzero(~act)
    if len(free) == 0:
        return float(np.max(np.abs(c_fixed)))
    from scipy.optimize import linprog   # about 14 MB of RSS, so only when needed

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


def _sqrt_fixed_point(Y: np.ndarray, mean: np.ndarray, centred: np.ndarray, split: Splitting,
                      lambda0: float, opts: SolverOptions) -> BatchResult:
    """The square-root fixed point on the columns of Y, shape (n, B), whose
    componentwise mean and centred Y (Y minus that mean) the caller holds.

    Each column starts at sigma0 = ||centred||_n.  A column that is fully
    fused at lam = 2 lambda0 sigma0 (_fused_screen) leaves at once with
    f = mean and sigma_hat = sigma0: its residual norm is sigma0, the
    largest attainable, so sigma0 is the largest fixed point.  Every other
    column leaves the batch once sigma settles (relative change <= fp_tol
    with a converged inner solve) or falls to OVERFIT_FLOOR * ||Y||_n; sigma
    moves only on a converged inner solve.  A column still live after
    MAX_OUTER steps is not converged.  Overfit columns carry f = Y and
    sigma_hat = lam = 0; every other column's lam is the last penalty it
    was solved at.
    """
    n, B = Y.shape
    sigma = np.atleast_1d(norm_n(centred, axis=0))
    floors = OVERFIT_FLOOR * np.atleast_1d(norm_n(Y, axis=0))
    overfit = sigma <= floors
    lam = np.zeros(B)
    F = Y.copy()
    V = np.zeros((split.D.shape[0], B))
    live = np.flatnonzero(~overfit)
    lam[live] = 2.0 * lambda0 * sigma[live]
    fused, V_fused = _fused_screen(split, centred[:, live], n * lam[live])
    certified = np.zeros(B, dtype=bool)
    certified[live[fused]] = True
    F[:, live[fused]], V[:, live[fused]] = mean[:, live[fused]], V_fused
    live = live[~fused]
    if len(live):
        state = _AdmmState(split, Y[:, live], lam[live], centred[:, live])
    iterations = 0
    for _ in range(MAX_OUTER):
        if len(live) == 0:
            break
        sig_old = sigma[live]
        lam[live] = 2.0 * lambda0 * sig_old
        F_new, state, it, conv = _admm_batch(state, Y[:, live], lam[live], opts)
        iterations += it
        # a column whose inner solve has not converged keeps its scale: its
        # iterate is not the fit at this scale, so its residual is no evidence
        # of overfit
        sig_new = np.where(conv, norm_n(Y[:, live] - F_new, axis=0), sig_old)
        F[:, live] = F_new
        sigma[live] = sig_new
        hit_floor = sig_new <= floors[live]
        overfit[live] |= hit_floor
        settled = hit_floor | (conv & (np.abs(sig_new - sig_old)
                                       <= opts.fp_tol * np.maximum(sig_old, 1e-300)))
        if settled.any():
            gone = live[settled]
            V[:, gone] = _scaled_dual(state.U[:, settled], state.rho, n, lam[gone])
            keep = ~settled
            live = live[keep]
            state.keep(keep)
    if len(live):   # unsettled after MAX_OUTER steps
        V[:, live] = _scaled_dual(state.U, state.rho, n, lam[live])
    F[:, overfit] = Y[:, overfit]
    V[:, overfit] = 0.0
    sigma = np.where(overfit, 0.0, sigma)
    lam[overfit] = 0.0
    settled = np.ones(B, dtype=bool)
    settled[live] = False
    return BatchResult(F, settled, lam, iterations, V, certified, sigma_hat=sigma,
                       overfit=overfit)


def solve_sqrt_analysis(Y: np.ndarray, D: sp.spmatrix | Splitting, lambda0: float,
                        opts: SolverOptions | None = None) -> EstimateResult:
    """Solve the square-root variant by a fixed point on the residual scale.

    The penalty is 2*lambda0*||Df||_1, mirroring the plain objective's
    2*lam*||Df||_1 form, so with sigma fixed the inner problem is the plain
    one at lam = 2*lambda0*sigma.  Starting from sigma equal to the residual
    norm of the fully penalized fit, the scale iterates downward to the
    largest fixed point; if it collapses below OVERFIT_FLOOR * ||Y||_n the
    estimator is flagged as overfitting and Y itself is returned, with
    sigma_hat = lambda_used = 0 (there the stationarity certificate does not
    exist).  A scale that has not settled after MAX_OUTER steps is returned
    with converged=False.  D is the incidence matrix or its Splitting.
    """
    return _solve_one(Y, D, lambda0, opts, sqrt=True)


def solve_analysis_batch(Y: np.ndarray, D: sp.spmatrix | Splitting, lam: float,
                         opts: SolverOptions | None = None) -> BatchResult:
    """Plain solutions for the columns of Y, shape (n, B), with per-column
    outcomes.  D is the incidence matrix or, for a caller that solves many
    batches on one graph, its Splitting, built once and reused."""
    return _estimate(Y, D, lam, opts or SolverOptions(), sqrt=False)


def solve_sqrt_analysis_batch(Y: np.ndarray, D: sp.spmatrix | Splitting, lambda0: float,
                              opts: SolverOptions | None = None) -> BatchResult:
    """Square-root solutions for the columns of Y, shape (n, B), with
    per-column outcomes: F, converged, lam, sigma_hat and overfit.  D is the
    incidence matrix or its Splitting, as for solve_analysis_batch."""
    return _estimate(Y, D, lambda0, opts or SolverOptions(), sqrt=True)
