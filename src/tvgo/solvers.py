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
edge endpoints, which are read once.
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

Before any ADMM iteration the core screens every column for full fusion
(_fused_screen): f = Ybar, the componentwise mean of Y, is optimal at lam
exactly when some v has D'v = Y - Ybar and |v| <= n lam, the KKT condition
whose least bound is the generalized lasso's lambda_max (Tibshirani &
Taylor, Ann. Statist. 2011).  The screen starts from the minimum-norm such
v, D L^+ (Y - Ybar) with L = D'D, the only one on a forest.  The Splitting
applies L^+: on the DCT grids by the transforms it already holds, divided
by the Laplacian eigenvalues with the zero mode dropped, and on every other
graph by one SuperLU factor of D'D grounded at one vertex per component,
built with the Splitting.  On a graph with a cycle (more than n minus the
number of components edges) a column that misses the bound by at most
SCREEN_GIVE_UP times takes up to SCREEN_STEPS alternating projections:
clip v to a box SCREEN_BOX times the bound, project back onto
{D'v = Y - Ybar} with the same L^+.  A column with max|v| <= n lam leaves
with F = Ybar, converged, no iteration and the exact dual v / (n lam), so
kkt_bound certifies it to rounding.  The square-root estimator screens
once, at sigma0 = ||Y - Ybar||_n and lam = 2 lambda0 sigma0: a column
fused there has residual norm sigma0, so sigma0, the largest attainable
scale, is its largest fixed point; and fusion at lam implies fusion at every
larger lam, while lam only falls along the iteration, so a column not fused
at sigma0 is fused at no later step.  Every other column runs the ADMM
batch or the fixed point as it would without the screen.

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
from dataclasses import asdict, dataclass

import numpy as np
import scipy.fft as sfft
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

    converged[j]: column j met the ADMM stopping test (plain) or its scale
    settled (square root).  lam[j]: the penalty column j was last solved at,
    0 where f = Y.  iterations: inner ADMM iterations of the whole batch.
    V, shape (m, B): column j's scaled ADMM dual rho u / (n lam[j]) clipped
    to [-1, 1], from the iteration it left the batch (for the square root,
    of its last inner solve; zero where lam[j] = 0), the dual guess kkt_bound
    certifies from.  sigma_hat and overfit are set by the square-root
    estimator only.  A column the full-fusion screen certifies (see the
    module docstring) takes no iteration: its F is the componentwise mean of
    Y, converged[j] is true and V[:, j] is an exact dual; iterations is 0
    when the screen certifies every column.
    """

    F: np.ndarray
    converged: np.ndarray
    lam: np.ndarray
    iterations: int
    V: np.ndarray
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
CHECK_EVERY = 10        # ADMM iterations between stopping tests and between rho adaptations
# alternating projections of the full-fusion screen (_fused_screen), on graphs with a cycle:
SCREEN_STEPS = 40       # mc_grid square-root columns certified: 974 of 1024 at 10 steps, 1015 at 40
SCREEN_BOX = 0.95       # clip to 5% inside the bound, so a projected v can land within it
SCREEN_GIVE_UP = 1.25   # leave past 1.25 n lam: certified columns start at 0.90-1.06, plain 1.9+


def _grid_shape(D: sp.csr_matrix, ends: np.ndarray) -> tuple[int, int] | None:
    """(h, w) when D, with 0-based edge endpoints ends, is an incidence
    matrix (entries +-1) of the row-major h x w grid, h, w >= 2.

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
    if s <= 0 or r * r != s * s - 4 * n or h < 2 or np.any(np.abs(D.data) != 1.0):
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


def _solve_factory(D: sp.csr_matrix, shape: tuple[int, int] | None, labels: np.ndarray):
    """(factory, lap_solve): factory maps rho to solve, where solve(R) returns
    X with (I + rho D'D) X = R, and lap_solve(R), for R with zero mean on
    every component of the 0-based vertex labels, returns an X with
    D'D X = R.  Both may overwrite R.

    On the row-major h x w grid, shape = (h, w), the orthonormal DCT-II along
    both grid axes diagonalises D'D, with eigenvalues 4 sin^2(pi i / 2h) +
    4 sin^2(pi j / 2w), so the solve is exact without a factor and a new rho
    only rebuilds the denominator; lap_solve divides by the eigenvalues and
    drops the zero mode.  Up to DCT_MATRIX_MAX_SIDE per side the transforms
    are products with the DCT-II matrices, which do not write to R; larger
    grids take scipy.fft's dctn/idctn.  Every other D (shape None), paths
    included, takes a SuperLU factor of I + rho D'D per rho (on a path its
    tridiagonal factor solves faster than the transforms) and, for
    lap_solve, one factor of D'D grounded at the first vertex of each
    component: X is zero there, and the dropped rows hold because R sums to
    zero over each component.
    """
    if shape is None:
        DtD = (D.T @ D).tocsc()
        eye = sp.identity(DtD.shape[0], format="csc")
        grounded = np.ones(len(labels), dtype=bool)
        grounded[np.unique(labels, return_index=True)[1]] = False
        lu = spla.splu(DtD[grounded][:, grounded].tocsc()) if grounded.any() else None

        def lap_solve(R):
            X = np.zeros_like(R)
            if lu is not None:
                X[grounded] = lu.solve(R[grounded])
            return X
        return (lambda rho: spla.splu((eye + rho * DtD).tocsc()).solve), lap_solve
    h, w = shape
    eig = [4.0 * np.sin(np.pi * np.arange(k) / (2 * k)) ** 2 for k in shape]
    if max(shape) > DCT_MATRIX_MAX_SIDE:
        eig = eig[0][:, None] + eig[1][None, :]

        def divide(R, denom):
            X = sfft.dctn(R.reshape(h, w, -1), norm="ortho", axes=(0, 1), overwrite_x=True)
            X /= denom
            return sfft.idctn(X, norm="ortho", axes=(0, 1), overwrite_x=True).reshape(h * w, -1)
    else:
        Ch, Cw = (sfft.dct(np.eye(k), norm="ortho", axis=0) for k in shape)
        eig = eig[1][:, None] + eig[0][None, :]   # (w, h), the layout X has when divided

        def divide(R, denom):
            X = np.matmul(Cw, R.reshape(h, w, -1))          # along w: (h, w, B)
            X = np.matmul(Ch, X.transpose(1, 0, 2))         # along h: (w, h, B)
            X /= denom
            X = np.matmul(Ch.T, X)
            return np.matmul(Cw.T, X.transpose(1, 0, 2)).reshape(h * w, -1)

    def factory(rho):
        denom = (1.0 + rho * eig)[:, :, None]
        return lambda R: divide(R, denom)
    lap_denom = eig[:, :, None].copy()
    lap_denom[0, 0] = np.inf   # the zero mode, the constant on the one component
    return factory, lambda R: divide(R, lap_denom)


class Splitting:
    """What the solvers derive from the incidence matrix D, built once per
    graph (see the module docstring): D', the 0-based edge endpoints ends,
    the component labels, the pure solve factory rho -> solve, the
    Laplacian solve lap_solve that applies (D'D)^+ up to the nullspace, and
    whether the graph has a cycle.  It is never written after construction,
    so threads may share it."""

    def __init__(self, D):
        self.D = sp.csr_matrix(D)
        self.Dt = self.D.T   # one CSC transpose
        self.ends = graphs.edge_endpoints(self.D)
        m, n = self.D.shape
        self.labels = graphs.component_labels(n, self.ends)
        self.factory, self.lap_solve = _solve_factory(self.D, _grid_shape(self.D, self.ends),
                                                      self.labels)
        # a forest has m = n - (number of components) edges; more means a cycle
        self.cyclic = m > n - len(np.unique(self.labels))


class _AdmmState:
    """Warm-startable state of the batched splitting solver, for one D: each
    column's F, Z and U and its two stopping-test anchors, one penalty rho,
    the f-update solve at that rho and the Splitting of D.  A new state
    starts every column of Y at f = Y, z = DY, u = 0, with rho = mean(n lam);
    centred is Y minus its componentwise mean, which the caller holds."""

    def __init__(self, split: Splitting, Y: np.ndarray, lam: np.ndarray, centred: np.ndarray):
        self.split = split
        self.F = Y.copy()
        self.Z = split.D @ self.F
        self.U = np.zeros_like(self.Z)
        self.rho = max(float(np.mean(Y.shape[0] * lam)), 1e-6)
        self.solve = split.factory(self.rho)
        # absolute anchors keep the stopping test meaningful for fully fused
        # solutions, where z = 0 and a purely relative test can never fire.  A
        # constant added to a component of Y moves f by that constant and
        # leaves z, u and both anchors as they are, so the test ignores it.
        # Y never changes, so neither do they
        self.pri_anchor = np.maximum(np.sqrt(_colsumsq(self.Z)), 1e-12)
        self.dual_anchor = np.maximum(np.sqrt(_colsumsq(centred)), 1e-12)

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

    Y is (n, B) and lam (B,), both float64, with B the state's columns.
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
    D, Dt = split.D, split.Dt
    n, B = Y.shape
    thresh_scale = n * lam  # soft threshold numerator in the scaled problem
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
                solve = split.factory(rho)
    if len(live):   # max_iter reached with columns still live
        state.F[:, live], state.Z[:, live], state.U[:, live] = F, Z, U

    state.rho, state.solve = rho, solve
    return state.F, state, it, converged


def _fused_screen(split: Splitting, centred: np.ndarray, bound: np.ndarray):
    """Columns of Y whose solution at per-column penalty bound = n lam > 0 is
    fully fused, f = componentwise mean of Y, and their exact duals.

    centred, shape (n, B), is Y minus its componentwise mean.  f is fused
    exactly when some v has D'v = centred and |v| <= bound.  The screen
    starts from the minimum-norm one, D (D'D)^+ centred, which on a forest is
    the only one.  On a graph with a cycle a column that misses the bound,
    but by at most SCREEN_GIVE_UP times, takes up to SCREEN_STEPS
    alternating projections: v is clipped to SCREEN_BOX times the bound and
    projected back onto {D'v = centred} with the same (D'D)^+.  A column
    leaves at the first v within the bound (certified) or past the give-up
    ratio.  Returns the certified mask (B,) and their scaled duals
    v / bound, in [-1, 1], shape (m, certified).
    """
    D, Dt, lap_solve = split.D, split.Dt, split.lap_solve
    V = D @ lap_solve(centred.copy())
    peak = np.max(np.abs(V), axis=0, initial=0.0)
    fused = peak <= bound
    live = np.flatnonzero(~fused & (peak <= SCREEN_GIVE_UP * bound))
    for _ in range(SCREEN_STEPS if split.cyclic else 0):
        if len(live) == 0:
            break
        box = SCREEN_BOX * bound[live]
        W = np.clip(V[:, live], -box, box)
        R = Dt @ W
        R -= centred[:, live]
        W -= D @ lap_solve(R)
        V[:, live] = W
        peak = np.max(np.abs(W), axis=0, initial=0.0)
        ok = peak <= bound[live]
        fused[live[ok]] = True
        live = live[~ok & (peak <= SCREEN_GIVE_UP * bound[live])]
    return fused, V[:, fused] / bound[fused]


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
        return BatchResult(Y.copy(), np.ones(B, dtype=bool), np.zeros(B), 0, np.zeros((m, B)))
    split = split or Splitting(D)
    mean = projections.componentwise_mean(split.labels, Y)
    centred = Y - mean
    if sqrt:
        return _sqrt_fixed_point(Y, mean, centred, split, level, opts)
    lam = np.full(B, float(level))
    fused, V_fused = _fused_screen(split, centred, n * lam)
    F, V, conv, it = mean, np.empty((m, B)), np.ones(B, dtype=bool), 0
    V[:, fused] = V_fused
    rest = np.flatnonzero(~fused)
    if len(rest):
        Y, lam_r = Y[:, rest], lam[rest]
        F_r, state, it, conv_r = _admm_batch(_AdmmState(split, Y, lam_r, centred[:, rest]),
                                             Y, lam_r, opts)
        F[:, rest], conv[rest] = F_r, conv_r
        V[:, rest] = _scaled_dual(state.U, state.rho, n, lam_r)
    return BatchResult(F, conv, lam, it, V)


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
    Splitting, whose edge endpoints the forest step reads; a plain D is
    wrapped in a new one.

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
    split = D if isinstance(D, Splitting) else Splitting(D)
    D, Dt = split.D, split.Dt
    Df = D @ f_hat
    act = _active_rows(Df, D @ Y)
    v = np.clip(v, -1.0, 1.0)
    v[act] = np.sign(Df[act])
    free = np.flatnonzero(~act)
    if len(free):
        rows, delta = _forest_step(split.ends[free], g - lam * (Dt @ v))
        v[free[rows]] += delta / lam
        np.clip(v, -1.0, 1.0, out=v)
    return float(np.max(np.abs(g - lam * (Dt @ v))))


def _forest_step(ends: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a spanning forest of the graph with 0-based edge endpoints
    `ends` on len(r) vertices, and the values delta on them with
    D_F' delta = r - (componentwise mean of r) for the forest's incidence D_F.

    A virtual root joined to the first vertex of each component makes the
    forest one tree, so one _TreeBlock takes every subtree sum: delta is the
    product of its pseudoinverse's transpose with the centred r (zero at the
    root), and the virtual edges' values, the centred sums, are dropped.
    """
    n, k = len(r), len(ends)
    labels = graphs.component_labels(n, ends)
    _, roots = np.unique(labels, return_index=True)
    # tree vertex i + 1 is vertex i, and 0 the root; edges past the first k
    # are the virtual ones
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
    return BatchResult(F, settled, lam, iterations, V, sigma_hat=sigma, overfit=overfit)


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
