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

The splitting, _admm_batch, runs on a batch of columns, and each column
leaves the batch at the first iteration where it meets the primal/dual
stopping test, so no column iterates longer than its own test asks;
converged[j] means that column j met the test.  The warm-start state keeps
each column's iterate from the iteration it left and one penalty rho: on a
change of rho the scaled duals of the columns that have left are rescaled
with the live ones.  rho is held once its adaptation has reversed direction
twice, which stops the few columns left at the end of a batch (or a single
column) from cycling between two penalties.

The f-update solves (I + rho D'D) F = R through one solve factory per D,
rho -> solve, picked from the structure of D'D.  When D'D is the Laplacian
of a row-major h x w grid (h, w >= 2; any edge order or orientation), the
orthonormal DCT-II over the two grid axes diagonalises it, so the solve is
exact without a factor and a new rho only rebuilds the diagonal.  On grids
up to DCT_MATRIX_MAX_SIDE per side the transforms are products with the
DCT-II matrices C_h and C_w, built once per D: four stacked matmuls over the
(h, w, B) view of R, each a k x k by k x B product (k = h or w).  At h, w <=
32 and B <= 64 these stay below OpenBLAS's threading threshold, so they
never compete with an experiment's threads.  Larger grids keep scipy.fft's
dctn/idctn, whose cost grows as hw log(hw) where the products' grows as
hw (h + w).

Every other graph takes a SuperLU factor per rho.  Paths stay on SuperLU:
their tridiagonal factor solves faster than the transforms, which made
mc_path experiments slower.  The warm-start state carries this splitting
of D (D', D'D, the factory and the last rho's solve), so the outer steps of
the square-root fixed point refactor only when rho changes.  Each iteration
does one product with D and two with D': D'z and D'u are carried across
iterations, and z and u are updated in place: with v = u + alpha Df +
(1 - alpha) z, u_new is v clipped to [-k, k] and z_new = v - u_new
(_shrink).  The best iterate is not copied when every live column
improved: the working best array is rebound to the iterate, which is a
fresh array each iteration.

Both estimators run through one batched core, _estimate, which makes every
input check (finite (n, B) observations matching D, a finite level with
lam >= 0 or lambda0 > 0, tol > 0; ValueError before any iteration) and
returns per-column outcomes: a column that does not converge is reported,
not raised.  The batch entry points return them; a single solve is column 0
of a batch of one.  The one fixed-point loop, _sqrt_fixed_point, retires
each column once its scale settles or collapses.

Certification never trusts solver convergence alone: kkt_residual solves a
small linear feasibility program for the best subgradient certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linprog

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
    certify: bool = True         # run the KKT feasibility program on the result
    kkt_tol: float = 1e-6
    fp_tol: float = 1e-9         # relative tolerance of the sigma fixed point
    track_objective: bool = False


@dataclass
class BatchResult:
    """Per-column outcomes of one estimator on the columns of Y, shape (n, B).

    converged[j]: column j met the ADMM stopping test (plain) or its scale
    settled (square root).  lam[j]: the penalty column j was last solved at,
    0 where f = Y.  iterations: inner ADMM iterations of the whole batch.
    sigma_hat and overfit are set by the square-root estimator only, trace
    by a plain solve with track_objective.
    """

    F: np.ndarray
    converged: np.ndarray
    lam: np.ndarray
    iterations: int
    sigma_hat: np.ndarray | None = None
    overfit: np.ndarray | None = None
    trace: list | None = None


@dataclass
class EstimateResult:
    """Solution bundle for one estimation problem.

    sigma_hat and overfit are set by the square-root solver only.  objective
    is the attained objective value; objective_trace (optional) records the
    best objective seen up to each iteration and is non-increasing.
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
    objective_trace: list | None = None

    def to_dict(self) -> dict:
        return {
            "f_hat": self.f_hat.tolist(),
            "lambda_used": self.lambda_used,
            "residual_norm_n": self.residual_norm_n,
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "objective": self.objective,
            "sigma_hat": self.sigma_hat,
            "overfit": self.overfit,
        }


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


def _grid_shape(DtD: sp.csc_matrix, m: int) -> tuple[int, int] | None:
    """(h, w) when DtD is the Laplacian of the row-major h x w grid, h, w >= 2.

    A grid has n = hw vertices and m = 2hw - h - w edges, so h and w are the
    roots of t^2 - (2n - m) t + n; one sparse comparison then decides.  D'D
    does not see edge order or orientation, so any incidence matrix of the
    grid passes, and a relabelling of the vertices does not (unless it maps
    the grid to itself).  Paths (h = 1) are left out.
    """
    n = DtD.shape[0]
    s = 2 * n - m
    r = math.isqrt(max(s * s - 4 * n, 0))
    h, w = (s - r) // 2, (s + r) // 2
    if s <= 0 or r * r != s * s - 4 * n or h < 2:
        return None
    for shape in ((h, w), (w, h)):
        if (DtD != _grid_laplacian(*shape)).nnz == 0:
            return shape
    return None


def _path_laplacian(k: int) -> sp.dia_matrix:
    deg = np.full(k, 2.0)
    deg[[0, -1]] = 1.0
    return sp.diags([-np.ones(k - 1), deg, -np.ones(k - 1)], [-1, 0, 1])


def _grid_laplacian(h: int, w: int) -> sp.csc_matrix:
    """Laplacian of the h x w grid with vertices numbered row-major."""
    return (sp.kron(_path_laplacian(h), sp.identity(w)) +
            sp.kron(sp.identity(h), _path_laplacian(w))).tocsc()


def _solve_factory(DtD: sp.csc_matrix, m: int):
    """rho -> solve, where solve(R) returns X with (I + rho D'D) X = R.

    On a row-major h x w grid the orthonormal DCT-II along both grid axes
    diagonalises D'D, with eigenvalues 4 sin^2(pi i / 2h) + 4 sin^2(pi j / 2w),
    so the solve is exact without a factor and a new rho only rebuilds the
    denominator.  Up to DCT_MATRIX_MAX_SIDE per side the transforms are
    products with the DCT-II matrices, which do not write to R; larger grids
    take scipy.fft's dctn/idctn, which may overwrite R.  Every other D'D,
    paths included, takes a SuperLU factor of I + rho D'D per rho: on a path
    its tridiagonal factor solves faster than the transforms.
    """
    shape = _grid_shape(DtD, m)
    if shape is None:
        eye = sp.identity(DtD.shape[0], format="csc")
        return lambda rho: spla.splu((eye + rho * DtD).tocsc()).solve
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
    return factory


class _Splitting:
    """What the f-update needs of D: D', D'D and the solve of (I + rho D'D),
    with the last penalty's solve kept for the next call at that penalty."""

    def __init__(self, D):
        self.D = sp.csr_matrix(D)
        self.Dt = self.D.T   # one CSC transpose
        self.factory = _solve_factory((self.Dt @ self.D).tocsc(), self.D.shape[0])
        self._last = (None, None)

    def solve(self, rho: float):
        if self._last[0] != rho:
            self._last = (rho, self.factory(rho))
        return self._last[1]


class _AdmmState:
    """Warm-startable state of the batched splitting solver, for one D."""

    def __init__(self, F, Z, U, rho, split: _Splitting):
        self.F, self.Z, self.U, self.rho, self.split = F, Z, U, rho, split


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


def _admm_batch(D: sp.spmatrix, Y: np.ndarray, lam: np.ndarray,
                opts: SolverOptions, state: _AdmmState | None = None):
    """Batched splitting solver.

    Y is (n, B) and lam (B,), both float64.  Minimizes (1/2)||f - Y||_2^2 +
    n*lam*||z||_1 subject to Df = z (the original objective scaled by n/2).  Each column
    leaves the batch at the first iteration where it meets the primal/dual
    stopping test; the loop ends when no column is live or at max_iter.
    Returns the best-objective iterates (n, B), the warm-start state, the
    iteration count, a per-column converged mask (column j met the test) and
    the trace of the mean best objective.  The state holds each column's
    iterate at the iteration it left the batch (or the last one), one
    penalty rho and the splitting of D; when given, it is updated in place
    and its splitting is used in place of D.
    """
    B = Y.shape[1]
    if state is None:
        split = _Splitting(D)
        m, n = split.D.shape
        rho = max(float(np.mean(n * lam)), 1e-6)
        F = Y.copy()
        state = _AdmmState(F, split.D @ F, np.zeros((m, B)), rho, split)
    split, rho = state.split, state.rho
    D, Dt = split.D, split.Dt
    m, n = D.shape
    thresh_scale = n * lam  # soft threshold numerator in the scaled problem
    solve = split.solve(rho)
    # the working Z and U are updated in place, so they must not alias the
    # state, whose U is rescaled separately on a change of rho
    F, Z, U = state.F, state.Z.copy(), state.U.copy()
    # D'z and D'u are carried across iterations: each step then needs one
    # product with D and two with D', for z_new - z and for u_new
    DtZ, DtU = Dt @ Z, Dt @ U

    obj_best = _objective(Y, F, lam, D)
    F_best = F.copy()
    obj_all = obj_best.copy() if opts.track_objective else None
    trace = [float(obj_best.mean())] if opts.track_objective else None
    converged = np.zeros(B, dtype=bool)
    # absolute anchors keep the stopping test meaningful for fully fused
    # solutions, where z = 0 and a purely relative test can never fire
    pri_anchor = np.maximum(np.sqrt(_colsumsq(D @ Y)), 1e-12)
    dual_anchor = np.maximum(np.sqrt(_colsumsq(Y)), 1e-12)
    # the working arrays hold the live columns only.  Fb holds the live
    # columns' best iterates: it starts as F_best, is rebound to F when every
    # live column improves and is copied into only on a partial improvement,
    # so every exit writes it back to F_best.  Zn and T are (m, live) buffers.
    live = np.arange(B)
    Fb = F_best
    Zn, T = np.empty_like(Z), np.empty_like(Z)
    # a few columns left to themselves can make the adaptation cycle between
    # two penalties, each change undoing the progress since the last; ADMM
    # at a fixed penalty converges, so rho is held after MAX_RHO_REVERSALS
    last_step, reversals = None, 0
    it = 0
    for it in range(1, opts.max_iter + 1):
        R = DtZ - DtU
        R *= rho
        R += Y
        F = solve(R)
        DF = D @ F
        np.abs(DF, out=T)
        obj = _colsumsq(Y - F) / n + 2.0 * lam * np.einsum("ij->j", T)
        better = obj < obj_best
        if better.all():
            # F is a fresh array each iteration and never written in place
            Fb, obj_best = F, obj
        elif better.any():
            obj_best[better] = obj[better]
            Fb[:, better] = F[:, better]
        if trace is not None:
            obj_all[live] = obj_best
            trace.append(float(obj_all.mean()))

        # over-relaxed z-update: v = u + alpha Df + (1 - alpha) z; u_new is v
        # clipped to [-k, k] and z_new = v - u_new its soft threshold at k
        np.multiply(DF, OVER_RELAX, out=Zn)
        np.multiply(Z, 1.0 - OVER_RELAX, out=T)
        Zn += T
        Zn += U
        _shrink(Zn, thresh_scale / rho, U)

        DF -= Zn
        r_norm = np.sqrt(_colsumsq(DF))
        np.subtract(Zn, Z, out=T)
        dDtZ = Dt @ T
        s_norm = rho * np.sqrt(_colsumsq(dDtZ))
        DtZ += dDtZ
        Z, Zn = Zn, Z
        DtU = Dt @ U
        eps_pri = opts.tol * np.maximum(np.sqrt(_colsumsq(Z)), pri_anchor)
        eps_dual = opts.tol * np.maximum(rho * np.sqrt(_colsumsq(DtU)), dual_anchor)
        done = (r_norm <= eps_pri) & (s_norm <= eps_dual)
        if done.any():
            gone = live[done]
            converged[gone] = True
            F_best[:, gone] = Fb[:, done]
            state.F[:, gone] = F[:, done]
            state.Z[:, gone] = Z[:, done]
            state.U[:, gone] = U[:, done]
            keep = ~done
            live = live[keep]
            if len(live) == 0:
                break
            Y, F, Fb, Z, U = Y[:, keep], F[:, keep], Fb[:, keep], Z[:, keep], U[:, keep]
            DtZ, DtU = DtZ[:, keep], DtU[:, keep]
            Zn, T = np.empty_like(Z), np.empty_like(Z)
            lam, thresh_scale, obj_best = lam[keep], thresh_scale[keep], obj_best[keep]
            pri_anchor, dual_anchor = pri_anchor[keep], dual_anchor[keep]
            r_norm, s_norm = r_norm[keep], s_norm[keep]

        if it % 10 == 0 and reversals < MAX_RHO_REVERSALS:
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
                # rescaled too, so the whole state stays at one rho; a power
                # of two divides D'u exactly
                U /= step
                DtU /= step
                state.U /= step
                solve = split.solve(rho)
    if len(live):   # max_iter reached with columns still live
        F_best[:, live] = Fb
        state.F[:, live], state.Z[:, live], state.U[:, live] = F, Z, U

    state.rho = rho
    return F_best, state, it, converged, trace


def _estimate(Y, D, level: float, opts: SolverOptions, sqrt: bool) -> BatchResult:
    """The plain (level lam) or, with sqrt, the square-root (level lambda0)
    estimator on the columns of Y, shape (n, B), after every input check."""
    Y = np.asarray(Y, dtype=np.float64)
    if not np.isfinite(Y).all():
        raise ValueError("observations contain NaN or inf")
    D = sp.csr_matrix(D)
    n = D.shape[1]
    if Y.ndim != 2 or Y.shape[0] != n:
        raise ValueError(f"dimension mismatch: D has {n} columns, so Y must be ({n},) "
                         f"for one solve or ({n}, B) for a batch")
    check_level("lambda0" if sqrt else "lam", level, zero_ok=not sqrt)
    check_level("tol", opts.tol)
    if sqrt:
        return _sqrt_fixed_point(Y, D, level, opts)
    B = Y.shape[1]
    if level == 0.0:
        return BatchResult(Y.copy(), np.ones(B, dtype=bool), np.zeros(B), 0)
    lam = np.full(B, float(level))
    F, _, it, conv, trace = _admm_batch(D, Y, lam, opts)
    return BatchResult(F, conv, lam, it, trace=trace)


def solve_analysis(Y: np.ndarray, D: sp.spmatrix, lam: float,
                   opts: SolverOptions | None = None) -> EstimateResult:
    """Solve the penalized least squares problem for one observation vector.

    Parameters
    ----------
    Y : (n,) observation vector.
    D : (m, n) sparse analysis operator (graph incidence matrix).
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
    D = sp.csr_matrix(D)
    out = _estimate(Y[:, None], D, level, opts, sqrt)
    f = out.F[:, 0]
    if sqrt:
        objective = norm_n(Y - f) + 2.0 * level * float(np.abs(D @ f).sum())
    else:
        objective = float(_objective(Y[:, None], out.F, out.lam, D)[0])
    res = EstimateResult(f_hat=f, lambda_used=float(out.lam[0]), residual_norm_n=norm_n(Y - f),
                         kkt_residual=None, iterations=out.iterations,
                         converged=bool(out.converged[0]), objective=objective,
                         objective_trace=out.trace)
    if sqrt:
        res.sigma_hat, res.overfit = float(out.sigma_hat[0]), bool(out.overfit[0])
    if opts.certify and (not sqrt or res.converged and not res.overfit):
        res.kkt_residual = kkt_residual(Y, f, D, res.lambda_used)
    return res


def kkt_residual(Y: np.ndarray, f_hat: np.ndarray, D: sp.spmatrix, lam: float) -> float:
    """Best-case stationarity violation of a candidate solution.

    Searches for a subgradient certificate v with ||v||_inf <= 1, v fixed to
    the sign of (D f)_i on rows where |(D f)_i| exceeds the activity
    threshold, minimizing || (Y - f)/n - lam * D'v ||_inf.  Zero at the exact
    optimum; solved as a linear program.
    """
    Y = np.asarray(Y, dtype=np.float64)
    f_hat = np.asarray(f_hat, dtype=np.float64)
    D = sp.csr_matrix(D)
    n = Y.shape[0]
    g = (Y - f_hat) / n
    if lam == 0.0:
        return float(np.max(np.abs(g)))
    Df = D @ f_hat
    # anchor the activity threshold to the data scale as well: at fully fused
    # solutions ||Df||_inf is solver noise and must not define activity
    scale = max(float(np.max(np.abs(Df))) if Df.size else 0.0,
                float(np.max(np.abs(D @ Y))) if Df.size else 0.0)
    act = np.abs(Df) > ACTIVE_TOL_SCALE * scale if scale > 0 else np.zeros(len(Df), bool)
    c_fixed = g.copy()
    if act.any():
        c_fixed = c_fixed - lam * (D[act].T @ np.sign(Df[act]))
    free = np.flatnonzero(~act)
    if len(free) == 0:
        return float(np.max(np.abs(c_fixed)))
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


def _sqrt_fixed_point(Y: np.ndarray, D: sp.csr_matrix, lambda0: float,
                      opts: SolverOptions) -> BatchResult:
    """The square-root fixed point on the columns of Y, shape (n, B).

    Each column starts at sigma = ||Y - (componentwise mean of Y)||_n and
    leaves the batch once sigma settles (relative change <= fp_tol with a
    converged inner solve) or falls to OVERFIT_FLOOR * ||Y||_n.  A column
    still live after MAX_OUTER steps is not converged.  Overfit columns carry
    f = Y and sigma_hat = lam = 0; every other column's lam is the last
    penalty it was solved at.
    """
    n, B = Y.shape
    labels = graphs.component_labels(n, graphs.edge_endpoints(D))
    sigma = np.atleast_1d(norm_n(Y - projections.componentwise_mean(labels, Y), axis=0))
    floors = OVERFIT_FLOOR * np.atleast_1d(norm_n(Y, axis=0))
    overfit = sigma <= floors
    lam = np.zeros(B)
    F = Y.copy()
    live = np.flatnonzero(~overfit)
    state = None
    iterations = 0
    for _ in range(MAX_OUTER):
        if len(live) == 0:
            break
        sig_old = sigma[live]
        lam[live] = 2.0 * lambda0 * sig_old
        F_new, state, it, conv, _ = _admm_batch(D, Y[:, live], lam[live], opts, state)
        iterations += it
        sig_new = np.atleast_1d(norm_n(Y[:, live] - F_new, axis=0))
        F[:, live] = F_new
        sigma[live] = sig_new
        hit_floor = sig_new <= floors[live]
        overfit[live] |= hit_floor
        settled = hit_floor | (conv & (np.abs(sig_new - sig_old)
                                       <= opts.fp_tol * np.maximum(sig_old, 1e-300)))
        if settled.any():
            keep = ~settled
            live = live[keep]
            state = _AdmmState(state.F[:, keep], state.Z[:, keep], state.U[:, keep],
                                state.rho, state.split)
    F[:, overfit] = Y[:, overfit]
    sigma = np.where(overfit, 0.0, sigma)
    lam[overfit] = 0.0
    settled = np.ones(B, dtype=bool)
    settled[live] = False
    return BatchResult(F, settled, lam, iterations, sigma_hat=sigma, overfit=overfit)


def solve_sqrt_analysis(Y: np.ndarray, D: sp.spmatrix, lambda0: float,
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
    with converged=False.
    """
    return _solve_one(Y, D, lambda0, opts, sqrt=True)


def solve_analysis_batch(Y: np.ndarray, D: sp.spmatrix, lam: float,
                         opts: SolverOptions | None = None) -> BatchResult:
    """Plain solutions for the columns of Y, shape (n, B), with per-column outcomes."""
    return _estimate(Y, D, lam, opts or SolverOptions(), sqrt=False)


def solve_sqrt_analysis_batch(Y: np.ndarray, D: sp.spmatrix, lambda0: float,
                              opts: SolverOptions | None = None) -> BatchResult:
    """Square-root solutions for the columns of Y, shape (n, B), with
    per-column outcomes: F, converged, lam, sigma_hat and overfit."""
    return _estimate(Y, D, lambda0, opts or SolverOptions(), sqrt=True)
