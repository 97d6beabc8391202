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

There is one fixed-point loop, _sqrt_fixed_point, run on a batch of
columns: each column leaves the batch once its scale settles or collapses,
and the warm-start state of the remaining columns carries over.  The single
solve is a batch of one.  Observations must be finite, penalty levels
finite (lam >= 0, lambda0 > 0) and the stopping tolerance > 0; anything else
raises ValueError before any iteration.

Certification never trusts solver convergence alone: kkt_residual solves a
small linear feasibility program for the best subgradient certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
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
    over_relax: float = 1.8
    rho: float | None = None     # initial penalty; None picks a scale-aware value
    certify: bool = True         # run the KKT feasibility program on the result
    kkt_tol: float = 1e-6
    active_tol_scale: float = 1e-6
    fp_tol: float = 1e-9         # relative tolerance of the sigma fixed point
    max_outer: int = 500
    overfit_floor: float = 1e-6
    track_objective: bool = False


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


def _observations(Y) -> np.ndarray:
    """Y as a float64 array; non-finite entries raise ValueError."""
    Y = np.asarray(Y, dtype=np.float64)
    if not np.isfinite(Y).all():
        raise ValueError("observations contain NaN or inf")
    return Y


def check_level(name: str, value: float, zero_ok: bool = False) -> None:
    """Raise ValueError unless value is finite and > 0 (>= 0 with zero_ok).

    Penalty levels and stopping tolerances are checked before any iteration:
    a NaN level would surface as a singular factor, a negative one poses a
    different problem, and a tolerance <= 0 is never met.
    """
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        raise ValueError(f"{name} must be finite and {'>= 0' if zero_ok else '> 0'}, got {value}")


MAX_RHO_REVERSALS = 2   # penalty direction changes before rho is held


class _AdmmState:
    """Warm-startable state of the batched splitting solver."""

    def __init__(self, F, Z, U, rho):
        self.F, self.Z, self.U, self.rho = F, Z, U, rho


def _objective(Y, F, lam, D) -> np.ndarray:
    n = Y.shape[0]
    fit = np.sum((Y - F) ** 2, axis=0) / n
    pen = 2.0 * lam * np.sum(np.abs(D @ F), axis=0)
    return fit + pen


def _admm_batch(D: sp.spmatrix, Y: np.ndarray, lam: np.ndarray,
                opts: SolverOptions, state: _AdmmState | None = None):
    """Batched splitting solver.

    Y is (n, B); lam is (B,).  Minimizes (1/2)||f - Y||_2^2 + n*lam*||z||_1
    subject to Df = z (the original objective scaled by n/2).  Each column
    leaves the batch at the first iteration where it meets the primal/dual
    stopping test; the loop ends when no column is live or at max_iter.
    Returns the best-objective iterates (n, B), the warm-start state, the
    iteration count, a per-column converged mask (column j met the test) and
    the trace of the mean best objective.  The state holds each column's
    iterate at the iteration it left the batch (or the last one) and one
    penalty rho; when given, it is updated in place.
    """
    D = sp.csr_matrix(D)
    m, n = D.shape
    Y = np.asarray(Y, dtype=np.float64)
    B = Y.shape[1]
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), (B,))
    thresh_scale = n * lam  # soft threshold numerator in the scaled problem

    if state is None:
        rho = opts.rho if opts.rho is not None else max(float(np.mean(thresh_scale)), 1e-6)
        F = Y.copy()
        state = _AdmmState(F, D @ F, np.zeros((m, B)), rho)
    F, Z, U, rho = state.F, state.Z, state.U, state.rho

    Dt = D.T   # one CSC transpose for the whole call
    DtD = (Dt @ D).tocsc()
    eye = sp.identity(n, format="csc")
    solve = spla.splu((eye + rho * DtD).tocsc()).solve

    alpha = opts.over_relax
    obj_best = _objective(Y, F, lam, D)
    F_best = F.copy()
    obj_all = obj_best.copy() if opts.track_objective else None
    trace = [float(obj_best.mean())] if opts.track_objective else None
    converged = np.zeros(B, dtype=bool)
    # absolute anchors keep the stopping test meaningful for fully fused
    # solutions, where z = 0 and a purely relative test can never fire
    pri_anchor = np.maximum(np.linalg.norm(D @ Y, axis=0), 1e-12)
    dual_anchor = np.maximum(np.linalg.norm(Y, axis=0), 1e-12)
    # the working arrays hold the live columns only; Fb aliases F_best until
    # the first column leaves
    live = np.arange(B)
    Fb = F_best
    # a few columns left to themselves can make the adaptation cycle between
    # two penalties, each change undoing the progress since the last; ADMM
    # at a fixed penalty converges, so rho is held after MAX_RHO_REVERSALS
    last_step, reversals = None, 0
    it = 0
    for it in range(1, opts.max_iter + 1):
        F = solve(Y + Dt @ (rho * (Z - U)))
        DF = D @ F
        DF_r = alpha * DF + (1.0 - alpha) * Z
        V = DF_r + U
        kappa = thresh_scale / rho
        Z_new = np.sign(V) * np.maximum(np.abs(V) - kappa, 0.0)
        U = U + DF_r - Z_new

        obj = np.sum((Y - F) ** 2, axis=0) / n + 2.0 * lam * np.sum(np.abs(DF), axis=0)
        better = obj < obj_best
        if np.any(better):
            obj_best[better] = obj[better]
            Fb[:, better] = F[:, better]
        if trace is not None:
            obj_all[live] = obj_best
            trace.append(float(obj_all.mean()))

        r_norm = np.linalg.norm(DF - Z_new, axis=0)
        s_norm = rho * np.linalg.norm(Dt @ (Z_new - Z), axis=0)
        Z = Z_new
        eps_pri = opts.tol * np.maximum(np.linalg.norm(Z, axis=0), pri_anchor)
        eps_dual = opts.tol * np.maximum(rho * np.linalg.norm(Dt @ U, axis=0),
                                         dual_anchor)
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
                # rescaled too, so the whole state stays at one rho
                U /= step
                state.U /= step
                solve = spla.splu((eye + rho * DtD).tocsc()).solve
    if len(live):   # max_iter reached with columns still live
        F_best[:, live] = Fb
        state.F[:, live], state.Z[:, live], state.U[:, live] = F, Z, U

    state.rho = rho
    return F_best, state, it, converged, trace


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
    opts = opts or SolverOptions()
    Y = _observations(Y)
    D = sp.csr_matrix(D)
    if D.shape[1] != Y.shape[0]:
        raise ValueError(f"dimension mismatch: D has {D.shape[1]} columns, Y has {Y.shape[0]}")
    check_level("lam", lam, zero_ok=True)
    check_level("tol", opts.tol)
    if lam == 0.0:
        res = EstimateResult(f_hat=Y.copy(), lambda_used=0.0,
                             residual_norm_n=0.0, kkt_residual=None,
                             iterations=0, converged=True, objective=0.0)
        if opts.certify:
            res.kkt_residual = kkt_residual(Y, res.f_hat, D, 0.0, opts)
        return res
    F, _, it, conv, trace = _admm_batch(D, Y[:, None], np.array([lam]), opts)
    f = F[:, 0]
    res = EstimateResult(
        f_hat=f, lambda_used=float(lam),
        residual_norm_n=norm_n(Y - f),
        kkt_residual=None, iterations=it, converged=bool(conv[0]),
        objective=float(_objective(Y[:, None], F, np.array([lam]), D)[0]),
        objective_trace=trace)
    if opts.certify:
        res.kkt_residual = kkt_residual(Y, f, D, lam, opts)
    return res


def kkt_residual(Y: np.ndarray, f_hat: np.ndarray, D: sp.spmatrix, lam: float,
                 opts: SolverOptions | None = None) -> float:
    """Best-case stationarity violation of a candidate solution.

    Searches for a subgradient certificate v with ||v||_inf <= 1, v fixed to
    the sign of (D f)_i on rows where |(D f)_i| exceeds the activity
    threshold, minimizing || (Y - f)/n - lam * D'v ||_inf.  Zero at the exact
    optimum; solved as a linear program.
    """
    opts = opts or SolverOptions()
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
    act = np.abs(Df) > opts.active_tol_scale * scale if scale > 0 else np.zeros(len(Df), bool)
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
                      opts: SolverOptions):
    """The square-root fixed point on the columns of Y, shape (n, B).

    Each column starts at sigma = ||Y - (componentwise mean of Y)||_n and
    leaves the batch once sigma settles (relative change <= fp_tol with a
    converged inner solve) or falls to overfit_floor * ||Y||_n.  Returns
    (F, sigma, lam, overfit, settled, iterations): overfit columns carry
    f = Y and sigma = 0; lam is the last penalty each column was solved at
    (0 for columns that never entered an inner solve); iterations sums the
    inner iterations over the outer steps.
    """
    Y = _observations(Y)
    n, B = Y.shape
    labels = graphs.component_labels(n, graphs.edge_endpoints(D))
    sigma = np.atleast_1d(norm_n(Y - projections.componentwise_mean(labels, Y), axis=0))
    floors = opts.overfit_floor * np.atleast_1d(norm_n(Y, axis=0))
    overfit = sigma <= floors
    lam = np.zeros(B)
    F = Y.copy()
    live = np.flatnonzero(~overfit)
    state = None
    inner = replace(opts, certify=False)
    iterations = 0
    for _ in range(opts.max_outer):
        if len(live) == 0:
            break
        sig_old = sigma[live]
        lam[live] = 2.0 * lambda0 * sig_old
        F_new, state, it, conv, _ = _admm_batch(D, Y[:, live], lam[live], inner, state)
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
            state = _AdmmState(state.F[:, keep], state.Z[:, keep], state.U[:, keep], state.rho)
    F[:, overfit] = Y[:, overfit]
    sigma = np.where(overfit, 0.0, sigma)
    settled = np.ones(B, dtype=bool)
    settled[live] = False
    return F, sigma, lam, overfit, settled, iterations


def solve_sqrt_analysis(Y: np.ndarray, D: sp.spmatrix, lambda0: float,
                        opts: SolverOptions | None = None) -> EstimateResult:
    """Solve the square-root variant by a fixed point on the residual scale.

    The penalty is 2*lambda0*||Df||_1, mirroring the plain objective's
    2*lam*||Df||_1 form, so with sigma fixed the inner problem is the plain
    one at lam = 2*lambda0*sigma.  Starting from sigma equal to the residual
    norm of the fully penalized fit, the scale iterates downward to the
    largest fixed point; if it collapses below overfit_floor * ||Y||_n the
    estimator is flagged as overfitting and Y itself is returned, with
    sigma_hat = lambda_used = 0 (there the stationarity certificate does not
    exist).  A scale that has not settled after max_outer steps is returned
    with converged=False.
    """
    opts = opts or SolverOptions()
    Y = np.asarray(Y, dtype=np.float64)
    D = sp.csr_matrix(D)
    check_level("lambda0", lambda0)
    check_level("tol", opts.tol)
    F, sigma, lam, overfit, settled, iterations = _sqrt_fixed_point(Y[:, None], D, lambda0, opts)
    f = F[:, 0]
    overfit, converged = bool(overfit[0]), bool(settled[0])
    lam_used = 0.0 if overfit else float(lam[0])
    res = EstimateResult(f_hat=f, lambda_used=lam_used,
                         residual_norm_n=norm_n(Y - f),
                         kkt_residual=None, iterations=iterations,
                         converged=converged,
                         objective=norm_n(Y - f) + 2.0 * lambda0 * float(np.abs(D @ f).sum()),
                         sigma_hat=float(sigma[0]), overfit=overfit)
    if opts.certify and converged and not overfit:
        res.kkt_residual = kkt_residual(Y, f, D, lam_used, opts)
    return res


def solve_analysis_batch(Y: np.ndarray, D: sp.spmatrix, lam: float,
                         opts: SolverOptions | None = None) -> np.ndarray:
    """Plain solutions for a batch of observation columns; returns (n, B)."""
    opts = opts or SolverOptions()
    Y = _observations(Y)
    check_level("lam", lam, zero_ok=True)
    check_level("tol", opts.tol)
    if lam == 0.0:
        return Y.copy()
    F, _, _, conv, _ = _admm_batch(D, Y, np.full(Y.shape[1], lam), opts)
    if not conv.all():
        raise RuntimeError("batched solver did not converge on every column")
    return F


def solve_sqrt_analysis_batch(Y: np.ndarray, D: sp.spmatrix, lambda0: float,
                              opts: SolverOptions | None = None):
    """Square-root solutions for a batch of observation columns.

    Returns (F, sigma_hat, overfit) with shapes (n, B), (B,), (B,).  Overfit
    columns carry f = Y and sigma_hat = 0.
    """
    opts = opts or SolverOptions()
    check_level("lambda0", lambda0)
    check_level("tol", opts.tol)
    F, sigma, _, overfit, settled, _ = _sqrt_fixed_point(Y, sp.csr_matrix(D), lambda0, opts)
    if not settled.all():
        raise RuntimeError("square-root fixed point did not settle on every column")
    return F, sigma, overfit
