"""The two estimators, each run on a batch of columns.

solve_analysis minimizes   ||Y - f||_n^2 + 2*lam*||D f||_1
solve_sqrt_analysis minimizes   ||Y - f||_n + 2*lambda0*||D f||_1

With sigma fixed, the square-root minimizer is the plain one at
lam = 2*lambda0*sigma, and the residual norm of that solution updates
sigma: an outer fixed point on the residual scale.  It starts at the
largest attainable residual norm and decreases monotonically, so it lands
on the largest fixed point; collapse to zero is reported as overfitting.
Each of its steps is a plain fit, and a certified one jumps to its
pattern's closed-form scale.  So both estimators share one splitting
(splitting), one ADMM core (admm), one full-fusion screen, polished
ladder and polish (polish), the only code that computes a plain fit, and
one certificate (certify).
This module owns what differs between them: it makes every input check,
runs the screen once for both at each column's level, runs the fixed point
and reads the outcomes off as results.  It is also where Y enters and
leaves the solver core, which sees only Y minus its componentwise mean Ybar
and returns fits of it: D annihilates Ybar, so both estimators satisfy
f(Y + b) = f(Y) + b, with sigma_hat unmoved, for b constant on each
component.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import admm, polish, projections
from .certify import kkt_bound, kkt_residual
from .splitting import Splitting

OVERFIT_FLOOR = 1e-6    # sigma <= OVERFIT_FLOOR * ||Y - Ybar||_n flags a square-root overfit


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
    0 where f = Y.  iterations: inner ADMM iterations of the whole batch,
    at most opts.max_iter.
    V, shape (m, B): column j's scaled ADMM dual rho u / (n lam[j]) clipped
    to [-1, 1], from the iteration it left the batch (for the square root,
    of the fit it ends on; zero where lam[j] = 0), the dual guess kkt_bound
    certifies from.  certified[j]: the full-fusion screen or the polish (see
    the polish module) produced column j's exact solution and an exact
    dual, which V[:, j] then holds, and converged[j] is true; a square-root
    column is certified when it settled, not as an overfit, on a certified
    fit: a verified jump to its pattern's own scale, or a certified step
    that moved sigma by at most fp_tol.  sigma_hat and overfit are set by
    the square-root estimator only.  A column the screen
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
    different problem, and a tolerance <= 0 is never met.  The deviation
    parameters x, t and a of a config or a CLI call take the same check.
    """
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        raise ValueError(f"{name} must be finite and {'>= 0' if zero_ok else '> 0'}, got {value}")


def _observations(Y) -> np.ndarray:
    """Y as a float64 array; ValueError when it is complex, whose imaginary
    part the conversion would drop with a warning alone."""
    Y = np.asarray(Y)
    if np.iscomplexobj(Y):
        raise ValueError(f"observations must be real, got dtype {Y.dtype}")
    return Y.astype(np.float64, copy=False)


def _objective(Y, F, lam, D) -> np.ndarray:
    n = Y.shape[0]
    return admm._colsumsq(Y - F) / n + 2.0 * lam * np.einsum("ij->j", np.abs(D @ F))


def _estimate(Y, D, level: float, opts: SolverOptions, sqrt: bool) -> BatchResult:
    """The plain (level lam) or, with sqrt, the square-root (level lambda0)
    estimator on the columns of Y, shape (n, B), after every input check.
    D is a Splitting or an incidence matrix, which is wrapped in one here;
    the layers below take the Splitting alone.

    Y is centred here once, to Y - Ybar with Ybar its componentwise mean;
    the screen, the ladder and the fixed point take the centred columns
    alone, and the ladder and the fixed point write their fits and duals
    into this estimate's own F and V (in place when no column was screened),
    to whose fits Ybar, taken again, is added back at the end.

    Before any ADMM iteration one full-fusion screen (polish._fused_screen)
    takes every column at its level: lam for the plain estimator, and
    lam = 2 lambda0 sigma0 for a square-root column, sigma0 = ||Y - Ybar||_n,
    unless sigma0 is within the rounding of the componentwise mean, at most
    n eps max|Y_j| with eps float64's machine epsilon (a column constant on
    each component, up to that rounding: overfit at once, f = Y, whatever
    the graph's Laplacian solve).  A column the screen fuses leaves with
    F = Ybar, converged and certified, no iteration and the exact dual.  For the square root
    that is the fixed point: a column fused there has residual norm sigma0,
    the largest attainable scale, so sigma0 is its largest fixed point.
    Fusion at lam implies fusion at every larger lam, while lam only falls
    along the iteration, so a column not fused at sigma0 is fused at no
    later step.  The other columns run the plain ladder
    (polish._plain_batch) or the fixed point (_sqrt_fixed_point), each of
    whose outer steps runs that ladder.
    """
    Y = _observations(Y)
    if not np.isfinite(Y).all():
        raise ValueError("observations contain NaN or inf")
    split = D if isinstance(D, Splitting) else None
    D = split.D if split else sp.csr_matrix(D)
    m, n = D.shape
    if Y.ndim != 2 or Y.shape[0] != n:
        raise ValueError(f"dimension mismatch: D has {n} columns, so Y must be ({n},) "
                         f"for one solve or ({n}, B) for a batch")
    check_level("lambda0" if sqrt else "lam", level, zero_ok=not sqrt)
    for name in ("tol", "fp_tol", "kkt_tol"):
        check_level(name, getattr(opts, name))
    if not isinstance(opts.max_iter, numbers.Integral) or opts.max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {opts.max_iter!r}")
    B = Y.shape[1]
    if not sqrt and level == 0.0:
        return BatchResult(Y.copy(), np.ones(B, dtype=bool), np.zeros(B), 0, np.zeros((m, B)),
                           np.ones(B, dtype=bool))
    split = split or Splitting(D)
    mean = projections.componentwise_mean(split.labels, Y)
    if sqrt:
        sigma = norm_n(Y - mean, axis=0)
        # constant on each component up to the rounding of its mean, which
        # leaves each centred entry within about n eps max|Y_j| of 0: f = Y
        overfit = sigma <= n * np.finfo(np.float64).eps * np.abs(Y).max(axis=0)
        lam = np.where(overfit, 0.0, 2.0 * level * sigma)
    else:
        lam, overfit = np.full(B, float(level)), np.zeros(B, dtype=bool)
    # column-major, as the layers below have always read their columns (the
    # rounding of a sum along a column follows the layout); the mean is
    # taken again for the fits, the same bits
    centred = np.subtract(Y, mean, order="F")
    del mean
    live = np.flatnonzero(~overfit)
    fused, V_fused = polish._fused_screen(split, polish._columns(centred, live), n * lam[live],
                                          None, polish.SCREEN_STEPS, polish.SCREEN_BOX)
    # the screened columns' centred fit is 0; the rest are written below,
    # in place when no column was screened
    F, V = np.zeros_like(Y), np.zeros((m, B))
    conv, cert = np.ones(B, dtype=bool), np.zeros(B, dtype=bool)
    cert[live[fused]] = True
    V[:, cert] = V_fused
    rest, it = live[~fused], 0
    if len(rest):
        whole = len(rest) == B
        F_r, V_r = (F, V) if whole else (np.empty((n, len(rest))), np.empty((m, len(rest))))
        if sqrt:
            conv[rest], cert[rest], lam[rest], it, sigma[rest], overfit[rest] = _sqrt_fixed_point(
                polish._columns(centred, rest), sigma[rest], split, level, opts, F_r, V_r)
        else:
            conv[rest], cert[rest], it = polish._plain_batch(
                split, polish._columns(centred, rest), lam[rest], opts, F_r, V_r)
        if not whole:
            F[:, rest], V[:, rest] = F_r, V_r
    del centred
    F += projections.componentwise_mean(split.labels, Y)
    if not sqrt:
        return BatchResult(F, conv, lam, it, V, cert)
    # overfit columns carry f = Y and sigma_hat = lam = 0, with no certificate
    F[:, overfit], V[:, overfit], sigma[overfit], lam[overfit] = Y[:, overfit], 0.0, 0.0, 0.0
    return BatchResult(F, conv, lam, it, V, cert, sigma_hat=sigma, overfit=overfit)


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
    Y = _observations(Y)
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


def _sqrt_fixed_point(centred: np.ndarray, sigma: np.ndarray, split: Splitting, lambda0: float,
                      opts: SolverOptions, F: np.ndarray, V: np.ndarray):
    """The square-root fixed point on the centred columns (each Y minus its
    componentwise mean), shape (n, B), none of them fully fused at its
    starting scale sigma = ||centred||_n > 0.

    Each outer step solves the live columns at lam = 2 lambda0 sigma with
    the plain ladder (polish._plain_batch), the one code that computes a
    plain fit.  A step the polish does not certify takes the monotone step
    sigma <- ||centred - f||_n when the ladder converged, and keeps sigma
    when it did not (its iterate is then no evidence of overfit).  A
    certified fit has groups G and boundary signs s that hold on an
    interval of lam, where f(lam) = Ybar_G - n lam w with w constant on
    each group, so ||centred - f(lam)||_n^2 = a + b lam^2 with
    a = ||centred - Ybar_G||_n^2 (the cross term vanishes): b lam^2 is the
    squared norm of the residual's group means and a that of the rest.  The
    pattern's own fixed point r = sqrt(a / (1 - 4 b lambda0^2)) lies below
    sigma whenever the monotone step does, and the column jumps there (to
    the overfit floor when r is below it): the polish (polish._polish) of
    the same groups and signs at lam = 2 lambda0 r verifies the jump.  A
    fit it certifies there settles the column at sigma_hat = r exactly:
    the lam at which one pattern is optimal form an interval, so no larger
    fixed point lies between r and sigma.  A jump the polish does not
    certify falls back to the monotone step (Sun & Zhang, Biometrika 2012).
    A column also settles when a step moves sigma by at most fp_tol
    relative, and flags an overfit when sigma falls to OVERFIT_FLOOR times
    its starting scale, by a step or by a verified jump to that floor.

    opts.max_iter bounds the inner iterations of the whole fixed point: each
    step's ladder gets what the steps before it left, and a column still
    live when none is left is not settled.  The centred fits go to F (n, B)
    and the duals of the solve each column was last solved at to V (m, B),
    the caller's arrays: a step at which every column is live runs its
    ladder on them in place.  Returns the settled and certified masks, the
    penalties lam each column was last solved at, the inner iterations,
    sigma and the overfit mask; the caller sets the overfit columns'
    outcomes.
    """
    n, B = centred.shape
    m = split.D.shape[0]
    floor, lam = OVERFIT_FLOOR * sigma, 2.0 * lambda0 * sigma
    overfit, cert = np.zeros((2, B), dtype=bool)
    live, iterations = np.arange(B), 0
    while len(live) and iterations < opts.max_iter:
        whole = len(live) == B
        sig, Y_l = sigma[live], polish._columns(centred, live)
        F_l, V_l = (F, V) if whole else (np.empty((n, len(live))), np.empty((m, len(live))))
        lam[live] = 2.0 * lambda0 * sig
        conv, ok, it = polish._plain_batch(
            split, Y_l, lam[live], replace(opts, max_iter=opts.max_iter - iterations), F_l, V_l)
        iterations += it
        R = np.subtract(Y_l, F_l, order="F")   # column-major: its norms round as they always have
        step = np.where(conv, norm_n(R, axis=0), sig)
        done = conv & (np.abs(step - sig) <= opts.fp_tol * sig)
        jump = np.flatnonzero(ok & ~done & (step < sig))
        if len(jump):
            # with lam = 2 lambda0 sigma, r = sigma sqrt(a / (sigma^2 - b lam^2))
            S = np.sign(split.D @ F_l[:, jump])
            M = polish._group_means(split, S == 0, R[:, jump])[0]
            a, b_lam2 = norm_n(R[:, jump] - M, axis=0) ** 2, norm_n(M, axis=0) ** 2
            r = np.maximum(sig[jump] * np.sqrt(a / (sig[jump] ** 2 - b_lam2)), floor[live[jump]])
            F_r, V_r = F_l[:, jump], V_l[:, jump]
            hit = polish._polish(split, Y_l[:, jump], F_r, V_r, 2.0 * lambda0 * r, S == 0, S)
            jump = jump[hit]
            F_l[:, jump], V_l[:, jump], step[jump] = F_r[:, hit], V_r[:, hit], r[hit]
            lam[live[jump]] = 2.0 * lambda0 * r[hit]
            done[jump] = True
        if not whole:
            F[:, live], V[:, live] = F_l, V_l
        cert[live], sigma[live] = ok, step
        overfit[live] = step <= floor[live]
        live = live[~(done | overfit[live])]
        del Y_l, F_l, V_l, R   # the next step's columns are fewer
    settled = ~np.isin(np.arange(B), live)
    return settled, cert & settled & ~overfit, lam, iterations, sigma, overfit


def solve_sqrt_analysis(Y: np.ndarray, D: sp.spmatrix | Splitting, lambda0: float,
                        opts: SolverOptions | None = None) -> EstimateResult:
    """Solve the square-root variant by a fixed point on the residual scale.

    The penalty is 2*lambda0*||Df||_1, mirroring the plain objective's
    2*lam*||Df||_1 form, so with sigma fixed the inner problem is the plain
    one at lam = 2*lambda0*sigma, which each outer step solves with the
    plain estimator's polished ladder.  Starting from sigma equal to the
    residual norm of the fully penalized fit, the scale iterates downward to
    the largest fixed point, jumping from a certified fit to its pattern's
    closed-form fixed point where the polish verifies the pattern there (see
    _sqrt_fixed_point), so a settled fit is exact and certified wherever
    the polish certifies its steps; if it collapses to OVERFIT_FLOOR times
    its starting scale ||Y - Ybar||_n, with Ybar the componentwise mean of Y, the
    estimator is flagged as overfitting and Y itself is returned, with
    sigma_hat = lambda_used = 0 (there the stationarity certificate does not
    exist).  The solve sees Y only through Y - Ybar, so Y + b for b constant
    on each component gives the same sigma_hat and f_hat + b.  A scale that
    has not settled within opts.max_iter inner iterations, over all outer
    steps, is returned with converged=False.
    D is the incidence matrix or its Splitting.
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
