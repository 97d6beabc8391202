"""How a batch of columns runs the over-relaxed ADMM splitting (f, z = Df).

The solver core sees only centred data: each column of Y minus its
componentwise mean, which D annihilates, so a constant added to a
component of Y moves the solution by that constant and changes nothing
here.  The stopping test runs at iteration 1, which a warm-started rung
of the polish ladder often passes, and at every
CHECK_EVERY-th iteration after it, the iterations at which rho may adapt.
Its anchors are the norms of DY and of the centred data, taken once per
warm-start state.  The warm-start state keeps each column's iterate from the
iteration it left and one penalty rho: on a change of rho the scaled duals
of the columns that have left are rescaled with the live ones.  rho is held
once its adaptation has reversed direction MAX_RHO_REVERSALS times, which
stops the few columns left at the end of a batch (or a single column) from
cycling between two penalties.  Each iteration does one product with D and
one with D', for D'(z - u) in the f-update, and updates z and u in place;
the residual norms take two more products with D', on check iterations
only.
"""
from __future__ import annotations

import numpy as np

from .splitting import Splitting

OVER_RELAX = 1.8        # ADMM over-relaxation alpha
CHECK_EVERY = 10        # ADMM iterations between stopping tests and between rho adaptations
MAX_RHO_REVERSALS = 2   # penalty direction changes before rho is held


class _AdmmState:
    """Warm-startable state of the batched splitting solver, for one D: each
    column's F, Z and U, in one float dtype, and its two stopping-test
    anchors, one penalty rho, the f-update solve at that rho and dtype and
    the Splitting of D.  A new state starts every column of the centred data
    Yc, Y minus its componentwise mean, at f = Yc, z = D Yc, u = 0, with
    rho = mean(n lam), in dtype; DY, when given, is D Yc in float64, which
    the caller took to read its own scales (else it is formed here), and the
    anchors are taken from it and Yc in float64."""

    def __init__(self, split: Splitting, centred: np.ndarray, lam: np.ndarray, dtype=np.float64,
                 DY: np.ndarray | None = None):
        self.split = split
        self.F = centred.astype(dtype, order="C")
        DY = split.D @ centred if DY is None else DY
        self.Z = DY.astype(dtype, copy=False)
        self.U = np.zeros_like(self.Z)
        self.rho = max(float(np.mean(centred.shape[0] * lam)), 1e-6)
        self.solve = split.operators(dtype)[2](self.rho)
        # absolute anchors keep the stopping test meaningful for fully fused
        # solutions, where z = 0 and a purely relative test can never fire;
        # the data never change, so neither do they
        self.pri_anchor = _anchor(DY)
        self.dual_anchor = _anchor(centred)

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


def _anchor(X: np.ndarray) -> np.ndarray:
    """Each column's 2-norm, floored at 1e-12: a stopping-test anchor."""
    return np.maximum(np.sqrt(_colsumsq(X)), 1e-12)


def _shrink(V: np.ndarray, k: np.ndarray, U_out: np.ndarray) -> None:
    """Split V into its part clipped to [-k, k], written to U_out, and the
    rest, its soft threshold at k, written over V: three passes.  k is a
    per-column bound, so V and U_out are (rows, len(k))."""
    np.maximum(V, -k, out=U_out)
    np.minimum(U_out, k, out=U_out)
    V -= U_out


def _admm_batch(state: _AdmmState, Y: np.ndarray, lam: np.ndarray, opts):
    """Batched splitting solver, from the warm-start state its caller built.

    Y is (n, B), the centred columns the state holds, in the dtype of its
    F, Z and U, and lam (B,), with B the state's columns; the iteration runs
    in that dtype, on the Splitting's operators of it (Splitting.operators)
    and the state's solve.  Minimizes (1/2)||f - Y||_2^2 + n*lam*||z||_1
    subject to Df = z (the original objective scaled by n/2), with D that of
    the state's Splitting.
    The stopping test runs at iteration 1 and every CHECK_EVERY-th iteration
    after it; each column leaves the batch at the first of these where it
    meets the test at opts.tol, and the loop ends when no column is live or
    at opts.max_iter (opts is a SolverOptions, of which only these two are
    read).  Returns the iterates F (n, B), the state, the iteration count and a
    per-column converged mask (column j met the test).  F is the state's F:
    each column's iterate at the iteration it left the batch (or the last
    one).  The state, updated in place, also holds those iterations' Z and U,
    the batch's one penalty rho and its solve.  Every column of the state is
    live at entry, so until one leaves the iteration writes over the
    state's own Z and U, with no copy; the f-update solve reuses its
    buffers while the live columns stay the same.
    """
    split, rho, solve = state.split, state.rho, state.solve
    dtype = state.F.dtype
    D, Dt, factory = split.operators(dtype)
    n, B = Y.shape
    thresh_scale = (n * lam).astype(dtype)  # soft threshold numerator in the scaled problem
    # the state's own Z and U, then, once a column leaves, arrays of the live
    # columns, whose Z and U go to the state as they leave
    Z, U = state.Z, state.U
    converged = np.zeros(B, dtype=bool)
    pri_anchor, dual_anchor = state.pri_anchor, state.dual_anchor
    # Zn and T are (m, live) buffers, and Zn holds the previous z once the
    # new one is in Z; work holds the f-update solve's buffers of this width
    live = np.arange(B)
    Zn, T, work = np.empty_like(Z), np.empty_like(Z), []
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
        F = solve(R, work)
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
            del Zn, T, DF, work   # freed before the live columns' buffers are allocated
            Zn, T, work = np.empty_like(Z), np.empty_like(Z), []
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
                if U is not state.U:
                    state.U /= step
                solve = factory(rho)
    if len(live) == B:   # max_iter reached before any column left
        state.F, state.Z, state.U = F, Z, U
    elif len(live):      # max_iter reached with columns still live
        state.F[:, live], state.Z[:, live], state.U[:, live] = F, Z, U

    state.rho, state.solve = rho, solve
    return state.F, state, it, converged


def _scaled_dual(U: np.ndarray, rho: float, n: int, lam: np.ndarray) -> np.ndarray:
    """rho U / (n lam) clipped to [-1, 1], in place in U: the multiplier v
    of (Y - f)/n = lam D'v that the scaled dual U of the splitting stands for
    (_shrink keeps rho U in [-n lam, n lam] up to rounding)."""
    U *= rho / (n * lam)
    return np.clip(U, -1.0, 1.0, out=U)

