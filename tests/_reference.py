"""Independent reference solvers and oracles used only by the tests.

These deliberately avoid the production code path: the reference minimizer
is exhaustive coordinate descent with contiguous block (fusion) moves on
path graphs, run until the objective change per full sweep drops below a
hard threshold.  Plain coordinate descent can stall when neighboring values
fuse; moving every contiguous block as one variable resolves those ties.
"""
from __future__ import annotations

import numpy as np


def objective(Y: np.ndarray, f: np.ndarray, lam: float) -> float:
    n = len(Y)
    return float(np.sum((Y - f) ** 2) / n + 2.0 * lam * np.sum(np.abs(np.diff(f))))


def _segment_min(ybar: float, count: int, n: int, lam: float,
                 anchors: list[float]) -> float:
    """Exact minimizer of count*(u - ybar)^2/n + 2*lam*sum_k |u - a_k|."""
    if not anchors:
        return ybar
    pts = sorted(anchors)
    k = len(pts)
    candidates = list(pts)
    edges = [-np.inf] + pts + [np.inf]
    for seg in range(k + 1):
        s = 2 * seg - k  # sign sum on this segment: #below - #above
        u = ybar - n * lam * s / count  # zero of 2c(u-ybar)/n + 2 lam s
        if edges[seg] < u < edges[seg + 1]:
            candidates.append(u)
    vals = [count * (u - ybar) ** 2 / n + 2 * lam * sum(abs(u - a) for a in pts)
            for u in candidates]
    return candidates[int(np.argmin(vals))]


def cd_reference_path(Y: np.ndarray, lam: float, tol: float = 1e-12,
                      max_sweeps: int = 100_000) -> np.ndarray:
    """Coordinate descent with block fusion moves for the path-graph problem."""
    Y = np.asarray(Y, dtype=np.float64)
    n = len(Y)
    f = Y.copy()
    prev = objective(Y, f, lam)
    for _ in range(max_sweeps):
        # single coordinate sweep
        for j in range(n):
            anchors = []
            if j > 0:
                anchors.append(f[j - 1])
            if j < n - 1:
                anchors.append(f[j + 1])
            f[j] = _segment_min(Y[j], 1, n, lam, anchors)
        # every contiguous block as one variable
        for i in range(n):
            for j in range(i, n):
                anchors = []
                if i > 0:
                    anchors.append(f[i - 1])
                if j < n - 1:
                    anchors.append(f[j + 1])
                u = _segment_min(float(np.mean(Y[i:j + 1])), j - i + 1, n, lam, anchors)
                trial = f.copy()
                trial[i:j + 1] = u
                if objective(Y, trial, lam) < objective(Y, f, lam):
                    f = trial
        cur = objective(Y, f, lam)
        if prev - cur <= tol:
            break
        prev = cur
    return f


def sqrt_objective(Y: np.ndarray, f: np.ndarray, lam0: float) -> float:
    """Square-root objective with the doubled-penalty convention."""
    n = len(Y)
    return float(np.sqrt(np.sum((Y - f) ** 2) / n)
                 + 2.0 * lam0 * np.sum(np.abs(np.diff(f))))


def brute_force_path2_sqrt(Y: np.ndarray, lam0: float, grid: int = 400_001):
    """Exact-enough 1-D scan for the two-point square-root problem.

    The optimal mean is the data mean, so only the half-difference is free.
    Returns (f, sigma_hat)."""
    c = float(np.mean(Y))
    half = (Y[1] - Y[0]) / 2.0
    ds = np.linspace(min(0.0, half), max(0.0, half), grid)
    f0 = c - ds
    f1 = c + ds
    vals = np.sqrt(((Y[0] - f0) ** 2 + (Y[1] - f1) ** 2) / 2.0) \
        + 2.0 * lam0 * np.abs(f1 - f0)
    k = int(np.argmin(vals))
    f = np.array([f0[k], f1[k]])
    return f, float(np.sqrt(np.sum((Y - f) ** 2) / 2.0))


def kappa_brute(D, active, weights=None) -> tuple[float, float]:
    """kappa(S, W) by enumeration of every sign pattern s of S on the whole
    graph: sqrt(r_S) / (sqrt(n) max_s min_{|u| <= w} ||D_S's - D_{-S}'u||_2),
    each minimum a trust-region least squares (inf when the maximum is 0).
    Also returns the primal objective ||D_S f||_1 - ||W D_{-S} f||_1 at the
    recovered maximiser f = sqrt(n) r / ||r||_2, r the residual of the best
    pattern, which equals sqrt(r_S)/kappa at the optimum."""
    from itertools import product

    from scipy.optimize import lsq_linear

    D = D.toarray()
    n = D.shape[1]
    S = np.asarray(active.S) - 1
    rest = np.asarray(active.inactive, dtype=np.int64) - 1
    w = np.ones(D.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    free = rest[w[rest] > 0]
    best, best_r = -1.0, None
    for tail in product((1.0, -1.0), repeat=len(S) - 1):
        c = D[S].T @ np.array((1.0, *tail))
        if free.size:
            fit = lsq_linear(D[free].T, c, bounds=(-w[free], w[free]), method="trf",
                             tol=1e-15, lsmr_tol=None, max_iter=10_000)
            r = c - D[free].T @ fit.x
        else:
            r = c
        if np.linalg.norm(r) > best:
            best, best_r = float(np.linalg.norm(r)), r
    sup = np.sqrt(n) * best
    f = np.sqrt(n) * best_r / best if best > 0 else best_r
    primal = np.abs(D[S] @ f).sum() - (w[rest] * np.abs(D[rest] @ f)).sum()
    return float(np.sqrt(active.r_S) / sup) if sup > 0 else np.inf, float(primal)
