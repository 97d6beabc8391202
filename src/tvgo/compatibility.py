"""Closed-form bounds on the weighted weak compatibility constant for paths
and cycles, plus an independent multi-start numeric estimate for small
instances.

The compatibility constant kappa(S, W) enters the fast-rate error bounds via
sqrt(r_S)/kappa; the closed forms below bound that ratio from above.  The
numeric search maximizes the homogeneous ratio

    (||D_S f||_1 - ||W_{-S} D_{-S} f||_1)_+   over   ||f||_n = 1,

whose supremum equals sqrt(r_S)/kappa, so the returned kappa estimate is an
upper estimate (the search only ever under-finds the supremum).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import ActiveSet


@dataclass(frozen=True)
class KappaBounds:
    """Compatibility bound bundle for one (S, weights) instance.

    K applies to path graphs, K_prime to cycles; exactly one is set.  The
    weighted bound adds the weight-increment contribution to the identity
    bound.  increment_bound_* carry the (5/gamma^2)(r_S/n)log(n/r_S) check on
    the weight increments when all component sizes are >= 4.
    """

    family: str
    K: float | None
    K_prime: float | None
    sqrt_rs_over_kappa_identity: float
    weight_increment_sq: float
    sqrt_rs_over_kappa_weighted: float
    increment_bound_rhs: float | None = None
    increment_bound_ok: bool | None = None
    numeric_kappa_estimate: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class HypothesisError(ValueError):
    """A size hypothesis of a compatibility bound is violated."""


def _weight_increments_path(weights: np.ndarray, n: int) -> float:
    # path weights live on edges 1..n-1; the last slot is fixed to 1 by convention
    w = np.concatenate([np.asarray(weights, dtype=np.float64), [1.0]])
    if len(w) != n:
        raise ValueError(f"expected {n - 1} path weights, got {len(weights)}")
    return float(np.sum(np.diff(w) ** 2))


def _weight_increments_cycle(weights: np.ndarray, n: int) -> float:
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != n:
        raise ValueError(f"expected {n} cycle weights, got {len(w)}")
    return float(np.sum((np.roll(w, -1) - w) ** 2))


def _bounds(family: str, active: ActiveSet, K: float, incr_sq: float,
            gamma: float | None) -> KappaBounds:
    """The identity bound sqrt(nK), the weighted bound that adds the weight
    increments' sqrt(n incr_sq), and the weight-increment bound
    (5/gamma^2)(r_S/n)log(n/r_S), which needs all n_i >= 4."""
    identity = math.sqrt(active.n * K)
    rhs = ok = None
    if gamma is not None and active.n_min >= 4 and active.r_S < active.n:
        rhs = (5.0 / gamma ** 2) * (active.r_S / active.n) * math.log(active.n / active.r_S)
        ok = bool(incr_sq <= rhs)
    return KappaBounds(family=family, K=K if family == "path" else None,
                       K_prime=K if family == "cycle" else None,
                       sqrt_rs_over_kappa_identity=identity,
                       weight_increment_sq=incr_sq,
                       sqrt_rs_over_kappa_weighted=identity + math.sqrt(active.n * incr_sq),
                       increment_bound_rhs=rhs, increment_bound_ok=ok)


def kappa_bound_path(active: ActiveSet, weights: np.ndarray | None = None,
                     gamma: float | None = None) -> KappaBounds:
    """Path-graph compatibility bounds.

    Requires end components of size >= 2 and interior components of size >= 4.
    With identity weights the weighted bound reduces to sqrt(nK).
    """
    sizes = active.comp_sizes
    r = active.r_S
    if sizes[0] < 2:
        raise HypothesisError(f"first component has {sizes[0]} < 2 vertices")
    if sizes[-1] < 2:
        raise HypothesisError(f"last component has {sizes[-1]} < 2 vertices")
    for i in range(1, r - 1):
        if sizes[i] < 4:
            raise HypothesisError(f"interior component {i + 1} has {sizes[i]} < 4 vertices")
    K = 1.0 / sizes[0]
    for i in range(1, r - 1):
        K += 1.0 / (sizes[i] // 2) + 1.0 / ((sizes[i] + 1) // 2)
    if r > 1:
        K += 1.0 / sizes[-1]
    incr_sq = 0.0 if weights is None else _weight_increments_path(weights, active.n)
    return _bounds("path", active, K, incr_sq, gamma)


def kappa_bound_cycle(active: ActiveSet, weights: np.ndarray | None = None,
                      gamma: float | None = None) -> KappaBounds:
    """Cycle-graph compatibility bounds; needs S nonempty and all n_i >= 4."""
    if not active.S:
        raise HypothesisError("cycle bound needs a nonempty active set")
    if active.n_min < 4:
        raise HypothesisError(f"a component has {active.n_min} < 4 vertices")
    K_prime = sum(1.0 / (ni // 2) + 1.0 / ((ni + 1) // 2) for ni in active.comp_sizes)
    incr_sq = 0.0 if weights is None else _weight_increments_cycle(weights, active.n)
    return _bounds("cycle", active, K_prime, incr_sq, gamma)


# the graph families with closed-form bounds, and each family's bound
CLOSED_FORMS = {"path": kappa_bound_path, "cycle": kappa_bound_cycle}


def kappa_bound(family: str, active: ActiveSet, weights: np.ndarray | None = None,
                gamma: float | None = None) -> KappaBounds:
    """The closed-form bounds of the graph family: HypothesisError for a
    family that has none."""
    bound = CLOSED_FORMS.get(family)
    if bound is None:
        raise HypothesisError(f"no closed-form compatibility bound for family {family!r}: "
                              "paths and cycles only")
    return bound(active, weights, gamma)


def _deterministic_starts(active: ActiveSet) -> np.ndarray:
    """Structured candidate maximizers: alternating component constants and
    componentwise half-splits (the shapes behind the tight path bound)."""
    n, r = active.n, active.r_S
    lab = active.comp_label
    starts = []
    signs = np.where(np.arange(r) % 2 == 0, 1.0, -1.0)
    starts.append(signs[lab])
    half = np.zeros(n)
    for c, verts in enumerate(active.component_vertices()):
        v = np.sort(verts)
        cut = len(v) // 2
        half[v[:cut]] = -signs[c]
        half[v[cut:]] = signs[c]
    starts.append(half)
    return np.array(starts)


def kappa_numeric(D: sp.spmatrix, active: ActiveSet,
                  weights: np.ndarray | None = None,
                  search_budget: int = 10_000, steps: int = 200,
                  seed: int = 0) -> float:
    """Numeric upper estimate of kappa(S, W) by multi-start subgradient ascent.

    Parameters
    ----------
    D : sparse incidence matrix (m, n).
    active : ActiveSet for S.
    weights : length-m weight vector (identity if None); entries on S are
        ignored (treated as the required identity block).
    search_budget : number of random restarts; for a fixed seed the result is
        non-decreasing in the budget.
    steps : subgradient steps per restart batch.
    seed : RNG seed; restarts are counter-seeded so runs are reproducible.

    Returns
    -------
    float
        sqrt(r_S) / sup_found; an upper estimate of kappa since the search
        can only under-estimate the supremum.
    """
    if not active.S:
        raise ValueError("denominator never positive: S is empty")
    n, m = active.n, active.m
    D = sp.csr_matrix(D)
    S_idx = np.asarray(active.S, dtype=np.int64) - 1
    mS_idx = np.asarray(active.inactive, dtype=np.int64) - 1
    DS = D[S_idx]
    DmS = D[mS_idx]
    if weights is None:
        w = np.ones(len(mS_idx))
    else:
        w = np.asarray(weights, dtype=np.float64)[mS_idx]
    if np.any(w < 0) or np.any(w > 1 + 1e-12):
        raise ValueError("weights must lie in [0, 1]")

    DS_T = DS.T.tocsr()
    DmS_T = DmS.T.tocsr()
    sqrt_n = math.sqrt(n)

    def normalize(F: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(F, axis=1, keepdims=True) / sqrt_n
        norms[norms == 0] = 1.0
        return F / norms

    def value(F: np.ndarray) -> np.ndarray:
        A = (DS @ F.T).T
        B = (DmS @ F.T).T
        return np.abs(A).sum(axis=1) - (np.abs(B) * w).sum(axis=1)

    best = -np.inf
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    det = normalize(_deterministic_starts(active))
    block = 2048
    done = 0
    first = True
    while done < search_budget or first:
        take = min(block, max(search_budget - done, 0))
        F = rng.standard_normal((take, n)) if take else np.empty((0, n))
        if first:
            F = np.vstack([det, F])
            first = False
        done += take
        if F.shape[0] == 0:
            break
        F = normalize(F)
        best = max(best, float(value(F).max()))
        for k in range(1, steps + 1):
            A = (DS @ F.T).T
            B = (DmS @ F.T).T
            G = (DS_T @ np.sign(A).T).T - (DmS_T @ (np.sign(B) * w).T).T
            gn = np.linalg.norm(G, axis=1, keepdims=True)
            gn[gn == 0] = 1.0
            F = normalize(F + (1.0 / math.sqrt(k)) * G / gn)
            best = max(best, float(value(F).max()))
    if best <= 0:
        raise ValueError("denominator never positive: no f with "
                         "||D_S f||_1 > ||W D_{-S} f||_1 found")
    return math.sqrt(active.r_S) / best
