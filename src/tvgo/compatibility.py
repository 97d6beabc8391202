"""Compatibility constants kappa(S, W): closed-form bounds for paths and
cycles, and the exact value on any graph.

kappa(S, W) enters the fast-rate error bounds through sqrt(r_S)/kappa, the
supremum of ||D_S f||_1 - ||W D_{-S} f||_1 over ||f||_n = 1.  The closed
forms below bound that ratio from above; kappa_numeric computes it.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import ActiveSet, edge_endpoints


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


MAX_S = 16   # the largest |S| whose 2^(|S|-1) sign patterns kappa_numeric enumerates


def _min_sq(A: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """min over |u| <= w of ||b - A u||_2^2 by bounded-variable least squares;
    RuntimeError unless the duality gap w'|g| - u'g, g = A'(b - Au), closes
    (BVLS stops early when a step barely changes the cost)."""
    from scipy.optimize import lsq_linear   # about 14 MB of RSS, so only when needed

    u = lsq_linear(A, b, bounds=(-w, w), method="bvls", tol=1e-15).x if len(w) else w
    r = b - A @ u
    g = A.T @ r
    if w @ np.abs(g) - u @ g > 1e-10 * (b @ b):
        raise RuntimeError("bounded least squares stopped short of its minimum")
    return float(r @ r)


def kappa_numeric(D: sp.spmatrix, active: ActiveSet,
                  weights: np.ndarray | None = None) -> float:
    """Exact kappa(S, W) for weights in [0, 1] (length m, identity if None;
    the entries on S are ignored).

    For signs s on S, the supremum over f with sign(D_S f) = s is
    sqrt(n) min over |u| <= w of ||D_S's - D_{-S}'u||_2, and the maximum
    over s is sqrt(r_S)/kappa.  The minimum splits over the components of
    G - S, each part depending only on the signs of the S edges the
    component touches: one BVLS per component and local sign pattern with
    its first sign +1.  ValueError when |S| > MAX_S or kappa is infinite.
    """
    if not active.S:
        raise ValueError("denominator never positive: S is empty")
    if active.s > MAX_S:
        raise ValueError(f"|S| = {active.s} is above {MAX_S}: too many sign patterns")
    w = np.ones(active.m) if weights is None else np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or np.any(w > 1 + 1e-12):
        raise ValueError("weights must lie in [0, 1]")
    D = sp.csr_matrix(D)
    S_idx = np.asarray(active.S) - 1
    edge_comp = active.comp_label[edge_endpoints(D)[:, 0]]
    free = np.isin(np.arange(active.m), S_idx, invert=True) & (w > 1e-12)   # w = 0: u = 0
    # every sign pattern of S with s_1 = +1, one row each
    bits = (np.arange(2 ** (active.s - 1))[:, None] >> np.arange(active.s - 1)) & 1
    patterns = np.hstack([np.ones((len(bits), 1), dtype=np.int64), 1 - 2 * bits])
    total = np.zeros(len(patterns))
    for c, verts in enumerate(active.component_vertices()):
        Dc = D[:, verts]      # D' restricted to the component is Dc's transpose
        B = Dc[S_idx].T.toarray()
        touch = np.flatnonzero(np.abs(B).sum(axis=0))
        if touch.size:
            rows = np.flatnonzero(free & (edge_comp == c))
            A, k = Dc[rows].T.toarray(), len(touch)
            parts = np.array([_min_sq(A, B[:, touch] @ p, w[rows])
                              for p in patterns[:2 ** (k - 1), :k]])
            # each pattern's local signs, flipped to a first sign of +1, index parts
            flip = patterns[:, touch] * patterns[:, touch[:1]] < 0
            total += parts[flip[:, 1:] @ (1 << np.arange(k - 1))]
    best = math.sqrt(active.n * total.max())
    if best <= 1e-9 * math.sqrt(active.n * active.s):
        raise ValueError("denominator never positive: kappa is infinite")
    return math.sqrt(active.r_S) / best
