"""How a plain column's exact solution is found and certified.

A plain solution is fixed by its fused groups, the components of the edges
with Df = 0, and by the signs s of Df on the other, boundary, edges: it is
constant on each group g, at c_g = mean_g(Y - n lam D_b's) (D_b keeps D's
boundary rows), and it is optimal exactly when sign(Dc) = s on the
boundary and some group dual w on the fused edges F has
D_F'w = Y - c - n lam D_b's and |w| <= n lam (Tibshirani & Taylor, "The
solution path of the generalized lasso", Ann. Statist. 2011).  Full fusion
is the one-group-per-component case, c = Ybar, whose least bound is the
generalized lasso's lambda_max: _fused_screen tests it before any ADMM
iteration, and on a graph with a cycle settles the columns its projections
leave undecided with one integer maximum flow each (_flow_duals), so a
column fully fused at its level is certified unless its lambda_max lies
within the flow's rounding margin of the bound.  Every other column, plain
or an outer step of the square-root fixed point, runs ADMM down
POLISH_LADDER (_plain_batch) and is polished after each rung, as OSQP
polishes its iterates (Stellato et al., Math. Prog. Comp. 2020): the
rung's iterate only reveals the groups, signs and dual guess, and the certificate is built
from the data in float64, so a certified column is the exact solution
whatever rung, and whatever precision, its groups were read at.  That is
why the loose rungs may run in float32 on the DCT grids, where every kernel
costs about half its float64 one.  Other graphs stay float64: a float32
SuperLU factor goes singular at large rho, and on paths and trees float32
rungs saved only 1-3% of a solve.

The ladder, like the rest of the solver core, takes the centred columns,
Y minus its componentwise mean, and returns their fits; the caller adds
the mean back.  So float32 does not lose Y to a large shift (at Y + 1e6
its spacing is 0.0625), and POLISH_KKT is relative to the centred scale.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from . import admm, graphs, projections
from .splitting import Splitting

# alternating projections of the full-fusion screen (_fused_screen), on graphs with a cycle:
SCREEN_STEPS = 40       # mc_grid square-root columns certified: 974 of 1024 at 10 steps, 1015 at 40
SCREEN_BOX = 0.95       # clip to 5% inside the bound, so a projected v can land within it
SCREEN_GIVE_UP = 1.25   # leave past 1.25 n lam: certified columns start at 0.90-1.06, plain 1.9+
# plain ADMM tolerances the polish (_polish) runs at, from the loosest, then opts.tol
POLISH_LADDER = (3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4) + tuple(10.0 ** -k for k in range(5, 13))
GAP_CAP = 1e-2          # polish: fused edges are cut at a gap of |Df| below this fraction of the scale
# float32 rungs of the plain ladder, on the DCT grids (_plain_batch):
SINGLE_HEADROOM = 300   # while the live float32 residual floor lies this far below the rung's tol
SINGLE_MAX_ITER = 500   # a float32 rung that takes this many iterations hands over to float64
POLISH_STEPS = 4        # polish: alternating projections (rescues past 4 steps were ~1 in 20)
POLISH_BOX = 0.99       # polish: the ADMM dual starts near the bound, so clip closer to it
POLISH_KKT = 1e-12      # polish: largest KKT residual accepted, relative to the data's sup norm
POLISH_SLAB = 2 ** 14   # plain ladder: most edge entries, m x columns, read or polished at once


def _fused_screen(split: Splitting, centred: np.ndarray, bound: np.ndarray,
                  guess: np.ndarray | None, steps: int, box: float, flow: bool = False):
    """Columns of centred, shape (n, B), that some group dual v fits: v on
    split's edges with D'v = centred and |v| <= bound, the per-column
    penalty n lam > 0; and those duals.

    Each column of centred sums to zero over each component of split's
    graph, whose components are the groups: the whole graph's for full
    fusion (centred is then Y minus its componentwise mean), the fused-edge
    pattern's for the polish.  v starts as the point of {D'v = centred}
    nearest the guess (m, B), or the minimum-norm one, D (D'D)^+ centred,
    when the guess is None; on a forest it is the only one.  On a graph
    with a cycle a column that misses the bound, but by at most
    SCREEN_GIVE_UP times, takes up to steps alternating projections: v is
    clipped to box times the bound and projected back with the same
    (D'D)^+.  The full-fusion screen passes SCREEN_STEPS and SCREEN_BOX,
    the polish POLISH_STEPS and POLISH_BOX.  A column leaves at the first v
    within the bound (certified) or past the give-up ratio.  With flow (the
    full-fusion screen), on a graph with a cycle, each column still live
    after the steps takes _flow_duals' v, and is certified when that is
    within the bound.  Returns the certified mask (B,) and their scaled
    duals v / bound, in [-1, 1], shape (m, certified).
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
    if flow and split.cyclic and len(live):
        W = _flow_duals(split, centred[:, live], bound[live])
        ok = np.max(np.abs(W), axis=0, initial=0.0) <= bound[live]
        V[:, live[ok]] = W[:, ok]
        fused[live[ok]] = True
    return fused, V[:, fused] / bound[fused]


def _flow_duals(split: Splitting, centred: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """A v on split's edges with D'v = centred for each column c of
    centred, shape (n, k), whose entries fit within its bound (k,) whenever
    some such v does with a margin of about (1.5 n + 1) / K: one integer
    maximum flow (scipy's Dinic) per column, then one Laplacian correction
    of all k.  Returns v, shape (m, k).

    A v with D'v = c and |v| <= bound is a flow on the graph, both ways
    along each edge, out of the vertices where c > 0 and into those where
    c < 0: D'v at a vertex is what v carries in less what it carries out,
    so v is minus the net flow from each edge's tail to its head.  The flow
    is scaled by K = 2^30 / max(sum c+, d bound), with d the largest vertex
    degree, so that the supplies round(c K), each pair of endpoints'
    capacity and the flow's value, which scipy keeps in int32, stay below
    2^31.  Each edge's capacity is floor(bound K) - n: the supplies round
    by at most 1/2 each, so a flow that routes the smaller of the rounded
    supply and demand leaves a residual c - D'v of at most n / K in l1, and
    the electrical flow D L^+ (c - D'v) that the correction adds, a
    potential flow and so acyclic, carries at most half of that on any
    edge.  A flow between parallel edges is shared equally among them.  The
    caller checks |v| <= bound in float64.
    """
    n, k = centred.shape
    tail, head = split.ends[:, 0], split.ends[:, 1]
    m = len(tail)
    degree = np.bincount(split.ends.ravel(), minlength=n).max()
    # how many edges join each edge's two endpoints
    pair = np.unique(np.minimum(tail, head) * n + np.maximum(tail, head), return_inverse=True,
                     return_counts=True)
    parallel = pair[2][pair[1]]
    V = np.zeros((m, k))
    for j in range(k):
        c = centred[:, j]
        K = 2.0 ** 30 / max(np.sum(c[c > 0]), degree * bound[j])
        cap = int(bound[j] * K) - n
        if cap <= 0:
            continue
        supply = np.rint(c * K).astype(np.int32)
        up, down = np.flatnonzero(supply > 0), np.flatnonzero(supply < 0)
        # the edges both ways, the source n to each supply, each demand to the sink n + 1
        net = csgraph.maximum_flow(sp.csr_matrix(
            (np.concatenate([np.full(2 * m, cap, dtype=np.int32), supply[up], -supply[down]]),
             (np.concatenate([tail, head, np.full(len(up), n), down]),
              np.concatenate([head, tail, up, np.full(len(down), n + 1)]))),
            shape=(n + 2, n + 2)), n, n + 1, method="dinic").flow
        V[:, j] = np.asarray(net[tail, head]).ravel() / (-K * parallel)
    R = split.Dt @ V
    np.subtract(centred, R, out=R)
    V += split.D @ split.lap_solve(R)
    return V


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
    divide by a floored at the iterate's own half ulp, half an ulp of F_j's
    largest entry relative to the scale, u max|F_j| / scale with u the unit
    roundoff of F's precision, so exact zeros keep them finite: rounding
    leaves exact zeros among the noise of a float32 iterate's fused edges,
    noise of at most an ulp of F's entries, 2u max|F_j|, and a lower floor
    would read the step from the zeros to the noise as the largest gap.
    The floor is at least the smallest normal number of F's precision, so
    an all-zero iterate still divides by a positive number.  DF is formed
    with the float64 D.
    """
    DF = D @ F
    S = np.sign(DF)
    A = np.abs(DF, out=DF)
    scale = np.maximum(np.max(A, axis=0, initial=0.0), dy)
    scale = np.where(scale > 0.0, scale, 1.0)
    A /= scale
    peak = np.maximum(np.max(F, axis=0), -np.min(F, axis=0))
    floor = np.maximum(np.finfo(F.dtype).eps / 2 * peak / scale, np.finfo(F.dtype).tiny)
    low = np.sort(A.T, axis=1)                         # (B, m), each row ascending
    # each neighbour's ratio over the floored lower end, the scale's over the
    # largest, filled into the floored ends
    ratio = np.maximum(low, floor[:, None])
    np.divide(low[:, 1:], ratio[:, :-1], out=ratio[:, :-1])
    np.divide(1.0, ratio[:, -1], out=ratio[:, -1])
    ratio[low >= GAP_CAP] = 0.0
    cut = np.take_along_axis(low, np.argmax(ratio, axis=1)[:, None], axis=1)[:, 0]
    fused = A <= np.where(low[:, 0] < GAP_CAP, cut, -1.0)
    S[fused] = 0.0
    return fused, S


def _group_means(split: Splitting, fused: np.ndarray, T: np.ndarray):
    """The mean of each column of T (n, B) over each of its groups, the
    components of the column's fused edges (fused, (m, B), of split's
    graph), replicated on the group's vertices.

    Columns with one fused-edge mask share their groups, so each distinct
    mask is labelled once: one component labelling of the union of the
    distinct masks' subgraphs, mask k's vertices offset by k n, gives every
    column's groups; its adjacency tiles the CSR pattern of split's edges,
    ordered by their first endpoint, and keeps the fused entries.  One
    bincount over every column's groups takes the sums, each in vertex
    order, so each column's means are projections.componentwise_mean's of
    that column alone, bit for bit.  Returns the means (n, B) and the
    labels (B, n): row j holds column j's group labels as
    graphs.component_labels numbers them, from 0 in the order of each
    group's smallest vertex."""
    n, B = T.shape
    m = len(split.ends)
    # each column's mask, numbered in the order of first reading, and the
    # first column to read each
    ids = {}
    mask = np.array([ids.setdefault(key.tobytes(), len(ids))
                     for key in np.packbits(fused, axis=0).T])
    first = np.unique(mask, return_index=True)[1]
    k = len(first)
    # the edges in the order of their first endpoint, and where each
    # vertex's run of them ends
    by_tail = np.argsort(split.ends[:, 0], kind="stable")
    tail_end = np.cumsum(np.bincount(split.ends[:, 0], minlength=n))
    keep = fused[np.ix_(by_tail, first)].T.ravel()
    heads = (split.ends[by_tail, 1] + (np.arange(k) * n)[:, None]).ravel()[keep]
    kept = np.concatenate([[0], np.cumsum(keep)])   # entries kept before each slot
    indptr = np.concatenate([[0], kept[(np.arange(k)[:, None] * m + tail_end).ravel()]])
    labels = graphs.adjacency_labels(sp.csr_matrix((np.ones(len(heads)), heads, indptr),
                                                   shape=(n * k, n * k))).reshape(k, n)
    # ids follow the smallest vertex, so mask i's start at that of vertex i n
    labels = (labels - labels[:, :1])[mask]
    # column j's groups take the ids after those of the columns before it
    groups = labels.max(axis=1) + 1
    keys = labels + (np.cumsum(groups) - groups)[:, None]
    means = np.bincount(keys.ravel(), weights=T.T.ravel()) / np.bincount(keys.ravel())
    return means[keys].T, labels


def _polish(split: Splitting, Y: np.ndarray, F: np.ndarray, V: np.ndarray,
            lam: np.ndarray, fused: np.ndarray, S: np.ndarray,
            subgraphs: dict[bytes, Splitting] | None = None,
            held: dict[bytes, Splitting] | None = None) -> np.ndarray:
    """Polish the plain iterates F of Y's columns, both (n, B), at per-column
    penalties lam onto exact solutions, with the scaled duals V (m, B) as
    the guess; returns the mask (B,) of certified columns, whose F and V it
    overwrites with the exact solution and dual.  _plain_batch passes the
    centred columns as Y, as does the square-root fixed point, which
    polishes a certified step's groups and signs at its jump's penalty.

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
    The fused-edge pattern's Splitting, built from split's rows of the
    fused edges, their endpoints and a copy of the groups' labels, with its
    Laplacian factor, is taken from subgraphs, a dict keyed by the packed
    fused-edge mask, or else moved there from held, a dict of the same
    keys, or else built and added there: the mask alone fixes the pattern's
    rows, its groups' labels and the factor, so a Splitting held from an
    earlier call is the one this call would build.  Without subgraphs, each
    pattern's Splitting serves this call alone.
    """
    D, Dt = split.D, split.Dt
    n, B = Y.shape
    bound = n * lam
    T = Dt @ S
    T *= -bound
    T += Y                                  # Y - n lam D'S
    C, labels = _group_means(split, fused, T)
    ok = np.zeros(B, dtype=bool)
    signs = np.flatnonzero(np.all(np.sign(D @ C) == S, axis=0))
    subgraphs = {} if subgraphs is None else subgraphs
    held = {} if held is None else held
    patterns = {}
    for j, key in zip(signs, np.packbits(fused[:, signs], axis=0).T):
        patterns.setdefault(key.tobytes(), []).append(j)
    for key, cols in patterns.items():
        cols = np.asarray(cols)
        rows = np.flatnonzero(fused[:, cols[0]])
        if key not in subgraphs:
            # a copy: a row of labels would hold the whole (B, n) array
            subgraphs[key] = held.pop(key) if key in held else Splitting(
                split.D[rows], split.ends[rows], labels[cols[0]].copy())
        good, W = _fused_screen(subgraphs[key], T[:, cols] - C[:, cols],
                                bound[cols], V[np.ix_(rows, cols)] * bound[cols],
                                POLISH_STEPS, POLISH_BOX)
        ok[cols[good]] = True
        S[np.ix_(rows, cols[good])] = W
    del T, labels   # the check below reads C and S alone
    cols = np.flatnonzero(ok)
    Y_c = _columns(Y, cols)
    R = Y_c - _columns(C, cols)
    R /= n
    P = Dt @ _columns(S, cols)
    P *= lam[cols]
    R -= P
    ok[cols] = (np.max(np.abs(R), axis=0, initial=0.0)
                <= POLISH_KKT * np.max(np.abs(Y_c), axis=0, initial=0.0))
    np.copyto(F, C, where=ok)
    np.copyto(V, S, where=ok)
    return ok


def _columns(X: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The columns cols of X, distinct and ascending: X itself, with no
    copy, when they are all of its columns."""
    return X if len(cols) == X.shape[1] else X[:, cols]


def _plain_batch(split: Splitting, centred: np.ndarray, lam: np.ndarray, opts,
                 F: np.ndarray, V: np.ndarray):
    """The plain estimator on the centred columns (each Y minus its
    componentwise mean), shape (n, B), none of them fully fused: ADMM runs
    on one warm state of them down the tolerances of POLISH_LADDER looser
    than opts.tol, then opts.tol.  After each rung the live columns'
    iterates are polished, and the certified ones leave the state; the last
    rung's uncertified columns keep their ADMM iterate and dual.  max_iter
    bounds the iterations of the whole ladder; a column is converged when it
    met the test at opts.tol or was certified.  A rung first reads every
    live column's fused edges and signs, POLISH_SLAB // m columns (at least
    one) at a time, and keeps the signs as int8, zero exactly on the fused
    edges, so the patterns the rung before read that no column's fused edges
    match go before any is built.  It then polishes its live columns in
    slabs of that width, taken in the order of their masks' first reading,
    so that the columns of one mask sit together and mostly share a slab,
    each slab on float64 copies of its columns of the state's F and U: it
    holds their labels and candidates a slab at a time.  Every step of the
    polish is per column, so the slabs give the bits of one pass.  The slabs
    share one dict of the fused-edge patterns' Splittings, taking a pattern
    the rung before read from that rung's dict, and after the rung the dict
    holds the patterns its slabs read: a pattern read at consecutive rungs
    is factored once.  The groups are read against ||D centred||_inf, taken
    once with the state's z.  The centred fits go to F (n, B) and the scaled
    duals to V (m, B), the caller's arrays.  Returns (converged, certified,
    iterations).

    The state is float32 from the first rung while the Splitting has
    float32 operators (the DCT grids) and SINGLE_HEADROOM times the live
    columns' float32 residual floor is at most the rung's tol; it is
    float64 from the first rung where that fails, after a float32 rung
    that took SINGLE_MAX_ITER iterations, and always at opts.tol.  So the
    floor alone, a measure of the data, sets how far down the ladder
    float32 runs.  The floor: float32 rounds each entry of F by about
    eps max|F_j|, with max|F_j| about max|centred_j|, so over the m edges
    it leaves about eps max|centred_j| sqrt(m) in ||DF_j - z_j||, which the
    primal test holds to tol ||D centred_j||_2 or more.  The state is built
    in its first rung's dtype, from D centred in float64.
    """
    n, B = centred.shape
    m = split.D.shape[0]
    conv, cert = np.zeros(B, dtype=bool), np.zeros(B, dtype=bool)
    DY = split.D @ centred
    dy = np.max(np.abs(DY), axis=0, initial=0.0)
    floor = np.finfo(np.float32).eps * np.sqrt(m) * np.max(np.abs(centred), axis=0) \
        / admm._anchor(DY)
    live, it, subgraphs, state = np.arange(B), 0, {}, None
    width = max(1, POLISH_SLAB // m)
    single = split.single is not None
    for tol in [t for t in POLISH_LADDER if t > opts.tol] + [opts.tol]:
        # once float64, float64 to the end
        single = single and tol != opts.tol and SINGLE_HEADROOM * np.max(floor[live]) <= tol
        dtype = np.float32 if single else np.float64
        if state is None:
            state = admm._AdmmState(split, centred, lam, dtype, DY)
            del DY   # a float32 state holds its own copy
        else:
            state.astype(dtype)
        budget = opts.max_iter - it
        Y_l, lam_l = _columns(centred, live), lam[live]
        state, k, conv_l = admm._admm_batch(   # the state holds its iterates
            state, Y_l.astype(dtype, copy=False), lam_l,
            replace(opts, tol=tol, max_iter=min(budget, SINGLE_MAX_ITER) if single else budget))[1:]
        it += k
        single = single and k < SINGLE_MAX_ITER
        # the signs, zero exactly on the fused edges, kept as int8
        signs = np.hstack([_groups_and_signs(split.D, dy[live[lo:lo + width]],
                                             state.F[:, lo:lo + width])[1].astype(np.int8)
                           for lo in range(0, len(live), width)])
        # the columns of one mask side by side, so they mostly share a slab
        ids = {}
        order = np.argsort([ids.setdefault(key.tobytes(), len(ids))
                            for key in np.packbits(signs == 0, axis=0).T], kind="stable")
        held = {key: sub for key, sub in subgraphs.items() if key in ids}
        subgraphs, ok = {}, np.empty(len(live), dtype=bool)
        for lo in range(0, len(live), width):
            j = order[lo:lo + width]
            F_s, V_s = (X[:, j].astype(np.float64, copy=False) for X in (state.F, state.U))
            admm._scaled_dual(V_s, state.rho, n, lam_l[j])
            S = signs[:, j].astype(np.float64)
            ok[j] = _polish(split, Y_l[:, j], F_s, V_s, lam_l[j], S == 0, S, subgraphs, held)
            F[:, live[j]], V[:, live[j]] = F_s, V_s
        del held   # the patterns some mask matched but no slab of this rung read
        cert[live] = ok
        if tol == opts.tol:
            conv[live] = conv_l
        if ok.all() or tol == opts.tol or it >= opts.max_iter:
            break
        live = live[~ok]
        state.keep(~ok)
        del Y_l   # the next rung's columns are fewer
    return conv | cert, cert, it
