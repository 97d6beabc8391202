import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import depth_first_order

from tvgo import graphs, projections
from tvgo.graphs import (DirectedGraph, active_set, cycle_graph, grid_graph, incidence,
                         path_graph, tree_graph)
from tvgo.projections import (_LaplacianBlock, _TreeBlock, antiproject_nullspace,
                              componentwise_mean, gamma_bound, project_nullspace,
                              pseudoinverse, theory_report)


def _random_tree(rng, n):
    return tree_graph([int(rng.integers(1, v)) for v in range(2, n + 1)])


def _mp_identities_err(Dm, P):
    return max(np.abs(Dm @ P @ Dm - Dm).max(), np.abs(P @ Dm @ P - P).max(),
               np.abs((Dm @ P).T - Dm @ P).max(), np.abs((P @ Dm).T - P @ Dm).max())


CASES = [
    (path_graph(2), []),
    (path_graph(6), [3]),
    (path_graph(9), [2, 5]),
    (cycle_graph(5), []),
    (cycle_graph(8), [1, 4]),
    (grid_graph(3, 3), []),
    (grid_graph(3, 4), [2, 7, 11]),
    (tree_graph([1, 1, 2, 2, 3, 3, 5]), [2, 6]),
    (DirectedGraph(3, ((1, 2), (1, 2), (2, 3))), []),   # parallel edges
]


@pytest.mark.parametrize("g,S", CASES)
def test_moore_penrose_identities(g, S):
    D = incidence(g)
    a = active_set(g, S)
    P = pseudoinverse(D, a).to_dense()
    Dm = D.toarray()[[i - 1 for i in a.inactive]]
    assert _mp_identities_err(Dm, P) < 1e-10


@pytest.mark.parametrize("g,S", CASES)
def test_pinv_matches_numpy(g, S):
    D = incidence(g)
    a = active_set(g, S)
    P = pseudoinverse(D, a).to_dense()
    Dm = D.toarray()[[i - 1 for i in a.inactive]]
    assert np.abs(P - np.linalg.pinv(Dm)).max() < 1e-10


def test_pinv_path2():
    D = incidence(path_graph(2))
    P = pseudoinverse(D, active_set(path_graph(2), [])).to_dense()
    assert np.allclose(P.ravel(), [-0.5, 0.5], atol=1e-12)


def test_pinv_block_structure():
    # deleting the middle edge of path(6) leaves two independent 3-vertex blocks
    g = path_graph(6)
    a = active_set(g, [3])
    P = pseudoinverse(incidence(g), a).to_dense()
    assert np.all(P[3:, :2] == 0)
    assert np.all(P[:3, 2:] == 0)
    g3 = path_graph(3)
    P3 = pseudoinverse(incidence(g3), active_set(g3, [])).to_dense()
    assert np.allclose(P[:3, :2], P3, atol=1e-12)
    assert np.allclose(P[3:, 2:], P3, atol=1e-12)


def test_pinv_apply_transpose_consistent():
    rng = np.random.default_rng(0)
    for g, S in CASES:
        a = active_set(g, S)
        pinv = pseudoinverse(incidence(g), a)
        V = rng.standard_normal((g.n, 3))
        assert np.allclose(pinv.apply_transpose(V), pinv.to_dense().T @ V, atol=1e-10)
        v = rng.standard_normal(g.n)
        assert np.allclose(pinv.apply_transpose(v), pinv.to_dense().T @ v, atol=1e-10)


def _relabelled_tree(rng, n):
    """Random tree on 1..n rooted at 1 whose parents often point forward:
    a random recursive tree with vertices 2..n shuffled."""
    label = np.concatenate(([1], 1 + rng.permutation(np.arange(1, n))))
    parent = np.empty(n + 1, dtype=np.int64)
    for pos in range(1, n):
        parent[label[pos]] = label[int(rng.integers(0, pos))]
    return tree_graph(parent[2:].tolist())


def _reversed_edges(g, rng):
    """The same graph with about half of its edges pointing the other way."""
    flip = rng.random(g.m) < 0.5
    return DirectedGraph(g.n, tuple((v, u) if f else (u, v)
                                    for (u, v), f in zip(g.edges, flip)))


_rng_trees = np.random.default_rng(17)
_forward_trees = [_relabelled_tree(_rng_trees, 300) for _ in range(3)]
TREE_CASES = [
    (_forward_trees[0], []),
    (_forward_trees[1], [7, 150, 222]),
    (_reversed_edges(_forward_trees[2], _rng_trees), [3, 90]),
    # S = [3, 4] leaves {4} alone and cuts {5, 8} off as a 2-vertex tree
    (tree_graph([1, 1, 2, 2, 3, 3, 5]), [3, 4]),
    (_reversed_edges(tree_graph([1, 1, 2, 2, 3, 3, 5]), _rng_trees), [3, 4]),
]


def test_relabelled_trees_have_forward_parents():
    # tree_graph edges are (parent, child): some parents follow their child
    assert all(any(u > v for u, v in g.edges) for g in _forward_trees)


@pytest.mark.parametrize("g,S", TREE_CASES)
def test_tree_block_apply_transpose_exact(g, S):
    a = active_set(g, S)
    pinv = pseudoinverse(incidence(g), a)
    assert all(isinstance(b, _TreeBlock) for b in pinv.blocks)
    P = pinv.to_dense()
    Dm = incidence(g).toarray()[[i - 1 for i in a.inactive]]
    assert np.abs(P - np.linalg.pinv(Dm)).max() < 1e-10
    rng = np.random.default_rng(len(S))
    V = rng.standard_normal((g.n, 5))
    assert np.allclose(pinv.apply_transpose(V), P.T @ V, rtol=0, atol=1e-11)
    v = rng.standard_normal(g.n)
    assert np.allclose(pinv.apply_transpose(v), P.T @ v, rtol=0, atol=1e-11)


def _shuffled_trees():
    """(vertex count, (k, 2) edges) of 200 random trees with mixed edge
    orientation and shuffled edge order, then a star and a path."""
    rng = np.random.default_rng(26)
    for _ in range(200):
        nc = int(rng.integers(2, 400))
        parent = [int(rng.integers(max(0, v - int(rng.integers(1, 20))), v))
                  for v in range(1, nc)]
        ends = np.column_stack([parent, np.arange(1, nc)])
        flip = rng.random(nc - 1) < 0.5
        ends[flip] = ends[flip, ::-1]
        yield nc, ends[rng.permutation(nc - 1)]
    yield 500, np.column_stack([np.zeros(499, dtype=np.int64), np.arange(1, 500)])
    yield 500, np.column_stack([np.arange(1, 500), np.arange(499)])


def test_tree_preorder_is_scipys_undirected_search():
    # a tree block's prefix sums add in its preorder, so the CSV bytes rest
    # on the sibling order of scipy's undirected depth-first search
    for nc, ends in _shuffled_trees():
        coo = sp.coo_matrix((np.ones(nc - 1), ends.T), shape=(nc, nc))
        want_order, want_parent = depth_first_order(coo, 0, directed=False,
                                                    return_predecessors=True)
        order, parent = projections._preorder(nc, ends[:, 0], ends[:, 1])
        assert np.array_equal(order, want_order) and np.array_equal(parent, want_parent), nc
        block = _TreeBlock(np.arange(nc), ends)
        assert np.array_equal(block.rows, want_order)


def test_tree_block_pairs_columns_in_its_prefix_sums():
    # an even-width block takes its prefix sums on a complex view that pairs
    # columns 2j and 2j + 1; each column must still be the bits of a float64
    # cumsum, as a one-column or an odd-width (float64) call computes it
    rng = np.random.default_rng(27)
    g = tree_graph([int(rng.integers(max(1, v - 8), v)) for v in range(2, 3001)])
    [blk] = pseudoinverse(incidence(g), active_set(g, [])).blocks
    assert isinstance(blk, _TreeBlock) and len(blk.last) > 1024
    V = rng.standard_normal((g.n, 64))
    wide = blk.apply_transpose(V)
    C = np.cumsum(V[blk.rows], axis=0)
    assert np.array_equal(wide, (C[blk.last] - C[:-1] - blk.frac[:, None] * C[-1])
                          * blk.sign[:, None])
    assert np.array_equal(wide[:, :37], blk.apply_transpose(V[:, :37]))
    assert np.array_equal(wide[:, 27:], blk.apply_transpose(V[:, 27:]))
    for j in range(64):
        assert np.array_equal(wide[:, j:j + 1], blk.apply_transpose(V[:, j:j + 1])), j


def test_parallel_edges_take_the_dense_block():
    g = DirectedGraph(3, ((1, 2), (1, 2), (2, 3)))
    pinv = pseudoinverse(incidence(g), active_set(g, []))
    assert [type(b) for b in pinv.blocks] == [_LaplacianBlock]


def _grid_halves(side):
    """The horizontal edge between the middle two columns of every row."""
    return [(r - 1) * (side - 1) + side // 2 for r in range(1, side + 1)]


def _grid_edge(h, w, r, c, down=False):
    """1-based id, in grid_graph(h, w), of the edge from (r, c) (1-based) to
    its right neighbour, or to the one below it when down."""
    return h * (w - 1) + (r - 1) * w + c if down else (r - 1) * (w - 1) + c


def _staircase(side):
    """Edges of grid_graph(side, side) that cut it along an L-shaped line:
    the top half splits after column side/2, the bottom half after column
    side/4, so both sides are L-shaped, neither a rectangle."""
    half, quarter = side // 2, side // 4
    top = [_grid_edge(side, side, r, half) for r in range(1, half + 1)]
    step = [_grid_edge(side, side, half, c, down=True) for c in range(quarter + 1, half + 1)]
    bottom = [_grid_edge(side, side, r, quarter) for r in range(half + 1, side + 1)]
    return top + step + bottom


DENSE_CASES = {
    # the edge from (6, 6) to (6, 7) leaves a connected 144-vertex component
    # with one grid edge missing, which is no rectangle
    "grid12_inner_edge": (grid_graph(12, 12), [_grid_edge(12, 12, 6, 6)]),
    "grid12_staircase": (grid_graph(12, 12), _staircase(12)),
    "cycle64": (cycle_graph(64), []),
    # 12 edges on 6 vertices: a 6-cycle, two chords and parallel edges both ways
    "multigraph": (DirectedGraph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
                                     (1, 4), (2, 5), (2, 1), (1, 2), (3, 6), (6, 3))), []),
    "parallel_pair": (DirectedGraph(2, ((1, 2), (2, 1), (1, 2))), []),
}


@pytest.mark.parametrize("g,S", DENSE_CASES.values(), ids=DENSE_CASES.keys())
def test_dense_block_matches_svd_oracle(g, S):
    D = incidence(g)
    a = active_set(g, S)
    pinv = pseudoinverse(D, a)
    assert pinv.blocks and all(isinstance(b, _LaplacianBlock) and b.dct is None
                               for b in pinv.blocks)
    Dm = D.toarray()[[i - 1 for i in a.inactive]]
    oracle = np.linalg.pinv(Dm)
    P = pinv.to_dense()
    assert np.abs(P - oracle).max() < 1e-10
    rel = pinv.column_norms() / np.linalg.norm(oracle, axis=0) - 1.0
    assert np.abs(rel).max() < 1e-12
    assert _mp_identities_err(Dm, P) < 1e-10


def _quadrants(side):
    """Edges of grid_graph(side, side) that cut it into four side/2 squares."""
    half = side // 2
    return ([_grid_edge(side, side, r, half) for r in range(1, side + 1)]
            + [_grid_edge(side, side, half, c, down=True) for c in range(1, side + 1)])


_rng_grids = np.random.default_rng(29)
GRID_CASES = {
    "grid12_whole": (grid_graph(12, 12), []),
    "grid12_halves": (grid_graph(12, 12), _grid_halves(12)),
    "grid7x20": (grid_graph(7, 20), []),
    "grid2x9": (grid_graph(2, 9), []),
    # edges in random order, about half of them pointing the other way
    "grid9x6_shuffled": (_reversed_edges(DirectedGraph(54, tuple(
        grid_graph(9, 6).edges[k] for k in _rng_grids.permutation(93))), _rng_grids), []),
    # four 5x5 squares, whose local ids are not their global ones
    "grid10_quadrants": (grid_graph(10, 10), _quadrants(10)),
    # a side above DCT_MATRIX_MAX_SIDE takes scipy.fft's transforms
    "grid34x3": (grid_graph(34, 3), []),
}


@pytest.mark.parametrize("g,S", GRID_CASES.values(), ids=GRID_CASES.keys())
def test_grid_block_matches_svd_oracle(g, S):
    D = incidence(g)
    a = active_set(g, S)
    pinv = pseudoinverse(D, a)
    assert pinv.blocks and all(isinstance(b, _LaplacianBlock) and b.dct is not None
                               for b in pinv.blocks)
    Dm = D.toarray()[[i - 1 for i in a.inactive]]
    oracle = np.linalg.pinv(Dm)
    P = pinv.to_dense()
    assert np.abs(P - oracle).max() < 1e-10
    rel = pinv.column_norms() / np.linalg.norm(oracle, axis=0) - 1.0
    assert np.abs(rel).max() < 1e-12
    assert _mp_identities_err(Dm, P) < 1e-10
    V = np.random.default_rng(g.n).standard_normal((g.n, 7))
    assert np.allclose(pinv.apply_transpose(V), P.T @ V, rtol=0, atol=1e-12)


def test_rectangle_blocks_take_no_connected_components_pass(monkeypatch):
    # a grid shape proves a component connected; labelling the components
    # of both 512-vertex halves again would cost 0.3 ms each
    g = grid_graph(32, 32)
    a = active_set(g, _grid_halves(32))
    calls = []
    labels = graphs.adjacency_labels
    monkeypatch.setattr(graphs, "adjacency_labels", lambda *x: calls.append(1) or labels(*x))
    pinv = pseudoinverse(incidence(g), a)
    assert len(pinv.blocks) == 2 and all(b.dct is not None for b in pinv.blocks)
    assert calls == []


def _grounded_omega(g, D, a, rows):
    """omega at the given rows of D from grounded sparse solves of each
    row's component Laplacian, independent of `projections`."""
    Dr = D[a.inactive_rows].tocsc()
    L = (Dr.T @ Dr).tocsc()
    want = []
    for row in rows:
        verts = np.flatnonzero(a.comp_label == a.comp_label[g.ends[row, 0]])
        d = D[row].toarray().ravel()[verts]
        x = np.zeros(len(verts))
        x[1:] = spla.splu(L[verts][:, verts][1:, 1:].tocsc()).solve(d[1:])
        x -= x.mean()
        want.append(np.linalg.norm(x) / math.sqrt(g.n))
    return np.array(want)


def test_grid_halves_at_100_report_in_under_a_second():
    # the pseudoinverse of a 100x100 grid cut in halves is two implicit
    # 100x50 blocks; omega at sampled edges against grounded sparse solves
    g = grid_graph(100, 100)
    D = incidence(g)
    a = active_set(g, _grid_halves(100))
    start = time.perf_counter()
    rep = theory_report(D, a)
    assert time.perf_counter() - start < 1.0
    rows = np.random.default_rng(31).choice(a.inactive_rows, size=8, replace=False)
    assert np.abs(rep.omega[rows] / _grounded_omega(g, D, a, rows) - 1.0).max() < 1e-10


_STAIRCASE_REPORT = """
import json, resource, sys, time
from tvgo import graphs, projections
g = graphs.grid_graph(100, 100)
a = graphs.active_set(g, json.loads(sys.argv[1]))
start = time.perf_counter()
rep = projections.theory_report(graphs.incidence(g), a)
seconds = time.perf_counter() - start
print(json.dumps([seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  rep.omega[json.loads(sys.argv[2])].tolist()]))
"""


def test_staircase_at_100_reports_in_under_30_s_and_500_mb():
    # both L-shaped components of a 100x100 grid cut along the staircase
    # take Laplacian blocks, which hold no (n_c, n_c) array; the report runs
    # in a fresh process, whose peak RSS is the report's (and the imports')
    g = grid_graph(100, 100)
    D = incidence(g)
    S = _staircase(100)
    a = active_set(g, S)
    rows = np.random.default_rng(37).choice(a.inactive_rows, size=8, replace=False)
    src = os.path.dirname(os.path.dirname(os.path.abspath(projections.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _STAIRCASE_REPORT, json.dumps(S),
                          json.dumps(rows.tolist())],
                         env=env, capture_output=True, text=True, check=True)
    seconds, rss_mb, omega = json.loads(out.stdout)
    assert seconds < 30.0 and rss_mb < 500.0, (seconds, rss_mb)
    assert np.abs(np.array(omega) / _grounded_omega(g, D, a, rows) - 1.0).max() < 1e-10


@pytest.mark.parametrize("ends", [
    [[0, 1], [1, 0], [2, 3]],                      # two parallel pairs
    [[0, 1], [1, 2], [2, 0], [3, 4]],              # a triangle and an edge
    # two 5-cycles: M's Cholesky factorization succeeds with a pivot of 4e-8
    [[i, (i + 1) % 5] for i in range(5)] + [[5 + i, 5 + (i + 1) % 5] for i in range(5)],
])
def test_dense_block_rejects_disconnected_edges(ends):
    nc = max(max(e) for e in ends) + 1
    with pytest.raises(ValueError, match="not connected"):
        _LaplacianBlock(np.arange(nc), np.array(ends))


@pytest.mark.parametrize("g,S", CASES + TREE_CASES)
def test_componentwise_mean_batch_matches_columns(g, S):
    labels = active_set(g, S).comp_label
    V = np.random.default_rng(g.n).standard_normal((g.n, 7))
    cols = np.column_stack([componentwise_mean(labels, V[:, j]) for j in range(7)])
    assert np.array_equal(componentwise_mean(labels, V), cols)


def test_pinv_rejects_inconsistent_components():
    with pytest.raises(ValueError, match="not connected"):
        _TreeBlock(np.arange(4), np.array([[0, 1], [1, 0], [2, 3]]))
    g, h = path_graph(4), DirectedGraph(4, ((1, 2), (3, 4), (2, 3)))
    with pytest.raises(ValueError, match="inactive edge 2 spans two components"):
        pseudoinverse(incidence(g), active_set(h, [3]))


def test_pinv_requires_inactive_rows():
    g = path_graph(3)
    with pytest.raises(ValueError, match="no rows"):
        pseudoinverse(incidence(g), active_set(g, [1, 2]))


def test_project_constant_mean():
    a = active_set(path_graph(4), [])
    assert np.allclose(project_nullspace(a, np.array([1.0, 2, 3, 4])), 2.5)


def test_project_componentwise_means():
    a = active_set(path_graph(4), [2])
    out = project_nullspace(a, np.array([1.0, 3, 5, 7]))
    assert np.allclose(out, [2, 2, 6, 6])


def test_projection_idempotent_and_complement():
    rng = np.random.default_rng(1)
    for g, S in CASES:
        a = active_set(g, S)
        v = rng.standard_normal(g.n)
        p = project_nullspace(a, v)
        assert np.allclose(project_nullspace(a, p), p, atol=1e-12)
        assert np.allclose(p + antiproject_nullspace(a, v), v, atol=1e-12)


def test_antiprojection_fixes_rowspan():
    # vectors in the rowspan of the reduced operator are untouched
    g = path_graph(7)
    a = active_set(g, [4])
    Dm = incidence(g).toarray()[[i - 1 for i in a.inactive]]
    rng = np.random.default_rng(2)
    v = Dm.T @ rng.standard_normal(Dm.shape[0])
    assert np.allclose(antiproject_nullspace(a, v), v, atol=1e-10)


def test_omega_gamma_weights_path2():
    g = path_graph(2)
    rep = theory_report(incidence(g), active_set(g, []))
    assert rep.gamma == pytest.approx(0.5, abs=1e-12)
    assert rep.omega[0] == pytest.approx(0.5, abs=1e-12)
    assert rep.weights[0] == pytest.approx(0.0, abs=1e-12)


def test_omega_symmetry_path3():
    g = path_graph(3)
    rep = theory_report(incidence(g), active_set(g, []))
    assert rep.omega[0] == pytest.approx(rep.omega[1], abs=1e-14)
    assert np.allclose(rep.weights, 0.0, atol=1e-14)


@pytest.mark.parametrize("g,S", CASES)
def test_omega_matches_gram_inverse(g, S):
    # omega_i^2 equals the matching diagonal entry of (D_m D_m')^+/n, which
    # is (D_m D_m')^{-1}/n when D_m has full row rank
    a = active_set(g, S)
    rep = theory_report(incidence(g), a)
    Dm = incidence(g).toarray()[[i - 1 for i in a.inactive]]
    diag = np.diag(np.linalg.pinv(Dm @ Dm.T)) / g.n
    got = rep.omega[np.asarray(a.inactive) - 1] ** 2
    assert np.abs(got - diag).max() < 1e-8


def test_omega_zero_on_active_weights_one():
    g = path_graph(10)
    a = active_set(g, [3, 7])
    rep = theory_report(incidence(g), a)
    act = np.asarray(a.S) - 1
    assert np.all(rep.omega[act] == 0.0)
    assert np.all(rep.weights[act] == 1.0)
    assert rep.weights.min() == pytest.approx(0.0, abs=1e-14)
    assert np.all((rep.weights >= 0) & (rep.weights <= 1))
    assert rep.weights[np.argmax(rep.omega)] == pytest.approx(0.0, abs=1e-14)


def test_path_column_norm_closed_form():
    # ||(D+)_j||_2 = sqrt(j (k-j)/k) for an isolated path with k vertices
    for k in range(2, 65):
        g = path_graph(k)
        pinv = pseudoinverse(incidence(g), active_set(g, []))
        norms = pinv.column_norms()
        j = np.arange(1, k)
        expected = np.sqrt(j * (k - j) / k)
        assert np.abs(norms - expected).max() < 1e-10


def test_gamma_bound_small_tree():
    assert gamma_bound("tree", 2, 2) == pytest.approx(math.sqrt(3 / 8))
    g = path_graph(2)
    rep = theory_report(incidence(g), active_set(g, []))
    assert rep.gamma <= gamma_bound("tree", 2, 2)


def test_gamma_bound_limit():
    # with a single component the bound tends to 1/2 from above
    vals = [gamma_bound("tree", n, n) for n in (10, 100, 10_000)]
    assert vals[0] > vals[1] > vals[2] > 0.5
    assert vals[2] == pytest.approx(0.5, abs=1e-4)


def test_gamma_bound_grid_needs_constant():
    with pytest.raises(ValueError):
        gamma_bound("grid", 100, 100)
    assert gamma_bound("grid", 100, 100, grid_constant=2.0) == \
        pytest.approx(2.0 * math.sqrt(math.log(100) / 100))


def test_g_function_maximum():
    # i(n-i)/n peaks at the midpoint
    for k in (6, 8, 12):
        g = np.array([i * (k - i) / k for i in range(1, k)])
        assert g.argmax() + 1 == k // 2


def test_gamma_bound_holds_random_trees():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(2, 51))
        g = _random_tree(rng, n)
        S = [i + 1 for i in range(g.m) if rng.random() < 0.3]
        a = active_set(g, S)
        if len(a.inactive) == 0:
            continue
        rep = theory_report(incidence(g), a)
        assert rep.gamma <= math.sqrt((a.n_max + 1) / (4 * n)) + 1e-12


def test_gamma_bound_holds_cycles():
    rng = np.random.default_rng(7)
    for n in (5, 12, 30, 50):
        g = cycle_graph(n)
        for _ in range(15):
            S = [i + 1 for i in range(n) if rng.random() < 0.25]
            if len(S) < 2:
                S = [1, n // 2]
            a = active_set(g, S)
            rep = theory_report(incidence(g), a)
            assert rep.gamma <= math.sqrt((a.n_max + 1) / (4 * n)) + 1e-12


def test_grid_gamma_scaling_shape():
    # gamma on square grids decays like sqrt(log(n)/n) up to a constant;
    # the bound's constant is configuration, so only the shape is checked
    ratios = []
    for k in (4, 6, 8, 10):
        g = grid_graph(k, k)
        rep = theory_report(incidence(g), active_set(g, []))
        n = k * k
        ratios.append(rep.gamma / math.sqrt(math.log(n) / n))
    assert max(ratios) / min(ratios) < 2.0


def test_theory_report_serialization():
    g = path_graph(5)
    d = theory_report(incidence(g), active_set(g, [2])).to_dict()
    assert set(d) == {"omega", "gamma", "weights", "r_S", "component_sizes"}
    assert len(d["omega"]) == 4 and d["r_S"] == 2


def test_pinv_reversed_edge_orientation():
    # a path 1-2-3 whose first edge points toward the root vertex
    from tvgo.graphs import DirectedGraph
    g = DirectedGraph(3, ((2, 1), (2, 3)))
    a = active_set(g, [])
    D = incidence(g)
    P = pseudoinverse(D, a).to_dense()
    assert np.abs(P - np.linalg.pinv(D.toarray())).max() < 1e-12
    rep = theory_report(D, a)
    assert rep.gamma == pytest.approx(np.sqrt(2.0 / 3.0) / np.sqrt(3))


def test_disconnected_graph_components():
    # two components: a 3-path and an isolated edge
    from tvgo.graphs import DirectedGraph
    g = DirectedGraph(5, ((1, 2), (2, 3), (5, 4)))
    a = active_set(g, [])
    assert a.r_S == 2 and a.comp_sizes == (3, 2)
    D = incidence(g)
    P = pseudoinverse(D, a).to_dense()
    assert np.abs(P - np.linalg.pinv(D.toarray())).max() < 1e-12
    v = np.array([1.0, 2.0, 3.0, 10.0, 20.0])
    assert np.allclose(project_nullspace(a, v), [2, 2, 2, 15, 15])
