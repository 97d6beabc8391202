import copy
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from tvgo import graphs
from tvgo.graphs import (GraphError, active_set, build_graph, cycle_graph,
                         grid_graph, incidence, is_admissible, path_graph,
                         read_active_set, read_graph, tree_graph, write_graph,
                         write_active_set)


def test_path_edges():
    assert path_graph(3).edges == ((1, 2), (2, 3))
    assert path_graph(2).edges == ((1, 2),)


def test_cycle_edges():
    g = cycle_graph(4)
    assert g.edges == ((1, 2), (2, 3), (3, 4), (4, 1))
    assert g.m == g.n == 4


def test_grid_2x2():
    g = grid_graph(2, 2)
    assert g.n == 4 and g.m == 4
    assert g.edges == ((1, 2), (3, 4), (1, 3), (2, 4))


def test_grid_row_major_order():
    g = grid_graph(2, 3)
    horizontal = g.edges[:4]
    vertical = g.edges[4:]
    assert horizontal == ((1, 2), (2, 3), (4, 5), (5, 6))
    assert vertical == ((1, 4), (2, 5), (3, 6))


def test_tree_parent_array():
    # vertex 2 hangs off 1, vertex 3 off 1, vertex 4 off 3
    g = tree_graph([1, 1, 3])
    assert g.edges == ((1, 2), (1, 3), (3, 4))


def test_tree_parent_after_child_is_fine():
    # parents may point to higher-numbered vertices as long as 1 is reached
    g = tree_graph([3, 1])  # 2 -> 3 -> 1
    assert g.edges == ((3, 2), (1, 3))


def test_tree_cycle_detected():
    with pytest.raises(GraphError, match="cycle"):
        tree_graph([3, 2])  # 2 <-> 3 never reach the root
    with pytest.raises(GraphError, match="out of range"):
        tree_graph([5])
    with pytest.raises(GraphError, match="own parent"):
        tree_graph([2])
    for parents, message in [([1.5, 1], "parent of vertex 2 is not an integer: 1.5"),
                             (np.array([1.5, 1.0]), "parent of vertex 2 is not an integer: 1.5"),
                             ([1, "1"], "parent of vertex 3 is not an integer: '1'"),
                             ([1, True], "parent of vertex 3 is not an integer: True")]:
        with pytest.raises(GraphError) as err:
            tree_graph(parents)
        assert str(err.value) == message


@pytest.mark.parametrize("edges,message", [
    (((1, 2), (2, 4), (3, 3)), "edge 2 endpoint out of range: (2, 4)"),
    (((1, 2), (3, 3), (0, 1)), "edge 2 is a self-loop at vertex 3"),
    (((1, 2), (2, 3), (9, 9)), "edge 3 endpoint out of range: (9, 9)"),
    (((1, 2), (2, 3), (1, 2 ** 70)), f"edge 3 endpoint out of range: (1, {2 ** 70})"),
    (((1, 2), (2, 3, 1)), "edge 2 is not a (tail, head) pair: (2, 3, 1)"),
    (((1, 2, 3), (1,)), "edge 1 is not a (tail, head) pair: (1, 2, 3)"),
    (((1, 2), (1.5, 2)), "edge 2 endpoint is not an integer: (1.5, 2)"),
    (((1, 2), ("1", 2)), "edge 2 endpoint is not an integer: ('1', 2)"),
    (((1, 2), (True, 2)), "edge 2 endpoint is not an integer: (True, 2)"),
    (np.array([[1.5, 2], [1, 2]]), "edge 1 endpoint is not an integer: (1.5, 2.0)"),
    (np.array([[1, 2], [2, 4]]), "edge 2 endpoint out of range: (2, 4)"),
    (np.array([[1, 2, 3]]), "edge 1 is not a (tail, head) pair: (1, 2, 3)"),
])
def test_graph_names_its_first_bad_edge(edges, message):
    with pytest.raises(GraphError) as err:
        graphs.DirectedGraph(3, edges)
    assert str(err.value) == message


def test_graph_compares_by_n_and_edges_and_holds_read_only_endpoints():
    g, h = graphs.DirectedGraph(3, ((1, 2), (3, 2))), graphs.DirectedGraph(3, ((1, 2), (3, 2)))
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != graphs.DirectedGraph(4, g.edges) and g != path_graph(3)
    assert g.ends.tolist() == [[0, 1], [2, 1]] and g.ends.dtype == np.int64
    assert not g.ends.flags.writeable
    assert graphs.DirectedGraph(1, ()).ends.shape == (0, 2)
    assert "ends" not in repr(g)


@pytest.mark.parametrize("n", [2.5, True, 0, -3, "3", np.float64(2.0)])
def test_vertex_count_must_be_an_integer_of_at_least_one(n):
    # 2.5 and True were kept as the vertex count, as tree parents are not
    with pytest.raises(GraphError, match="vertex count must be an integer >= 1"):
        graphs.DirectedGraph(n, np.zeros((0, 2), int))
    assert graphs.DirectedGraph(np.int64(2), [(1, 2)]).n == 2


def test_minimum_sizes():
    with pytest.raises(GraphError):
        path_graph(1)
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_incidence_path3():
    D = incidence(path_graph(3)).toarray()
    assert np.array_equal(D, [[-1, 1, 0], [0, -1, 1]])


def test_incidence_cycle3():
    D = incidence(cycle_graph(3)).toarray()
    assert np.array_equal(D, [[-1, 1, 0], [0, -1, 1], [1, 0, -1]])


@pytest.mark.parametrize("g", [path_graph(7), cycle_graph(6), grid_graph(3, 4),
                               tree_graph([1, 1, 2, 2, 5])])
def test_incidence_invariants(g):
    D = incidence(g)
    A = D.toarray()
    assert A.shape == (g.m, g.n)
    assert np.all(np.isin(A, [-1.0, 0.0, 1.0]))
    assert np.allclose(A.sum(axis=1), 0.0)
    assert np.all((A == -1).sum(axis=1) == 1)
    assert np.all((A == 1).sum(axis=1) == 1)
    # connected graphs: rank = n - 1
    assert np.linalg.matrix_rank(A) == g.n - 1


def test_canonical_order_stable():
    D1 = incidence(build_graph("grid", height=3, width=5)).toarray()
    D2 = incidence(build_graph("grid", height=3, width=5)).toarray()
    assert np.array_equal(D1, D2)


def test_active_set_path_split():
    a = active_set(path_graph(5), [2])
    assert a.comp_sizes == (2, 3)
    assert a.r_S == 2 and a.n_min == 2 and a.n_max == 3
    assert a.inactive == (1, 3, 4)
    assert a.i_star(3) == 1
    with pytest.raises(ValueError):
        a.i_star(2)


def test_active_sets_compare_and_hash_by_value():
    g = grid_graph(3, 3)
    a, b = active_set(g, [1]), active_set(g, (1,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != active_set(g, [2]) and a != active_set(grid_graph(3, 4), [1])
    assert active_set(g, []) == active_set(g, [])


def test_graphs_and_active_sets_keep_their_arrays_read_only():
    # a write to an array would change the hash; numpy hands a copied or
    # unpickled array back writable
    g = grid_graph(3, 4)
    a = active_set(g, [2, 7])
    for obj, fields in [(g, ["ends"]), (a, ["comp_label", "inactive_rows"])]:
        for twin in [obj, pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)]:
            assert twin == obj and hash(twin) == hash(obj)
            for name in fields:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(twin, name)[0] = 7


def test_graphs_and_active_sets_store_only_their_arrays():
    # a 256 x 256 grid has 130,560 edges: the endpoints (2.1 MB), the
    # inactive rows (1 MB) and the labels (0.5 MB) hold under 4 MB, where
    # tuples of the same edges as 1-based pairs and indices held 22 MB more
    tracemalloc.start()
    try:
        g = grid_graph(256, 256)
        a = active_set(g, [1, 2])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 8e6
    assert a.inactive == tuple(range(3, g.m + 1))
    h = graphs.DirectedGraph(g.n, g.ends + 1)
    assert h == g and hash(h) == hash(g)

    def vid(r, c):   # the formula the tuple-building grid_graph used
        return (r - 1) * 256 + c

    horizontal = [(vid(r, c), vid(r, c + 1)) for r in range(1, 257) for c in range(1, 256)]
    vertical = [(vid(r, c), vid(r + 1, c)) for r in range(1, 256) for c in range(1, 257)]
    assert g.edges == tuple(horizontal + vertical)


def test_active_set_cycle_singleton():
    a = active_set(cycle_graph(4), [1])
    assert a.r_S == 1


def test_active_set_empty_connected():
    for g in [path_graph(6), cycle_graph(5), grid_graph(2, 3)]:
        assert active_set(g, []).r_S == 1


def test_active_set_validates_range():
    with pytest.raises(GraphError):
        active_set(path_graph(4), [9])
    # an index that is not an integer is named, never truncated
    for S, bad in [([1.5], "1.5"), ([True], "True"), (["2"], "'2'"), ([3, 2.0], "2.0"),
                   (np.array([1.0, 2.0]), "1.0")]:
        with pytest.raises(GraphError, match=f"active edge index is not an integer: {bad}$"):
            active_set(path_graph(5), S)


def _random_subset(rng, m):
    return [i + 1 for i in range(m) if rng.random() < 0.35]


@pytest.mark.parametrize("g", [path_graph(9), cycle_graph(8), grid_graph(3, 4),
                               tree_graph([1, 2, 2, 1, 4, 4, 3, 8, 8, 10, 1]),
                               tree_graph([3, 1, 5, 1])])   # parents point forward
def test_r_S_matches_rank_nullity(g):
    # component count equals n - rank of the reduced incidence, all n <= 12
    rng = np.random.default_rng(g.n * 31 + g.m)
    D = incidence(g).toarray()
    for S in [[1]] + [_random_subset(rng, g.m) for _ in range(25)]:
        a = active_set(g, S)
        keep = [i - 1 for i in a.inactive]
        rank = np.linalg.matrix_rank(D[keep]) if keep else 0
        assert a.r_S == g.n - rank
        # component ids follow the smallest vertex of each component
        first = [int(np.flatnonzero(a.comp_label == c)[0]) for c in range(a.r_S)]
        assert first == sorted(first)


@pytest.mark.parametrize("bad_row", [[0.0, 1.0, 1.0],     # two +1 entries
                                     [0.0, 0.0, 1.0],     # a single entry
                                     [-1.0, 1.0, 1.0],    # three entries
                                     [0.0, 0.0, 0.0],     # an empty row
                                     [0.0, -0.5, 0.5]])   # a scaled edge
def test_edge_endpoints_rejects_non_incidence_rows(bad_row):
    D = sp.csr_matrix(np.array([[-1.0, 1.0, 0.0], bad_row]))
    with pytest.raises(GraphError, match="row 2 is not an incidence row"):
        graphs.edge_endpoints(D)


def test_admissible_exhaustive_path_cycle():
    # paths: every subset works; cycles: exactly the non-singletons
    for n in range(3, 9):
        g = path_graph(n)
        D = incidence(g)
        for r in range(g.m + 1):
            for S in itertools.combinations(range(1, g.m + 1), r):
                assert is_admissible(D, active_set(g, S))
    for n in range(3, 9):
        g = cycle_graph(n)
        D = incidence(g)
        for r in range(g.m + 1):
            for S in itertools.combinations(range(1, g.m + 1), r):
                ok = is_admissible(D, active_set(g, S))
                assert ok == (len(S) != 1)


def test_admissible_matches_projection_criterion():
    # the component test agrees with the exact nullspace projection of d_i
    rng = np.random.default_rng(3)
    for g in [grid_graph(3, 3), cycle_graph(7), tree_graph([1, 1, 2, 3, 3])]:
        D = incidence(g)
        Dd = D.toarray()
        for _ in range(30):
            S = _random_subset(rng, g.m)
            a = active_set(g, S)
            keep = [i - 1 for i in a.inactive]
            sub = Dd[keep] if keep else np.zeros((0, g.n))
            null_proj = np.eye(g.n) - np.linalg.pinv(sub) @ sub
            expected = all(np.linalg.norm(null_proj @ Dd[i - 1]) > 1e-9 for i in S)
            assert is_admissible(D, a) == expected


def test_graph_file_round_trip(tmp_path):
    g = grid_graph(3, 4)
    p = tmp_path / "g.txt"
    write_graph(g, str(p))
    g2 = read_graph(str(p))
    assert g2 == g
    assert np.array_equal(incidence(g).toarray(), incidence(g2).toarray())
    assert p.read_text().splitlines()[0] == "12 17"


def test_active_set_file_round_trip(tmp_path):
    p = tmp_path / "s.txt"
    write_active_set([4, 2, 9], str(p))
    assert read_active_set(str(p)) == (2, 4, 9)


@pytest.mark.parametrize("kind,value,expected", [
    (float, 2, 2.0), (float, 2.5, 2.5), (int, 3, 3), (bool, False, False), (str, "a", "a"),
    (float | None, None, None), (float | None, 1, 1.0),
    (tuple[int, ...], [1, 2], (1, 2)), (tuple[int, ...], [], ()),
    (tuple[float, ...] | None, [0, 1.5], (0.0, 1.5)),
])
def test_json_value_reads_each_annotation(kind, value, expected):
    got = graphs.json_value(kind, value, "k")
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("kind,value", [
    (float, None), (float, "1.0"), (float, True), (int, 10.7), (int, "12"), (int, True),
    (bool, "false"), (bool, 0), (str, 5), (float | None, "x"), (tuple[int, ...], "12"),
    (tuple[int, ...], 8), (tuple[int, ...], [None]), (tuple[int, ...], [8.5]),
    (tuple[float, ...] | None, [0.0, None]),
])
def test_json_value_rejects_a_wrong_type(kind, value):
    with pytest.raises(GraphError, match="'k' has a value of the wrong type"):
        graphs.json_value(kind, value, "'k'", GraphError)


def test_build_graph_dispatch():
    assert build_graph("path", n=4).m == 3
    assert build_graph("cycle", n=4).m == 4
    assert build_graph("tree", parents=[1, 2]).m == 2
    with pytest.raises(GraphError):
        build_graph("hypercube", n=4)
    with pytest.raises(GraphError, match="missing parameter 'n', unknown parameter 'm'"):
        build_graph("path", m=16)
    with pytest.raises(GraphError, match="missing parameter 'width'"):
        build_graph("grid", height=3)
    with pytest.raises(GraphError, match="unknown graph family None"):
        build_graph(None)
    with pytest.raises(GraphError, match="tree graph: parameter 'parents' has a value of"):
        build_graph("tree", parents=[1, None])
    with pytest.raises(GraphError, match="grid graph: parameter 'width' has a value of the wrong"):
        build_graph("grid", height=3, width="4")
