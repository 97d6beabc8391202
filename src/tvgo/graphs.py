"""Directed graphs, incidence matrices, and active-set machinery.

Vertices are labeled 1..n and edges 1..m throughout, matching the usual
convention for edge-difference penalties; all arrays handed to numpy are
0-based internally.  Edge order is canonical per family and defines the row
order of the incidence matrix.
"""
from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph


class GraphError(ValueError):
    """Raised for invalid graph constructions or malformed graph files."""


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on vertices 1..n with an ordered edge list.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : tuple[tuple[int, int], ...]
        Ordered list of (tail, head) pairs, 1-indexed, no self-loops.

    The graph is hashable and compares by (n, edges).  Validating the edges
    reads them into ends, the read-only (m, 2) int64 array of their 0-based
    (tail, head) pairs, which every array-side consumer of the graph
    (incidence, active_set, an experiment's set-up) reads instead of the
    tuple.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("vertex count must be >= 1")
        try:
            flat = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.int64)
        except OverflowError:   # an endpoint past int64 is out of range
            flat = None
        if flat is None or (self.m and set(map(len, self.edges)) != {2}):
            self._raise_first_bad_edge()
        ends = flat.reshape(-1, 2)
        if self.m and (flat.min() < 1 or flat.max() > self.n or (ends[:, 0] == ends[:, 1]).any()):
            self._raise_first_bad_edge()
        ends -= 1
        ends.flags.writeable = False
        object.__setattr__(self, "ends", ends)

    def _raise_first_bad_edge(self):
        """Raise the GraphError naming the first edge that is not a pair of
        distinct vertices in 1..n.  Where every edge is one, numpy read a
        non-integer endpoint as an integer that made it look otherwise."""
        for k, edge in enumerate(self.edges, start=1):
            if len(edge) != 2:
                raise GraphError(f"edge {k} is not a (tail, head) pair: {edge!r}")
            u, v = edge
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise GraphError(f"edge {k} endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"edge {k} is a self-loop at vertex {u}")
        raise GraphError("edge endpoints must be integers")

    @property
    def m(self) -> int:
        return len(self.edges)


def path_graph(n: int) -> DirectedGraph:
    """Path graph with edges (i, i+1) for i = 1..n-1."""
    if n < 2:
        raise GraphError("path graph needs n >= 2")
    return DirectedGraph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> DirectedGraph:
    """Cycle graph: path edges plus the closing edge (n, 1) as edge m = n."""
    if n < 3:
        raise GraphError("cycle graph needs n >= 3")
    return DirectedGraph(n, tuple((i, i + 1) for i in range(1, n)) + ((n, 1),))


def grid_graph(height: int, width: int) -> DirectedGraph:
    """Two dimensional grid, vertices numbered row-major.

    Canonical edge order: all horizontal edges (row-major) first, then all
    vertical edges (row-major).
    """
    if height < 1 or width < 1 or height * width < 2:
        raise GraphError("grid graph needs height*width >= 2")

    def vid(r: int, c: int) -> int:
        return (r - 1) * width + c

    horizontal = [(vid(r, c), vid(r, c + 1))
                  for r in range(1, height + 1) for c in range(1, width)]
    vertical = [(vid(r, c), vid(r + 1, c))
                for r in range(1, height) for c in range(1, width + 1)]
    return DirectedGraph(height * width, tuple(horizontal + vertical))


def tree_graph(parents: Sequence[int]) -> DirectedGraph:
    """Rooted tree from a parent array.

    ``parents[k]`` is the parent of vertex k+2, so the tree has n =
    len(parents)+1 vertices rooted at vertex 1, and edge i = (parent(i+1), i+1).
    Parents may reference any vertex; the array must describe a tree (every
    vertex reaches the root, no cycles).
    """
    n = len(parents) + 1
    if n < 2:
        raise GraphError("tree graph needs n >= 2")
    par = [int(p) for p in parents]
    for v, p in enumerate(par, start=2):
        if not (1 <= p <= n):
            raise GraphError(f"parent of vertex {v} out of range: {p}")
        if p == v:
            raise GraphError(f"vertex {v} is its own parent")
    # n - 1 parent edges connect all n vertices exactly when they hold no
    # cycle: a component without the root has as many edges as vertices
    labels = component_labels(n, np.column_stack([np.asarray(par) - 1, np.arange(1, n)]))
    if labels.any():
        v = int(np.argmax(labels > 0)) + 1
        raise GraphError(f"cycle detected in parent array: vertex {v} does not reach the root")
    return DirectedGraph(n, tuple(zip(par, range(2, n + 1))))


def json_value(kind, value, name: str, error: type[ValueError] = ValueError):
    """value read as a JSON value of the annotation kind: float takes any
    number (as a float), int an integer, bool true or false, str a string,
    X | None null or X, and tuple[X, ...] a list of X (as a tuple).  Any
    other value raises error naming name."""
    args = typing.get_args(kind)
    if type(None) in args:    # X | None
        return None if value is None else json_value(args[0], value, name, error)
    if typing.get_origin(kind) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(json_value(args[0], item, name, error) for item in value)
    elif type(value) in ((int, float) if kind is float else (kind,)):   # exact: true is no int
        return kind(value)
    raise error(f"{name} has a value of the wrong type: {value!r}")


# each family's builder and its parameters, with the type of each
_FAMILIES = {"path": (path_graph, {"n": int}), "cycle": (cycle_graph, {"n": int}),
             "grid": (grid_graph, {"height": int, "width": int}),
             "tree": (tree_graph, {"parents": tuple[int, ...]})}


def build_graph(family: str, **params) -> DirectedGraph:
    """Build a canonical graph. family is one of path, cycle, grid, tree;
    GraphError names an unknown family, a missing or unknown parameter, or
    one of the wrong type (see json_value)."""
    if not isinstance(family, str) or family not in _FAMILIES:
        raise GraphError(f"unknown graph family {family!r}")
    builder, kinds = _FAMILIES[family]
    bad = [f"missing parameter {k!r}" for k in kinds if k not in params] + \
        [f"unknown parameter {k!r}" for k in params if k not in kinds]
    if bad:
        raise GraphError(f"{family} graph: {', '.join(bad)}")
    return builder(*(json_value(kind, params[k], f"{family} graph: parameter {k!r}", GraphError)
                     for k, kind in kinds.items()))


def incidence(graph: DirectedGraph) -> sp.csr_matrix:
    """Incidence matrix of the graph: row i has -1 at the tail of edge i
    and +1 at its head.  Shape (m, n), dtype float64, CSR."""
    m, n = graph.m, graph.n
    rows = np.repeat(np.arange(m), 2)
    data = np.tile([-1.0, 1.0], m)
    return sp.csr_matrix((data, (rows, graph.ends.ravel())), shape=(m, n))


def edge_endpoints(D: sp.spmatrix) -> np.ndarray:
    """Recover 0-based (tail, head) pairs from an incidence matrix.

    Returns an (m, 2) int array; column 0 is the -1 position, column 1 the +1.
    Raises GraphError unless every row has exactly two nonzeros, a -1 and a
    +1: every caller builds from the endpoints alone what D would give (the
    pseudoinverse blocks, the solvers' Laplacians D'D, the certificate's
    forest step), which holds for those entries only.
    """
    D = sp.csr_matrix(D)
    m = D.shape[0]
    rows = np.repeat(np.arange(m), np.diff(D.indptr))
    nz = D.data != 0
    rows, idx, val = rows[nz], D.indices[nz], D.data[nz]
    neg, pos = val == -1.0, val == 1.0
    bad = ((np.bincount(rows, minlength=m) != 2)
           | (np.bincount(rows[neg], minlength=m) != 1)
           | (np.bincount(rows[pos], minlength=m) != 1))
    if bad.any():
        raise GraphError(f"row {np.flatnonzero(bad)[0] + 1} is not an incidence row")
    out = np.empty((m, 2), dtype=np.int64)
    out[rows[neg], 0] = idx[neg]
    out[rows[pos], 1] = idx[pos]
    return out


def component_labels(n: int, ends: np.ndarray) -> np.ndarray:
    """0-based connected-component id per vertex of the graph on n vertices
    with 0-based edge endpoints `ends` (shape (k, 2)).  Component ids follow
    the smallest vertex in each component."""
    return adjacency_labels(sp.coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])),
                                          shape=(n, n)))


def adjacency_labels(adj: sp.spmatrix) -> np.ndarray:
    """component_labels of the graph whose edges are the stored entries of
    the square sparse matrix adj, in either direction."""
    k, labels = csgraph.connected_components(adj, directed=False)
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(k, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(k)
    return rank[labels]


@dataclass(frozen=True)
class ActiveSet:
    """An active edge subset S together with the component structure of the
    graph with those edges removed.

    Attributes
    ----------
    S : tuple[int, ...]
        Sorted active edge indices, 1-based subset of [m].
    n, m : int
        Vertex and edge counts of the ambient graph.
    comp_label : np.ndarray
        Length-n array, 0-based component id per vertex (ids ordered by the
        smallest vertex in each component).
    comp_sizes : tuple[int, ...]
        Vertices per component; r_S entries.
    inactive : tuple[int, ...]
        Sorted edges not in S; position k of this tuple is row k of the
        reduced operator (the index map i*).
    inactive_rows : np.ndarray
        The same edges as a 0-based int64 array: the rows of the incidence
        matrix that the reduced operator keeps.
    """

    S: tuple[int, ...]
    n: int
    m: int
    comp_label: np.ndarray
    comp_sizes: tuple[int, ...]
    inactive: tuple[int, ...]
    inactive_rows: np.ndarray = field(repr=False, compare=False)

    @property
    def s(self) -> int:
        return len(self.S)

    @property
    def r_S(self) -> int:
        return len(self.comp_sizes)

    @property
    def n_min(self) -> int:
        return min(self.comp_sizes)

    @property
    def n_max(self) -> int:
        return max(self.comp_sizes)

    def i_star(self, i: int) -> int:
        """0-based row index of (1-based) edge i within the reduced operator."""
        k = int(np.searchsorted(self.inactive_rows, i - 1))
        if k >= len(self.inactive) or self.inactive[k] != i:
            raise ValueError(f"edge {i} is active; i* is defined on -S only")
        return k

    def component_vertices(self) -> list[np.ndarray]:
        """0-based vertex arrays per component, ordered by component id."""
        order = np.argsort(self.comp_label, kind="stable")
        bounds = np.searchsorted(self.comp_label[order], np.arange(self.r_S + 1))
        return [order[bounds[c]:bounds[c + 1]] for c in range(self.r_S)]


def active_set(graph: DirectedGraph, S: Iterable[int]) -> ActiveSet:
    """Component structure of the graph after deleting the edges in S."""
    S_sorted = tuple(sorted(set(int(i) for i in S)))
    for i in S_sorted:
        if not (1 <= i <= graph.m):
            raise GraphError(f"active edge index {i} outside 1..{graph.m}")
    inactive_mask = np.ones(graph.m, dtype=bool)
    inactive_mask[np.asarray(S_sorted, dtype=np.int64) - 1] = False
    rows = np.flatnonzero(inactive_mask)
    labels = component_labels(graph.n, graph.ends[rows])
    return ActiveSet(S=S_sorted, n=graph.n, m=graph.m, comp_label=labels,
                     comp_sizes=tuple(np.bincount(labels).tolist()),
                     inactive=tuple((rows + 1).tolist()), inactive_rows=rows)


def is_admissible(D: sp.spmatrix, active: ActiveSet, ends: np.ndarray | None = None) -> bool:
    """Whether S is realizable as the exact support of Df for some f.

    S is realizable iff for every i in S the projection of row d_i onto the
    nullspace of the reduced operator is nonzero.  For an incidence matrix
    that projection is the componentwise mean of d_i, which vanishes exactly
    when both endpoints of edge i fall in the same component; the test below
    evaluates that projection criterion exactly.  ends, D's 0-based edge
    endpoints, are read from D when not given.
    """
    if not active.S:
        return True
    ends = edge_endpoints(D) if ends is None else ends
    lab = active.comp_label[ends[np.subtract(active.S, 1)]]
    return not (lab[:, 0] == lab[:, 1]).any()


def read_numbers(source: str, kind: type, tokens: Iterable[str] | None = None) -> list:
    """tokens, by default the whitespace-separated tokens of the file named
    source, each read as kind (int or float); ValueError names source (a
    flag, a file or a variable) and the first token that is not one."""
    if tokens is None:
        with open(source) as fh:
            tokens = fh.read().split()
    out = []
    for tok in tokens:
        try:
            out.append(kind(tok))
        except ValueError:
            raise ValueError(f"{source}: {tok!r} is not "
                             f"{'an integer' if kind is int else 'a number'}") from None
    return out


def write_graph(graph: DirectedGraph, path: str) -> None:
    """Write the plain-text graph format: 'n m' then one 'tail head' per edge."""
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def read_graph(path: str) -> DirectedGraph:
    """Read the plain-text graph format written by :func:`write_graph`."""
    vals = read_numbers(path, int)
    if len(vals) < 2:
        raise GraphError(f"{path}: missing 'n m' header")
    n, m, *vals = vals
    if len(vals) != 2 * m:
        raise GraphError(f"{path}: expected {m} edges, found {len(vals) // 2}")
    return DirectedGraph(n, tuple(zip(vals[::2], vals[1::2])))


def read_active_set(path: str) -> tuple[int, ...]:
    """Read an active-set file: one 1-based edge index per line."""
    return tuple(read_numbers(path, int))


def write_active_set(S: Iterable[int], path: str) -> None:
    with open(path, "w") as fh:
        for i in sorted(set(int(j) for j in S)):
            fh.write(f"{i}\n")
