"""Directed graphs, incidence matrices, and active-set machinery.

Vertices are labeled 1..n and edges 1..m throughout, matching the usual
convention for edge-difference penalties; all arrays handed to numpy are
0-based internally.  Edge order is canonical per family and defines the row
order of the incidence matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("vertex count must be >= 1")
        for k, (u, v) in enumerate(self.edges, start=1):
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise GraphError(f"edge {k} endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"edge {k} is a self-loop at vertex {u}")

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


# each family's builder and its parameters, with the conversion of each
_FAMILIES = {"path": (path_graph, {"n": int}), "cycle": (cycle_graph, {"n": int}),
             "grid": (grid_graph, {"height": int, "width": int}),
             "tree": (tree_graph, {"parents": list})}


def build_graph(family: str, **params) -> DirectedGraph:
    """Build a canonical graph. family is one of path, cycle, grid, tree;
    GraphError names an unknown family, a missing or unknown parameter, or
    one of the wrong type."""
    if not isinstance(family, str) or family not in _FAMILIES:
        raise GraphError(f"unknown graph family {family!r}")
    builder, convert = _FAMILIES[family]
    bad = [f"missing parameter {k!r}" for k in convert if k not in params] + \
        [f"unknown parameter {k!r}" for k in params if k not in convert]
    if bad:
        raise GraphError(f"{family} graph: {', '.join(bad)}")
    values = []
    for k, conv in convert.items():
        try:
            values.append(conv(params[k]))
        except (TypeError, ValueError):
            raise GraphError(f"{family} graph: parameter {k!r} must be {conv.__name__}, "
                             f"got {params[k]!r}") from None
    return builder(*values)


def _ends(graph: DirectedGraph) -> np.ndarray:
    """0-based (tail, head) pairs of the graph's edges, shape (m, 2)."""
    return np.asarray(graph.edges, dtype=np.int64).reshape(graph.m, 2) - 1


def incidence(graph: DirectedGraph) -> sp.csr_matrix:
    """Incidence matrix of the graph: row i has -1 at the tail of edge i
    and +1 at its head.  Shape (m, n), dtype float64, CSR."""
    m, n = graph.m, graph.n
    rows = np.repeat(np.arange(m), 2)
    data = np.tile([-1.0, 1.0], m)
    return sp.csr_matrix((data, (rows, _ends(graph).ravel())), shape=(m, n))


def edge_endpoints(D: sp.spmatrix) -> np.ndarray:
    """Recover 0-based (tail, head) pairs from an incidence matrix.

    Returns an (m, 2) int array; column 0 is the -1 position, column 1 the +1.
    Raises GraphError unless every row has exactly two nonzeros, one
    negative and one positive.
    """
    D = sp.csr_matrix(D)
    m = D.shape[0]
    rows = np.repeat(np.arange(m), np.diff(D.indptr))
    nz = D.data != 0
    rows, idx, val = rows[nz], D.indices[nz], D.data[nz]
    neg, pos = val < 0, val > 0
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
    adj = sp.coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
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
    """

    S: tuple[int, ...]
    n: int
    m: int
    comp_label: np.ndarray
    comp_sizes: tuple[int, ...]
    inactive: tuple[int, ...]

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
        k = int(np.searchsorted(np.asarray(self.inactive), i))
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
    labels = component_labels(graph.n, _ends(graph)[inactive_mask])
    sizes = tuple(int(c) for c in np.bincount(labels))
    inactive = tuple(int(i) for i in np.flatnonzero(inactive_mask) + 1)
    return ActiveSet(S=S_sorted, n=graph.n, m=graph.m, comp_label=labels,
                     comp_sizes=sizes, inactive=inactive)


def is_admissible(D: sp.spmatrix, active: ActiveSet) -> bool:
    """Whether S is realizable as the exact support of Df for some f.

    S is realizable iff for every i in S the projection of row d_i onto the
    nullspace of the reduced operator is nonzero.  For an incidence matrix
    that projection is the componentwise mean of d_i, which vanishes exactly
    when both endpoints of edge i fall in the same component; the test below
    evaluates that projection criterion exactly.
    """
    if not active.S:
        return True
    ends = edge_endpoints(D)
    lab = active.comp_label
    for i in active.S:
        u, v = ends[i - 1]
        if lab[u] == lab[v]:
            return False
    return True


def write_graph(graph: DirectedGraph, path: str) -> None:
    """Write the plain-text graph format: 'n m' then one 'tail head' per edge."""
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def read_graph(path: str) -> DirectedGraph:
    """Read the plain-text graph format written by :func:`write_graph`."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GraphError(f"{path}: missing 'n m' header")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise GraphError(f"{path}: expected {m} edges, found {(len(tokens) - 2) // 2}")
    vals = [int(t) for t in tokens[2:]]
    edges = tuple((vals[2 * i], vals[2 * i + 1]) for i in range(m))
    return DirectedGraph(n, edges)


def read_active_set(path: str) -> tuple[int, ...]:
    """Read an active-set file: one 1-based edge index per line."""
    with open(path) as fh:
        return tuple(int(line) for line in fh.read().split())


def write_active_set(S: Iterable[int], path: str) -> None:
    with open(path, "w") as fh:
        for i in sorted(set(int(j) for j in S)):
            fh.write(f"{i}\n")
