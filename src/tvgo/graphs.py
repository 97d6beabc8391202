"""Directed graphs, incidence matrices, and active-set machinery.

Vertices are labeled 1..n and edges 1..m throughout, matching the usual
convention for edge-difference penalties; all arrays handed to numpy are
0-based internally.  Edge order is canonical per family and defines the row
order of the incidence matrix.  A graph's state is its vertex count and the
(m, 2) array of its 0-based edge endpoints, and an active set's is its
arrays; the 1-based tuples `DirectedGraph.edges` and `ActiveSet.inactive`
are views derived from those arrays on demand.
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


def _integral(values) -> bool:
    """Whether every value is an integer: values is an array of integer
    dtype, or an iterable of ints and numpy integers.  As in json_value, True
    is no integer, though numpy reads it as 1."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iu"
    return all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, values)))


class _ComparesByValue:
    """== and hash by the instance's fields, an array field by its bytes, for
    the frozen classes below that hold arrays.  Those arrays are read-only,
    from construction on and in a copy or an unpickled instance too (numpy
    hands those writable arrays), so that no write can change a hash."""

    def __post_init__(self):
        for v in vars(self).values():
            if isinstance(v, np.ndarray):
                v.flags.writeable = False

    def __setstate__(self, state):   # unpickling, copy.copy and copy.deepcopy
        self.__dict__.update(state)
        # this class's own: DirectedGraph's validates constructor input
        _ComparesByValue.__post_init__(self)

    def _key(self):
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(self).values())

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, init=False, repr=False, eq=False)
class DirectedGraph(_ComparesByValue):
    """A directed graph on vertices 1..n with an ordered edge list.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : (m, 2) integer array, or a sequence of m pairs
        Ordered (tail, head) pairs, 1-indexed, no self-loops.

    The graph stores only n and ends, the read-only (m, 2) int64 array of
    the edges' 0-based (tail, head) pairs, which every consumer of the graph
    (incidence, active_set, an experiment's set-up) reads.  `edges`, the
    1-based tuple of pairs, is a view derived from ends on demand.  The graph
    is hashable and compares by n and the bytes of ends, that is by
    (n, edges).
    """

    n: int
    ends: np.ndarray

    def __init__(self, n: int, edges):
        self.__dict__.update(n=n, edges=edges)   # __post_init__ reads edges into ends
        self.__post_init__()

    def __post_init__(self):
        edges = self.__dict__.pop("edges")
        if not _integral((self.n,)) or self.n < 1:
            raise GraphError(f"vertex count must be an integer >= 1, got {self.n!r}")
        try:
            pairs = np.asarray(edges).reshape(len(edges), 2)
        except ValueError:   # not m pairs
            self._raise_first_bad_edge(edges)
        if len(pairs) and (not _integral(
                pairs if isinstance(edges, np.ndarray) else itertools.chain.from_iterable(edges))
                or pairs.min() < 1 or pairs.max() > self.n or (pairs[:, 0] == pairs[:, 1]).any()):
            self._raise_first_bad_edge(edges)
        # - 1 makes a new array, so freezing it leaves the caller's alone
        self.__dict__["ends"] = pairs.astype(np.int64, copy=False) - 1
        super().__post_init__()

    def _raise_first_bad_edge(self, edges):
        """Raise the GraphError naming the first of the given edges that is
        not a pair of distinct integer vertices in 1..n."""
        for k, edge in enumerate(edges.tolist() if isinstance(edges, np.ndarray) else edges, 1):
            if len(edge) != 2:
                raise GraphError(f"edge {k} is not a (tail, head) pair: {tuple(edge)!r}")
            u, v = edge
            if not _integral(edge):
                raise GraphError(f"edge {k} endpoint is not an integer: {tuple(edge)!r}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise GraphError(f"edge {k} endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"edge {k} is a self-loop at vertex {u}")
        raise GraphError("edges must be (tail, head) pairs of integers")

    def __repr__(self):
        return f"DirectedGraph(n={self.n!r}, edges={self.edges!r})"

    @property
    def m(self) -> int:
        return len(self.ends)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The 1-based (tail, head) pairs, in edge order."""
        return tuple(map(tuple, (self.ends + 1).tolist()))


def path_graph(n: int) -> DirectedGraph:
    """Path graph with edges (i, i+1) for i = 1..n-1."""
    if n < 2:
        raise GraphError("path graph needs n >= 2")
    return DirectedGraph(n, np.column_stack([np.arange(1, n), np.arange(2, n + 1)]))


def cycle_graph(n: int) -> DirectedGraph:
    """Cycle graph: path edges plus the closing edge (n, 1) as edge m = n."""
    if n < 3:
        raise GraphError("cycle graph needs n >= 3")
    tails = np.arange(1, n + 1)
    return DirectedGraph(n, np.column_stack([tails, np.roll(tails, -1)]))


def grid_graph(height: int, width: int) -> DirectedGraph:
    """Two dimensional grid, vertices numbered row-major.

    Canonical edge order: all horizontal edges (row-major) first, then all
    vertical edges (row-major).
    """
    if height < 1 or width < 1 or height * width < 2:
        raise GraphError("grid graph needs height*width >= 2")
    vid = np.arange(1, height * width + 1).reshape(height, width)
    horizontal = np.stack([vid[:, :-1], vid[:, 1:]], axis=-1).reshape(-1, 2)
    vertical = np.stack([vid[:-1], vid[1:]], axis=-1).reshape(-1, 2)
    return DirectedGraph(height * width, np.concatenate([horizontal, vertical]))


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
    if not _integral(parents):
        items = parents.tolist() if isinstance(parents, np.ndarray) else parents
        v, p = next((v, p) for v, p in enumerate(items, 2) if not _integral((p,)))
        raise GraphError(f"parent of vertex {v} is not an integer: {p!r}")
    par, child = np.asarray(parents), np.arange(2, n + 1)
    bad = np.flatnonzero((par < 1) | (par > n) | (par == child))
    if len(bad):
        v, p = bad[0] + 2, parents[bad[0]]
        raise GraphError(f"vertex {v} is its own parent" if p == v
                         else f"parent of vertex {v} out of range: {p}")
    # n - 1 parent edges connect all n vertices exactly when they hold no
    # cycle: a component without the root has as many edges as vertices
    edges = np.column_stack([par, child])
    labels = component_labels(n, edges - 1)
    if labels.any():
        v = int(np.argmax(labels > 0)) + 1
        raise GraphError(f"cycle detected in parent array: vertex {v} does not reach the root")
    return DirectedGraph(n, edges)


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


@dataclass(frozen=True, eq=False)
class ActiveSet(_ComparesByValue):
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
    inactive_rows : np.ndarray
        Sorted 0-based int64 indices of the edges not in S: the rows of the
        incidence matrix that the reduced operator keeps, position k being
        row k of the reduced operator (the index map i*).

    The arrays are the state, and read-only: `inactive`, the same edges as a
    1-based tuple, is a view derived from inactive_rows on demand.  Active
    sets compare and hash by their fields, the arrays by their bytes, which
    is by S, n, m and comp_label: S and m give inactive_rows, and comp_label
    gives comp_sizes.
    """

    S: tuple[int, ...]
    n: int
    m: int
    comp_label: np.ndarray
    comp_sizes: tuple[int, ...]
    inactive_rows: np.ndarray = field(repr=False)

    @property
    def inactive(self) -> tuple[int, ...]:
        """The 1-based edges not in S, in row order of the reduced operator."""
        return tuple((self.inactive_rows + 1).tolist())

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
        if k >= len(self.inactive_rows) or self.inactive_rows[k] != i - 1:
            raise ValueError(f"edge {i} is active; i* is defined on -S only")
        return k

    def component_vertices(self) -> list[np.ndarray]:
        """0-based vertex arrays per component, ordered by component id."""
        order = np.argsort(self.comp_label, kind="stable")
        bounds = np.searchsorted(self.comp_label[order], np.arange(self.r_S + 1))
        return [order[bounds[c]:bounds[c + 1]] for c in range(self.r_S)]


def active_set(graph: DirectedGraph, S: Iterable[int]) -> ActiveSet:
    """Component structure of the graph after deleting the edges in S."""
    S = S.tolist() if isinstance(S, np.ndarray) else list(S)
    if not _integral(S):
        bad = next(i for i in S if not _integral((i,)))
        raise GraphError(f"active edge index is not an integer: {bad!r}")
    idx = np.unique(np.fromiter(map(int, S), dtype=object))   # Python ints: none wraps
    bad = idx[(idx < 1) | (idx > graph.m)]
    if len(bad):
        raise GraphError(f"active edge index {bad[0]} outside 1..{graph.m}")
    rows = np.delete(np.arange(graph.m), idx.astype(np.int64) - 1)
    labels = component_labels(graph.n, graph.ends[rows])
    return ActiveSet(S=tuple(idx.tolist()), n=graph.n, m=graph.m, comp_label=labels,
                     comp_sizes=tuple(np.bincount(labels).tolist()), inactive_rows=rows)


def is_admissible(D: sp.spmatrix, active: ActiveSet, ends: np.ndarray | None = None) -> bool:
    """Whether S is realizable as the exact support of Df for some f.

    S is realizable iff for every i in S the projection of row d_i onto the
    nullspace of the reduced operator is nonzero.  For an incidence matrix
    that projection is the componentwise mean of d_i, which vanishes exactly
    when both endpoints of edge i fall in the same component; the test below
    evaluates that projection criterion exactly.  ends, D's 0-based edge
    endpoints, are read from D when not given.
    """
    ends = edge_endpoints(D) if ends is None else ends
    lab = active.comp_label[ends[np.asarray(active.S, dtype=np.int64) - 1]]
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


def format_graph(graph: DirectedGraph) -> str:
    """The plain-text graph format: 'n m' then one 'tail head' per edge."""
    rows = np.vstack([(graph.n, graph.m), graph.ends + 1])
    return ("%d %d\n" * len(rows)) % tuple(rows.ravel().tolist())


def write_graph(graph: DirectedGraph, path: str) -> None:
    """Write the plain-text graph format of :func:`format_graph` to path."""
    with open(path, "w") as fh:
        fh.write(format_graph(graph))


def read_graph(path: str) -> DirectedGraph:
    """Read the plain-text graph format written by :func:`write_graph`."""
    vals = read_numbers(path, int)
    if len(vals) < 2:
        raise GraphError(f"{path}: missing 'n m' header")
    n, m, *vals = vals
    if len(vals) != 2 * m:
        raise GraphError(f"{path}: expected {m} edges, found {len(vals) // 2}")
    return DirectedGraph(n, np.asarray(vals).reshape(m, 2))


def read_active_set(path: str) -> tuple[int, ...]:
    """Read an active-set file: one 1-based edge index per line."""
    return tuple(read_numbers(path, int))


def write_active_set(S: Iterable[int], path: str) -> None:
    with open(path, "w") as fh:
        for i in sorted(set(int(j) for j in S)):
            fh.write(f"{i}\n")
