"""Simple undirected graphs, super graphs over a vertex partition, and the
generalized join, plus a canonical form for joins of cliques."""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatch,
    CanonicalAmbiguity,
    FormatError,
    InvalidParameter,
    SizeMismatch,
    index,
    integer,
    items,
)
from .partitions import Partition, _json_value

_SEARCH_LIMIT = 40320  # exhaustive tie-break bound: 8! orderings


def _is_binary(value) -> bool:
    """Whether a matrix entry is the integer 0 or 1 by ``errors.integer``."""
    try:
        return integer(value, "entry") in (0, 1)
    except InvalidParameter:
        return False


class SimpleGraph:
    """Finite simple undirected graph on vertices 0..n-1.

    Stored as a symmetric boolean adjacency matrix with a zero diagonal;
    immutable after construction.
    """

    __slots__ = ("_adj", "_labels")

    def __init__(self, n: int, edges=(), labels=None):
        n = integer(n, "vertex count", least=0)
        adj = np.zeros((n, n), dtype=bool)
        try:
            for i, j in edges:
                if not (type(i) is type(j) is int):
                    i, j = integer(i, "edge end"), integer(j, "edge end")
                if not (0 <= i < n and 0 <= j < n):
                    raise InvalidParameter(f"edge ({i}, {j}) outside vertex range")
                if i == j:
                    raise InvalidParameter(f"loop at vertex {i} not allowed")
                adj[i, j] = adj[j, i] = True
        except (TypeError, ValueError):  # edges, or an edge, not a pair
            raise InvalidParameter("edges must be pairs of vertex indices") from None
        self._finish(adj, labels)

    def _finish(self, adj, labels):
        adj.setflags(write=False)
        self._adj = adj
        if labels is not None:
            labels = tuple(map(str, items(labels, "labels")))
            if len(labels) != adj.shape[0]:
                raise InvalidParameter("label count must equal vertex count")
        self._labels = labels

    @classmethod
    def _of(cls, adj, labels=None) -> "SimpleGraph":
        """Graph on a fresh boolean adjacency already symmetric with zero diagonal."""
        g = cls.__new__(cls)
        g._finish(adj, labels)
        return g

    @classmethod
    def from_adjacency(cls, matrix, labels=None) -> "SimpleGraph":
        """Graph of a square matrix of 0s and 1s, each a bool, an integer or an
        integer-valued float; the first other entry raises ``InvalidParameter``."""
        try:
            arr = np.asarray(matrix)
            if arr.dtype.kind not in "biuf":  # text, complex or mixed: keep each entry's type
                arr = np.asarray(matrix, dtype=object)
        except ValueError:  # ragged rows
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParameter("adjacency matrix must be square")
        if arr.dtype == object:
            binary = np.frompyfunc(_is_binary, 1, 1)(arr).astype(bool)
        else:
            binary = (arr == 0) | (arr == 1)
        if not binary.all():
            i, j = np.argwhere(~binary)[0].tolist()
            raise InvalidParameter(f"adjacency matrix entry {arr.item(i, j)!r} at ({i}, {j}) "
                                   "is not 0 or 1")
        arr = arr.astype(bool)
        if not np.array_equal(arr, arr.T):
            raise InvalidParameter("adjacency matrix must be symmetric")
        if arr.diagonal().any():
            raise InvalidParameter("adjacency matrix must have zero diagonal")
        return cls._of(arr, labels)

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        return self._adj

    @property
    def labels(self):
        return self._labels

    def degree(self, v: int) -> int:
        return int(self._adj[index(v, "vertex", self.n)].sum())

    def degrees(self) -> np.ndarray:
        return self._adj.sum(axis=1).astype(np.int64)

    @property
    def edge_count(self) -> int:
        return int(self._adj.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) with i < j, sorted lexicographically."""
        iu, ju = np.nonzero(np.triu(self._adj, 1))
        return [(int(i), int(j)) for i, j in zip(iu, ju)]

    def neighbors(self, v: int) -> list[int]:
        return [int(u) for u in np.nonzero(self._adj[index(v, "vertex", self.n)])[0]]

    def induced_subgraph(self, vertices) -> "SimpleGraph":
        n = self.n
        verts = [v if type(v) is int and 0 <= v < n else index(v, "vertex", n)
                 for v in items(vertices, "vertices")]
        sub = self._adj[np.ix_(verts, verts)].copy()
        labels = None if self._labels is None else [self._labels[v] for v in verts]
        return SimpleGraph._of(sub, labels)

    def adjacency_matrix(self) -> np.ndarray:
        return self._adj.astype(np.int64)

    def laplacian_matrix(self) -> np.ndarray:
        a = self.adjacency_matrix()
        return np.diag(a.sum(axis=1)) - a

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._adj, other._adj)

    def __hash__(self) -> int:
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edge_count})"

    def to_json_dict(self) -> dict:
        data = {"n": self.n, "edges": [[i, j] for i, j in self.edges()]}
        if self._labels is not None:
            data["labels"] = list(self._labels)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data) -> "SimpleGraph":
        """Graph from ``{"n": int, "edges": [[int, int], ...], "labels": [str, ...]}``,
        edges and labels optional; any other shape raises ``FormatError``."""
        edges = data.get("edges", []) if isinstance(data, dict) else None
        if not (isinstance(edges, list) and type(data.get("n")) is int
                and all(isinstance(e, list) and len(e) == 2 and type(e[0]) is type(e[1]) is int
                        for e in edges)
                and isinstance(data.get("labels", []), (list, type(None)))):
            raise FormatError('a graph must be {"n": int, "edges": [[int, int], ...]}')
        return cls(data["n"], edges=edges, labels=data.get("labels"))

    @classmethod
    def from_json(cls, text: str) -> "SimpleGraph":
        return cls.from_json_dict(_json_value(text))

    def to_dot(self, name: str = "G") -> str:
        lines = [f"graph {name} {{"]
        for v in range(self.n):
            if self._labels is not None:
                label = self._labels[v].replace("\\", "\\\\").replace('"', '\\"')
                lines.append(f'  {v} [label="{label}"];')
            else:
                lines.append(f"  {v};")
        for i, j in self.edges():
            lines.append(f"  {i} -- {j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def complete_graph(n: int, labels=None) -> SimpleGraph:
    n = integer(n, "complete graph vertex count", least=1)
    return SimpleGraph._of(~np.eye(n, dtype=bool), labels)


def star_graph(k: int) -> SimpleGraph:
    """Star on k vertices with center 0 (every other vertex is a leaf)."""
    k = integer(k, "star graph vertex count", least=2)
    adj = np.zeros((k, k), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    return SimpleGraph._of(adj)


def commuting_graph(group) -> SimpleGraph:
    """Graph on the group's elements; distinct elements adjacent iff they commute."""
    t = group.table
    adj = np.array(t == t.T)
    np.fill_diagonal(adj, False)
    return SimpleGraph._of(adj, group.labels)


def _check_partition(graph: SimpleGraph, partition: Partition) -> None:
    if partition.ground_size != graph.n:
        raise SizeMismatch(
            f"partition covers {partition.ground_size} points, graph has {graph.n}"
        )


def _block_cross_adjacency(graph: SimpleGraph, partition: Partition) -> np.ndarray:
    """k x k matrix: blocks i != j adjacent iff some cross edge exists."""
    k = partition.block_count
    bo = np.asarray(partition.block_of)
    cross = np.zeros((k, k), dtype=bool)
    iu, ju = np.nonzero(graph.adjacency)
    cross[bo[iu], bo[ju]] = True
    np.fill_diagonal(cross, False)
    return cross


def super_graph(graph: SimpleGraph, partition: Partition) -> SimpleGraph:
    """Relation-lifted graph: x ~ y iff x != y and either x, y share a block or
    some pair of elements of their blocks is adjacent in the original graph."""
    _check_partition(graph, partition)
    bo = np.asarray(partition.block_of)
    cross = _block_cross_adjacency(graph, partition)
    same = bo[:, None] == bo[None, :]
    adj = same | cross[bo[:, None], bo[None, :]]
    np.fill_diagonal(adj, False)
    return SimpleGraph._of(adj, graph.labels)


def compressed_graph(graph: SimpleGraph, partition: Partition) -> SimpleGraph:
    """Quotient graph with one vertex per block; blocks adjacent iff some cross
    edge exists in the original graph."""
    _check_partition(graph, partition)
    cross = _block_cross_adjacency(graph, partition)
    labels = None
    if graph.labels is not None:
        labels = ["{" + ",".join(graph.labels[v] for v in b) + "}" for b in partition.blocks]
    return SimpleGraph._of(cross, labels)


def generalized_join(template: SimpleGraph, parts) -> SimpleGraph:
    """Replace vertex i of the template by parts[i] and join parts completely
    whenever the template has the corresponding edge. Vertices are numbered by
    concatenating the parts in order."""
    parts = list(parts)
    if not all(isinstance(g, SimpleGraph) for g in [template, *parts]):
        raise InvalidParameter("a generalized join takes a SimpleGraph template and parts")
    if len(parts) != template.n:
        raise ArityMismatch(
            f"template has {template.n} vertices but {len(parts)} parts were given"
        )
    sizes = [p.n for p in parts]
    owner = np.repeat(np.arange(template.n), sizes)
    # Vertices of different parts are adjacent iff their owners are; the
    # template's zero diagonal leaves the diagonal blocks to the parts.
    adj = template.adjacency[np.ix_(owner, owner)]
    for p, end in zip(parts, np.cumsum(sizes).tolist()):
        adj[end - p.n:end, end - p.n:end] = p.adjacency
    labels = None
    if all(p.labels is not None for p in parts) and parts:
        labels = [lab for p in parts for lab in p.labels]
    return SimpleGraph._of(adj, labels)


def connected_components(graph: SimpleGraph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest vertex."""
    n = graph.n
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in np.nonzero(graph.adjacency[v])[0]:
                u = int(u)
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def is_connected(graph: SimpleGraph) -> bool:
    if graph.n < 1:
        raise InvalidParameter("connectivity needs at least one vertex")
    return len(connected_components(graph)) == 1


def is_spanning_subgraph(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    """True when g1 and g2 share a vertex set and every g1 edge is a g2 edge."""
    if g1.n != g2.n:
        raise SizeMismatch(f"vertex counts differ: {g1.n} vs {g2.n}")
    return not np.any(g1.adjacency & ~g2.adjacency)


@dataclass(frozen=True)
class TwinForm:
    """Canonical form of a graph as a join of cliques over its twin classes.

    ``sizes[i]`` is the size of the i-th twin class and ``edges`` is the
    quotient adjacency, both in a canonical vertex order: two graphs that are
    generalized joins of cliques are isomorphic iff their forms are equal.
    """

    sizes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def describe(self) -> str:
        k = len(self.sizes)
        if k == 1:
            return f"K_{self.sizes[0]}"
        nbrs = [set() for _ in range(k)]
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        centers = [v for v in range(k) if len(nbrs[v]) == k - 1]
        if len(centers) == 1 and len(self.edges) == k - 1:
            c = centers[0]
            outer = [self.sizes[v] for v in range(k) if v != c]
            inner = ", ".join(f"K_{s}" for s in [self.sizes[c]] + outer)
            return f"K_{{1,{k - 1}}}[{inner}]"
        inner = ", ".join(f"K_{s}" for s in self.sizes)
        return f"Join(edges={list(self.edges)})[{inner}]"


def _twin_classes(graph: SimpleGraph) -> list[list[int]]:
    closed = graph.adjacency.copy()
    np.fill_diagonal(closed, True)
    groups: dict[bytes, list[int]] = {}
    for v in range(graph.n):
        groups.setdefault(closed[v].tobytes(), []).append(v)
    return sorted(groups.values(), key=lambda g: g[0])


def twin_canonical_form(graph: SimpleGraph) -> TwinForm:
    """Canonicalize the quotient of a graph by its closed-twin classes.

    Classes are colored by (size, degree) and refined by neighbor colors;
    remaining ties are broken by exhaustive permutation within color classes,
    of runs of identical quotient rows rather than of single classes, which
    is feasible because quotients of joins of cliques are tiny. Raises
    CanonicalAmbiguity if the tie-break search space exceeds the bound.
    """
    if graph.n < 1:
        raise InvalidParameter("canonical form needs at least one vertex")
    classes = _twin_classes(graph)
    k = len(classes)
    sizes = [len(c) for c in classes]
    reps = [c[0] for c in classes]
    q = graph.adjacency[np.ix_(reps, reps)]

    colors = _refine_colors(q, sizes)
    order = _canonical_order(q, colors)
    pos = {v: i for i, v in enumerate(order)}
    edges = sorted(
        (min(pos[i], pos[j]), max(pos[i], pos[j]))
        for i in range(k)
        for j in range(i + 1, k)
        if q[i, j]
    )
    return TwinForm(tuple(sizes[v] for v in order), tuple(edges))


def _refine_colors(q: np.ndarray, sizes: list[int]) -> list[int]:
    k = len(sizes)
    signature = [(sizes[v], int(q[v].sum())) for v in range(k)]
    ranks = {sig: r for r, sig in enumerate(sorted(set(signature)))}
    colors = [ranks[sig] for sig in signature]
    for _ in range(k):
        signature = [
            (colors[v], tuple(sorted(colors[u] for u in range(k) if q[v, u])))
            for v in range(k)
        ]
        ranks = {sig: r for r, sig in enumerate(sorted(set(signature)))}
        new_colors = [ranks[sig] for sig in signature]
        if new_colors == colors:
            break
        colors = new_colors
    return colors


def _canonical_order(q: np.ndarray, colors: list[int]) -> list[int]:
    # Vertices of one color with identical rows of q give the same matrix in
    # either order, so only runs of them, each contiguous and in index order,
    # are permuted. That set of orderings is isomorphism-invariant, so the
    # least upper triangle over it is still canonical.
    k = len(colors)
    groups: dict[int, dict[bytes, list[int]]] = {}
    for v in range(k):
        groups.setdefault(colors[v], {}).setdefault(q[v].tobytes(), []).append(v)
    ordered_groups = [list(groups[c].values()) for c in sorted(groups)]
    space = math.prod(math.factorial(len(g)) for g in ordered_groups)
    if space > _SEARCH_LIMIT:
        raise CanonicalAmbiguity(
            f"tie-break search space of {space} orderings exceeds {_SEARCH_LIMIT}"
        )
    best_bits = None
    best_order = None
    for perms in itertools.product(*(itertools.permutations(g) for g in ordered_groups)):
        order = [v for perm in perms for run in perm for v in run]
        bits = tuple(
            int(q[order[i], order[j]]) for i in range(k) for j in range(i + 1, k)
        )
        if best_bits is None or bits < best_bits:
            best_bits = bits
            best_order = order
    return best_order
