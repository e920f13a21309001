"""Simple undirected graphs, super graphs over a vertex partition, and the
generalized join, plus a canonical form for joins of cliques. The super
graph, the compressed graph, the join, connectivity and containment each run
one array kernel over a stack of graphs, which the public functions call on
a stack of one; the twin form and ``spectra``'s quotient route share one
more, ``_closed_twin_classes``."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatch,
    CanonicalAmbiguity,
    FormatError,
    InvalidParameter,
    SizeMismatch,
    index,
    instance,
    integer,
    integer_matrix,
    items,
)
from .groups import FiniteGroup
from .partitions import Partition, _json_value

_SEARCH_LIMIT = 40320  # exhaustive tie-break bound: 8! orderings


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
        """Graph of a square matrix of 0s and 1s read by ``errors.integer_matrix``;
        the first other entry raises ``InvalidParameter``."""
        arr = integer_matrix(matrix, "adjacency matrix", nonempty=False)
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
    t = instance(group, FiniteGroup, "group").table
    adj = np.array(t == t.T)
    np.fill_diagonal(adj, False)
    return SimpleGraph._of(adj, group.labels)


def _check_partition(graph: SimpleGraph, partition: Partition) -> None:
    if not (isinstance(graph, SimpleGraph) and isinstance(partition, Partition)):
        raise InvalidParameter("a super graph takes a SimpleGraph and a Partition")
    if partition.ground_size != graph.n:
        raise SizeMismatch(
            f"partition covers {partition.ground_size} points, graph has {graph.n}"
        )


# Array kernels. Each reads a stack of T graphs of one size, (T, n, n) boolean
# adjacencies with their partitions as (T, n) block labels, so that one call
# serves one graph (T = 1, as the public functions below call them) or the
# trials of one size in the generic property suites.

def _clear_diagonal(stack: np.ndarray) -> np.ndarray:
    stack.reshape(len(stack), -1)[:, :: stack.shape[-1] + 1] = False
    return stack


def _cells(labels: np.ndarray, k: int) -> np.ndarray:
    """(T, n, n) map: entry (t, x, y) is the flat index of cell
    (t, labels[t, x], labels[t, y]) of a (T, k, k) array, for labels below k.
    int32, and int64 only when T * k * k reaches 2**31."""
    count = len(labels)
    dtype = np.int32 if count * k * k < 2**31 else np.int64
    labels = labels.astype(dtype, copy=False)
    rows = (np.arange(count, dtype=dtype)[:, None] * k + labels) * k
    return rows[:, :, None] + labels[:, None, :]


def _pairs(stack: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(T, n, n) stack: entry (t, x, y) is stack[t, labels[t, x], labels[t, y]],
    by ``np.take`` through the cell map, which reads int32 indices faster than
    indexing does."""
    return np.take(stack.reshape(-1), _cells(labels, stack.shape[-1]))


def _block_cross(adj: np.ndarray, block_of: np.ndarray, k: int) -> np.ndarray:
    """(T, k, k) stack: blocks i != j adjacent iff some edge joins them, with
    block labels below k. One scatter of the cells of the edges, through
    intp indices, which numpy scatters faster than int32 ones."""
    count = len(block_of)
    cross = np.zeros(count * k * k, dtype=bool)
    cross[_cells(block_of, k)[adj].astype(np.intp)] = True
    return _clear_diagonal(cross.reshape(count, k, k))


def _lift(cross: np.ndarray, block_of: np.ndarray) -> np.ndarray:
    """(T, n, n) stack of super graphs: x ~ y iff x != y and their blocks are
    equal or adjacent in ``cross``, read through ``cross`` with its diagonal set."""
    closed = cross | np.eye(cross.shape[-1], dtype=bool)
    return _clear_diagonal(_pairs(closed, block_of))


def _super_graphs(adj: np.ndarray, block_of: np.ndarray, k: int) -> np.ndarray:
    """(T, n, n) stack of the super graphs of graphs and partitions, block labels below k."""
    return _lift(_block_cross(adj, block_of, k), block_of)


def _join(template: np.ndarray, owner: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """(T, N, N) stack of generalized joins: vertices of different parts are
    adjacent iff their owners are adjacent in ``template``; ``inner`` holds
    the parts on its diagonal blocks, where the template's zero diagonal
    leaves the gathered entries false."""
    return _pairs(template, owner) | inner


def _reach(adj: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """(T, n) masks: the vertices a path of each graph joins to one of its
    ``seeds`` (T, n). Level by level, reading only the rows of the newest
    level; a vertex is in one level, so each row is read at most once."""
    count, n = seeds.shape
    rows_of = adj.reshape(-1, n)
    reached = seeds.copy()
    level = seeds
    while level.any():
        rows = np.flatnonzero(level)  # t * n + v, by trial
        trial = rows // n
        first = np.ones(rows.size, dtype=bool)  # the first row of each trial
        first[1:] = trial[1:] != trial[:-1]
        level = np.zeros((count, n), dtype=bool)
        level[trial[first]] = np.logical_or.reduceat(rows_of[rows], np.flatnonzero(first), axis=0)
        level &= ~reached
        reached |= level
    return reached


def _connected(adj: np.ndarray, counts=None) -> np.ndarray:
    """(T,) whether the first counts[t] vertices of graph t (all when None)
    are connected. The vertices past a count pad the stack: isolated and
    seeded, they are reached however the rest is joined."""
    if counts is None:
        seeds = np.zeros(adj.shape[:2], dtype=bool)
    else:
        seeds = np.arange(adj.shape[-1]) >= counts[:, None]
    seeds[:, 0] = True
    return _reach(adj, seeds).all(axis=1)


def _contained(sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """(T,) whether every edge of sub[t] is an edge of sup[t]."""
    return ~(sub & ~sup).any(axis=(1, 2))


def _closed_twin_classes(adj: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed-twin classes of a (T, k, k) stack with (T, k) vertex
    weights: their adjacency, (T, K, K), and summed weights, (T, K), for K
    the most classes of nonzero weight in any graph of the stack.

    Vertices share a class iff their rows of adj | I are equal, that is iff
    they are adjacent with the same other neighbours, so a join of cliques
    over a graph is one over its classes. Each row, as bytes after its
    trial's index, maps to the first row equal to it. A class is numbered by
    its least vertex, which stands for it in adj; each graph's classes of
    nonzero weight come first, and the slots after them have weight 0."""
    count, k, _ = adj.shape
    keyed = np.empty((count, k, 4 + k), dtype=np.uint8)  # trial index, then row of adj | I
    keyed[:, :, :4] = np.arange(count, dtype="<u4").view(np.uint8).reshape(count, 1, 4)
    keyed[:, :, 4:] = adj
    keyed.reshape(count, -1)[:, 4::k + 5] = 1
    first: dict[bytes, int] = {}
    rows = keyed.reshape(count * k, -1).view(f"V{4 + k}").ravel().tolist()
    least = [first.setdefault(row, r) for r, row in enumerate(rows)]
    sizes = np.zeros(count * k, dtype=np.int64)
    np.add.at(sizes, least, weights.reshape(-1))
    sizes = sizes.reshape(count, k)
    kept = sizes != 0
    order = (~kept).argsort(axis=1, kind="stable")[:, :kept.sum(axis=1).max(initial=0)]
    cases = np.arange(count)[:, None]
    return adj[cases[:, :, None], order[:, :, None], order[:, None, :]], sizes[cases, order]


def super_graph(graph: SimpleGraph, partition: Partition) -> SimpleGraph:
    """Relation-lifted graph: x ~ y iff x != y and either x, y share a block or
    some pair of elements of their blocks is adjacent in the original graph."""
    _check_partition(graph, partition)
    block_of = np.asarray(partition.block_of)[None]
    adj = _super_graphs(graph.adjacency[None], block_of, partition.block_count)[0]
    return SimpleGraph._of(adj, graph.labels)


def compressed_graph(graph: SimpleGraph, partition: Partition) -> SimpleGraph:
    """Quotient graph with one vertex per block; blocks adjacent iff some cross
    edge exists in the original graph."""
    _check_partition(graph, partition)
    block_of = np.asarray(partition.block_of)[None]
    cross = _block_cross(graph.adjacency[None], block_of, partition.block_count)[0]
    labels = None
    if graph.labels is not None:
        labels = ["{" + ",".join(graph.labels[v] for v in b) + "}" for b in partition.blocks]
    return SimpleGraph._of(cross, labels)


def generalized_join(template: SimpleGraph, parts) -> SimpleGraph:
    """Replace vertex i of the template by parts[i] and join parts completely
    whenever the template has the corresponding edge. Vertices are numbered by
    concatenating the parts in order."""
    parts = items(parts, "parts")
    if not all(isinstance(g, SimpleGraph) for g in [template, *parts]):
        raise InvalidParameter("a generalized join takes a SimpleGraph template and parts")
    if len(parts) != template.n:
        raise ArityMismatch(
            f"template has {template.n} vertices but {len(parts)} parts were given"
        )
    sizes = [p.n for p in parts]
    owner = np.repeat(np.arange(template.n), sizes)
    inner = np.zeros((len(owner), len(owner)), dtype=bool)
    for p, end in zip(parts, np.cumsum(sizes).tolist()):
        inner[end - p.n:end, end - p.n:end] = p.adjacency
    labels = None
    if all(p.labels is not None for p in parts) and parts:
        labels = [lab for p in parts for lab in p.labels]
    return SimpleGraph._of(_join(template.adjacency[None], owner[None], inner[None])[0], labels)


def connected_components(graph: SimpleGraph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest vertex."""
    adj = instance(graph, SimpleGraph, "graph").adjacency[None]
    unseen = np.ones(graph.n, dtype=bool)
    comps = []
    while unseen.any():
        seeds = np.zeros((1, graph.n), dtype=bool)
        seeds[0, unseen.argmax()] = True  # the least vertex not yet in a component
        comp = _reach(adj, seeds)[0]
        comps.append(np.flatnonzero(comp).tolist())
        unseen &= ~comp
    return comps


def is_connected(graph: SimpleGraph) -> bool:
    if instance(graph, SimpleGraph, "graph").n < 1:
        raise InvalidParameter("connectivity needs at least one vertex")
    return bool(_connected(graph.adjacency[None])[0])


def is_spanning_subgraph(g1: SimpleGraph, g2: SimpleGraph) -> bool:
    """True when g1 and g2 share a vertex set and every g1 edge is a g2 edge."""
    instance(g1, SimpleGraph, "graph")
    if g1.n != instance(g2, SimpleGraph, "graph").n:
        raise SizeMismatch(f"vertex counts differ: {g1.n} vs {g2.n}")
    return bool(_contained(g1.adjacency[None], g2.adjacency[None])[0])


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


def twin_canonical_form(graph: SimpleGraph) -> TwinForm:
    """Canonicalize the quotient of a graph by its closed-twin classes.

    Classes are colored by (size, degree) and refined by neighbor colors;
    remaining ties are broken by exhaustive permutation within color classes,
    of runs of identical quotient rows rather than of single classes, which
    is feasible because quotients of joins of cliques are tiny. Raises
    CanonicalAmbiguity if the tie-break search space exceeds the bound.
    """
    instance(graph, SimpleGraph, "graph")
    if graph.n < 1:
        raise InvalidParameter("canonical form needs at least one vertex")
    q, sizes = _closed_twin_classes(graph.adjacency[None], np.ones((1, graph.n), dtype=np.int64))
    q, sizes = q[0], sizes[0].tolist()
    k = len(sizes)

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
