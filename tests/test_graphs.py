import random
import re

import numpy as np
import pytest

from supergraph import (
    ArityMismatch,
    InvalidParameter,
    Partition,
    SimpleGraph,
    SizeMismatch,
    commuting_graph,
    complete_graph,
    compressed_graph,
    conjugacy_partition,
    connected_components,
    cyclic,
    dihedral,
    generalized_join,
    generalized_quaternion,
    greatest_partition,
    is_connected,
    is_spanning_subgraph,
    least_partition,
    order_partition,
    star_graph,
    super_graph,
    twin_canonical_form,
)
from supergraph import graphs


def _random_graph(rng, n, p=0.4):
    return SimpleGraph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def _random_partition(rng, n):
    k = rng.randint(1, n)
    blocks = {}
    for v in range(n):
        blocks.setdefault(rng.randrange(k), []).append(v)
    return Partition(n, blocks.values())


def test_basic_constructions():
    assert complete_graph(3).edge_count == 3
    assert complete_graph(1).edge_count == 0
    s = star_graph(3)  # path on 3 vertices
    assert s.degree(0) == 2
    assert sorted(s.degrees()) == [1, 1, 2]
    with pytest.raises(InvalidParameter):
        star_graph(1)
    with pytest.raises(InvalidParameter):
        complete_graph(0)


def test_equal_graphs_hash_equal():
    g, h = SimpleGraph(3, [(0, 1)]), SimpleGraph(3, [(1, 0)])
    assert g == h and hash(g) == hash(h)


def test_from_adjacency_validation():
    with pytest.raises(InvalidParameter):
        SimpleGraph.from_adjacency([[0, 1], [0, 0]])
    with pytest.raises(InvalidParameter):
        SimpleGraph.from_adjacency([[1, 0], [0, 0]])
    g = SimpleGraph.from_adjacency([[0, 1], [1, 0]])
    assert g.edges() == [(0, 1)]


@pytest.mark.parametrize("entry", [2, -1, 0.5, float("nan"), "x", None, ""])
def test_from_adjacency_names_an_entry_that_is_not_0_or_1(entry):
    rule = "0 or 1" if isinstance(entry, int) else "an integer"  # integers by the one rule
    message = f"^adjacency matrix entry {re.escape(repr(entry))} at \\(0, 1\\) is not {rule}$"
    with pytest.raises(InvalidParameter, match=message):
        SimpleGraph.from_adjacency([[0, entry], [entry, 0]])


def test_from_adjacency_reads_0_and_1_as_bools_integers_or_floats():
    for one in (True, 1, 1.0, np.int8(1), np.float32(1.0)):
        matrix = [[0, one, 0], [one, 0, False], [0.0, 0, 0]]
        assert SimpleGraph.from_adjacency(matrix).edges() == [(0, 1)]
    matrix = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=np.uint8)
    assert SimpleGraph.from_adjacency(matrix) == SimpleGraph(3, [(0, 2)])


def test_commuting_graph_abelian_is_complete():
    g = commuting_graph(cyclic(4))
    assert g == complete_graph(g.n)


def test_commuting_graph_d6():
    g = commuting_graph(dihedral(3))
    assert g.degree(3) == 1  # a reflection commutes with e only
    assert g.neighbors(3) == [0]
    for grp in (dihedral(5), generalized_quaternion(2)):
        cg = commuting_graph(grp)
        assert cg.degree(grp.identity) == grp.order - 1


def _example_path():
    # three vertices, single edge between the last two
    return SimpleGraph(3, [(1, 2)]), Partition(3, [[0, 1], [2]])


def test_super_graph_worked_example():
    graph, part = _example_path()
    sup = super_graph(graph, part)
    assert sup == complete_graph(3)


def test_super_graph_extreme_relations():
    rng = random.Random(7)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 8))
        assert super_graph(g, least_partition(g.n)) == g
        assert super_graph(g, greatest_partition(g.n)) == complete_graph(g.n)


def test_super_graph_invariants_random():
    rng = random.Random(11)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(2, 9))
        p = _random_partition(rng, g.n)
        sup = super_graph(g, p)
        assert is_spanning_subgraph(g, sup)
        for block in p.blocks:
            assert sup.induced_subgraph(block) == complete_graph(len(block))


def test_super_graph_size_mismatch():
    g = complete_graph(3)
    with pytest.raises(SizeMismatch):
        super_graph(g, least_partition(4))


def test_compressed_graph_worked_example():
    graph, part = _example_path()
    comp = compressed_graph(graph, part)
    assert comp.n == 2 and comp.edges() == [(0, 1)]
    # the original graph is disconnected although the compressed graph is
    # connected; one block induces a disconnected subgraph, so the converse
    # connectivity criterion does not apply
    assert not is_connected(graph)
    assert is_connected(comp)
    assert not is_connected(graph.induced_subgraph(part.blocks[0]))


def test_compressed_graph_least_is_identity():
    rng = random.Random(3)
    g = _random_graph(rng, 7)
    assert compressed_graph(g, least_partition(7)) == g


def test_compressed_graph_d6_order_is_star():
    d6 = dihedral(3)
    comp = compressed_graph(commuting_graph(d6), order_partition(d6))
    assert comp.edges() == [(0, 1), (0, 2)]
    assert comp.labels[0] == "{e}"


def test_generalized_join_is_usual_join_for_k2():
    g1 = SimpleGraph(2, [(0, 1)])
    g2 = SimpleGraph(3, [(0, 1)])
    join = generalized_join(complete_graph(2), [g1, g2])
    expected = {(0, 1), (2, 3)} | {(i, j) for i in (0, 1) for j in (2, 3, 4)}
    assert set(join.edges()) == expected


def test_generalized_join_star_example():
    join = generalized_join(
        star_graph(3), [complete_graph(1), complete_graph(2), complete_graph(3)]
    )
    assert join.n == 6
    assert join.edge_count == 9  # 0+1+3 internal, 1*2+1*3 across


def test_generalized_join_edgeless_is_disjoint_union():
    parts = [complete_graph(2), complete_graph(3)]
    join = generalized_join(SimpleGraph(2), parts)
    assert join.edge_count == 1 + 3
    assert len(connected_components(join)) == 2


def test_generalized_join_concatenates_the_parts_labels():
    parts = [complete_graph(1, labels=["a"]), complete_graph(2, labels=["b", "c"])]
    assert generalized_join(complete_graph(2), parts).labels == ("a", "b", "c")
    parts[1] = complete_graph(2)  # one unlabelled part: the join has no labels
    assert generalized_join(complete_graph(2), parts).labels is None


def test_generalized_join_arity():
    with pytest.raises(ArityMismatch):
        generalized_join(star_graph(3), [complete_graph(1)])


def test_join_of_cliques_equals_super_graph_blockwise():
    rng = random.Random(23)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(2, 9))
        p = _random_partition(rng, g.n)
        sup = super_graph(g, p)
        join = generalized_join(
            compressed_graph(g, p), [complete_graph(s) for s in p.sizes]
        )
        perm = [v for block in p.blocks for v in block]
        assert sup.induced_subgraph(perm) == join


def _random_stacks(rng, count):
    """Stacks as the array kernels read them, with their per-trial lists:
    T graphs on n vertices, labels below k (some values left unused when k
    is past the largest drawn), k = 1 among them, and an arbitrary (T, k, k)
    boolean stack and (T, n, n) inner stack for the gathers."""
    for _ in range(count):
        t, n = rng.randint(1, 30), rng.randint(1, 20)
        k = rng.choice([1, rng.randint(1, n), rng.randint(1, n) + rng.randint(0, 5)])
        labels = [[rng.randrange(k) for _ in range(n)] for _ in range(t)]
        adj = [_random_graph(rng, n, rng.random()).adjacency.tolist() for _ in range(t)]
        square = [[[rng.random() < 0.5 for _ in range(k)] for _ in range(k)] for _ in range(t)]
        inner = [[[rng.random() < 0.3 for _ in range(n)] for _ in range(n)] for _ in range(t)]
        yield k, labels, adj, square, inner


def test_array_kernels_match_their_per_trial_definitions():
    rng = random.Random(31)
    seen = set()
    for k, labels, adj, square, inner in _random_stacks(rng, 60):
        t_range, n_range = range(len(labels)), range(len(labels[0]))
        seen.add("k = 1" if k == 1 else "unused" if any(len(set(row)) < k for row in labels)
                 else "all used")
        block_of = np.array(labels)
        cross = [[[i != j and any(adj[t][x][y] and labels[t][x] == i and labels[t][y] == j
                                  for x in n_range for y in n_range)
                   for j in range(k)] for i in range(k)] for t in t_range]
        pairs = [[[square[t][labels[t][x]][labels[t][y]] for y in n_range] for x in n_range]
                 for t in t_range]
        lifted = [[[x != y and (labels[t][x] == labels[t][y] or square[t][labels[t][x]][labels[t][y]])
                    for y in n_range] for x in n_range] for t in t_range]
        sup = [[[x != y and (labels[t][x] == labels[t][y] or any(
                    adj[t][u][v] for u in n_range if labels[t][u] == labels[t][x]
                    for v in n_range if labels[t][v] == labels[t][y]))
                 for y in n_range] for x in n_range] for t in t_range]
        joined = [[[square[t][labels[t][x]][labels[t][y]] or inner[t][x][y] for y in n_range]
                   for x in n_range] for t in t_range]
        assert graphs._block_cross(np.array(adj), block_of, k).tolist() == cross
        assert graphs._pairs(np.array(square), block_of).tolist() == pairs
        assert graphs._lift(np.array(square), block_of).tolist() == lifted
        assert graphs._super_graphs(np.array(adj), block_of, k).tolist() == sup
        assert graphs._join(np.array(square), block_of, np.array(inner)).tolist() == joined
    assert seen == {"k = 1", "unused", "all used"}


@pytest.mark.parametrize("count, k, dtype", [
    (1, 46340, np.int32),  # 46340**2 < 2**31
    (1, 46341, np.int64),  # 46341**2 > 2**31
    (2, 32767, np.int32),
    (2, 32768, np.int64),  # 2 * 32768**2 == 2**31
])
def test_cell_map_widens_to_int64_when_the_cells_reach_2_31(count, k, dtype):
    labels = np.array([[0, k - 1, k - 1], [k - 1, 0, 1]])[:count]
    cells = graphs._cells(labels, k)
    assert cells.dtype == dtype
    assert cells.tolist() == [[[(t * k + a) * k + b for b in row] for a in row]
                              for t, row in enumerate(labels.tolist())]


def _brute_closed_twin_classes(rho):
    """The vertices of a template grouped by their rows of rho | I, each
    class as its vertices in order, the classes ordered by least vertex."""
    classes = {}
    for i, row in enumerate((np.asarray(rho, dtype=bool) | np.eye(len(rho), dtype=bool))
                            .tolist()):
        classes.setdefault(tuple(row), []).append(i)
    return list(classes.values())


def _with_twin(adjacency, v, closed):
    """The template with one more vertex whose neighbours are v's, and v too
    if ``closed``: a closed or an open twin of v."""
    k = len(adjacency)
    out = np.zeros((k + 1, k + 1), dtype=bool)
    out[:k, :k] = adjacency
    out[k, :k] = out[:k, k] = adjacency[v]
    out[k, v] = out[v, k] = closed
    return out


def test_closed_twin_kernel_matches_its_per_trial_definition():
    rng = random.Random(33)
    seen = set()
    for _ in range(60):
        count, k = rng.randint(1, 30), rng.choice([1, rng.randint(1, 20)])
        stack, weights = np.zeros((count, k, k), dtype=bool), np.zeros((count, k), dtype=np.int64)
        expected = []
        for t in range(count):
            real = rng.randint(1, k)  # the rest are isolated pad slots of weight 0
            adjacency = _random_graph(rng, rng.randint(1, real), rng.random()).adjacency
            while len(adjacency) < real:
                closed = rng.random() < 0.5
                seen.add("closed twin" if closed else "open twin")
                adjacency = _with_twin(adjacency, rng.randrange(len(adjacency)), closed)
            stack[t, :real, :real] = adjacency
            weights[t, :real] = [rng.randint(1, 4) for _ in range(real)]
            seen.add("padded" if real < k else "full")
            classes = [c for c in _brute_closed_twin_classes(stack[t])
                       if sum(weights[t, c]) > 0]
            expected.append(([[bool(stack[t, c[0], d[0]]) for d in classes] for c in classes],
                             [int(sum(weights[t, c])) for c in classes]))
        adj, sizes = graphs._closed_twin_classes(stack, weights)
        width = max(len(s) for _, s in expected)
        assert adj.shape == (count, width, width) and sizes.shape == (count, width)
        for t, (rho, n) in enumerate(expected):
            assert adj[t, :len(n), :len(n)].tolist() == rho
            assert sizes[t].tolist() == n + [0] * (width - len(n))
        seen.update(case for case, drawn in (("T = 1", count == 1), ("k = 1", k == 1)) if drawn)
    assert seen == {"closed twin", "open twin", "padded", "full", "T = 1", "k = 1"}


def test_connectivity():
    assert is_connected(complete_graph(1))
    assert not is_connected(SimpleGraph(2))
    join = generalized_join(
        star_graph(3), [SimpleGraph(2), complete_graph(2), SimpleGraph(1)]
    )
    assert is_connected(join)
    with pytest.raises(InvalidParameter):
        is_connected(SimpleGraph(0))


def _path_graph(n):
    return SimpleGraph(n, [(v, v + 1) for v in range(n - 1)])


def test_connectivity_against_networkx():
    # random graphs around the connectivity threshold, and paths, whose
    # reach from vertex 0 takes one level per vertex
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    graphs = [_random_graph(rng, n, p) for n in (1, 2, 5, 12, 30) for p in (0.05, 0.15, 0.4)
              for _ in range(4)]
    graphs += [_path_graph(n) for n in (1, 2, 3, 64)]
    graphs += [SimpleGraph(n, _path_graph(n).edges()[::-1][:-1]) for n in (5, 40)]  # 0 cut off
    for g in graphs:
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        assert is_connected(g) == nx.is_connected(ref)
        assert connected_components(g) == sorted(
            (sorted(c) for c in nx.connected_components(ref)), key=lambda c: c[0])
    assert connected_components(SimpleGraph(0)) == []


def test_connectivity_of_compressed_graph_random():
    rng = random.Random(5)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(2, 9))
        p = _random_partition(rng, g.n)
        comp = compressed_graph(g, p)
        if is_connected(g):
            assert is_connected(comp)
        if is_connected(comp) and all(
            is_connected(g.induced_subgraph(b)) for b in p.blocks
        ):
            assert is_connected(g)


def test_spanning_subgraph():
    g = complete_graph(3)
    assert is_spanning_subgraph(g, g)
    path = SimpleGraph(3, [(0, 1), (1, 2)])
    assert is_spanning_subgraph(path, g)
    assert not is_spanning_subgraph(g, path)
    with pytest.raises(SizeMismatch):
        is_spanning_subgraph(g, complete_graph(4))


def test_conjugacy_super_spans_order_super():
    for grp in (dihedral(4), dihedral(6), generalized_quaternion(3)):
        base = commuting_graph(grp)
        dc = super_graph(base, conjugacy_partition(grp))
        do = super_graph(base, order_partition(grp))
        assert is_spanning_subgraph(dc, do)


def test_twin_form_complete_graph():
    form = twin_canonical_form(complete_graph(5))
    assert form.sizes == (5,)
    assert form.edges == ()
    assert form.describe() == "K_5"


def test_twin_form_q8_conjugacy_super():
    q8 = generalized_quaternion(2)
    built = super_graph(commuting_graph(q8), conjugacy_partition(q8))
    explicit = generalized_join(star_graph(4), [complete_graph(2)] * 4)
    assert twin_canonical_form(built) == twin_canonical_form(explicit)
    assert twin_canonical_form(built).describe() == "K_{1,3}[K_2, K_2, K_2, K_2]"


def test_twin_form_d12_q12_cross_family():
    d12 = dihedral(6)
    q12 = generalized_quaternion(3)
    f1 = twin_canonical_form(super_graph(commuting_graph(d12), conjugacy_partition(d12)))
    f2 = twin_canonical_form(super_graph(commuting_graph(q12), conjugacy_partition(q12)))
    assert f1 == f2
    # the common form: dominant pair joined to two separate cliques
    assert f1.describe() == "K_{1,2}[K_2, K_4, K_6]"


def test_twin_form_distinguishes_different_joins():
    a = generalized_join(star_graph(3), [complete_graph(s) for s in (1, 2, 3)])
    b = generalized_join(star_graph(3), [complete_graph(s) for s in (2, 2, 2)])
    assert twin_canonical_form(a) != twin_canonical_form(b)


def test_twin_form_of_a_join_that_is_not_a_star():
    cycle = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    form = twin_canonical_form(cycle)
    assert form.sizes == (1, 1, 1, 1)
    assert form.describe() == "Join(edges=[(0, 2), (0, 3), (1, 2), (1, 3)])[K_1, K_1, K_1, K_1]"


def test_twin_form_needs_a_vertex():
    with pytest.raises(InvalidParameter, match="at least one vertex"):
        twin_canonical_form(SimpleGraph(0))


def test_twin_form_invariant_under_relabeling():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randint(1, 4)
        template = _random_graph(rng, k, 0.5)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        join = generalized_join(template, [complete_graph(s) for s in sizes])
        perm = list(range(join.n))
        rng.shuffle(perm)
        shuffled = join.induced_subgraph(perm)
        assert twin_canonical_form(join) == twin_canonical_form(shuffled)


def test_twin_form_refines_colors_past_size_and_degree():
    # The 12-vertex path has no closed twins. Size and degree leave its ten
    # inner vertices one color, 2! 10! = 7,257,600 orderings, past the 8!
    # bound; the refining rounds split them by distance from an end into six
    # pairs, 2^6 orderings.
    nx = pytest.importorskip("networkx")
    from supergraph import graphs

    path = _path_graph(12)
    colors = graphs._refine_colors(path.adjacency, [1] * 12)
    assert sorted(colors) == sorted(list(range(6)) * 2)
    assert all(colors[v] == colors[11 - v] for v in range(12))
    form = twin_canonical_form(path)
    assert form.sizes == (1,) * 12 and len(form.edges) == 11

    def networkx_graph(g):
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        return ref

    rng = random.Random(41)
    for _ in range(10):
        perm = list(range(12))
        rng.shuffle(perm)
        shuffled = path.induced_subgraph(perm)
        assert nx.vf2pp_is_isomorphic(networkx_graph(path), networkx_graph(shuffled))
        assert twin_canonical_form(shuffled) == form
    # an 8-vertex path beside a 4-cycle: the same degree sequence, not isomorphic
    other = SimpleGraph(12, [(v, v + 1) for v in range(7)] + [(8, 9), (9, 10), (10, 11), (8, 11)])
    assert sorted(other.adjacency.sum(axis=1)) == sorted(path.adjacency.sum(axis=1))
    assert not nx.vf2pp_is_isomorphic(networkx_graph(path), networkx_graph(other))
    assert twin_canonical_form(other) != form


def test_json_round_trip_and_dot():
    g = SimpleGraph(3, [(0, 2), (0, 1)], labels=["e", "a", "b"])
    assert g.to_json_dict() == {
        "n": 3,
        "edges": [[0, 1], [0, 2]],
        "labels": ["e", "a", "b"],
    }
    assert SimpleGraph.from_json(g.to_json()) == g
    dot = g.to_dot()
    assert dot == (
        "graph G {\n"
        '  0 [label="e"];\n'
        '  1 [label="a"];\n'
        '  2 [label="b"];\n'
        "  0 -- 1;\n"
        "  0 -- 2;\n"
        "}\n"
    )


def test_dot_of_an_unlabelled_graph():
    assert SimpleGraph(3, [(0, 2)]).to_dot("H") == "graph H {\n  0;\n  1;\n  2;\n  0 -- 2;\n}\n"


def test_dot_escapes_labels():
    g = SimpleGraph(2, [(0, 1)], labels=['a"b', "c\\d"])
    assert g.to_dot().splitlines()[1:3] == [
        '  0 [label="a\\"b"];',
        '  1 [label="c\\\\d"];',
    ]


def test_adjacency_and_laplacian_matrices():
    g = star_graph(4)
    a = g.adjacency_matrix()
    lap = g.laplacian_matrix()
    assert a.sum() == 2 * g.edge_count
    assert np.array_equal(lap, np.diag([3, 1, 1, 1]) - a)
    assert lap.sum() == 0
