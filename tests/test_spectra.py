import json
import math
import random

import numpy as np
import pytest

from supergraph import (
    InvalidParameter,
    NoConvergence,
    NoSignChange,
    NotSymmetric,
    Partition,
    PolynomialZ,
    SimpleGraph,
    SizeMismatch,
    Spectrum,
    char_poly_integer,
    commuting_graph,
    complete_graph,
    dihedral,
    generalized_join,
    generalized_quaternion,
    conjugacy_partition,
    greatest_partition,
    grouped_match,
    interlacing_check,
    jacobi_eigenvalues,
    least_partition,
    multiset_match,
    order_partition,
    quotient_spectrum,
    real_root_isolate,
    spectrum_from_integer_charpoly,
    star_graph,
    star_join_laplacian_spectrum,
    super_adjacency_charpoly,
    super_charpolys,
    super_graph,
    super_laplacian_charpoly,
)
from supergraph.spectra import _quotient

# frozen by bisection (independent of the quotient pipeline); the trace
# identity alpha+beta+gamma = 3 pins them down
D6_CUBIC_ROOTS = (-1.6016791319, 1.3398768866, 3.2618022453)


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


# ---------------------------------------------------------------------------
# Spectrum

def test_spectrum_merging_and_order():
    s = Spectrum([(3, 1), (0, 2), (3, 2), (1, 0)])
    assert s.pairs == ((0, 2), (3, 3))
    assert s.total_multiplicity == 5
    assert s.expand() == [0.0, 0.0, 3.0, 3.0, 3.0]
    assert str(s) == "0(x2), 3(x3)"


def test_spectrum_json_round_trip():
    s = Spectrum([(1 - math.sqrt(7), 1), (-1, 4), (2, 1), (1 + math.sqrt(7), 1)])
    data = json.loads(s.to_json())
    assert data == s.to_json_dict()
    values = [e["value"] for e in data["eigenvalues"]]
    assert values == [1 - math.sqrt(7), -1, 2, 1 + math.sqrt(7)]
    assert [type(v) for v in values] == [float, int, int, float]
    mults = [e["multiplicity"] for e in data["eigenvalues"]]
    assert mults == [1, 4, 1, 1]
    assert all(type(m) is int for m in mults)


# ---------------------------------------------------------------------------
# Jacobi

def test_jacobi_complete_graph():
    s = jacobi_eigenvalues(complete_graph(4).adjacency_matrix())
    assert s.multiplicities() == (3, 1)
    assert abs(s.values()[0] + 1) < 1e-10
    assert abs(s.values()[1] - 3) < 1e-10


def test_jacobi_zero_matrix():
    s = jacobi_eigenvalues(np.zeros((3, 3)))
    assert s.pairs == ((0.0, 3),)


def test_jacobi_star_laplacian_matches_exact_oracle():
    lap = star_graph(4).laplacian_matrix()
    # independent exact oracle: the characteristic polynomial factors exactly
    poly = char_poly_integer(lap)
    assert poly == PolynomialZ.from_roots([(0, 1), (4, 1), (1, 2)])
    s = jacobi_eigenvalues(lap)
    assert grouped_match(Spectrum([(0, 1), (1, 2), (4, 1)]), s, 1e-8)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_jacobi_agrees_with_numpy_on_randoms():
    # oracle: the general (nonsymmetric QR) driver, not the symmetric one
    rng = np.random.default_rng(99)
    for n in (2, 5, 11, 24):
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        ours = jacobi_eigenvalues(m).expand()
        ref = sorted(np.linalg.eigvals(m).real)
        assert max(abs(a - b) for a, b in zip(ours, ref)) < 1e-9
        assert abs(sum(ours) - np.trace(m)) < 1e-9
        assert abs(sum(v * v for v in ours) - np.linalg.norm(m) ** 2) < 1e-9


def test_jacobi_rejects_non_finite_entries():
    for entry in (np.nan, np.inf, -np.inf, 1e308):
        with pytest.raises(InvalidParameter, match="not finite"):
            jacobi_eigenvalues(np.array([[entry, 0.0], [0.0, 1.0]]))
    # finite entries whose squares overflow the Frobenius norm
    with pytest.raises(InvalidParameter, match="not finite"):
        jacobi_eigenvalues(np.full((2, 2), 1e200))


def test_jacobi_maps_lapack_failure_to_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        jacobi_eigenvalues(np.eye(3))


# ---------------------------------------------------------------------------
# Quotient matrices

def _join_of_cliques(template, sizes):
    """The join of cliques of the given sizes over a template, with its block partition."""
    graph = generalized_join(template, [complete_graph(s) for s in sizes])
    ends = np.cumsum(sizes).tolist()
    return graph, Partition(graph.n, [range(e - s, e) for s, e in zip(sizes, ends)])


def test_quotient_matrix_star_example():
    graph, part = _join_of_cliques(star_graph(3), (1, 2, 3))
    companion, symmetric, cliques = _quotient(graph, part, "adjacency")
    expected = np.array(
        [
            [0.0, math.sqrt(2), math.sqrt(3)],
            [math.sqrt(2), 1.0, 0.0],
            [math.sqrt(3), 0.0, 2.0],
        ]
    )
    assert np.allclose(symmetric, expected)
    assert companion.tolist() == [[0, 2, 3], [1, 1, 0], [1, 0, 2]]
    assert cliques == [(-1, 0), (-1, 1), (-1, 2)]

    # -N(1) carries N_i, the number of vertices joined to block i, on its diagonal
    companion1, symmetric1, cliques1 = _quotient(graph, part, "laplacian")
    assert [symmetric1[i, i] for i in range(3)] == [5, 1, 1]
    assert companion1.tolist() == [[5, -2, -3], [-1, 1, 0], [-1, 0, 1]]
    assert cliques1 == [(6, 0), (3, 1), (4, 2)]


def test_quotient_matrix_single_block():
    graph, part = _join_of_cliques(complete_graph(1), (4,))
    _, symmetric, _ = _quotient(graph, part, "adjacency")
    assert symmetric.tolist() == [[3.0]]


def test_quotient_symmetric_and_companion_share_spectrum():
    rng = random.Random(31)
    for _ in range(20):
        k = rng.randint(1, 5)
        template = _random_graph(rng, k, 0.5)
        sizes = [rng.randint(1, 4) for _ in range(k)]
        graph, part = _join_of_cliques(template, sizes)
        for matrix in ("adjacency", "laplacian"):
            companion, symmetric, _ = _quotient(graph, part, matrix)
            sym_eigs = jacobi_eigenvalues(symmetric).expand()
            poly = char_poly_integer(companion)
            assert poly.degree == k and poly.is_monic()
            # the companion polynomial vanishes at the symmetric eigenvalues
            for eig in sym_eigs:
                assert abs(poly(eig)) < 1e-6 * max(1.0, abs(eig)) ** k


def test_unknown_matrix_name_rejected():
    g = complete_graph(3)
    part = least_partition(3)
    with pytest.raises(InvalidParameter, match="'adjacency' or 'laplacian'"):
        super_charpolys([(g, part)], "signless")
    with pytest.raises(InvalidParameter, match="'adjacency' or 'laplacian'"):
        quotient_spectrum(g, part, "signless")


# ---------------------------------------------------------------------------
# Super charpoly pipelines

def test_super_adjacency_charpoly_d6():
    d6 = dihedral(3)
    got = super_adjacency_charpoly(commuting_graph(d6), order_partition(d6))
    expected = PolynomialZ((1, 1)) ** 3 * PolynomialZ((7, -3, -3, 1))
    assert got == expected


def test_super_adjacency_charpoly_complete_branch():
    g = complete_graph(4)
    got = super_adjacency_charpoly(g, greatest_partition(4))
    assert got == PolynomialZ((1, 1)) ** 3 * PolynomialZ((-3, 1))


def test_super_laplacian_charpoly_d6():
    d6 = dihedral(3)
    got = super_laplacian_charpoly(commuting_graph(d6), order_partition(d6))
    assert got == PolynomialZ.from_roots([(0, 1), (6, 1), (1, 1), (4, 2), (3, 1)])


def test_super_laplacian_charpoly_least_on_complete():
    for n in (2, 5):
        g = complete_graph(n)
        got = super_laplacian_charpoly(g, least_partition(n))
        assert got == PolynomialZ.from_roots([(0, 1), (n, n - 1)])


def test_super_charpolys_match_brute_force_random():
    rng = random.Random(404)
    trials = 0
    while trials < 40:
        n = rng.randint(2, 9)
        g = _random_graph(rng, n)
        p = _random_partition(rng, n)
        sup = super_graph(g, p)
        assert super_adjacency_charpoly(g, p) == char_poly_integer(sup.adjacency_matrix())
        assert super_laplacian_charpoly(g, p) == char_poly_integer(sup.laplacian_matrix())
        # the compressed graphs here are often disconnected
        for matrix, explicit in (
            ("adjacency", sup.adjacency_matrix()),
            ("laplacian", sup.laplacian_matrix()),
        ):
            assert multiset_match(
                quotient_spectrum(g, p, matrix), jacobi_eigenvalues(explicit), 1e-8
            )
        trials += 1


def test_quotient_spectrum_matches_jacobi():
    d10 = dihedral(5)
    base, part = commuting_graph(d10), order_partition(d10)
    sup = super_graph(base, part)
    for matrix, explicit in (
        ("adjacency", sup.adjacency_matrix()),
        ("laplacian", sup.laplacian_matrix()),
    ):
        assert multiset_match(
            quotient_spectrum(base, part, matrix), jacobi_eigenvalues(explicit), 1e-8
        )


def test_quotient_route_on_disconnected_compressed_graph():
    # two disjoint K_{1,2}: the compressed graph is two identical edges, so
    # N(t) is block diagonal and both components give the same eigenvalues
    g = SimpleGraph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    part = Partition(6, [[0], [1, 2], [3], [4, 5]])
    sup = super_graph(g, part)
    assert super_adjacency_charpoly(g, part) == char_poly_integer(sup.adjacency_matrix())
    assert super_laplacian_charpoly(g, part) == char_poly_integer(sup.laplacian_matrix())
    for matrix, explicit in (
        ("adjacency", sup.adjacency_matrix()),
        ("laplacian", sup.laplacian_matrix()),
    ):
        assert grouped_match(
            quotient_spectrum(g, part, matrix), jacobi_eigenvalues(explicit), 1e-8
        )
    assert quotient_spectrum(g, part, "laplacian").multiplicities() == (2, 4)


def test_quotient_spectrum_merges_quotient_and_clique_eigenvalues():
    # a quotient eigenvalue equal to a clique eigenvalue comes out of LAPACK a
    # few ulps off; it must still join the exact clique value in one group
    for group, partition, matrix in (
        (dihedral(49), order_partition, "laplacian"),
        (generalized_quaternion(17), conjugacy_partition, "adjacency"),
    ):
        base, part = commuting_graph(group), partition(group)
        sup = super_graph(base, part)
        explicit = getattr(sup, f"{matrix}_matrix")()
        got = quotient_spectrum(base, part, matrix)
        assert grouped_match(got, jacobi_eigenvalues(explicit), 1e-8), str(got)


# ---------------------------------------------------------------------------
# Star join closed forms

def test_star_join_laplacian_examples():
    assert star_join_laplacian_spectrum((1, 2, 3)).pairs == (
        (0, 1), (1, 1), (3, 1), (4, 2), (6, 1),
    )
    assert star_join_laplacian_spectrum((1, 1)).pairs == ((0, 1), (2, 1))


def test_star_join_laplacian_q8_brute_force():
    q8 = generalized_quaternion(2)
    dc = super_graph(commuting_graph(q8), conjugacy_partition(q8))
    expected = star_join_laplacian_spectrum((2, 2, 2, 2))
    assert expected.pairs == ((0, 1), (2, 2), (4, 3), (8, 2))
    assert grouped_match(expected, jacobi_eigenvalues(dc.laplacian_matrix()), 1e-8)


def test_star_join_laplacian_multiplicities_sum():
    rng = random.Random(8)
    for _ in range(20):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 6))]
        assert star_join_laplacian_spectrum(sizes).total_multiplicity == sum(sizes)


# ---------------------------------------------------------------------------
# Root isolation, matching, interlacing

def test_real_root_isolate_cubic():
    cubic = PolynomialZ((7, -3, -3, 1))
    roots = real_root_isolate(cubic, [(-2, -1), (1, 2), (3, 4)])
    for got, frozen in zip(roots, D6_CUBIC_ROOTS):
        assert abs(got - frozen) < 1e-9
    assert abs(sum(roots) - 3) < 1e-9  # trace identity: sum = 2n - 3


def test_real_root_isolate_linear():
    assert real_root_isolate(PolynomialZ((-5, 1)), [(4, 6)]) == pytest.approx([5.0])


def test_real_root_isolate_no_sign_change():
    with pytest.raises(NoSignChange):
        real_root_isolate(PolynomialZ((1, 0, 1)), [(0, 1)])


def test_multiset_match():
    a = Spectrum([(-1, 3), (3, 1)])
    assert multiset_match(a, a, 0.0)
    b = Spectrum([(-1, 3), (3 + 5e-9, 1)])
    assert multiset_match(a, b, 1e-8)
    assert not multiset_match(Spectrum([(0, 1), (1, 1)]), Spectrum([(0, 1), (2, 1)]), 1e-8)
    with pytest.raises(SizeMismatch):
        multiset_match(a, Spectrum([(0, 1)]), 1e-8)


def test_grouped_match_requires_equal_multiplicities():
    a = Spectrum([(0, 2), (1, 1)])
    b = Spectrum([(0.0, 2), (1.0 + 1e-9, 1)])
    c = Spectrum([(0.0, 1), (1e-12, 1), (1.0, 1)])
    assert grouped_match(a, b, 1e-8)
    assert not grouped_match(a, c, 1e-8)


def test_interlacing_examples():
    d6 = dihedral(3)
    sup = super_graph(commuting_graph(d6), order_partition(d6))
    full = jacobi_eigenvalues(sup.adjacency_matrix()).expand()
    sub_matrix = sup.adjacency_matrix()[1:, 1:]
    sub = jacobi_eigenvalues(sub_matrix).expand()
    assert sorted(round(v) for v in sub) == [-1, -1, -1, 1, 2]
    assert interlacing_check(full, sub)
    assert interlacing_check(full, full)
    assert interlacing_check([0, 10], [5])
    assert not interlacing_check([0, 1], [5])


def test_spectrum_from_integer_charpoly():
    poly = PolynomialZ.from_roots([(0, 1), (4, 2), (9, 1)])
    # default bound is 2*degree = 8, so the root at 9 is out of reach
    assert spectrum_from_integer_charpoly(poly) is None
    s = spectrum_from_integer_charpoly(poly, bound=9)
    assert s.pairs == ((0, 1), (4, 2), (9, 1))
    assert spectrum_from_integer_charpoly(PolynomialZ((-2, 0, 1))) is None  # x^2 - 2


# ---------------------------------------------------------------------------
# Generalized characteristic polynomial consistency (adjacency and Laplacian
# specializations agree with brute force across many random instances)

def test_both_specializations_on_many_seeds():
    rng = random.Random(777)
    count = 0
    while count < 60:
        n = rng.randint(2, 8)
        g = _random_graph(rng, n, 0.45)
        p = _random_partition(rng, n)
        sup = super_graph(g, p)
        adj_ok = super_adjacency_charpoly(g, p) == char_poly_integer(sup.adjacency_matrix())
        lap_ok = super_laplacian_charpoly(g, p) == char_poly_integer(sup.laplacian_matrix())
        assert adj_ok and lap_ok
        count += 1


def test_charpoly_degree_and_laplacian_kernel():
    from supergraph import connected_components

    rng = random.Random(90)
    for _ in range(25):
        n = rng.randint(2, 9)
        g = _random_graph(rng, n)
        p = _random_partition(rng, n)
        sup = super_graph(g, p)
        adj = super_adjacency_charpoly(g, p)
        lap = super_laplacian_charpoly(g, p)
        assert adj.degree == n and adj.is_monic()
        assert lap.degree == n and lap.is_monic()
        # 0 is a Laplacian root with multiplicity = number of components
        assert lap.root_multiplicity(0) == len(connected_components(sup))
        # trace identities: adjacency eigenvalues sum to zero, Laplacian
        # spectrum is nonnegative
        assert abs(sum(jacobi_eigenvalues(sup.adjacency_matrix()).expand())) < 1e-8
        assert min(jacobi_eigenvalues(sup.laplacian_matrix()).expand()) > -1e-9
