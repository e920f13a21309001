import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from supergraph import (
    InvalidParameter,
    PolynomialZ,
    char_poly_integer,
    commuting_graph,
    complete_graph,
    conjugacy_partition,
    dihedral,
    generalized_quaternion,
    is_prime,
    order_partition,
    semidirect_pq,
    super_graph,
    super_laplacian_charpoly,
)
from supergraph.polynomials import MAX_DIMENSION, _prime_bits, _primes


def test_arithmetic_basics():
    x = PolynomialZ.x()
    p = (x + PolynomialZ.one()) ** 2
    assert p.coeffs == (1, 2, 1)
    assert (p - p) == PolynomialZ.zero()
    assert (p * 0) == PolynomialZ.zero()
    assert p.degree == 2 and p.is_monic()
    assert PolynomialZ.zero().degree == -1
    assert (2 * x).coeffs == (0, 2)


def test_evaluation():
    p = PolynomialZ((7, -3, -3, 1))  # x^3 - 3x^2 - 3x + 7
    assert p(0) == 7
    assert p(1) == 2
    assert p(-2) == -7
    assert p(Fraction(1, 2)) == Fraction(39, 8)
    assert abs(p(1.0) - 2.0) < 1e-12


def test_from_roots_and_multiplicity():
    p = PolynomialZ.from_roots([(0, 1), (4, 1), (1, 2)])
    assert p.coeffs == tuple(
        (PolynomialZ((0, 1)) * PolynomialZ((-4, 1)) * PolynomialZ((-1, 1)) ** 2).coeffs
    )
    assert p.root_multiplicity(1) == 2
    assert p.root_multiplicity(4) == 1
    assert p.root_multiplicity(2) == 0
    q, rem = p.deflate(0)
    assert rem == 0 and q.degree == 3
    # a root split across entries and a zero multiplicity
    split = PolynomialZ.from_roots([(-1, 2), (3, 0), (5, 1), (-1, 3), (0, 2), (5, 0)])
    assert split == (
        PolynomialZ((1, 1)) ** 5 * PolynomialZ((-5, 1)) * PolynomialZ((0, 1)) ** 2
    )
    assert PolynomialZ.from_roots([]) == PolynomialZ.from_roots([(7, 0)]) == PolynomialZ.one()
    with pytest.raises(InvalidParameter):
        PolynomialZ.from_roots([(2, 1), (1, -1)])


def test_pow_and_errors():
    x = PolynomialZ.x()
    assert (x ** 0) == PolynomialZ.one()
    with pytest.raises(InvalidParameter):
        x ** -1


def test_str():
    assert str(PolynomialZ((7, -3, -3, 1))) == "x^3 - 3x^2 - 3x + 7"
    assert str(PolynomialZ((0, -1))) == "-x"
    assert str(PolynomialZ.zero()) == "0"
    assert str(PolynomialZ((5,))) == "5"


def test_json_round_trip_big_coefficients():
    p = PolynomialZ((10 ** 40, -(3 ** 50), 1))
    assert PolynomialZ.from_json_dict(p.to_json_dict()) == p
    assert p.to_json_dict()["coeffs"][0] == str(10 ** 40)


def test_char_poly_k3():
    p = char_poly_integer(complete_graph(3).adjacency_matrix())
    assert p.coeffs == (-2, -3, 0, 1)  # x^3 - 3x - 2
    assert p == PolynomialZ((1, 1)) ** 2 * PolynomialZ((-2, 1))  # (x+1)^2 (x-2)


def test_char_poly_identity():
    p = char_poly_integer([[1, 0], [0, 1]])
    assert p == PolynomialZ((-1, 1)) ** 2


def _cofactor_char_poly(matrix):
    """Naive expansion-by-minors determinant of xI - M over the polynomial ring."""
    n = len(matrix)
    x = PolynomialZ.x()
    entries = [
        [
            (x if i == j else PolynomialZ.zero()) - PolynomialZ((matrix[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        total = PolynomialZ.zero()
        sign = 1
        for idx, c in enumerate(cols):
            minor = det(rows[1:], cols[:idx] + cols[idx + 1:])
            total = total + sign * (entries[rows[0]][c] * minor)
            sign = -sign
        return total

    return det(tuple(range(n)), tuple(range(n)))


def _faddeev_leverrier_char_poly(matrix):
    """Fraction-free Faddeev-LeVerrier in pure Python, O(n^4): M_1 = M,
    M_k = M (M_{k-1} + c_{n-k+1} I), c_{n-k} = -tr(M_k) / k, each division
    exact."""
    rows = [[int(v) for v in row] for row in matrix]
    n = len(rows)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [row[:] for row in rows]
    coeffs[n - 1] = -sum(mk[i][i] for i in range(n))
    for k in range(2, n + 1):
        shifted = [row[:] for row in mk]
        for i in range(n):
            shifted[i][i] += coeffs[n - k + 1]
        nxt = [[0] * n for _ in range(n)]
        for i in range(n):
            nrow = nxt[i]
            for t, a in enumerate(rows[i]):
                if a == 0:
                    continue
                srow = shifted[t]
                for j in range(n):
                    nrow[j] += a * srow[j]
        mk = nxt
        q, r = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier division was not exact"
        coeffs[n - k] = q
    return PolynomialZ(coeffs)


def test_char_poly_against_cofactor_oracle():
    rng = random.Random(2024)
    for _ in range(5):
        n = 6
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.choice((-1, 0, 1))
                m[i][j] = m[j][i] = v
        assert char_poly_integer(m) == _cofactor_char_poly(m)
        assert _faddeev_leverrier_char_poly(m) == _cofactor_char_poly(m)
    # the recursion is valid for non-symmetric matrices too
    for _ in range(3):
        n = 5
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert char_poly_integer(m) == _cofactor_char_poly(m)
        assert _faddeev_leverrier_char_poly(m) == _cofactor_char_poly(m)


@pytest.mark.parametrize(
    "group",
    [dihedral(3), dihedral(10), dihedral(19),
     generalized_quaternion(2), generalized_quaternion(5), generalized_quaternion(9),
     semidirect_pq(3, 2), semidirect_pq(7, 3), semidirect_pq(13, 3)],
    ids=lambda g: g.name,
)
def test_char_poly_matches_faddeev_leverrier_on_super_graphs(group):
    graph = commuting_graph(group)
    for partition in (order_partition(group), conjugacy_partition(group)):
        sup = super_graph(graph, partition)
        for matrix in (sup.adjacency_matrix(), sup.laplacian_matrix()):
            assert char_poly_integer(matrix) == _faddeev_leverrier_char_poly(matrix)


def test_char_poly_matches_faddeev_leverrier_on_random_matrices():
    rng = random.Random(11)
    # +-10^6 as asked of the exact route; 10^12 exceeds every prime used, and
    # 10^20 exceeds int64, so entries are reduced as Python ints.
    for magnitude in (10 ** 6, 10 ** 12, 10 ** 20):
        for n in (1, 2, 3, 5, 8, 13):
            m = [[rng.randint(-magnitude, magnitude) for _ in range(n)] for _ in range(n)]
            assert char_poly_integer(m) == _faddeev_leverrier_char_poly(m), (magnitude, n)


def test_prime_size_keeps_int64_sums_exact():
    assert _prime_bits(2047) == 26
    for n in (1, 2, 98, 200, 400, 2047, 2048, MAX_DIMENSION):
        primes = list(itertools.islice(_primes(_prime_bits(n)), 3))
        assert all(n * (p - 1) ** 2 < 2 ** 63 for p in primes), n
        assert all(is_prime(p) for p in primes)
    assert primes[0] > 2 ** 20
    with pytest.raises(InvalidParameter, match="exceeds"):
        char_poly_integer([[0]] * (MAX_DIMENSION + 1))


def test_char_poly_complete_graph_closed_forms_beyond_int64():
    n = 120
    x = PolynomialZ.x()
    k_n = complete_graph(n)
    lap = char_poly_integer(k_n.laplacian_matrix())
    assert lap == x * (x - PolynomialZ((n,))) ** (n - 1)
    assert max(abs(c) for c in lap.coeffs) > 2 ** 63
    adj = char_poly_integer(k_n.adjacency_matrix())
    assert adj == (x - PolynomialZ((n - 1,))) * (x + PolynomialZ.one()) ** (n - 1)
    assert max(abs(c) for c in adj.coeffs) > 2 ** 63


def test_char_poly_order_200_matches_quotient_route():
    group = dihedral(100)
    graph = commuting_graph(group)
    partition = order_partition(group)
    matrix = super_graph(graph, partition).laplacian_matrix()
    assert matrix.shape == (200, 200)
    assert char_poly_integer(matrix) == super_laplacian_charpoly(graph, partition)


def test_char_poly_pivot_swap_and_zero_columns():
    x = PolynomialZ.x()
    one = PolynomialZ.one()
    # permutation with cycles (0 2 5)(1 4)(3 6 7 8): column 0 has its only
    # nonzero entry two rows below the diagonal, so the pivot is swapped in
    cycles = ((0, 2, 5), (1, 4), (3, 6, 7, 8))
    perm = [[0] * 9 for _ in range(9)]
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[b][a] = 1
    expected = PolynomialZ.one()
    for cycle in cycles:
        expected = expected * (x ** len(cycle) - one)
    assert char_poly_integer(perm) == expected

    # direct sum: the Hessenberg form has a zero subdiagonal entry
    rng = random.Random(5)
    a = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    b = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
    block = [row + [0] * 4 for row in a] + [[0] * 3 + row for row in b]
    assert char_poly_integer(block) == _cofactor_char_poly(a) * _cofactor_char_poly(b)

    # every entry a multiple of the first prime: zero matrix mod that prime
    n = 5
    p = next(_primes(_prime_bits(n)))
    m = [[p * rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    assert char_poly_integer(m) == _faddeev_leverrier_char_poly(m)


def test_char_poly_rejects_non_integral_entries():
    for bad in ([[0.5, 0], [0, 1.7]], np.array([[1.0, 0.5], [0.5, 1.0]]),
                [[float("nan")]], [[float("inf")]], [["1"]]):
        with pytest.raises(InvalidParameter, match="not an integer"):
            char_poly_integer(bad)
    expected = PolynomialZ((3, -4, 1))  # (x - 1)(x - 3)
    assert char_poly_integer([[2.0, 1.0], [1.0, 2.0]]) == expected
    assert char_poly_integer(np.array([[2.0, 1.0], [1.0, 2.0]])) == expected
    assert char_poly_integer(np.array([[2, 1], [1, 2]], dtype=np.int32)) == expected


def test_char_poly_is_monic_of_full_degree():
    rng = random.Random(7)
    for n in (1, 2, 4, 7):
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        p = char_poly_integer(m)
        assert p.degree == n and p.is_monic()


def test_char_poly_rejects_nonsquare():
    with pytest.raises(InvalidParameter):
        char_poly_integer([[1, 2, 3], [4, 5, 6]])
