import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from supergraph import (
    InvalidParameter,
    PolynomialZ,
    char_poly_integer,
    char_poly_integers,
    commuting_graph,
    complete_graph,
    conjugacy_partition,
    dihedral,
    generalized_quaternion,
    is_prime,
    order_partition,
    semidirect_pq,
    super_adjacency_charpoly,
    super_graph,
    super_laplacian_charpoly,
)
from supergraph import polynomials
from supergraph.polynomials import (
    MAX_DIMENSION,
    _char_poly_mod,
    _coefficient_bound,
    _integer_array,
    _prime_bits,
    _primes,
)


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


def test_evaluation_reads_numpy_integers_as_python_ints():
    # numpy's int64 would wrap and float64 would round; Python ints do neither
    value = PolynomialZ((1, 1))(np.int64(2**60))
    assert type(value) is int and value == 2**60 + 1
    cube = PolynomialZ((0, 0, 0, 1))(np.int64(2**40))
    assert type(cube) is int and cube == 2**120
    assert [PolynomialZ((1, 1))(v) for v in (np.int32(7), np.uint8(255))] == [8, 256]
    assert all(type(PolynomialZ((1, 1))(v)) is int for v in (np.int32(7), np.uint8(255)))


def test_equal_polynomials_hash_equal():
    p, q = PolynomialZ((1, 2, 0)), PolynomialZ.from_roots([(-1, 1)]) * 2 - PolynomialZ.one()
    assert p == q and hash(p) == hash(q)


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


def test_deflating_the_zero_polynomial():
    assert PolynomialZ.zero().deflate(3) == (PolynomialZ.zero(), 0)


def _from_roots_reference(roots):
    """prod (x - r)^m by ``__mul__`` of linear factors, one factor per unit of
    multiplicity, independent of ``from_roots``."""
    p = PolynomialZ.one()
    for root, mult in roots:
        for _ in range(mult):
            p = p * PolynomialZ((-root, 1))
    return p


def test_from_roots_matches_linear_factor_products():
    rng = random.Random(2024)
    for _ in range(300):
        distinct = rng.sample(range(-12, 13), rng.randint(0, 7))
        roots = [(r, rng.randint(0, 6)) for r in distinct]
        # split some roots across several entries, zero multiplicities among them
        roots += [(r, rng.randint(0, 3)) for r in rng.sample(distinct, len(distinct) // 2)]
        rng.shuffle(roots)
        assert PolynomialZ.from_roots(roots) == _from_roots_reference(roots), roots


def test_from_roots_single_root_matches_binomials():
    for root, mult in [(0, 5), (1, 9), (-3, 11), (7, 20), (400, 388), (-1, 388)]:
        expected = [math.comb(mult, k) * (-root) ** (mult - k) for k in range(mult + 1)]
        assert PolynomialZ.from_roots([(root, mult)]).coeffs == tuple(expected)


def test_from_roots_large_groups_clique_lists():
    for roots in ([(400, 388)], [(-1, 388)], [(381, 253), (-1, 125)]):
        assert PolynomialZ.from_roots(roots) == _from_roots_reference(roots)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PolynomialZ.from_roots([(2.5, 1)]), "root 2.5 is not an integer"),
        (lambda: PolynomialZ.from_roots([(3, 1.7)]), "multiplicity 1.7 is not an integer"),
        (lambda: PolynomialZ([1.9, 2]), "coefficient 1.9 is not an integer"),
        (lambda: PolynomialZ(["1"]), "coefficient '1' is not an integer"),
    ],
)
def test_polynomial_rejects_non_integral_input(call, message):
    with pytest.raises(InvalidParameter, match=message):
        call()


def test_polynomial_accepts_integer_valued_input():
    assert PolynomialZ([1.0, np.int64(2)]).coeffs == (1, 2)
    assert all(type(c) is int for c in PolynomialZ([1.0, np.int64(2)]).coeffs)
    assert PolynomialZ.from_roots([(2.0, np.int32(2)), (np.int64(-1), 1.0)]) == (
        PolynomialZ((-2, 1)) ** 2 * PolynomialZ((1, 1))
    )


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


@pytest.mark.parametrize("coeffs", [(10 ** 4999,), (3, 10 ** 4999, 1), (-(10 ** 4999), 1)],
                         ids=["constant", "middle", "negative"])
def test_coefficients_beyond_the_int_to_str_limit_raise_a_typed_error(coeffs):
    # 5,000 digits, past Python's default limit of 4,300 on int-to-str
    # conversion, which every writer meets and none changes
    from supergraph.cli import _poly_csv

    p = PolynomialZ(coeffs)
    for write in (str, PolynomialZ.to_json_dict, _poly_csv):
        with pytest.raises(InvalidParameter, match=f"limit of {sys.get_int_max_str_digits()} "):
            write(p)


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


def _char_poly_mod_reference(h, p):
    """Ascending coefficients of det(xI - H) mod p for one prime: Hessenberg
    reduction with the first nonzero pivot, then the Hessenberg recurrence,
    one 2-D numpy pass per prime. H (int64, entries in [0, p)) is overwritten."""
    n = h.shape[0]
    for j in range(n - 2):
        nonzero = h[j + 1:, j].nonzero()[0]
        if nonzero.size == 0:
            continue
        pivot = j + 1 + int(nonzero[0])
        if pivot != j + 1:
            h[[j + 1, pivot]] = h[[pivot, j + 1]]
            h[:, [j + 1, pivot]] = h[:, [pivot, j + 1]]
        u = h[j + 2:, j] * pow(int(h[j + 1, j]), -1, p) % p
        h[j + 2:, j:] = (h[j + 2:, j:] - np.outer(u, h[j + 1, j:])) % p
        h[:, j + 1] = (h[:, j + 1] + h[:, j + 2:] @ u) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    chain = np.zeros(n, dtype=np.int64)
    start = 0
    for m in range(1, n + 1):
        prev = polys[m - 1, :m]
        row = polys[m]
        row[1:m + 1] = prev
        row[:m] = (row[:m] - h[m - 1, m - 1] * prev) % p
        if m == 1:
            continue
        sub = h[m - 1, m - 2]
        if sub == 0:
            start = m - 1
            continue
        chain[start:m - 2] = chain[start:m - 2] * sub % p
        chain[m - 2] = sub
        weights = h[start:m - 1, m - 1] * chain[start:m - 1] % p
        row[:m - 1] = (row[:m - 1] - weights @ polys[start:m - 1, :m - 1]) % p
    return polys[n]


def _per_prime_char_poly(matrix):
    """The multi-modular route one prime at a time through the reference
    kernel, with primes covering the row-sum bound 2 (1 + rho)^n."""
    rows = [[int(v) for v in row] for row in matrix]
    n = len(rows)
    bound = 2 * (1 + max(sum(abs(v) for v in row) for row in rows)) ** n
    coeffs = [0] * (n + 1)
    modulus = 1
    for p in _primes(_prime_bits(n)):
        reduced = np.array([[v % p for v in row] for row in rows], dtype=np.int64)
        residues = _char_poly_mod_reference(reduced, p).tolist()
        inverse = pow(modulus, -1, p)
        coeffs = [c + modulus * ((r - c % p) * inverse % p) for c, r in zip(coeffs, residues)]
        modulus *= p
        if modulus > bound:
            break
    half = modulus // 2
    return PolynomialZ(c - modulus if c > half else c for c in coeffs)


def _recording_stacks(monkeypatch):
    """Record the primes of every stack that ``char_poly_integer`` runs."""
    stacks = []
    kernel = polynomials._char_poly_mod

    def recorded(h, primes):
        stacks.append(primes.tolist())
        return kernel(h, primes)

    monkeypatch.setattr(polynomials, "_char_poly_mod", recorded)
    return stacks


def _assert_stack_matches_reference(matrix, primes):
    """The stacked kernel gives the reference residues, layer by layer."""
    rows = [[int(v) for v in row] for row in matrix]
    layers = [[[v % p for v in row] for row in rows] for p in primes]
    stacked = _char_poly_mod(np.array(layers, dtype=np.int64), np.array(primes, dtype=np.int64))
    for layer, p, residues in zip(layers, primes, stacked.tolist()):
        assert residues == _char_poly_mod_reference(np.array(layer, dtype=np.int64), p).tolist(), p


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


def _trial_division_is_prime(n):
    """Primality by trial division: the oracle for ``is_prime``."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == _trial_division_is_prime(n) for n in range(10 ** 5))
    # the least strong pseudoprimes to the bases 2 ... 7 and to the bases 2 ... 31
    for pseudoprime in (3215031751, 3825123056546413051):
        assert _trial_division_is_prime(pseudoprime) is False
        assert is_prime(pseudoprime) is False
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)
    for bits in range(21, 31):
        for p in itertools.islice(_primes(bits), 5):
            assert _trial_division_is_prime(p), (bits, p)
    # no base set is proven above the least strong pseudoprime to the 13 bases
    limit = 3317044064679887385961981
    assert not is_prime(limit - 1)
    for too_large in (limit, 10 ** 30 + 1):
        with pytest.raises(InvalidParameter, match="decided only below"):
            is_prime(too_large)
    with pytest.raises(InvalidParameter, match="decided only below"):
        semidirect_pq(10 ** 25 + 13, 2)


def test_prime_size_keeps_int64_sums_exact():
    assert _prime_bits(2047) == 26
    for n in (1, 2, 98, 200, 400, 2047, 2048, MAX_DIMENSION):
        primes = list(itertools.islice(_primes(_prime_bits(n)), 3))
        assert all(n * (p - 1) ** 2 < 2 ** 63 for p in primes), n
        assert all(_trial_division_is_prime(p) for p in primes)
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


def test_stacked_kernel_matches_per_prime_reference():
    rng = random.Random(17)
    for n, count in ((1, 3), (2, 2), (3, 5), (7, 4), (12, 3)):
        primes = list(itertools.islice(_primes(_prime_bits(n)), count))
        for density in (0.2, 1.0):
            m = [[rng.randint(-50, 50) if rng.random() < density else 0 for _ in range(n)]
                 for _ in range(n)]
            _assert_stack_matches_reference(m, primes)


def test_stack_pivot_zero_mod_one_prime(monkeypatch):
    n = 5
    primes = list(itertools.islice(_primes(_prime_bits(n)), 3))
    rng = random.Random(23)
    big = primes[0]
    for first_column in (
        # zero pivot mod primes[1] only: that layer swaps rows 1 and 2
        (0, primes[1], 1, rng.randint(1, big), rng.randint(1, big)),
        # whole column zero mod primes[1] only: that layer gets u = 0
        (0, primes[1], 2 * primes[1], 3 * primes[1], 0),
        # the first nonzero entry below the diagonal is the least residue mod
        # primes[2] only: the other layers take row 2's 3 as their pivot,
        # where the reference takes row 1
        (0, primes[2] + 1, 3, 0, primes[1]),
        # the least residues are 2, 1 and 3, in rows 2, 3 and 4 of the three
        # layers in turn: row 1's 7 is never the pivot
        (0, 7, primes[0] + 2, primes[1] + 1, primes[2] + 3),
    ):
        m = [[v] + [rng.randint(-big, big) for _ in range(n - 1)] for v in first_column]
        _assert_stack_matches_reference(m, primes)
        stacks = _recording_stacks(monkeypatch)
        result = char_poly_integer(m)
        assert len(stacks) == 1 and len(stacks[0]) > 2 and primes[1] in stacks[0]
        assert result == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)


def test_stack_last_column_op_links_some_layers_only(monkeypatch):
    # h[n-1, n-2] is zero in the input and changed by the last column
    # operation only where u = h[n-1, n-3] / h[n-2, n-3] is nonzero: in every
    # layer but the primes[1] one, whose form alone splits there. The pivot 3
    # divides no prime, so the stage over the integers stops.
    n = 6
    primes = list(itertools.islice(_primes(_prime_bits(n)), 3))
    rng = random.Random(31)
    m = [[rng.randint(-9, 9) if j >= i else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n - 1):
        m[i][i - 1] = rng.randint(1, 9)
    m[n - 2][n - 3], m[n - 1][n - 3], m[n - 1][n - 1] = 3, primes[1], 5
    _assert_stack_matches_reference(m, primes)
    forms = np.array([[[v % p for v in row] for row in m] for p in primes], dtype=np.int64)
    _char_poly_mod(forms, np.array(primes, dtype=np.int64))
    assert [bool(v) for v in forms[:, n - 1, n - 2]] == [True, False, True]
    stacks = _recording_stacks(monkeypatch)
    result = char_poly_integer(m)
    assert len(stacks) == 1 and primes[1] in stacks[0]
    assert result == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)


def test_stack_subdiagonal_zero_mod_one_prime(monkeypatch):
    # upper Hessenberg input: the reduction leaves it as it is, and the
    # subdiagonal entry h[3, 2] vanishes mod primes[2] only
    n = 6
    primes = list(itertools.islice(_primes(_prime_bits(n)), 4))
    rng = random.Random(29)
    big = primes[0]
    m = [[rng.randint(-big, big) if j >= i else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n):
        m[i][i - 1] = rng.randint(1, 9)
    m[3][2] = primes[2]
    _assert_stack_matches_reference(m, primes)
    stacks = _recording_stacks(monkeypatch)
    result = char_poly_integer(m)
    assert len(stacks) == 1 and primes[2] in stacks[0]
    assert result == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)


def _order_laplacian(group):
    return super_graph(commuting_graph(group), order_partition(group)).laplacian_matrix()


def _wide_matrix(seed):
    """60 x 60 with entries up to 10^12: about 90 primes, 18 to a stack."""
    rng = random.Random(seed)
    return [[rng.randint(-10 ** 12, 10 ** 12) for _ in range(60)] for _ in range(60)]


def _stage_stops(matrix):
    """An int64 copy of ``matrix`` with 2, 3, 0, ... below the diagonal of its
    first column: the least of them, 2, does not divide 3, so the stage over
    the integers stops at once and leaves the matrix to the modular route."""
    m = np.array(matrix, dtype=np.int64)
    m[1:, 0] = 0
    m[1, 0], m[2, 0] = 2, 3
    return m


def test_char_poly_across_several_chunks(monkeypatch):
    # a budget of 2^16 entries splits both matrices' primes into several
    # stacks; the stage over the integers leaves both to the modular route
    monkeypatch.setattr(polynomials, "_STACK_ENTRIES", 1 << 16)
    for m in (_stage_stops(_order_laplacian(dihedral(49))), _wide_matrix(31)):
        stacks = _recording_stacks(monkeypatch)
        result = char_poly_integer(m)
        n = len(m)
        assert len(stacks) > 2
        assert all(len(primes) * n * n <= polynomials._STACK_ENTRIES for primes in stacks)
        assert result == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)


def test_char_poly_entries_beyond_int64_match_per_prime_reference():
    rng = random.Random(37)
    for n in (1, 3, 6, 10):
        m = [[rng.randint(-10 ** 20, 10 ** 20) for _ in range(n)] for _ in range(n)]
        assert char_poly_integer(m) == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)
    # entries beyond int64 on only some rows, and a multiple of 2^64
    m = [[2 ** 64, -(2 ** 70) + 1, 3], [1, 0, -(10 ** 19)], [5, 7, 11]]
    assert char_poly_integer(m) == _per_prime_char_poly(m) == _cofactor_char_poly(m)


# ---------------------------------------------------------------------------
# Batches: char_poly_integers

def _assert_batch_matches_oracles(batch):
    """The batch gives, matrix by matrix, what the single-matrix kernel, the
    per-prime reference and Faddeev-LeVerrier give."""
    results = char_poly_integers(batch)
    assert len(results) == len(batch)
    for m, result in zip(batch, results):
        assert result == char_poly_integer(m) == _per_prime_char_poly(m)
        assert result == _faddeev_leverrier_char_poly(m)


def _primes_at(n, count):
    return list(itertools.islice(_primes(_prime_bits(n)), count))


def test_char_poly_integers_mixed_dimensions_and_repeats():
    rng = random.Random(53)
    shared = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
    batch = [[[7]], shared, [[0, 1], [1, 0]], np.array(shared), [[-3]], shared]
    for n in (1, 2, 3, 5, 4, 9, 1):
        batch.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    batch.append([[0] * 3 for _ in range(3)])
    _assert_batch_matches_oracles(batch)


def test_char_poly_integers_one_matrix_needs_more_primes(monkeypatch):
    # at n = 5 one matrix with entries near 10^12 needs several primes and
    # the 0/1 matrices one; the group takes the larger list for all of them.
    # The stage over the integers leaves every n = 5 matrix to the modular
    # route: the wide one's entries exceed its entry limit, and the others
    # stop at their first column.
    rng = random.Random(59)
    small = [_stage_stops([[rng.randint(0, 1) for _ in range(5)] for _ in range(5)])
             for _ in range(3)]
    wide = [[rng.randint(-10 ** 12, 10 ** 12) for _ in range(5)] for _ in range(5)]
    batch = [small[0], [[2, 1], [1, 2]], small[1], wide, small[2]]
    stacks = _recording_stacks(monkeypatch)
    counts = []
    for m in (small[0], wide, batch[1]):
        char_poly_integer(m)
        counts.append(len(stacks.pop()))
    alone, needed, two = counts
    assert needed > alone
    char_poly_integers(batch)
    assert sorted(len(primes) for primes in stacks) == [two, 4 * needed]
    assert [primes for primes in stacks if len(primes) > two] == [_primes_at(5, needed) * 4]
    _assert_batch_matches_oracles(batch)


def test_char_poly_integers_object_entries_beside_small_ones():
    rng = random.Random(61)
    huge = [[rng.randint(-2 ** 80, 2 ** 80) for _ in range(3)] for _ in range(3)]
    huge[1][2] = 2 ** 64
    batch = [
        [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)],
        huge,
        [[1, 2], [3, 4]],
        [[2 ** 70]],
        [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)],
    ]
    _assert_batch_matches_oracles(batch)


def test_char_poly_integers_chunk_boundary_inside_a_matrix(monkeypatch):
    # n = 6 with entries near 10^9 needs several primes per matrix; two
    # layers to a chunk, so chunks end inside matrices and some chunk holds
    # the last prime of one matrix and the first of the next
    n = 6
    rng = random.Random(67)
    batch = [[[rng.randint(-10 ** 9, 10 ** 9) for _ in range(n)] for _ in range(n)]
             for _ in range(4)]
    monkeypatch.setattr(polynomials, "_STACK_ENTRIES", 2 * n * n)
    stacks = _recording_stacks(monkeypatch)
    results = char_poly_integers(batch)
    per_matrix = sum(len(primes) for primes in stacks) // len(batch)
    assert per_matrix % 2 == 1 and all(len(primes) == 2 for primes in stacks[:-1])
    order = _primes_at(n, per_matrix)
    assert any(primes == [order[-1], order[0]] for primes in stacks)
    for m, result in zip(batch, results):
        assert result == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)


def test_char_poly_integers_edge_cases():
    assert char_poly_integers([]) == []
    good = [[1, 2], [2, 1]]
    for bad, message in (
        ([[0.5, 0], [0, 1]], "matrix entry 0.5 at (0, 0) is not an integer"),
        ([["1"]], "matrix entry '1' at (0, 0) is not an integer"),
        ([[1, 2, 3], [4, 5, 6]], "matrix must be square and nonempty"),
        ([], "matrix must be square and nonempty"),
    ):
        for batch in ([bad], [good, bad], [good, [[3]], bad, good]):
            with pytest.raises(InvalidParameter) as batched:
                char_poly_integers(batch)
            with pytest.raises(InvalidParameter) as single:
                char_poly_integer(bad)
            assert str(batched.value) == str(single.value) == message


# ---------------------------------------------------------------------------
# Integer arrays, read as arrays

def _assert_array_matches_oracles(a):
    """An array gives what its entries as nested lists, the per-prime
    reference and Faddeev-LeVerrier give."""
    result = char_poly_integer(a)
    assert result == char_poly_integer(a.tolist()) == _per_prime_char_poly(a)
    assert result == _faddeev_leverrier_char_poly(a)


def test_char_poly_integer_arrays_of_every_width():
    rng = np.random.default_rng(71)
    base = rng.integers(-9, 10, (12, 12))
    for a in (
        base.astype(np.int8),
        base.astype(np.int16),
        base.astype(np.int32).T,  # a transpose: not C-contiguous
        base.astype(np.int64)[1::2, ::2],  # a strided slice
        base.astype(np.int64)[::-3, ::-3],
        (base + 9).astype(np.uint8),
        (base + 9).astype(np.uint32)[::2, 1::2],
        base > 0,
        (base < 0).T,
        np.array([[255, 16, 0], [16, 255, 200], [0, 1, 128]], dtype=np.uint8),
    ):
        assert a.dtype.kind in "biu" and a.shape[0] == a.shape[1]
        _assert_array_matches_oracles(a)


def test_char_poly_uint8_squares_are_summed_in_int64():
    # every square of 16 or 256 - 16 is 0 mod 256: summed in uint8, the bound
    # would call for one prime, where the matrices need several
    n = 30
    sixteen = np.full((n, n), 16, dtype=np.uint8)
    np.fill_diagonal(sixteen, 240)
    small = np.eye(n, dtype=np.int64)
    small[0, n - 1] = 1
    for batch in ([sixteen], [small, sixteen], [sixteen.T, small]):
        results = char_poly_integers(batch)
        for a, result in zip(batch, results):
            assert result == char_poly_integer(a.tolist()) == _per_prime_char_poly(a)
    assert max(abs(c) for c in results[0].coeffs) > 2 ** 64


def test_char_poly_int64_arrays_beyond_the_int64_bound():
    # entries +-2^32 square to 2^64, which wraps to 0 in int64, and int64's
    # extremes square far beyond it: both are summed as Python ints
    rng = random.Random(73)
    wide = np.array([[rng.choice((-1, 1)) << 32 if rng.random() < 0.6 else rng.randint(-5, 5)
                      for _ in range(6)] for _ in range(6)], dtype=np.int64)
    info = np.iinfo(np.int64)
    extremes = np.array([[info.min, 1, 0], [info.max, info.min, 2], [3, 0, info.max]])
    near = np.full((4, 4), 1 << 29, dtype=np.int64)  # 16 * 2^58 = 2^62: summed in int64
    for a in (wide, extremes, extremes.T, near, -near):
        assert a.dtype == np.int64
        _assert_array_matches_oracles(a)
        assert _coefficient_bound(a) == _coefficient_bound(_integer_array(a.tolist()))


def test_char_poly_integers_mixed_arrays_and_lists():
    rng = np.random.default_rng(79)
    base = rng.integers(-4, 5, (5, 5))
    batch = [
        base.tolist(),
        base.astype(np.int8),
        (base + 4).astype(np.uint8).T,
        [[2 ** 70, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
         [0, 0, 0, 0, -(2 ** 65)]],
        base != 0,
        np.array([[2 ** 70, -1], [3, 4]], dtype=object),
        base.astype(np.int64)[:3, :3],
        [[1, 2], [3, 4]],
        np.array([[2.0, 1.0], [1.0, 2.0]]),
    ]
    _assert_batch_matches_oracles(batch)


def test_char_poly_array_input_messages_unchanged():
    for bad, message in (
        (np.zeros((2, 3), dtype=np.int64), "matrix must be square and nonempty"),
        (np.zeros((2, 3, 3), dtype=np.int64), "matrix must be square and nonempty"),
        (np.zeros((2, 2, 2), dtype=np.int64), "matrix must be square and nonempty"),
        (np.zeros((0, 0), dtype=np.int64), "matrix must be square and nonempty"),
        (np.zeros((0,), dtype=np.int8), "matrix must be square and nonempty"),
        (np.array([[1.0, 0.5], [0.5, 1.0]]), "matrix entry 0.5 at (0, 1) is not an integer"),
        (np.array([[1, 0.5], [2, 3]], dtype=object),
         "matrix entry 0.5 at (0, 1) is not an integer"),
    ):
        for batch in ([bad], [np.eye(2, dtype=np.int64), bad]):
            with pytest.raises(InvalidParameter) as raised:
                char_poly_integers(batch)
            assert str(raised.value) == message
    # object arrays of Python ints and uint64 beyond int64 are read entry by entry
    x = PolynomialZ.x()
    for big in (np.array([[2 ** 70]], dtype=object), np.array([[2 ** 64 - 1]], dtype=np.uint64)):
        assert char_poly_integer(big) == x - PolynomialZ((int(big[0, 0]),))


def _modular_char_poly(matrix):
    """The multi-modular route alone on one matrix, with the primes that
    ``char_poly_integers`` would choose for it."""
    stack = _integer_array(matrix)[None]
    [result] = polynomials._char_polys_modular(stack, polynomials._covering_primes(stack))
    return result


def test_char_poly_one_stack_at_the_default_budget(monkeypatch):
    # on the modular route, the 20 layers of the 98 x 98 matrix run as one
    # stack; a 400 x 400 matrix runs one prime at a time
    stacks = _recording_stacks(monkeypatch)
    m = _order_laplacian(dihedral(49))
    result = _modular_char_poly(m)
    assert [len(primes) for primes in stacks] == [20]
    assert result == _per_prime_char_poly(m)
    stacks.clear()
    scaled = 2 * np.eye(400, dtype=np.int8)
    assert _modular_char_poly(scaled) == (PolynomialZ.x() - PolynomialZ((2,))) ** 400
    assert len(stacks) > 1 and all(len(primes) == 1 for primes in stacks)


def test_char_poly_traced_memory_of_one_stack():
    # on the modular route, one stack of 20 x 98 x 98 residues (1.5 MiB), the
    # reduction's row updates in blocks of 2^15 entries and the recurrence's
    # few polynomials
    matrix = _order_laplacian(dihedral(49))
    _modular_char_poly(matrix)  # the primes are found once per process
    tracemalloc.start()
    try:
        _modular_char_poly(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MB"


def test_subdiagonal_flags_belong_to_their_own_chunk(monkeypatch):
    # Hessenberg inputs, which the reduction leaves as they are: ``split``
    # has h[3, 2] = 0, ``linked`` a nonzero subdiagonal. One layer to a
    # chunk, so each chunk must read its own flags.
    n = 6
    rng = random.Random(83)
    linked = [[rng.randint(-9, 9) if j >= i - 1 else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n):
        linked[i][i - 1] = rng.randint(1, 9)
    split = [row[:] for row in linked]
    split[3][2] = 0
    # a zero subdiagonal in the input that the reduction fills
    filled = [[rng.randint(-9, 9) if j != i - 1 else 0 for j in range(n)] for i in range(n)]
    batch = [split, linked, split, filled, linked]
    default = polynomials._STACK_ENTRIES
    monkeypatch.setattr(polynomials, "_STACK_ENTRIES", n * n)
    stacks = _recording_stacks(monkeypatch)
    results = char_poly_integers(batch)
    assert len(stacks) == len(batch)
    for m, result in zip(batch, results):
        assert result == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)
    # zero mod the first prime of a stack only: the other layers still link
    primes = _primes_at(n, 3)
    big = [row[:] for row in linked]
    big[0][n - 1] = primes[0] * primes[1]
    big[3][2] = primes[0]
    monkeypatch.setattr(polynomials, "_STACK_ENTRIES", default)
    stacks.clear()
    assert char_poly_integer(big) == _per_prime_char_poly(big) == _faddeev_leverrier_char_poly(big)
    assert len(stacks) == 1 and stacks[0][0] == primes[0]


def _bench_matrices():
    """The explicit matrices of the spectrum-compare benchmark workload."""
    q17 = generalized_quaternion(17)
    pq = semidirect_pq(19, 3)
    return [
        _order_laplacian(dihedral(49)),
        super_graph(commuting_graph(q17), conjugacy_partition(q17)).adjacency_matrix(),
        super_graph(commuting_graph(pq), order_partition(pq)).adjacency_matrix(),
    ]


def test_coefficient_bound_covers_complex_spectra():
    x = PolynomialZ.x()
    one = PolynomialZ.one()
    cases = []
    # direct sums of rotation blocks [[0, -a], [a, 0]]: eigenvalues +-ia
    for scales in ((1,), (3, 7), (2, 2, 2, 2, 2), (1, 10, 100, 1000)):
        n = 2 * len(scales)
        m = [[0] * n for _ in range(n)]
        expected = one
        for k, a in enumerate(scales):
            m[2 * k][2 * k + 1], m[2 * k + 1][2 * k] = -a, a
            expected = expected * (x * x + PolynomialZ((a * a,)))
        cases.append((m, expected))
    # companion matrices of x^n + 1: eigenvalues on the unit circle
    for n in (1, 2, 5, 12, 31):
        m = [[0] * n for _ in range(n)]
        for i in range(1, n):
            m[i][i - 1] = 1
        m[0][n - 1] -= 1
        cases.append((m, x ** n + one))
    # scalar matrices: |c_k| = C(n, k) c^k, the Maclaurin equality case
    for n, c in ((4, 1), (9, -3), (20, 50)):
        cases.append(([[c if i == j else 0 for j in range(n)] for i in range(n)],
                      (x - PolynomialZ((c,))) ** n))
    rng = random.Random(41)
    for n in (2, 4, 7):
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        cases.append((m, _faddeev_leverrier_char_poly(m)))
    for m in _bench_matrices():
        cases.append((m, _per_prime_char_poly(m)))
    for m, expected in cases:
        assert char_poly_integer(m) == expected
        assert 2 * max(abs(c) for c in expected.coeffs) <= _coefficient_bound(_integer_array(m))


def test_coefficient_bound_never_above_row_sum_bound():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 12)
        magnitude = rng.choice((1, 3, 100, 10 ** 9, 10 ** 20))
        density = rng.random()
        rows = [[rng.randint(-magnitude, magnitude) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(n)]
        rho = max(sum(abs(v) for v in row) for row in rows)
        assert _coefficient_bound(_integer_array(rows)) <= 2 * (1 + rho) ** n


@pytest.mark.parametrize("matrix_of", [
    lambda: _order_laplacian(dihedral(49)),
    lambda: _order_laplacian(dihedral(100)),
    lambda: _wide_matrix(47),
], ids=["D98 order Laplacian", "D200 order Laplacian", "60x60 +-10^12"])
def test_char_poly_traced_memory_stays_small(matrix_of):
    # numpy reports its buffers to tracemalloc; a stack of all primes at once
    # would read 4.6 MB at n = 98 and grow as P n^2
    matrix = matrix_of()
    char_poly_integer(matrix)  # the primes are found once per process
    tracemalloc.start()
    try:
        char_poly_integer(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MB"


# ---------------------------------------------------------------------------
# The stage over the integers

def _stage(matrices):
    """The stage's forms and which layers it finished, on one stack."""
    return polynomials._hessenberg_over_z(np.array([_integer_array(m) for m in matrices]))


def _recording_modular_dimensions(monkeypatch):
    """Record the dimension of every stack that the modular route runs."""
    dimensions = []
    kernel = polynomials._char_poly_mod

    def recorded(h, primes):
        dimensions.append(h.shape[1])
        return kernel(h, primes)

    monkeypatch.setattr(polynomials, "_char_poly_mod", recorded)
    return dimensions


def _dividing_pivots(rng, sizes, pivots=(-1, 1), entries=4):
    """L H L^-1 and H: H upper Hessenberg with entries in -entries..entries, its
    subdiagonal drawn from ``pivots`` inside diagonal blocks of the given
    sizes and 0 between them; L unit lower triangular, with column k equal
    to e_k unless H[k, k-1] is nonzero. At every column j the entries below
    the diagonal are H[j+1, j] times column j + 1 of what is left of L, so
    H[j+1, j], in row j + 1, is a least pivot that divides them, and the
    stage ends at H."""
    n = sum(sizes)
    h = np.triu(np.array([[rng.randint(-entries, entries) for _ in range(n)] for _ in range(n)]))
    starts = set(itertools.accumulate(sizes[:-1]))
    for k in range(1, n):
        h[k, k - 1] = 0 if k in starts else rng.choice(pivots)
    lower = np.eye(n, dtype=np.int64)
    for k in range(1, n):
        if h[k, k - 1]:
            lower[k + 1:, k] = [rng.randint(-2, 2) for _ in range(n - k - 1)]
    inverse = np.round(np.linalg.inv(lower)).astype(np.int64)
    assert (lower @ inverse == np.eye(n)).all()
    return lower @ h @ inverse, h


def test_stage_finishes_matrices_whose_pivots_divide(monkeypatch):
    rng = random.Random(89)
    for pivots in ((-1, 1), (-2, 2, 3)):
        # entries up to 999 make every dimension need two primes or more
        cases = [_dividing_pivots(rng, sizes, pivots, 999) for sizes in
                 ((1, 2, 1), (2, 2, 2, 1), (1,) * 7, (2, 1, 2, 1, 2, 2), (3, 1, 2), (4, 2, 3),
                  (12,), (1, 9, 2), (5, 5))]
        for m, h in cases:
            forms, done = _stage([m])
            assert done.tolist() == [True] and (forms[0] == h).all()
            assert len(polynomials._covering_primes(m[None])) > 1
        matrices = [m for m, _ in cases]
        dimensions = _recording_modular_dimensions(monkeypatch)
        results = char_poly_integers(matrices)
        # every block of a finished form is finished over the integers
        assert dimensions == []
        for m, result in zip(matrices, results):
            assert result == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)


def _path_laplacian(n):
    laplacian = np.diag([1] + [2] * (n - 2) + [1])
    laplacian[np.arange(n - 1), np.arange(1, n)] = -1
    laplacian[np.arange(1, n), np.arange(n - 1)] = -1
    return laplacian


def _dense_hessenberg(rng, n):
    """Upper Hessenberg, entries in -3..3 above the subdiagonal, which is
    drawn from -1 and 1: one diagonal block of n rows."""
    h = np.triu(np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
    h[np.arange(1, n), np.arange(n - 1)] = [rng.choice((-1, 1)) for _ in range(n - 1)]
    return h


@pytest.mark.parametrize("case", ["path Laplacian", "dense Hessenberg"])
def test_stage_finishes_one_long_block_over_the_integers(case, monkeypatch):
    matrix = (_path_laplacian(120) if case == "path Laplacian"
              else _dense_hessenberg(random.Random(107), 60))
    forms, done = _stage([matrix])
    assert done.tolist() == [True] and np.count_nonzero(forms[0].diagonal(-1)) == len(matrix) - 1
    dimensions = _recording_modular_dimensions(monkeypatch)
    result = char_poly_integer(matrix)
    assert dimensions == []
    assert result == _per_prime_char_poly(matrix) == _faddeev_leverrier_char_poly(matrix)


def test_stage_stops_partway(monkeypatch):
    # Column 0 takes the pivot 1 and undoes L; column 1 then holds 2 in row 2
    # and 3 in row 3, so the stage stops there and the modular route takes
    # the whole matrix.
    rng = random.Random(97)
    n = 7
    a = np.triu(np.array([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]), -1)
    a[1, 0], a[2, 1], a[3, 1] = 1, 2, 3
    lower = np.eye(n, dtype=np.int64)
    lower[2:, 1] = [1, -2, 3, 1, -1]
    inverse = np.round(np.linalg.inv(lower)).astype(np.int64)
    stopped = lower @ a @ inverse
    assert np.count_nonzero(stopped[2:, 0])  # column 0 has work to do
    finished, _ = _dividing_pivots(rng, (2, 1, 2, 2))
    forms, done = _stage([stopped, finished])
    assert done.tolist() == [False, True] and not forms[0].any()
    dimensions = _recording_modular_dimensions(monkeypatch)
    results = char_poly_integers([stopped, finished])
    assert dimensions == [n]
    for m, result in zip((stopped, finished), results):
        assert result == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)


def test_stage_entry_limit():
    for n in (1, 2, 5, 98, 400, MAX_DIMENSION):
        limit = polynomials._entry_limit(n)
        assert n * limit ** 3 <= 2 ** 62 < n * (limit + 1) ** 3
    n = 5
    limit = polynomials._entry_limit(n)
    for sign in (1, -1):
        # entries at the limit, already Hessenberg: the stage finishes
        at = np.triu(np.full((n, n), sign * limit), -1)
        # one entry past it: the stage leaves the matrix at once
        past = at.copy()
        past[0, n - 1] += sign
        # pivot 1 and every other entry at the limit: the first step's
        # column operation reaches (n - 2) L^3, 0.6 * 2^62, without wrapping,
        # and the layer stops
        grows = np.full((n, n), sign * limit)
        grows[1, 0] = 1
        forms, done = _stage([at, past, grows])
        assert done.tolist() == [True, False, False]
        assert (forms[0] == at).all()
        for m, result in zip((at, past, grows), char_poly_integers([at, past, grows])):
            assert result == _per_prime_char_poly(m) == _faddeev_leverrier_char_poly(m)


def test_stage_reads_object_stacks():
    # one matrix beyond int64 makes the group's stack of Python ints; the
    # stage still finishes the others
    rng = random.Random(101)
    finished, _ = _dividing_pivots(rng, (2, 1, 2))
    huge = finished.astype(object)
    huge[0, 4] = 2 ** 70
    batch = [finished.tolist(), huge, np.array(finished, dtype=object), finished + 2 ** 40]
    assert np.array([_integer_array(m) for m in batch]).dtype == object
    assert _stage(batch)[1].tolist() == [True, False, True, False]
    _assert_batch_matches_oracles(batch)


def test_stage_runs_on_groups_that_need_two_primes_or_more(monkeypatch):
    calls = []
    stage = polynomials._hessenberg_over_z

    def recorded(stack):
        calls.append(stack.shape)
        return stage(stack)

    monkeypatch.setattr(polynomials, "_hessenberg_over_z", recorded)
    rng = random.Random(103)
    one = [[[rng.randint(0, 1) for _ in range(4)] for _ in range(4)] for _ in range(3)]
    several = [_dividing_pivots(rng, (2, 2, 1, 2, 1, 2, 2))[0] for _ in range(2)]
    for m in one:
        assert len(polynomials._covering_primes(_integer_array(m)[None])) == 1
    assert len(polynomials._covering_primes(np.array(several))) > 1
    _assert_batch_matches_oracles([one[0], several[0], one[1], several[1], one[2]])
    assert (2, 12, 12) in calls and all(shape[1] == 12 for shape in calls)


def test_stage_never_builds_clique_factors(monkeypatch):
    # from_roots builds the quotient route's clique factors; the explicit
    # route's finish multiplies its own factors, so the two stay independent
    def refused(cls, roots):
        raise AssertionError("from_roots called")

    matrices = _bench_matrices()
    expected = char_poly_integers(matrices)
    monkeypatch.setattr(PolynomialZ, "from_roots", classmethod(refused))
    assert char_poly_integers(matrices) == expected


@pytest.mark.parametrize("case", ["D98 order Laplacian", "Q68 conjugacy adjacency",
                                  "Z19xZ3 order adjacency", "D400 conjugacy Laplacian"])
def test_stage_finishes_the_benchmark_matrices(case, monkeypatch):
    group, partition_of, kind = {
        "D98 order Laplacian": (dihedral(49), order_partition, "laplacian"),
        "Q68 conjugacy adjacency": (generalized_quaternion(17), conjugacy_partition, "adjacency"),
        "Z19xZ3 order adjacency": (semidirect_pq(19, 3), order_partition, "adjacency"),
        "D400 conjugacy Laplacian": (dihedral(200), conjugacy_partition, "laplacian"),
    }[case]
    graph, partition = commuting_graph(group), partition_of(group)
    sup = super_graph(graph, partition)
    matrix = sup.laplacian_matrix() if kind == "laplacian" else sup.adjacency_matrix()
    quotient = (super_laplacian_charpoly if kind == "laplacian" else super_adjacency_charpoly)
    dimensions = _recording_modular_dimensions(monkeypatch)
    result = char_poly_integer(matrix)
    assert all(d < len(matrix) for d in dimensions)  # no modular stack of the whole matrix
    assert result == quotient(graph, partition)


def test_the_modular_route_sees_only_whole_input_matrices(monkeypatch):
    # Over a verify run, every layer of every modular stack is an input
    # matrix reduced mod its prime (a stage-stopped one, or one of a group
    # that needs one prime), never a block of a form the stage finished.
    from supergraph.verify import run_suite

    inputs, layers = {}, []
    read, kernel = polynomials._integer_array, polynomials._char_poly_mod

    def recorded_input(matrix):
        array = read(matrix)
        inputs.setdefault(len(array), []).append(array)
        return array

    def recorded_stack(h, primes):
        layers.extend(zip(h.copy(), primes.tolist()))
        return kernel(h, primes)

    monkeypatch.setattr(polynomials, "_integer_array", recorded_input)
    monkeypatch.setattr(polynomials, "_char_poly_mod", recorded_stack)
    run_suite("all", seed=42)
    assert layers
    residues = {}  # (n, p) -> the inputs of n rows reduced mod p
    for layer, p in layers:
        n = len(layer)
        if (n, p) not in residues:
            residues[n, p] = {(a % p).astype(np.int64).tobytes() for a in inputs[n]}
        assert layer.tobytes() in residues[n, p], (n, p)
