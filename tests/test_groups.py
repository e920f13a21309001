import functools
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from supergraph import (
    InvalidParameter,
    NotAGroup,
    Partition,
    SimpleGraph,
    char_poly_integer,
    commuting_graph,
    conjugacy_partition,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    generalized_quaternion,
    order_partition,
    read_cayley_file,
    semidirect_pq,
    super_graph,
    super_laplacian_charpoly,
    twin_canonical_form,
    write_cayley_file,
)
from supergraph.groups import (
    MAX_ORDER,
    FiniteGroup,
    _find_identity,
    _generating_set,
    _validate_table,
)
from supergraph.verify import DEFAULT_PQ_PAIRS


def test_trivial_group():
    g = from_cayley_table([[0]])
    assert g.order == 1
    assert g.identity == 0
    assert g.is_abelian()
    assert g.element_order(0) == 1


def test_z4_from_table():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    g = from_cayley_table(table)
    assert g.order == 4
    assert g.is_abelian()
    assert [g.element_order(x) for x in range(4)] == [1, 4, 2, 4]


def _intercalates(table, avoid=0):
    """Yield every 2x2 Latin subsquare (r1, r2, c1, c2), r1 < r2 and c1 < c2,
    that misses row and column ``avoid``, in lexicographic order."""
    t = np.asarray(table)
    n = len(t)
    pos = np.argsort(t, axis=1)  # pos[r, v]: the column where row r holds v
    r2, c1 = np.indices((n, n))
    for r1 in range(n):
        c2 = pos[r1][t]  # c2[r2, c1]: the column where row r1 holds t[r2, c1]
        hit = (r1 < r2) & (c1 < c2) & (t[r2, c2] == t[r1][c1])
        hit &= (r1 != avoid) & (r2 != avoid) & (c1 != avoid) & (c2 != avoid)
        for found in zip(r2[hit].tolist(), c1[hit].tolist(), c2[hit].tolist()):
            yield (r1, *found)


def _swap(table, r1, r2, c1, c2):
    """Swap the entries of an intercalate: the table stays a Latin square."""
    out = [[int(v) for v in row] for row in table]
    out[r1][c1], out[r1][c2] = out[r1][c2], out[r1][c1]
    out[r2][c1], out[r2][c2] = out[r2][c2], out[r2][c1]
    return out


def _intercalate_swap(table):
    """Swap the first 2x2 Latin subsquare away from row/column 0, preserving the
    Latin property and the identity while breaking associativity."""
    return _swap(table, *next(_intercalates(table)))


def _associativity_witness(table):
    """Exhaustive O(n^3) oracle, the check validation ran up to order 256
    before Light's test: the first triple (i, j, k) with (i*j)*k != i*(j*k),
    or None when the table is associative."""
    t = np.asarray(table)
    for i in range(len(t)):
        left = t[t[i, :], :]
        right = t[i, t]
        if not np.array_equal(left, right):
            j, k = np.argwhere(left != right)[0]
            return i, int(j), int(k)
    return None


def _relabel(table, perm):
    """The table of the same group with element g renamed perm[g]."""
    t = np.asarray(table)
    out = np.empty_like(t)
    out[np.ix_(perm, perm)] = perm[t]
    return out


def _is_true_witness(table, witness):
    x, s, y = witness
    return table[table[x][s]][y] != table[x][table[s][y]]


def test_corrupted_s3_reports_witness_triple():
    table = [[int(v) for v in row] for row in dihedral(3).table]
    bad = _intercalate_swap(table)
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table(bad)
    i, j, k = exc.value.witness
    # independent re-check of the reported triple
    assert bad[bad[i][j]][k] != bad[i][bad[j][k]]


def test_non_latin_table_rejected():
    with pytest.raises(NotAGroup):
        from_cayley_table([[0, 0], [1, 1]])


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 0], [1, 1]], "row 0 is not a permutation"),
        ([[0, 1, 2], [1, 1, 2], [2, 0, 1]], "row 1 is not a permutation"),
        ([[0, 1, 2], [1, 0, 2], [2, 0, 1]], "column 1 is not a permutation"),
        # an identity that every row holds: rejected by Light's test, named
        # by the Latin-square pass
        ([[0, 1, 2], [1, 0, 0], [2, 1, 0]], "row 1 is not a permutation"),
    ],
)
def test_latin_failure_names_first_bad_row_or_column(table, message):
    # Index i is checked as row i, then column i, before index i + 1.
    with pytest.raises(NotAGroup, match=message) as exc:
        from_cayley_table(table)
    assert exc.value.witness == int(message.split()[1])


def test_light_test_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(20231)
    bases = [dihedral(n).table for n in range(3, 9)]
    bases += [generalized_quaternion(n).table for n in (2, 3, 4)]
    # Groups of odd order have no intercalates, so the PQ tables have q = 2.
    bases += [semidirect_pq(p, 2).table for p in (3, 5, 7, 11)]
    bases += [cyclic(n).table for n in (4, 6, 8, 10, 12, 16)]
    accepted = rejected = 0
    for base in bases:
        for _ in range(24):
            perm = rng.permutation(len(base))
            table = _relabel(base, perm).tolist()
            identity = int(perm[0])
            for _ in range(rng.integers(1, 4)):
                found = list(_intercalates(table, avoid=identity))
                if not found:
                    break
                table = _swap(table, *found[rng.integers(len(found))])
            oracle = _associativity_witness(table)
            t = np.array(table)
            if oracle is None:
                assert _validate_table(t) == identity
                accepted += 1
                continue
            with pytest.raises(NotAGroup) as exc:
                _validate_table(t)
            assert _is_true_witness(table, exc.value.witness), exc.value
            assert exc.value.witness[1] in _generating_set(t, identity)
            rejected += 1
    assert accepted + rejected >= 400
    assert accepted > 0 and rejected > 0


def test_relabelled_identity_away_from_zero_accepted():
    # As the benchmark's D20xD10 Cayley file: D20 x D10 with seeded labels.
    product = direct_product(dihedral(10), dihedral(5))
    perm = np.random.default_rng(1).permutation(product.order)
    assert perm[0] != 0
    g = from_cayley_table(_relabel(product.table, perm))
    assert g.identity == perm[0]
    assert g.center() == tuple(sorted(int(perm[z]) for z in product.center()))


def test_corrupted_table_above_order_256_rejected():
    table = dihedral(150).table.tolist()
    bad = _swap(table, *next(_intercalates(table)))
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table(bad)
    assert _is_true_witness(bad, exc.value.witness)


def _row_by_row_witness(table, identity):
    """Light's test one row at a time, generators in ``_generating_set`` order:
    the first (x, s, y) with (x*s)*y != x*(s*y), or None."""
    for s in _generating_set(table, identity):
        for x in range(len(table)):
            differ = table[table[x, s]] != table[x][table[s]]
            if differ.any():
                return x, s, int(np.flatnonzero(differ)[0])
    return None


def test_witness_past_the_first_row_block():
    # Z_600 with the intercalate at rows 200/500, columns 100/400 swapped: a
    # Latin square with identity 0 whose first row block is 109 rows.
    table = cyclic(600).table.copy()
    rows, cols = [200, 200, 500, 500], [100, 400, 100, 400]
    table[rows, cols] = table[rows, cols[::-1]]
    assert _row_by_row_witness(table, 0) == (199, 1, 100)
    with pytest.raises(NotAGroup) as exc:
        _validate_table(table)
    assert str(exc.value) == "not associative: (199*1)*100 != 199*(1*100)"
    assert exc.value.witness == (199, 1, 100)
    assert _validate_table(dihedral(200).table) == 0


@pytest.mark.parametrize("n", [256, 258], ids=["uint8", "uint16"])
def test_light_test_at_the_edges_of_the_narrow_copy(n):
    # Light's test gathers from a copy in uint8 up to order 256 and uint16
    # above; entry n - 1 must survive the copy. Rows 127 and 127 + n/2,
    # columns 1 and 1 + n/2 form an intercalate of Z_n; at n = 258 its second
    # row is past the first block of 254 rows and holds entries above 255.
    table = cyclic(n).table.copy()
    assert _validate_table(table) == 0
    rows, cols = [127, 127, 127 + n // 2, 127 + n // 2], [1, 1 + n // 2] * 2
    table[rows, cols] = table[rows, cols[::-1]]
    witness = _row_by_row_witness(table, 0)
    assert witness is not None and _is_true_witness(table, witness)
    with pytest.raises(NotAGroup) as exc:
        _validate_table(table)
    assert exc.value.witness == witness


def test_identity_found_in_the_last_row():
    perm = np.roll(np.arange(12), 1)  # element g renamed g - 1 mod 12, so e = 11
    table = _relabel(dihedral(6).table, perm)
    assert _find_identity(table) == 11
    assert _validate_table(table) == 11
    assert from_cayley_table(table).identity == 11


@pytest.mark.parametrize(
    "table, identity",
    [
        # rows 0, 1 and 3 fix 0; only 3 is a two-sided identity
        ([[0, 0, 0, 0], [0, 1, 1, 1], [2, 2, 2, 2], [0, 1, 2, 3]], 3),
        # rows 0 and 2 are left identities, and no column is the identity column
        ([[0, 1, 2], [0, 0, 0], [0, 1, 2]], None),
    ],
)
def test_identity_search_among_rows_that_fix_zero(table, identity):
    assert _find_identity(np.array(table)) == identity


def test_group_needing_many_generators():
    g = cyclic(2)
    for _ in range(7):
        g = direct_product(g, cyclic(2))
    assert g.order == 256
    assert _generating_set(g.table, g.identity) == [1, 2, 4, 8, 16, 32, 64, 128]
    bad = _swap(g.table, *next(_intercalates(g.table)))
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table(bad)
    assert _is_true_witness(bad, exc.value.witness)


@pytest.mark.parametrize(
    "table",
    [
        [[0.0, 1.0], [1.0, 0.5]],
        [[0, 1], [1]],
        [[0.0, float("nan")], [1.0, 0.0]],
        [[0, "1"], [1, 0]],
        [[0, 2**70], [1, 0]],
    ],
    ids=["fraction", "ragged", "nan", "string", "beyond-int64"],
)
def test_inexact_table_entries_rejected(table):
    with pytest.raises(NotAGroup):
        from_cayley_table(table)


def test_integer_valued_entries_accepted():
    z2 = [[0, 1], [1, 0]]
    for table in (z2, [[0.0, 1.0], [1.0, 0.0]], np.array(z2, dtype=np.uint8),
                  np.array(z2, dtype=np.int32), np.array(z2, dtype=np.float32)):
        g = from_cayley_table(table)
        assert g.table.dtype == np.int64
        assert g.table.tolist() == z2


def test_table_entries_are_read_by_the_one_integer_rule():
    z2 = [[0, 1], [1, 0]]
    for one in (Fraction(1), Decimal(1), Decimal("1.0"), np.uint64(1), True):
        assert from_cayley_table([[0, one], [one, 0]]).table.tolist() == z2
    for validate in (True, False):  # the witness is the entry's (row, column) either way
        message = r"^multiplication table entry 0\.5 at \(1, 1\) is not an integer$"
        with pytest.raises(NotAGroup, match=message) as exc:
            FiniteGroup([[0, 1], [1, 0.5]], validate=validate)
        assert exc.value.witness == (1, 1)
        with pytest.raises(NotAGroup, match=r"^table entry at \(0, 1\) outside 0..1$") as exc:
            FiniteGroup([[0, 2 ** 64], [1, 0]], validate=validate)
        assert exc.value.witness == (0, 1)


def test_a_write_to_the_callers_table_never_reaches_the_group():
    d6 = dihedral(3).table
    for validate in (True, False):
        table = d6.copy()
        g = FiniteGroup(table, validate=validate)
        table.setflags(write=True)
        table[0, 0] = 1
        wide = np.hstack([d6, d6])  # the caller holds the array a view reads
        h = from_cayley_table(wide[:, :6])
        wide[0, 0] = 1
        for group in (g, h):
            assert np.array_equal(group.table, d6) and not group.table.flags.writeable
    assert not d6.flags.writeable  # a family table is read-only too


def test_a_validated_table_cannot_be_made_writable():
    for group in (dihedral(3), from_cayley_table(dihedral(3).table.tolist()),
                  FiniteGroup(np.array(dihedral(4).table), validate=False)):
        for array in (group.table, group.table.base):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)
        assert not group.table.flags.writeable


def test_direct_product():
    d6, z2 = dihedral(3), cyclic(2)
    g = direct_product(d6, z2)
    assert g.order == 12 and g.name == "D6xZ2"
    assert g.labels[:3] == ("(e,e)", "(e,a)", "(a,e)")
    for x1, y1, x2, y2 in itertools.product(range(6), range(2), range(6), range(2)):
        product = g.multiply(2 * x1 + y1, 2 * x2 + y2)
        assert product == 2 * d6.multiply(x1, x2) + z2.multiply(y1, y2)
    assert g.center() == (0, 1)


def _symmetric(n):
    """S_n on the permutations of 0..n-1 in lexicographic order, (p*q)(i) = p(q(i))."""
    perms = np.array(list(itertools.permutations(range(n))))
    m = len(perms)
    composed = perms[np.arange(m)[:, None, None], perms[None, :, :]]
    code = n ** np.arange(n - 1, -1, -1)  # lexicographic order is code order
    return from_cayley_table(np.searchsorted(perms @ code, composed @ code), name=f"S{n}")


def _wider_groups():
    return [
        _symmetric(4),
        _symmetric(5),
        direct_product(dihedral(4), dihedral(3)),
        direct_product(dihedral(3), generalized_quaternion(2)),
        direct_product(dihedral(5), cyclic(6)),
    ]


def test_symmetric_groups():
    s4, s5 = _symmetric(4), _symmetric(5)
    assert sorted(len(b) for b in s4.conjugacy_classes().blocks) == [1, 3, 6, 6, 8]
    assert sorted(len(b) for b in s5.conjugacy_classes().blocks) == [1, 10, 15, 20, 20, 24, 30]
    assert s5.center() == (0,)


def test_wider_groups_quotient_route_matches_explicit_laplacian():
    for g in _wider_groups():
        base = commuting_graph(g)
        for partition in (order_partition, conjugacy_partition):
            part = partition(g)
            explicit = char_poly_integer(super_graph(base, part).laplacian_matrix())
            assert super_laplacian_charpoly(base, part) == explicit, (g.name, partition)


def test_wider_groups_twin_form_agrees_with_isomorphism():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(5)
    graphs = []
    for g in _wider_groups():
        base = commuting_graph(g)
        graphs += [super_graph(base, p(g)) for p in (order_partition, conjugacy_partition)]
    # Commuting graphs with more than 8 reflection-type twin classes, whose
    # identical quotient rows collapse into one run of the tie-break search;
    # D36 and Q36 have isomorphic commuting graphs.
    families = (dihedral(9), dihedral(18), generalized_quaternion(9),
                generalized_quaternion(10), semidirect_pq(19, 3))
    graphs += [commuting_graph(g) for g in families]
    relabelled = []
    for graph in graphs:
        perm = rng.permutation(graph.n)
        relabelled.append(SimpleGraph.from_adjacency(graph.adjacency[np.ix_(perm, perm)]))
    graphs += relabelled
    forms = [twin_canonical_form(graph) for graph in graphs]
    nets = [nx.from_numpy_array(graph.adjacency.astype(int)) for graph in graphs]
    outcomes = set()
    for i, j in itertools.combinations(range(len(graphs)), 2):
        if graphs[i].n != graphs[j].n:
            continue
        # VF2++: plain VF2 (nx.is_isomorphic) needs minutes on some of these pairs.
        isomorphic = nx.vf2pp_is_isomorphic(nets[i], nets[j])
        assert (forms[i] == forms[j]) == isomorphic, (i, j, forms[i], forms[j])
        outcomes.add(isomorphic)
    assert outcomes == {True, False}


def test_dihedral_enumeration_and_labels():
    d6 = dihedral(3)
    assert d6.order == 6
    assert d6.labels == ("e", "a", "a^2", "b", "ba", "ba^2")
    # presentation: a*b = b*a^(-1), so the group is nonabelian
    a, b = 1, 3
    assert d6.multiply(a, b) != d6.multiply(b, a)
    assert d6.multiply(a, b) == d6.multiply(b, 2)  # ab = ba^2 = ba^{-1}
    assert not d6.is_abelian()


def test_dihedral_a_has_order_n():
    d8 = dihedral(4)
    sq = d8.multiply(2, 2)  # a^2 * a^2
    assert sq == d8.identity
    assert d8.element_order(1) == 4


def test_dihedral_rejects_small_n():
    with pytest.raises(InvalidParameter):
        dihedral(2)


def test_dihedral_order_multiset():
    for n in (3, 4, 5, 6, 9, 10):
        g = dihedral(n)
        got = sorted(g.element_order(x) for x in range(2 * n))
        expected = sorted(
            [1] + [n // math.gcd(i, n) for i in range(1, n)] + [2] * n
        )
        assert got == expected


def test_quaternion_q8():
    q8 = generalized_quaternion(2)
    assert q8.order == 8
    b = 4
    assert q8.multiply(b, b) == 2  # b^2 = a^n with n=2
    # a^n is the only element of order 2
    assert [x for x in range(8) if q8.element_order(x) == 2] == [2]


def test_quaternion_orders():
    q12 = generalized_quaternion(3)
    assert q12.element_order(6) == 4  # o(b) = 4
    assert q12.element_order(6 + 5) == 4  # o(ba^5) = 4
    assert q12.element_order(0) == 1
    with pytest.raises(InvalidParameter):
        generalized_quaternion(1)


def test_semidirect_7_3():
    g = semidirect_pq(7, 3)
    assert g.order == 21
    # smallest twist with m^q = 1 (mod p), found by brute force
    m = next(c for c in range(2, 7) if pow(c, 3, 7) == 1)
    assert m == 2
    b, a = 1, 7
    assert g.multiply(a, b) == g.multiply(g.power(b, m), a)  # a b = b^m a


def test_semidirect_element_order_counts():
    for p, q in ((7, 3), (5, 2), (13, 3)):
        g = semidirect_pq(p, q)
        orders = [g.element_order(x) for x in range(g.order)]
        assert orders.count(p) == p - 1
        assert orders.count(q) == p * (q - 1)
        assert orders.count(1) == 1


def test_semidirect_3_2_isomorphic_to_d6():
    g = semidirect_pq(3, 2)
    d6 = dihedral(3)
    assert g.order == 6
    # commuting graphs have the same canonical form
    assert twin_canonical_form(commuting_graph(g)) == twin_canonical_form(
        commuting_graph(d6)
    )
    # exhaustive isomorphism search at order 6
    others = [x for x in range(6) if x != 0]
    found = False
    for perm in itertools.permutations(others):
        phi = {0: d6.identity}
        phi.update({x: perm[i] for i, x in enumerate(others)})
        if all(
            phi[g.multiply(x, y)] == d6.multiply(phi[x], phi[y])
            for x in range(6)
            for y in range(6)
        ):
            found = True
            break
    assert found


def test_semidirect_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        semidirect_pq(5, 3)  # 3 does not divide 4
    with pytest.raises(InvalidParameter):
        semidirect_pq(4, 2)  # 4 not prime
    with pytest.raises(InvalidParameter):
        semidirect_pq(3, 3)  # not distinct


@pytest.mark.parametrize("build, order", [
    (lambda: dihedral(3_000_000), 6_000_000),
    (lambda: generalized_quaternion(MAX_ORDER // 4 + 1), MAX_ORDER + 4),
    (lambda: cyclic(MAX_ORDER + 1), MAX_ORDER + 1),
    (lambda: semidirect_pq(1_000_003, 3), 3_000_009),
    (lambda: direct_product(dihedral(100), dihedral(100)), 40_000),
])
def test_oversized_order_rejected_before_building(build, order):
    with pytest.raises(InvalidParameter,
                       match=f"group order {order} exceeds the cap of {MAX_ORDER}"):
        build()


def test_conjugacy_classes_d8():
    d8 = dihedral(4)
    assert d8.conjugacy_classes().blocks == ((0,), (1, 3), (2,), (4, 6), (5, 7))


def test_conjugacy_classes_pq():
    g = semidirect_pq(7, 3)
    sizes = sorted(len(b) for b in g.conjugacy_classes().blocks)
    assert sizes == [1, 3, 3, 7, 7]
    # the two classes of size p consist of the b^i a^j blocks, j = 1, 2
    for block in g.conjugacy_classes().blocks:
        if len(block) == 7:
            js = {v // 7 for v in block}
            assert len(js) == 1 and js != {0}


def test_conjugacy_classes_abelian_all_singletons():
    g = cyclic(6)
    assert g.conjugacy_classes().blocks == tuple((i,) for i in range(6))


def test_conjugacy_blocks_share_order_and_are_closed():
    for g in (dihedral(6), generalized_quaternion(3), semidirect_pq(5, 2)):
        part = g.conjugacy_classes()
        assert sorted(v for b in part.blocks for v in b) == list(range(g.order))
        for block in part.blocks:
            orders = {g.element_order(v) for v in block}
            assert len(orders) == 1
            for v in block:
                for h in range(g.order):
                    conj = g.multiply(g.multiply(h, v), g.inverse(h))
                    assert conj in block


def test_center():
    assert dihedral(3).center() == (0,)
    assert generalized_quaternion(2).center() == (0, 2)
    assert cyclic(5).center() == tuple(range(5))


def test_center_equals_singleton_classes():
    for g in (dihedral(4), dihedral(5), generalized_quaternion(3), semidirect_pq(7, 3)):
        singletons = tuple(
            b[0] for b in g.conjugacy_classes().blocks if len(b) == 1
        )
        assert g.center() == singletons


def test_is_abelian():
    assert cyclic(4).is_abelian()
    assert not dihedral(3).is_abelian()
    assert from_cayley_table([[0]]).is_abelian()


def test_power_and_inverse():
    q12 = generalized_quaternion(3)
    for x in range(q12.order):
        assert q12.multiply(x, q12.inverse(x)) == q12.identity
        assert q12.power(x, q12.element_order(x)) == q12.identity


def test_cayley_file_round_trip(tmp_path):
    g = dihedral(4)
    path = tmp_path / "d8.txt"
    write_cayley_file(g, path)
    back = read_cayley_file(path)
    assert back.order == g.order
    assert np.array_equal(back.table, g.table)
    assert back.labels == g.labels


def test_cayley_file_errors(tmp_path):
    from supergraph import FormatError

    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n")
    with pytest.raises(FormatError):
        read_cayley_file(path)
    path.write_text("2\n0 1\n1 x\n")
    with pytest.raises(FormatError):
        read_cayley_file(path)
    path.write_text("2\n0 1 0\n1 0 1\n")
    with pytest.raises(FormatError):
        read_cayley_file(path)


@pytest.mark.parametrize("text, message", [
    ("", "empty table file"),
    ("# comment\n\n#labels: a b\n", "empty table file"),
    ("x\n0\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ("2 3\n0 1\n1 0\n", "line 1: expected a single order value"),
    ("0\n", "line 1: order must be >= 1"),
    ("2\n0 1\n1 x\n", "line 3: invalid literal for int() with base 10: 'x'"),
    ("2\n0 1\n1 0.0\n", "line 3: invalid literal for int() with base 10: '0.0'"),
    ("2\n0 1 0\n1 0 1\n", "line 2: expected 2 entries, got 3"),
    ("3\n# rows follow\n0 1 2\n\n1 2\n", "line 5: expected 3 entries, got 2"),
    ("2\n0 1 1\n1 x\n", "line 2: expected 2 entries, got 3"),
    ("2\nx 1 1\n1 0\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ("2\n0 1\n", "expected 2 table rows, found 1"),
    ("2\n0 1\n1 0\n0 1\n", "expected 2 table rows, found 3"),
    ("2\n0 1\n1 0\n#labels: e\n", "#labels: line has 1 names, expected 2"),
])
def test_cayley_file_error_messages(tmp_path, text, message):
    from supergraph import FormatError

    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError) as caught:
        read_cayley_file(path)
    assert str(caught.value) == f"{path}: {message}"


def test_cayley_file_rows_off_the_plain_path(tmp_path):
    # rows numpy does not parse go through int(): other whitespace, signs,
    # underscores, non-ASCII digits, leading zeros, entries beyond int64
    path = tmp_path / "z3.txt"
    path.write_text("3\n+0 1  2\n1\t2\t0\n 2 0 \uff11 \n#labels: e a b\n")
    g = read_cayley_file(path)
    assert g.table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert g.labels == ("e", "a", "b") and g.name == "z3"
    for text in ("2\n0_0 1\n1 0\n", "2\n0 1\n1 0000000000000000000000000\n"):
        path.write_text(text)
        assert read_cayley_file(path).table.tolist() == [[0, 1], [1, 0]]
    for entry, message in (
        ("100000000000000000000", r"table entry at \(1, 1\) outside 0..1"),
        ("9223372036854775807", r"table entry at \(1, 1\) outside 0..1"),
        ("2", r"table entry at \(1, 1\) outside 0..1"),
        ("-1", r"table entry at \(1, 1\) outside 0..1"),
    ):
        path.write_text(f"2\n0 1\n1 {entry}\n")
        with pytest.raises(NotAGroup, match=message):
            read_cayley_file(path)


def test_group_table_is_readonly():
    g = dihedral(3)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1


# Reference multiplication rules, one Python call per table entry: the
# family constructors build the same tables by index arithmetic.
def _dihedral_mul(n, x, y):
    xf, xi = divmod(x, n)
    yf, yi = divmod(y, n)
    if xf == 0 and yf == 0:
        return (xi + yi) % n
    if xf == 0 and yf == 1:
        return n + (yi - xi) % n
    if xf == 1 and yf == 0:
        return n + (xi + yi) % n
    return (yi - xi) % n


def _quaternion_mul(n, x, y):
    m = 2 * n
    xf, xi = divmod(x, m)
    yf, yi = divmod(y, m)
    if xf == 0 and yf == 0:
        return (xi + yi) % m
    if xf == 0 and yf == 1:
        return m + (yi - xi) % m
    if xf == 1 and yf == 0:
        return m + (xi + yi) % m
    return (n + yi - xi) % m


def _semidirect_mul(p, q, m, x, y):
    j1, i1 = divmod(x, p)
    j2, i2 = divmod(y, p)
    return ((j1 + j2) % q) * p + (i1 + i2 * pow(m, j1, p)) % p


def _cyclic_mul(n, x, y):
    return (x + y) % n


def _family_cases():
    """(group, order, reference multiplication) for every family size checked."""
    cases = [(dihedral(n), 2 * n, functools.partial(_dihedral_mul, n)) for n in range(3, 41)]
    cases += [(generalized_quaternion(n), 4 * n, functools.partial(_quaternion_mul, n))
              for n in range(2, 41)]
    for p, q in DEFAULT_PQ_PAIRS + ((19, 3), (31, 5), (127, 3)):
        m = next(c for c in range(2, p) if pow(c, q, p) == 1)
        cases.append((semidirect_pq(p, q), p * q, functools.partial(_semidirect_mul, p, q, m)))
    cases += [(cyclic(n), n, functools.partial(_cyclic_mul, n)) for n in range(1, 41)]
    return cases


def test_family_tables_match_reference_rules():
    for g, size, mul in _family_cases():
        reference = np.array([[mul(x, y) for y in range(size)] for x in range(size)])
        assert g.table.dtype == np.int64, g.name
        assert np.array_equal(g.table, reference), g.name


def test_family_tables_at_the_workload_orders_match_reference_rules():
    # The benchmark workloads' family groups, up to order 400; kept out of
    # _family_cases, whose pure-Python oracles would crawl at these orders.
    cases = [(dihedral(n), 2 * n, functools.partial(_dihedral_mul, n)) for n in (49, 100, 200)]
    cases += [(generalized_quaternion(n), 4 * n, functools.partial(_quaternion_mul, n))
              for n in (17, 100)]
    for g, size, mul in cases:
        reference = np.array([[mul(x, y) for y in range(size)] for x in range(size)])
        assert np.array_equal(g.table, reference), g.name


def _oracle_groups():
    return [g for g, _, _ in _family_cases()] + _wider_groups()


def test_element_orders_match_power_loop():
    for g in _oracle_groups():
        t = g.table.tolist()
        expected = []
        for x in range(g.order):
            acc, k = x, 1
            while acc != g.identity:
                acc, k = t[acc][x], k + 1
            expected.append(k)
        assert g.element_orders().tolist() == expected, g.name
        assert [g.element_order(x) for x in (0, g.order - 1)] == [expected[0], expected[-1]]


def test_conjugacy_classes_and_center_match_definitions():
    for g in _oracle_groups():
        t = g.table.tolist()
        inverse = [row.index(g.identity) for row in t]
        seen, blocks = set(), []
        for x in range(g.order):
            if x not in seen:
                orbit = {t[t[h][x]][inverse[h]] for h in range(g.order)}
                seen |= orbit
                blocks.append(orbit)
        assert g.conjugacy_classes() == Partition(g.order, blocks), g.name
        assert [g.inverse(x) for x in range(g.order)] == inverse, g.name
        center = tuple(z for z in range(g.order)
                       if all(t[z][x] == t[x][z] for x in range(g.order)))
        assert g.center() == center, g.name


def test_element_without_finite_order_raises():
    # Unvalidated: identity 0 and every row holds it, but the powers of 1
    # cycle 1, 2, 3, 2, 3, ... and never come back to the identity.
    g = FiniteGroup([[0, 1, 2, 3], [1, 2, 0, 3], [2, 3, 0, 1], [3, 2, 1, 0]], validate=False)
    with pytest.raises(NotAGroup, match="element 1 has no finite order") as exc:
        order_partition(g)
    assert exc.value.witness == 1


def test_row_without_identity_raises():
    with pytest.raises(NotAGroup, match="row 1 holds no identity") as exc:
        FiniteGroup([[0, 1], [1, 1]], validate=False)
    assert exc.value.witness == 1


@pytest.mark.parametrize("validate", [True, False])
def test_latin_square_without_identity_raises(validate):
    # every row and column is a permutation, yet no row is the identity row
    with pytest.raises(NotAGroup, match="table has no identity element"):
        FiniteGroup([[0, 2, 1], [2, 1, 0], [1, 0, 2]], validate=validate)
