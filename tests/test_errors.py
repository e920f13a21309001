"""The one integer rule and the typed-error contract of the public API.

``errors.integer`` decides what an integer is. A malformed integer, matrix or
JSON argument of the public API, wherever it sits (an argument, a list
element, a pair member, a matrix entry, a JSON field), raises a
``SupergraphError`` subclass and is never truncated.
"""

import json
import math
import re
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import supergraph as sg
from supergraph import (
    FormatError,
    InvalidParameter,
    Partition,
    PolynomialZ,
    SimpleGraph,
    Spectrum,
    SupergraphError,
)
from supergraph.errors import index, integer, integer_matrix, items, real

# ---------------------------------------------------------------------------
# errors.integer


def test_integer_accepts_every_integral_in_memory_form():
    for value, expected in (
        (7, 7), (-3, -3), (2 ** 80, 2 ** 80), (3.0, 3), (-0.0, 0), (np.float32(4.0), 4),
        (np.int8(-5), -5), (np.uint64(2 ** 64 - 1), 2 ** 64 - 1), (np.array(6), 6),
        (True, 1), (False, 0), (np.bool_(True), 1),
    ):
        result = integer(value, "value")
        assert result == expected and type(result) is int


@pytest.mark.parametrize("value", [
    2.5, -0.1, float("nan"), float("inf"), "3", "x", b"3", None, 1 + 0j, [3], (3,),
    np.array([3]), np.array([[4.0]]), np.array(2.5), np.float64(1e-9), np.complex128(3),
    np.array(3 + 0j), np.str_("3"), {3: 3},
])
def test_integer_rejects_everything_else_by_name(value):
    with pytest.raises(InvalidParameter, match=f"^widget {re.escape(repr(value))} is not"):
        integer(value, "widget")


def test_integer_least_bound():
    assert integer(3, "order", least=3) == 3
    assert integer(4.0, "order", least=3) == 4
    with pytest.raises(InvalidParameter, match="^order must be >= 3, got 2$"):
        integer(2, "order", least=3)
    with pytest.raises(InvalidParameter, match="^order must be >= 0, got -1$"):
        integer(np.int64(-1), "order", least=0)
    with pytest.raises(InvalidParameter, match="is not an integer"):
        integer(2.5, "order", least=3)  # the type is judged before the bound


def test_index_reads_integers_in_range_only():
    assert index(np.int64(2), "vertex", 3) == 2 and index(0.0, "vertex", 3) == 0
    with pytest.raises(InvalidParameter, match="^vertex -1 outside 0..2$"):
        index(-1, "vertex", 3)
    with pytest.raises(InvalidParameter, match="^vertex 3 outside 0..2$"):
        index(3, "vertex", 3)
    with pytest.raises(InvalidParameter, match="is not an integer"):
        index(0.5, "vertex", 3)


def test_real_accepts_ints_floats_and_0d_numpy_reals():
    for value, expected in (
        (3, 3), (2.5, 2.5), (True, 1), (np.int8(-4), -4), (np.float32(0.5), 0.5),
        (np.bool_(True), 1), (np.array(1.5), 1.5), (np.uint64(7), 7),
    ):
        result = real(value, "value")
        assert result == expected and type(result) is type(expected) and type(result) in (int, float)


@pytest.mark.parametrize("value", [
    "3", b"3", 1 + 0j, np.complex128(3), np.array(3 + 0j), np.array([3.0]), None, [1],
    np.str_("3"), float("nan"), float("inf"), float("-inf"), np.float64("nan"),
    np.array(np.inf), pytest.param(2 ** 2000, id="2**2000"),
    pytest.param(-(2 ** 2000), id="-2**2000"),
])
def test_real_rejects_strings_bytes_complex_and_arrays(value):
    with pytest.raises(InvalidParameter, match=f"^widget {re.escape(repr(value))} is not a real"):
        real(value, "widget")


@pytest.mark.parametrize("value", ["ab", np.str_("ab"), b"\x01\x02", bytearray(b"\x01")])
def test_items_rejects_text_and_bytes(value):
    with pytest.raises(InvalidParameter, match="^widgets must be a collection, not "):
        items(value, "widgets")


@pytest.mark.parametrize("call", [
    lambda: PolynomialZ(b"\x01\x02"),
    lambda: PolynomialZ(bytearray(b"\x01\x02")),
    lambda: sg.star_join_laplacian_spectrum(b"\x02\x03"),
    lambda: sg.complete_graph(3, labels="abc"),
    lambda: Spectrum("ab"),
], ids=["poly-bytes", "poly-bytearray", "star-join-bytes", "labels-str", "spectrum-str"])
def test_strings_are_not_read_as_containers(call):
    with pytest.raises(InvalidParameter, match="must be a collection"):
        call()


# ---------------------------------------------------------------------------
# Truncations: each of these returned a wrong answer instead of an error


@pytest.mark.parametrize("call", [
    lambda: Partition(3.7, [[0, 1, 2]]),
    lambda: Partition(3, [[0.5, 1, 2]]),
    lambda: Partition(3, [[0, 1, 2.9]]),
    lambda: Partition("3", [[0, 1, 2]]),
    lambda: Spectrum([(1, 1.7)]),
    lambda: Spectrum([(1, "2")]),
    lambda: sg.star_join_laplacian_spectrum([2.5, 3]),
    lambda: sg.complete_graph(3).induced_subgraph([0.5, 1]),
    lambda: sg.dihedral(3).element_order(2.5),
    lambda: sg.dihedral(3).power(1, 2.5),
    lambda: sg.verify_generic(1.5, 1),
], ids=["partition-size-3.7", "partition-element-0.5", "partition-element-2.9",
        "partition-size-str", "spectrum-multiplicity-1.7", "spectrum-multiplicity-str",
        "star-join-size-2.5", "induced-vertex-0.5", "element-order-2.5", "power-exponent-2.5",
        "generic-seed-1.5"])
def test_non_integral_arguments_are_not_truncated(call):
    with pytest.raises(InvalidParameter, match="is not an integer"):
        call()


def test_integral_arguments_still_read_as_their_value():
    assert Partition(3.0, [[0.0, np.int64(1)], [np.uint8(2)]]) == Partition(3, [[0, 1], [2]])
    assert Spectrum([(1, 2.0), (0, np.int32(1))]).pairs == ((0, 1), (1, 2))
    assert sg.star_join_laplacian_spectrum([2.0, np.int16(3)]) == (
        sg.star_join_laplacian_spectrum([2, 3]))
    assert SimpleGraph(3.0, [(0.0, np.int64(1))]) == SimpleGraph(3, [(0, 1)])
    assert sg.dihedral(np.int64(5)).order == sg.dihedral(5.0).order == 10
    assert sg.least_partition(np.int8(2)) == Partition(2, [[0], [1]])
    assert sg.complete_graph(3).induced_subgraph([np.int64(1), 2.0]) == sg.complete_graph(2)
    assert sg.dihedral(3).power(np.int8(1), 3.0) == 0 and sg.dihedral(3).power(1, -1) == 2


@pytest.mark.parametrize("call", [
    lambda: sg.complete_graph(3).degree(-1),
    lambda: sg.complete_graph(3).neighbors(-1),
    lambda: sg.complete_graph(3).induced_subgraph([-1]),
    lambda: sg.complete_graph(3).degree(3),
    lambda: sg.dihedral(3).multiply(0, -1),
    lambda: sg.dihedral(3).inverse(-1),
    lambda: sg.dihedral(3).power(-1, 2),
    lambda: sg.dihedral(3).element_order(6),
    lambda: Partition(3, [[0, 1], [2]]).block_containing(-1),
], ids=["degree", "neighbors", "induced-subgraph", "degree-past-end", "multiply", "inverse",
        "power", "element-order", "block-containing"])
def test_indices_outside_range_are_not_wrapped(call):
    with pytest.raises(InvalidParameter, match="outside 0.."):
        call()


# ---------------------------------------------------------------------------
# Escapes: each of these raised something other than a SupergraphError


@pytest.mark.parametrize("call, error", [
    (lambda: SimpleGraph.from_json('{"n": 3, "edges": [[0]]}'), FormatError),
    (lambda: SimpleGraph.from_json('{"n": "3"}'), FormatError),
    (lambda: SimpleGraph.from_json("[1, 2]"), FormatError),
    (lambda: SimpleGraph.from_json('{"n": 2, "labels": 5}'), FormatError),
    (lambda: SimpleGraph.from_json("{"), FormatError),
    (lambda: SimpleGraph(3, [(0.5, 1)]), InvalidParameter),
    (lambda: SimpleGraph(3.5), InvalidParameter),
    (lambda: SimpleGraph("3"), InvalidParameter),
    (lambda: SimpleGraph(3, 5), InvalidParameter),
    (lambda: SimpleGraph(3, [(0, 1, 2)]), InvalidParameter),
    (lambda: SimpleGraph.from_adjacency([[0, 1], [1]]), InvalidParameter),
    (lambda: Partition.from_json("{"), FormatError),
    (lambda: Partition.from_json("[" * 100_000), FormatError),
    (lambda: Partition.from_json(b"\xff"), FormatError),
    (lambda: Partition(3, [0, 1, 2]), InvalidParameter),
    (lambda: Partition(3, 5), InvalidParameter),
    (lambda: Spectrum(5), InvalidParameter),
    (lambda: Spectrum([(1, 2, 3)]), InvalidParameter),
    (lambda: Spectrum([("x", 1)]), InvalidParameter),
    (lambda: sg.star_join_laplacian_spectrum(["a", 3]), InvalidParameter),
    (lambda: sg.dihedral("5"), InvalidParameter),
    (lambda: sg.dihedral(5.5), InvalidParameter),
    (lambda: sg.generalized_quaternion("3"), InvalidParameter),
    (lambda: sg.cyclic(2.5), InvalidParameter),
    (lambda: sg.semidirect_pq(7.5, 3), InvalidParameter),
    (lambda: sg.semidirect_pq("7", 3), InvalidParameter),
    (lambda: sg.is_prime("7"), InvalidParameter),
    (lambda: sg.is_prime(7.5), InvalidParameter),
    (lambda: sg.least_partition(2.5), InvalidParameter),
    (lambda: sg.greatest_partition("3"), InvalidParameter),
    (lambda: sg.complete_graph("3"), InvalidParameter),
    (lambda: sg.star_graph(2.5), InvalidParameter),
    (lambda: sg.verify_spectral("Thm4.1(i)", [{}]), InvalidParameter),
    (lambda: sg.verify_spectral("Thm4.1(i)", [{"n": "5"}]), InvalidParameter),
    (lambda: sg.verify_spectral("Thm4.1(i)", [5]), InvalidParameter),
    (lambda: sg.verify_structure("Thm4.3", ["n4"]), InvalidParameter),
    (lambda: sg.closed_form("Thm4.1(i)", m=3), InvalidParameter),
    (lambda: sg.closed_form("Thm4.1(i)", n=5, m=3), InvalidParameter),
    (lambda: sg.closed_form("Thm4.2(i)", n="5"), InvalidParameter),
    (lambda: sg.verify_structure("Thm4.3", {"n": 4.5}), InvalidParameter),
    (lambda: sg.verify_structure("Thm4.5", {"p": 7}), InvalidParameter),
    (lambda: sg.verify_generic(42, 2.5), InvalidParameter),
    (lambda: sg.verify_generic(42, "3"), InvalidParameter),
    (lambda: sg.run_suite("4.3", n_range=(3.5, 5)), InvalidParameter),
    (lambda: sg.run_suite("4.5", jobs="2"), InvalidParameter),
    (lambda: sg.generalized_join(sg.complete_graph(2), [1, 2]), InvalidParameter),
    (lambda: sg.generalized_join(2, []), InvalidParameter),
    (lambda: sg.direct_product(sg.cyclic(2), 3), InvalidParameter),
    (lambda: sg.jacobi_eigenvalues([["a"]]), InvalidParameter),
    (lambda: sg.jacobi_eigenvalues([[1j]]), InvalidParameter),
    (lambda: sg.jacobi_eigenvalues([[1, 2], [3]]), InvalidParameter),
    (lambda: PolynomialZ.x() ** 2.5, InvalidParameter),
    (lambda: PolynomialZ.from_json_dict({}), FormatError),
    (lambda: PolynomialZ.from_json_dict({"coeffs": ["x"]}), FormatError),
    (lambda: PolynomialZ.from_json_dict({"coeffs": ["1.5"]}), FormatError),
    (lambda: PolynomialZ.from_json_dict({"coeffs": [1.5]}), FormatError),
    (lambda: PolynomialZ.from_json_dict({"coeffs": "12"}), FormatError),
    (lambda: PolynomialZ.from_json_dict([1, 2]), FormatError),
    (lambda: sg.spectrum_from_integer_charpoly(PolynomialZ((-1, 1)), bound=2.5),
     InvalidParameter),
    (lambda: PolynomialZ(5), InvalidParameter),
    (lambda: sg.char_poly_integers(5), InvalidParameter),
    (lambda: sg.char_poly_integer([np.array(1)]), InvalidParameter),
    (lambda: sg.star_join_laplacian_spectrum(5), InvalidParameter),
    (lambda: sg.run_suite("4.3", n_range=5), InvalidParameter),
    (lambda: sg.run_suite("4.3", n_range=(3, 4, 5)), InvalidParameter),
    (lambda: sg.run_suite("4.5", pq_pairs=[(7, 3, 5)]), InvalidParameter),
    (lambda: SimpleGraph(2, labels=5), InvalidParameter),
    (lambda: sg.from_cayley_table([[0]], labels=5), InvalidParameter),
    (lambda: PolynomialZ.from_roots([(1,)]), InvalidParameter),
    (lambda: Spectrum([(1,)]), InvalidParameter),
    (lambda: Spectrum([("3", 1)]), InvalidParameter),
    (lambda: Spectrum([(np.complex128(3), 1)]), InvalidParameter),
    (lambda: Spectrum([(np.array(3 + 0j), 1)]), InvalidParameter),
    (lambda: sg.multiset_match(Spectrum([(1, 1)]), Spectrum([(1, 1)]), "x"), InvalidParameter),
    (lambda: sg.interlacing_check([1, "a"], [1]), InvalidParameter),
    (lambda: sg.jacobi_eigenvalues([[np.complex128(3)]]), InvalidParameter),
    (lambda: sg.jacobi_eigenvalues(np.array([[3 + 0j]])), InvalidParameter),
    (lambda: sg.jacobi_eigenvalues([["1"]]), InvalidParameter),
    (lambda: Spectrum([(math.nan, 1)]), InvalidParameter),
    (lambda: Spectrum([(math.inf, 1), (1, 1)]), InvalidParameter),
    (lambda: hash(Spectrum([(2 ** 2000, 1)])), InvalidParameter),
    (lambda: sg.super_graph(5, Partition(3, [[0, 1], [2]])), InvalidParameter),
    (lambda: sg.super_graph(sg.complete_graph(3), 5), InvalidParameter),
    (lambda: sg.compressed_graph(sg.complete_graph(3), 5), InvalidParameter),
    (lambda: sg.super_adjacency_charpoly(sg.complete_graph(3), 5), InvalidParameter),
    (lambda: sg.quotient_spectrum(sg.complete_graph(3), 5, "adjacency"), InvalidParameter),
    (lambda: sg.super_charpolys([5], "adjacency"), InvalidParameter),
    (lambda: sg.super_charpolys(5, "adjacency"), InvalidParameter),
    (lambda: sg.generalized_join(sg.complete_graph(3), 5), InvalidParameter),
    (lambda: sg.refines(Partition(3, [[0, 1], [2]]), 5), InvalidParameter),
    (lambda: sg.refines(5, Partition(3, [[0, 1], [2]])), InvalidParameter),
    (lambda: sg.is_connected(5), InvalidParameter),
    (lambda: sg.connected_components(5), InvalidParameter),
    (lambda: sg.is_spanning_subgraph(5, sg.complete_graph(2)), InvalidParameter),
    (lambda: sg.is_spanning_subgraph(sg.complete_graph(2), 5), InvalidParameter),
    (lambda: sg.twin_canonical_form(5), InvalidParameter),
    (lambda: sg.commuting_graph(5), InvalidParameter),
    (lambda: sg.order_partition(5), InvalidParameter),
    (lambda: sg.conjugacy_partition(5), InvalidParameter),
    (lambda: sg.write_cayley_file(5, "never-written.txt"), InvalidParameter),
    (lambda: sg.spectrum_from_integer_charpoly(5), InvalidParameter),
    (lambda: sg.multiset_match(5, Spectrum([(1, 1)]), 0.1), InvalidParameter),
    (lambda: sg.multiset_match(Spectrum([(1, 1)]), 5, 0.1), InvalidParameter),
    (lambda: sg.grouped_match(5, Spectrum([(1, 1)]), 0.1), InvalidParameter),
    (lambda: sg.grouped_match(Spectrum([(1, 1)]), 5, 0.1), InvalidParameter),
    (lambda: sg.verify_spectral("Thm4.1(i)", 5), InvalidParameter),
    (lambda: sg.verify_spectral("Thm4.1(i)", None), InvalidParameter),
    (lambda: sg.run_suite("4.5", jobs=0), InvalidParameter),
    (lambda: sg.run_suite("4.5", jobs=-5), InvalidParameter),
])
def test_malformed_calls_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_claim_parameters_are_read_as_ints():
    assert sg.closed_form("Thm4.2(i)", n=5.0) == sg.closed_form("Thm4.2(i)", n=5)
    report = sg.verify_structure("Thm4.5", {"p": np.int64(7), "q": 3.0})
    assert report.params == {"p": 7, "q": 3} and type(report.params["p"]) is int
    assert sg.verify_spectral("Thm4.1(i)", [[("n", 5)]])[0].params == {"n": 5}  # pairs
    assert [r.params for r in sg.run_suite("4.3", n_range=(3.0, np.int8(4)))] == (
        [{"n": 3}, {"n": 4}])


def test_polynomial_json_takes_integer_strings_and_literals():
    assert PolynomialZ.from_json_dict({"coeffs": [1, "-2", str(2 ** 90)]}) == (
        PolynomialZ((1, -2, 2 ** 90)))


def test_read_cayley_file_rejects_bytes_that_are_not_text(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"2\n0 1\n1 \xff0\n")
    with pytest.raises(FormatError, match="t.txt"):
        sg.read_cayley_file(path)
    with pytest.raises(FormatError):
        sg.read_cayley_file(f"{tmp_path}/a\0b")


# ---------------------------------------------------------------------------
# errors.integer_matrix: one rule for every integer matrix

# Entries of every kind the rule meets: integers as bools, ints, ints beyond
# int64, integral floats, Fractions, Decimals and numpy scalars, and entries
# that are not integers.
MATRIX_ENTRIES = st.one_of(
    st.booleans(),
    st.integers(-2, 3),
    st.integers(2 ** 63, 2 ** 70),
    st.integers(-(2 ** 70), -(2 ** 63) - 1),
    st.integers(-2, 3).map(float),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
    st.integers(-2, 3).map(Decimal),
    st.sampled_from([np.int8(1), np.uint64(2 ** 64 - 1), np.float32(2.0), np.float64(0.5),
                     Decimal("0.5"), 0.5, math.nan, math.inf, "1", None, 1 + 0j, 1j]),
)
SQUARE_MATRICES = st.integers(2, 3).flatmap(
    lambda n: st.lists(st.lists(MATRIX_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))


def _error(call):
    try:
        call()
    except SupergraphError as exc:
        return exc
    return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(SQUARE_MATRICES)
def test_one_rule_reads_char_poly_adjacency_and_table_entries(matrix):
    bad = [(i, j, v) for i, row in enumerate(matrix) for j, v in enumerate(row)
           if not _integral(v)]
    poly = _error(lambda: sg.char_poly_integer(matrix))
    adjacency = _error(lambda: SimpleGraph.from_adjacency(matrix))
    table = _error(lambda: sg.from_cayley_table(matrix))
    if not bad:  # the adjacency and table rules may still reject it
        assert poly is None
        for exc in (adjacency, table):
            assert exc is None or "is not an integer" not in str(exc)
        return
    i, j, v = bad[0]
    where = f"entry {v!r} at ({i}, {j}) is not an integer"
    assert type(poly) is InvalidParameter and str(poly) == f"matrix {where}"
    assert type(adjacency) is InvalidParameter and str(adjacency) == f"adjacency matrix {where}"
    assert type(table) is sg.NotAGroup and str(table) == f"multiplication table {where}"
    assert table.witness == (i, j)


def test_integer_matrix_reads_arrays_as_arrays():
    ints = np.array([[1, -2], [3, 4]])
    assert integer_matrix(ints, "m") is ints  # int64: no copy
    for arr in (ints.astype(np.int8), ints.astype(float), np.array([[1, 2], [3, 4]], np.uint64),
                ints.astype(np.float32).T, np.array([[True, False], [False, True]])):
        result = integer_matrix(arr, "m")
        assert result.dtype == np.int64 and result.tolist() == arr.astype(np.int64).tolist()
    big = integer_matrix(np.array([[2 ** 64 - 1, 0], [1e20, 2]], dtype=object), "m")
    assert big.dtype == object and big.tolist() == [[2 ** 64 - 1, 0], [10 ** 20, 2]]
    assert integer_matrix(np.array([[2 ** 64 - 1]], np.uint64), "m").tolist() == [[2 ** 64 - 1]]
    assert integer_matrix(np.array([[1e20]]), "m").tolist() == [[10 ** 20]]
    assert integer_matrix(np.zeros((0, 0)), "m", nonempty=False).shape == (0, 0)


def test_integer_matrix_rounds_no_int_that_numpy_reads_as_a_float():
    # numpy reads these lists as float64, rounding 2^62 + 1 and 2^63 + 1
    for row in ([2 ** 62 + 1, 1.0], [-1, 2 ** 63 + 1]):
        assert np.asarray(row).dtype == np.float64
        assert integer_matrix([row, [0, 0]], "m").tolist() == [row, [0, 0]]


@pytest.mark.parametrize("value, message, witness", [
    ([[1, 2], [3]], "m must be square and nonempty", None),
    ([[1, 2, 3]], "m must be square and nonempty", None),
    (np.zeros((2, 2, 2)), "m must be square and nonempty", None),
    (np.zeros((0, 0)), "m must be square and nonempty", None),
    (5, "m must be square and nonempty", None),
    ([[0, 1], [np.nan, 0]], "m entry nan at (1, 0) is not an integer", (1, 0)),
    (np.array([[0, 1], [np.inf, 0]]), "m entry inf at (1, 0) is not an integer", (1, 0)),
    ([[0, "1"], [2, 0]], "m entry '1' at (0, 1) is not an integer", (0, 1)),
    ([[Fraction(1, 2)]], "m entry Fraction(1, 2) at (0, 0) is not an integer", (0, 0)),
])
def test_integer_matrix_names_the_first_bad_entry(value, message, witness):
    with pytest.raises(InvalidParameter) as raised:
        integer_matrix(value, "m")
    assert str(raised.value) == message and raised.value.witness == witness


# ---------------------------------------------------------------------------
# Property: only SupergraphError subclasses escape, and no non-integer passes


def _arrays(values):
    return st.builds(np.array, values)


# Values that are not nonnegative integers: wrong types, strings, non-integral
# floats, negatives, ragged lists, tuples of any arity, 0-D and 1-D arrays.
MALFORMED = st.one_of(
    st.sampled_from([None, "", "3", "x", b"7", 1 + 2j, {}, [], object(), math.nan, math.inf,
                     np.complex128(3)]),
    st.lists(st.integers(-2, 5), max_size=3).map(tuple),
    st.text(max_size=4),
    st.floats().filter(lambda v: not v.is_integer() if math.isfinite(v) else True),
    st.integers(max_value=-1),
    st.lists(st.lists(st.integers(-2, 5), max_size=3), min_size=2, max_size=3),
    _arrays(st.floats(-5, 5).filter(lambda v: not v.is_integer())),
    _arrays(st.integers(-5, -1)),
    _arrays(st.lists(st.integers(-2, 5), min_size=1, max_size=4)),
)


def _integral(value) -> bool:
    if getattr(value, "ndim", 0):  # int() of a 1-D array warns or raises by numpy version
        return False
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def _real(value) -> bool:
    if isinstance(value, (int, float)):
        try:
            return math.isfinite(value)
        except OverflowError:  # an int beyond float range
            return False
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    return kind is not None and kind in "biuf" and not value.ndim and math.isfinite(value)


def _accepts(kind: str, value) -> bool:
    """Whether a slot of this kind may read the malformed value without an error."""
    if kind == "any":
        return True
    if kind == "index":  # no malformed value is an index in range
        return False
    if kind == "real":
        return _real(value)
    return _integral(value) or (kind == "opt" and value is None)


def _group(x):
    return sg.from_cayley_table([[0, 1], [1, x]])


_K3, _D6, _P3 = sg.complete_graph(3), sg.dihedral(3), Partition(3, [[0, 1], [2]])
_S = Spectrum([(1, 1)])

# Each data-taking name of supergraph.__all__, with its malformed value x put
# in each integer slot ("int"; "opt" where None is the default), each index
# slot of a method ("index"), each real-number slot ("real") or each
# container, matrix or record slot ("any"), a container also where it must
# be iterable or a pair.
SLOTS = [
    ("int", lambda x: SimpleGraph(x)),
    ("int", lambda x: SimpleGraph(3, [(x, 1)])),
    ("int", lambda x: SimpleGraph(3, [(0, 1), (2, x)])),
    ("any", lambda x: SimpleGraph(3, [x])),
    ("any", lambda x: SimpleGraph.from_adjacency(x)),
    ("any", lambda x: SimpleGraph.from_json_dict({"n": 2, "edges": [[0, x]]})),
    ("any", lambda x: SimpleGraph.from_json_dict(x)),
    ("int", lambda x: Partition(x, [[0]])),
    ("int", lambda x: Partition(2, [[0, x]])),
    ("any", lambda x: Partition(2, [x])),
    ("any", lambda x: Partition.from_json_dict({"n": x, "blocks": [[0]]})),
    ("any", lambda x: Partition.from_json_dict(x)),
    ("int", lambda x: PolynomialZ([1, x])),
    ("int", lambda x: PolynomialZ.from_roots([(x, 1)])),
    ("int", lambda x: PolynomialZ.from_roots([(2, x)])),
    ("any", lambda x: PolynomialZ.from_json_dict({"coeffs": ["1", x]})),
    ("any", lambda x: PolynomialZ.from_json_dict(x)),
    ("int", lambda x: Spectrum([(0, 1), (1, x)])),
    ("any", lambda x: Spectrum([x])),
    ("int", lambda x: sg.char_poly_integer([[1, x], [x, 0]])),
    ("any", lambda x: sg.char_poly_integer(x)),
    ("any", lambda x: sg.char_poly_integers([[[2]], x])),
    ("any", lambda x: sg.jacobi_eigenvalues(x)),
    ("real", lambda x: sg.jacobi_eigenvalues([[0, x], [x, 0]])),
    ("any", lambda x: sg.from_cayley_table(x)),
    ("int", _group),
    ("int", lambda x: sg.complete_graph(x)),
    ("int", lambda x: sg.star_graph(x)),
    ("int", lambda x: sg.cyclic(x)),
    ("int", lambda x: sg.dihedral(x)),
    ("int", lambda x: sg.generalized_quaternion(x)),
    ("int", lambda x: sg.semidirect_pq(x, 3)),
    ("int", lambda x: sg.semidirect_pq(7, x)),
    ("int", lambda x: sg.is_prime(x)),
    ("int", lambda x: sg.least_partition(x)),
    ("int", lambda x: sg.greatest_partition(x)),
    ("any", lambda x: sg.direct_product(sg.cyclic(2), x)),
    ("any", lambda x: sg.generalized_join(sg.complete_graph(2), [sg.complete_graph(1), x])),
    ("int", lambda x: sg.star_join_laplacian_spectrum([2, x])),
    ("opt", lambda x: sg.spectrum_from_integer_charpoly(PolynomialZ((-1, 1)), bound=x)),
    ("int", lambda x: sg.closed_form("Thm4.2(i)", n=x)),
    ("int", lambda x: sg.verify_spectral("Thm4.2(iii)", [{"p": 7, "q": x}])),
    ("int", lambda x: sg.verify_structure("Thm4.3", {"n": x})),
    ("int", lambda x: sg.verify_generic(1, x)),
    ("int", lambda x: sg.verify_generic(x, 1)),
    ("int", lambda x: sg.run_suite("4.3", n_range=(x, 3))),
    ("int", lambda x: sg.run_suite("4.5", pq_pairs=[(7, x)])),
    ("int", lambda x: sg.run_suite("4.5", pq_pairs=[(7, 3)], jobs=x)),
    ("index", lambda x: _K3.degree(x)),
    ("index", lambda x: _K3.neighbors(x)),
    ("index", lambda x: _K3.induced_subgraph([0, x])),
    ("index", lambda x: _D6.multiply(x, 1)),
    ("index", lambda x: _D6.multiply(1, x)),
    ("index", lambda x: _D6.inverse(x)),
    ("index", lambda x: _D6.power(x, 2)),
    ("int", lambda x: _D6.power(1, x)),
    ("index", lambda x: _D6.element_order(x)),
    ("index", lambda x: _P3.block_containing(x)),
    ("real", lambda x: Spectrum([(x, 1)])),
    ("real", lambda x: sg.multiset_match(_S, _S, x)),
    ("real", lambda x: sg.grouped_match(_S, _S, x)),
    ("real", lambda x: sg.interlacing_check([0, x], [0])),
    ("real", lambda x: sg.interlacing_check([0, 1], [0], x)),
    ("any", lambda x: _K3.induced_subgraph(x)),
    ("any", lambda x: SimpleGraph(2, labels=x)),
    ("any", lambda x: sg.from_cayley_table([[0]], labels=x)),
    ("any", lambda x: PolynomialZ(x)),
    ("any", lambda x: PolynomialZ.from_roots(x)),
    ("any", lambda x: PolynomialZ.from_roots([x])),
    ("any", lambda x: Spectrum(x)),
    ("any", lambda x: sg.char_poly_integers(x)),
    ("any", lambda x: sg.char_poly_integer([x])),
    ("any", lambda x: sg.star_join_laplacian_spectrum(x)),
    ("any", lambda x: sg.interlacing_check(x, [])),
    ("any", lambda x: sg.run_suite("4.3", n_range=x)),
    ("any", lambda x: sg.run_suite("4.5", pq_pairs=x)),
    ("any", lambda x: sg.run_suite("4.5", pq_pairs=[x])),
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(MALFORMED)
def test_only_typed_errors_escape_and_nothing_is_truncated(x):
    for kind, call in SLOTS:
        try:
            call(x)
        except SupergraphError:
            continue
        assert _accepts(kind, x), f"{x!r} was read as {'a real' if kind == 'real' else 'an'} {kind}"


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.floats(allow_nan=False),
    st.text(max_size=3),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["n", "blocks", "edges", "labels", "coeffs"]), inner,
                        max_size=4),
    ),
    max_leaves=12,
)
JSON_TEXT = st.one_of(
    JSON_VALUES.map(json.dumps),
    JSON_VALUES.map(lambda v: json.dumps(v)[:-1]),  # cut short
    st.text(max_size=20),
    st.binary(max_size=20),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(JSON_TEXT)
def test_json_readers_raise_only_typed_errors(text):
    for read in (Partition.from_json, SimpleGraph.from_json):
        try:
            read(text)
        except SupergraphError:
            pass
    try:
        PolynomialZ.from_json_dict(json.loads(text))
    except (ValueError, RecursionError):  # not JSON: the dict reader never sees it
        pass
    except SupergraphError:
        pass


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(st.binary(max_size=40), st.text(alphabet="0123 \n#:labe-x.", max_size=40)))
def test_cayley_files_raise_only_typed_errors(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        try:
            sg.read_cayley_file(path)
        except SupergraphError:
            pass
