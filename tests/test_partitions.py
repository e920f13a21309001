import pytest
from hypothesis import given, strategies as st

from supergraph import (
    FormatError,
    InvalidParameter,
    Partition,
    SizeMismatch,
    conjugacy_partition,
    cyclic,
    dihedral,
    generalized_quaternion,
    greatest_partition,
    least_partition,
    order_partition,
    refines,
    semidirect_pq,
)
from supergraph.partitions import relation_partition


def test_normalization_and_lookup():
    p = Partition(5, [[4, 2], [0], [3, 1]])
    assert p.blocks == ((0,), (1, 3), (2, 4))
    assert p.block_of == (0, 1, 2, 1, 2)
    assert p.sizes == (1, 2, 2)
    assert p.block_containing(4) == (2, 4)


def test_equal_partitions_hash_equal():
    p, q = Partition(4, [[0, 1], [2, 3]]), Partition(4, [[3, 2], [1, 0]])
    assert p == q and hash(p) == hash(q)


def test_unequal_partitions_of_one_ground_size():
    p = Partition(4, [[0, 1], [2, 3]])
    for other in (Partition(4, [[0, 2], [1, 3]]), least_partition(4), greatest_partition(4)):
        assert p != other and not p == other
    assert p != Partition(5, [[0, 1], [2, 3], [4]])


def test_relation_partition_rejects_an_unknown_relation():
    assert relation_partition(dihedral(3), "none") == least_partition(6)
    with pytest.raises(InvalidParameter, match='unknown relation "bogus"'):
        relation_partition(dihedral(3), "bogus")


def test_validation_errors():
    with pytest.raises(InvalidParameter):
        Partition(3, [[0, 1]])  # element 2 missing
    with pytest.raises(InvalidParameter):
        Partition(3, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(InvalidParameter):
        Partition(3, [[0, 1, 2], []])  # empty block
    with pytest.raises(InvalidParameter):
        Partition(3, [[0, 1, 2, 3]])  # out of range
    with pytest.raises(InvalidParameter):
        Partition(0, [])


def test_least_and_greatest():
    assert least_partition(3).blocks == ((0,), (1,), (2,))
    assert greatest_partition(3).blocks == ((0, 1, 2),)
    assert refines(least_partition(3), greatest_partition(3))


def test_refines_examples():
    d8 = dihedral(4)
    assert refines(conjugacy_partition(d8), order_partition(d8))
    # the order-2 fiber merges several conjugacy classes, so the reverse fails
    assert not refines(order_partition(d8), conjugacy_partition(d8))
    p = Partition(4, [[0, 1], [2, 3]])
    assert refines(least_partition(4), p)
    with pytest.raises(SizeMismatch):
        refines(least_partition(3), least_partition(4))


def test_conjugacy_refines_order_for_all_families():
    groups = [
        dihedral(3), dihedral(4), dihedral(6),
        generalized_quaternion(2), generalized_quaternion(3),
        semidirect_pq(7, 3), cyclic(8),
    ]
    for g in groups:
        assert refines(conjugacy_partition(g), order_partition(g))


def test_order_partition_d6():
    blocks = order_partition(dihedral(3)).blocks
    assert blocks == ((0,), (1, 2), (3, 4, 5))


def test_order_partition_q8_true_fibers():
    # a, a^3 and every ba^i all have order 4, so they share one fiber
    blocks = order_partition(generalized_quaternion(2)).blocks
    assert blocks == ((0,), (1, 3, 4, 5, 6, 7), (2,))


def test_order_partition_trivial_group():
    from supergraph import from_cayley_table

    assert order_partition(from_cayley_table([[0]])).blocks == ((0,),)


def test_json_round_trip():
    p = Partition(4, [[0, 2], [1], [3]])
    assert Partition.from_json(p.to_json()) == p
    assert p.to_json_dict() == {"n": 4, "blocks": [[0, 2], [1], [3]]}


def test_from_json_dict_rejects_malformed_shapes():
    for bad in (
        [1, 2],
        {"blocks": [[0]]},
        {"n": "x", "blocks": []},
        {"n": True, "blocks": [[0]]},
        {"n": 2.0, "blocks": [[0, 1]]},
        {"n": 2},
        {"n": 6, "blocks": 5},
        {"n": 2, "blocks": [0, 1]},
        {"n": 6, "blocks": [[0, 1, 2], [3, 4, 5.5]]},
        {"n": 2, "blocks": [[0, False]]},
    ):
        with pytest.raises(FormatError):
            Partition.from_json_dict(bad)
    # a ground size far beyond the blocks is rejected before any allocation
    with pytest.raises(InvalidParameter, match="fewer than the ground size"):
        Partition.from_json_dict({"n": 10 ** 18, "blocks": [[0]]})


@st.composite
def partitions_with_refinement(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    coarse_assign = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    split_assign = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    merge_assign = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))

    def build(keys):
        blocks = {}
        for v, key in enumerate(keys):
            blocks.setdefault(key, []).append(v)
        return Partition(n, blocks.values())

    coarse = build(coarse_assign)
    fine = build([(coarse_assign[v], split_assign[v]) for v in range(n)])
    coarser = build([merge_assign[coarse_assign[v]] for v in range(n)])
    return fine, coarse, coarser


@given(partitions_with_refinement())
def test_refines_is_a_partial_order(chain):
    fine, coarse, coarser = chain
    # reflexive
    for p in chain:
        assert refines(p, p)
    # constructed chain is ordered, and the order is transitive
    assert refines(fine, coarse)
    assert refines(coarse, coarser)
    assert refines(fine, coarser)
    # antisymmetric up to block-set equality
    if refines(coarse, fine):
        assert coarse == fine


@given(partitions_with_refinement())
def test_least_refines_everything(chain):
    fine, coarse, _ = chain
    n = fine.ground_size
    assert refines(least_partition(n), fine)
    assert refines(coarse, greatest_partition(n))


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
def test_refines_matches_its_definition(assignments):
    p1, p2 = (Partition(len(keys), _blocks_of(keys).values()) for keys in assignments)
    definition = all(any(set(b1) <= set(b2) for b2 in p2.blocks) for b1 in p1.blocks)
    assert refines(p1, p2) == definition


def _blocks_of(keys):
    blocks = {}
    for v, key in enumerate(keys):
        blocks.setdefault(key, []).append(v)
    return blocks
