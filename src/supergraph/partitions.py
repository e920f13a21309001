"""Equivalence relations on a finite vertex set, represented as partitions."""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .errors import FormatError, InvalidParameter, SizeMismatch, index, instance, integer


class Partition:
    """Partition of {0, ..., n-1} into disjoint nonempty blocks.

    Blocks are normalized on construction: sorted internally and ordered by
    their minimum element, so equal partitions compare equal structurally.
    """

    __slots__ = ("_n", "_blocks", "_block_of")

    def __init__(self, ground_size: int, blocks: Iterable[Iterable[int]]):
        n = integer(ground_size, "partition ground size", least=1)
        norm = []
        try:
            for block in blocks:
                b = tuple(sorted(v if type(v) is int else integer(v, "partition element")
                                 for v in block))
                if not b:
                    raise InvalidParameter("partition blocks must be nonempty")
                norm.append(b)
        except TypeError:  # blocks, or a block, that cannot be iterated
            raise InvalidParameter("partition blocks must be iterables of integers") from None
        norm.sort(key=lambda b: b[0])
        # Checked before the size-n table is allocated; with at least n
        # elements in range and none repeated, every element is covered.
        total = sum(map(len, norm))
        if total < n:
            raise InvalidParameter(f"blocks hold {total} elements, fewer than the ground size {n}")
        block_of = [-1] * n
        for idx, b in enumerate(norm):
            for v in b:
                if not 0 <= v < n:
                    raise InvalidParameter(f"element {v} outside ground set of size {n}")
                if block_of[v] != -1:
                    raise InvalidParameter(f"element {v} appears in two blocks")
                block_of[v] = idx
        self._n = n
        self._blocks = tuple(norm)
        self._block_of = tuple(block_of)

    @property
    def ground_size(self) -> int:
        return self._n

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self._blocks

    @property
    def block_of(self) -> tuple[int, ...]:
        return self._block_of

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self._blocks)

    def block_containing(self, v: int) -> tuple[int, ...]:
        return self._blocks[self._block_of[index(v, "element", self._n)]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._n == other._n and self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash((self._n, self._blocks))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self._blocks)
        return f"Partition({self._n}, [{inner}])"

    def to_json_dict(self) -> dict:
        return {"n": self._n, "blocks": [list(b) for b in self._blocks]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data) -> "Partition":
        """Partition from ``{"n": int, "blocks": [[int, ...], ...]}``; any
        other shape raises ``FormatError``."""
        if not (
            isinstance(data, dict)
            and type(data.get("n")) is int
            and isinstance(data.get("blocks"), list)
            and all(isinstance(b, list) and all(type(v) is int for v in b) for b in data["blocks"])
        ):
            raise FormatError('a partition must be {"n": int, "blocks": [[int, ...], ...]}')
        return cls(data["n"], data["blocks"])

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        return cls.from_json_dict(_json_value(text))


def _json_value(text):
    """The value of a JSON document; text that is not JSON raises ``FormatError``."""
    try:
        return json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"not a JSON document: {exc}") from None


def least_partition(n: int) -> Partition:
    """All-singletons partition: every class is {x}."""
    return Partition(n, [[v] for v in range(integer(n, "partition ground size"))])


def greatest_partition(n: int) -> Partition:
    """One-block partition: the single class is the whole ground set."""
    return Partition(n, [list(range(integer(n, "partition ground size")))])


def _refines(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """(T,) whether each labelling fine[t] refines coarse[t], both (T, n): it
    does iff each fine block meets one coarse block, that is iff there are as
    many distinct (fine, coarse) label pairs as distinct fine labels."""
    def distinct(labels):
        return 1 + (np.diff(np.sort(labels, axis=1), axis=1) != 0).sum(axis=1)

    return distinct(fine * (coarse.max() + 1) + coarse) == distinct(fine)


def refines(p1: Partition, p2: Partition) -> bool:
    """True when every block of p1 is contained in some block of p2."""
    if not (isinstance(p1, Partition) and isinstance(p2, Partition)):
        raise InvalidParameter("refinement compares two Partitions")
    if p1.ground_size != p2.ground_size:
        raise SizeMismatch(
            f"ground sizes differ: {p1.ground_size} vs {p2.ground_size}"
        )
    return bool(_refines(np.asarray(p1.block_of)[None], np.asarray(p2.block_of)[None])[0])


def order_partition(group) -> Partition:
    """Partition of a group's elements into fibers of equal element order."""
    orders = _group(group).element_orders()
    return Partition(group.order,
                     [np.flatnonzero(orders == t).tolist() for t in set(orders.tolist())])


def conjugacy_partition(group) -> Partition:
    """Partition of a group's elements into conjugacy classes."""
    return _group(group).conjugacy_classes()


def _group(value):
    from .groups import FiniteGroup  # not at the top: groups imports this module

    return instance(value, FiniteGroup, "group")


def relation_partition(group, relation: str) -> Partition:
    """The classes of a named relation on a group's elements: "order" (equal
    element order), "conjugacy" or "none" (equality)."""
    if relation == "order":
        return order_partition(group)
    if relation == "conjugacy":
        return conjugacy_partition(group)
    if relation == "none":
        return least_partition(group.order)
    raise InvalidParameter(f'unknown relation "{relation}"')
