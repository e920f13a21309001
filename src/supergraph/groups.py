"""Finite groups backed by explicit Cayley tables.

Element identity is a plain index 0..order-1; each family constructor fixes a
canonical element enumeration so vertex numbering is reproducible everywhere.
Family tables come from their presentations by row copies: D_2n and Q_4n
from one dicyclic builder (b^2 = e against b^2 = a^n) that gathers rows of
one circulant view, Z_p x| Z_q from one p x p block per power of a; inverses,
element orders, conjugacy classes and the center are gathers on the table.

Validation is exact at every order: a table is accepted only if its entries
are integers in 0..n-1, it is a Latin square with an identity, and it passes
Light's associativity test on a generating set S (Clifford & Preston, *The
Algebraic Theory of Semigroups* I, 1961), which costs O(n^2 |S|) and runs
over blocks of rows of a uint8 or uint16 copy of the table, one gather per
block and generator; the Latin-square pass runs only on a table that the
identity or Light's test rejects. A rejected table raises ``NotAGroup`` with
a witness; for associativity it is a triple (x, s, y) with
(x*s)*y != x*(s*y), whose middle element s is a generator.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import (
    FormatError,
    InvalidParameter,
    NotAGroup,
    index,
    instance,
    integer,
    integer_matrix,
    items,
)
from .partitions import Partition

# Largest order a family constructor builds: its int64 Cayley table then takes
# 512 MiB. Beyond it numpy fails with a raw MemoryError, or the labels exhaust memory.
MAX_ORDER = 1 << 13

# Table entries per block of rows in Light's associativity test: blocks of
# max(1, _BLOCK_ENTRIES // n) rows of its uint8 or uint16 copy keep each of
# its temporaries at about 2^16 entries, at most 128 kB.
_BLOCK_ENTRIES = 1 << 16


class FiniteGroup:
    """Group on elements 0..order-1 with its own read-only multiplication table."""

    __slots__ = ("_table", "_identity", "_labels", "_inverses", "name")

    def __init__(self, table, labels=None, name="group", validate=True):
        arr = _index_table(table)
        n = arr.shape[0]
        # One copy, over an immutable buffer: a caller's array never reaches
        # the group, and no one can make the table writable again.
        arr = np.frombuffer(arr.tobytes(), dtype=np.int64).reshape(n, n)
        if labels is None:
            labels = tuple(f"g{i}" for i in range(n))
        else:
            labels = tuple(map(str, items(labels, "labels")))
            if len(labels) != n:
                raise InvalidParameter("label count must equal group order")
        if validate:
            identity = _validate_table(arr)
        else:
            identity = _find_identity(arr)
            if identity is None:
                raise NotAGroup("table has no identity element")
        holds_identity = arr == identity
        missing = np.flatnonzero(~holds_identity.any(axis=1))
        if missing.size:
            raise NotAGroup(f"row {missing[0]} holds no identity", witness=int(missing[0]))
        self._table = arr
        self._identity = identity
        self._labels = labels
        self._inverses = holds_identity.argmax(axis=1)
        self.name = name

    @property
    def order(self) -> int:
        return self._table.shape[0]

    @property
    def identity(self) -> int:
        return self._identity

    @property
    def table(self) -> np.ndarray:
        return self._table

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def multiply(self, a: int, b: int) -> int:
        return int(self._table[index(a, "element", self.order), index(b, "element", self.order)])

    def inverse(self, g: int) -> int:
        return int(self._inverses[index(g, "element", self.order)])

    def power(self, g: int, k: int) -> int:
        """g^k for any integer k: g^order is the identity, so k counts mod the order."""
        g = index(g, "element", self.order)
        acc = self._identity
        for _ in range(integer(k, "exponent") % self.order):
            acc = int(self._table[acc, g])
        return acc

    def element_orders(self) -> np.ndarray:
        """Every element's order, the least t >= 1 with g^t = identity.

        Step t gathers g^(t+1) = g^t * g for each element still pending. In a
        group every order divides n, so an element left after n steps has
        no finite order and the table is not a group.
        """
        orders = np.zeros(self.order, dtype=np.int64)
        pending = np.arange(self.order)
        acc = pending
        for t in range(1, self.order + 1):
            done = acc == self._identity
            orders[pending[done]] = t
            pending, acc = pending[~done], acc[~done]
            if not pending.size:
                return orders
            acc = self._table[acc, pending]
        g = int(pending[0])
        raise NotAGroup(f"element {g} has no finite order: its powers miss the identity",
                        witness=g)

    def element_order(self, g: int) -> int:
        """Least t >= 1 with g^t = identity."""
        return int(self.element_orders()[index(g, "element", self.order)])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self._table, self._table.T))

    def conjugacy_classes(self) -> Partition:
        """Orbits under conjugation, ordered by minimum element index.

        The orbit of g is {h g h^-1}: column g of the table holds every h*g,
        and gathering those rows at the columns h^-1 conjugates by all h at once.
        """
        t = self._table
        seen = np.zeros(self.order, dtype=bool)
        blocks = []
        while not seen.all():
            g = int(np.argmin(seen))
            orbit = np.zeros(self.order, dtype=bool)
            orbit[t[t[:, g], self._inverses]] = True
            seen |= orbit
            blocks.append(np.flatnonzero(orbit).tolist())
        return Partition(self.order, blocks)

    def center(self) -> tuple[int, ...]:
        """Elements commuting with every group element."""
        t = self._table
        return tuple(np.flatnonzero((t == t.T).all(axis=1)).tolist())

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _index_table(table) -> np.ndarray:
    """``table`` by ``errors.integer_matrix`` with entries in 0..n-1; else
    ``NotAGroup``, whose witness is the (row, column) of the first bad entry."""
    try:
        arr = integer_matrix(table, "multiplication table")
    except InvalidParameter as exc:
        raise NotAGroup(str(exc), witness=exc.witness) from None
    n = arr.shape[0]
    if arr.min() < 0 or arr.max() >= n:  # as an object array, some entry is beyond int64
        i, j = np.argwhere((arr < 0) | (arr >= n))[0].tolist()
        raise NotAGroup(f"table entry at ({i}, {j}) outside 0..{n - 1}", witness=(i, j))
    return arr


def _find_identity(table: np.ndarray):
    """The two-sided identity, or None; only rows e with e*0 = 0 can be it."""
    idx = np.arange(table.shape[0])
    for e in np.flatnonzero(table[:, 0] == 0).tolist():
        if np.array_equal(table[e, :], idx) and np.array_equal(table[:, e], idx):
            return e
    return None


def _generating_set(table: np.ndarray, identity: int) -> list[int]:
    """Greedy generators: add the least element not yet reached, then close the
    reached set under products, starting from the identity.

    Squaring the reached set doubles the word length per step, so closing
    takes O(log n) steps rather than one per power of a generator. Each step
    gathers the reached rows and then their reached columns, so a table in a
    narrow dtype is read narrow.
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    size = 1
    gens = []
    while size < n:
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        grown = True
        while grown:
            elements = np.flatnonzero(reached)
            reached[table[elements][:, elements]] = True
            size = np.count_nonzero(reached)
            grown = elements.size < size < n
    return gens


def _validate_table(table: np.ndarray) -> int:
    """The identity of a group's table; else ``NotAGroup`` for the first of
    these that fails: the Latin square, the identity, associativity.

    A monoid whose every element has a right inverse is a group, and a
    group's table is a Latin square, so a table with a two-sided identity
    that every row holds and that passes Light's test is accepted without
    the Latin-square pass, which runs only to name what a rejected table
    breaks first.
    """
    identity = _find_identity(table)
    if identity is not None and (table == identity).any(axis=1).all():
        failure = _associativity_failure(table, identity)
        if failure is None:
            return identity
    n = table.shape[0]
    idx = np.arange(n)
    seen = np.zeros((n, n), dtype=bool)
    seen[idx[:, None], table] = True  # seen[i, v]: row i holds v
    bad_rows = np.flatnonzero(~seen.all(axis=1))
    seen[:] = False
    seen[table, idx] = True  # seen[v, j]: column j holds v
    bad_cols = np.flatnonzero(~seen.all(axis=0))
    if bad_rows.size and (not bad_cols.size or bad_rows[0] <= bad_cols[0]):
        raise NotAGroup(f"row {bad_rows[0]} is not a permutation", witness=int(bad_rows[0]))
    if bad_cols.size:
        raise NotAGroup(f"column {bad_cols[0]} is not a permutation", witness=int(bad_cols[0]))
    if identity is None:
        raise NotAGroup("table has no identity element")
    raise failure  # a Latin square with an identity: every row holds it


def _associativity_failure(table: np.ndarray, identity: int) -> NotAGroup | None:
    """Light's test: the elements a with (x*a)*y == x*(a*y) for all x, y
    contain the identity and are closed under products, so checking the
    generators suffices. A block of rows x at a time: (x*s)*y against
    x*(s*y) for every y, so the first hit in the first failing block is the
    least (x, y). The gathers read a copy in the narrowest unsigned dtype
    that holds 0..n-1."""
    n = table.shape[0]
    rows = max(1, _BLOCK_ENTRIES // n)
    narrow = table.astype(np.min_scalar_type(n - 1))
    for s in _generating_set(narrow, identity):
        s_row = narrow[s]
        for lo in range(0, n, rows):
            block = narrow[lo:lo + rows]
            differ = narrow[block[:, s]] != block[:, s_row]
            if differ.any():
                x, y = np.argwhere(differ)[0].tolist()
                x += lo
                return NotAGroup(
                    f"not associative: ({x}*{s})*{y} != {x}*({s}*{y})",
                    witness=(x, s, y),
                )
    return None


def from_cayley_table(table, labels=None, name="group") -> FiniteGroup:
    """Build and fully validate a group from a square index table."""
    return FiniteGroup(table, labels=labels, name=name, validate=True)


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise InvalidParameter(f"group order {order} exceeds the cap of {MAX_ORDER}")


def _pow_label(symbol: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return symbol
    return f"{symbol}^{e}"


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n with elements e, a, a^2, ..."""
    n = integer(n, "cyclic group order", least=1)
    _check_order(n)
    i = np.arange(n)
    labels = ["e"] + [_pow_label("a", k) for k in range(1, n)]
    return FiniteGroup((i[:, None] + i) % n, labels=labels, name=f"Z{n}")


def _dicyclic(m: int, s: int, prefix: str) -> FiniteGroup:
    """<a, b | a^m = e, b^2 = a^s, a*b = b*a^-1> on b^f a^i at index f*m + i.

    Moving a^i1 past b^f2 gives b^f2 a^((-1)^f2 i1), and b*b = a^s, so
    b^f1 a^i1 * b^f2 a^i2 = b^(f1 xor f2) a^((-1)^f2 i1 + i2 + s f1 f2).
    """
    _check_order(2 * m)
    # Row k of the circulant is a^k, a^(k+1), ..., a^(k+m-1): a strided view
    # of 0..m-1 written twice. Each m x m block of the table is a row gather.
    i = np.arange(m)
    base = np.concatenate([i, i])
    shifts = np.ndarray((m, m), dtype=base.dtype, buffer=base, strides=2 * base.strides)
    table = np.empty((2 * m, 2 * m), dtype=np.int64)
    table[:m, :m] = shifts
    table[:m, m:] = shifts[-i] + m  # f1 xor f2 = 1
    table[m:, :m] = shifts + m
    table[m:, m:] = shifts[(s - i) % m]  # f1 = f2 = 1
    labels = ["e"] + [_pow_label("a", k) for k in range(1, m)]
    labels += ["b" + _pow_label("a", k) for k in range(m)]
    return FiniteGroup(table, labels=labels, name=f"{prefix}{2 * m}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: relations a^n = b^2 = e, a*b = b*a^-1.

    Element enumeration: e, a, ..., a^(n-1), b, ba, ..., ba^(n-1).
    """
    return _dicyclic(integer(n, "dihedral parameter", least=3), 0, "D")


def generalized_quaternion(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: a^(2n) = e, b^2 = a^n, a*b = b*a^-1.

    Element enumeration: e, a, ..., a^(2n-1), b, ba, ..., ba^(2n-1).
    """
    n = integer(n, "generalized quaternion parameter", least=2)
    return _dicyclic(2 * n, n, "Q")


# The first 13 primes. A strong probable prime to all of them below
# _MILLER_RABIN_LIMIT is prime (Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", *Math. Comp.* 86, 2017): the limit is the least strong
# pseudoprime to these bases.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin for n below 3.3 * 10^24.

    Larger n raise ``InvalidParameter``: these bases are not proven to
    decide them.
    """
    n = integer(n, "primality candidate")
    if n < 2:
        return False
    if n >= _MILLER_RABIN_LIMIT:
        raise InvalidParameter(
            f"{n} is too large: primality is decided only below {_MILLER_RABIN_LIMIT}")
    for base in _MILLER_RABIN_BASES:
        if n % base == 0:
            return n == base
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def semidirect_pq(p: int, q: int) -> FiniteGroup:
    """Nonabelian group of order pq: b^p = a^q = e, a*b*a^-1 = b^m.

    Requires distinct primes with q | p-1. The twist m is the smallest m > 1
    with m^q = 1 (mod p); all valid choices give isomorphic groups, so fixing
    the smallest keeps the enumeration deterministic. Element (i, j) = b^i a^j
    has index j*p + i, giving the enumeration e, b, ..., b^(p-1), then the
    b^i a^j block for each j >= 1.
    """
    p, q = integer(p, "semidirect product prime p"), integer(q, "semidirect product prime q")
    if not is_prime(p) or not is_prime(q):
        raise InvalidParameter("both parameters must be prime")
    if p == q:
        raise InvalidParameter("the primes must be distinct")
    if (p - 1) % q != 0:
        raise InvalidParameter(f"{q} does not divide {p} - 1")
    _check_order(p * q)
    m = next(c for c in range(2, p) if pow(c, q, p) == 1)
    labels = ["e" if i == j == 0 else _pow_label("b", i) + _pow_label("a", j)
              for j in range(q) for i in range(p)]
    # b^i1 a^j1 * b^i2 a^j2 = b^(i1 + i2 m^j1) a^(j1 + j2): one p x p block
    # per j1, copied to column block j2 at offset ((j1 + j2) mod q) p.
    i, j = np.arange(p), np.arange(q)
    table = np.empty((q, p, q, p), dtype=np.int64)
    for j1 in range(q):
        block = (i[:, None] + i * pow(m, j1, p)) % p
        table[j1] = block[:, None, :] + ((j1 + j) % q * p)[:, None]
    table = table.reshape(p * q, p * q)
    return FiniteGroup(table, labels=labels, name=f"Z{p}xZ{q}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product g x h: element (x, y) has index x*|h| + y and label "(x,y)"."""
    if not (isinstance(g, FiniteGroup) and isinstance(h, FiniteGroup)):
        raise InvalidParameter("direct product factors must be FiniteGroups")
    _check_order(g.order * h.order)
    a, b = g.table, h.table
    table = (a[:, None, :, None] * h.order + b[None, :, None, :]).reshape(
        g.order * h.order, -1)
    labels = [f"({x},{y})" for x in g.labels for y in h.labels]
    return FiniteGroup(table, labels=labels, name=f"{g.name}x{h.name}")


# A table row as ``write_cayley_file`` writes it: ASCII digits, one space
# between entries. Plain rows are parsed together by numpy; any other row goes
# through ``int`` token by token.
_PLAIN_ROW = re.compile(r"[0-9 ]*")


def read_cayley_file(path) -> FiniteGroup:
    """Load a group from a plain-text Cayley table.

    Format: first line is the order n, followed by n lines of n space
    separated indices. An optional line ``#labels: l0 l1 ...`` names the
    elements; other ``#`` lines are comments.
    """
    try:
        text = Path(path).read_text()
    except ValueError as exc:  # bytes that are not text, or a NUL in the path
        raise FormatError(f"{path}: {exc}") from None
    labels = None
    rows: list = []  # a plain row's text, or any other row's values
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#labels:"):
            labels = line[len("#labels:"):].split()
            continue
        if line.startswith("#"):
            continue
        if n is not None and _PLAIN_ROW.fullmatch(line) and "  " not in line:
            rows.append(line)
            count = line.count(" ") + 1
        else:
            try:
                values = [int(tok) for tok in line.split()]
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
            if n is None:
                if len(values) != 1:
                    raise FormatError(f"{path}: line {lineno}: expected a single order value")
                n = values[0]
                if n < 1:
                    raise FormatError(f"{path}: line {lineno}: order must be >= 1")
                continue
            rows.append(values)
            count = len(values)
        if count != n:
            raise FormatError(f"{path}: line {lineno}: expected {n} entries, got {count}")
    if n is None:
        raise FormatError(f"{path}: empty table file")
    if len(rows) != n:
        raise FormatError(f"{path}: expected {n} table rows, found {len(rows)}")
    if labels is not None and len(labels) != n:
        raise FormatError(f"{path}: #labels: line has {len(labels)} names, expected {n}")
    plain = all(isinstance(row, str) for row in rows)
    table = np.fromstring(" ".join(rows), dtype=np.int64, sep=" ") if plain else None
    # numpy saturates beyond int64, so a table with an entry >= n is read again
    # by int(), which keeps the entry exact for validation to report.
    if table is None or table.max() >= n:
        table = [[int(tok) for tok in row.split()] if isinstance(row, str) else row
                 for row in rows]
    else:
        table = table.reshape(n, n)
    return from_cayley_table(table, labels=labels, name=Path(path).stem)


def write_cayley_file(group: FiniteGroup, path) -> None:
    lines = [str(instance(group, FiniteGroup, "group").order)]
    for i in range(group.order):
        lines.append(" ".join(str(int(v)) for v in group.table[i]))
    lines.append("#labels: " + " ".join(group.labels))
    Path(path).write_text("\n".join(lines) + "\n")
