"""Exception types shared across the package, and its rules for integers,
integer matrices, indices, finite real numbers, containers and argument
types.

Bad input raises a ``SupergraphError``: a bad value ``InvalidParameter``, a bad
file, JSON document or spec ``FormatError``, a bad Cayley table ``NotAGroup``.
``integer`` decides what an integer is in memory and truncates nothing,
``integer_matrix`` reads a square matrix of such integers, ``index`` what an
index into 0..n-1 is, and ``real`` what a finite real number is; ``items``
and ``pair`` read containers, and ``instance`` checks that an argument is of
the package type a function takes. JSON readers take only integer literals
(polynomial coefficients also as strings).
"""

import math

import numpy as np


class SupergraphError(Exception):
    """Base class for all errors raised by this package; ``witness``, if
    given, carries the offending data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAGroup(SupergraphError):
    """A multiplication table fails one of the group axioms.

    ``witness`` carries the offending data: a triple (x, s, y) with
    (x*s)*y != x*(s*y) for an associativity failure, whose middle element s
    is a generator of the table; a row/column index for a Latin-square
    failure; or the (row, column) of an entry that is not an integer in
    0..n-1.
    """


class InvalidParameter(SupergraphError):
    """A constructor or operation precondition on a parameter is violated."""


class SizeMismatch(SupergraphError):
    """Two objects that must share a ground size (or dimension) do not."""


class ArityMismatch(SupergraphError):
    """A generalized join received a part list of the wrong length."""


class NotSymmetric(SupergraphError):
    """A matrix handed to the symmetric eigensolver is not symmetric."""


class NoConvergence(SupergraphError):
    """LAPACK's symmetric eigensolver failed to converge."""


class CanonicalAmbiguity(SupergraphError):
    """Canonical ordering search space is too large to resolve exhaustively."""


class OutOfRange(SupergraphError):
    """Claim parameters fall outside the claim's validity range."""


class UnsupportedClosedForm(SupergraphError):
    """No closed-form spectrum is catalogued for the requested combination."""


class FormatError(SupergraphError):
    """A file or command-line specification could not be parsed."""


def integer(value, what: str, least: int | None = None) -> int:
    """``value`` as a Python int if it is an int, a numpy integer, an
    integer-valued float or a bool (0 or 1); anything else, or a value below
    ``least``, raises ``InvalidParameter`` naming it as ``what``."""
    number = value
    if type(value) is not int:
        kind = getattr(getattr(value, "dtype", None), "kind", "i")  # "i": not numpy
        try:  # numpy converts only a 0-D bool, integer or float
            number = int(value) if kind in "biuf" and not getattr(value, "ndim", 0) else None
        except (TypeError, ValueError, OverflowError):
            number = None
        if number is None or number != value:
            raise InvalidParameter(f"{what} {value!r} is not an integer")
    if least is not None and number < least:
        raise InvalidParameter(f"{what} must be >= {least}, got {number}")
    return number


def integer_matrix(value, what: str, nonempty: bool = True) -> np.ndarray:
    """``value`` as a square (n, n) integer array, int64 or, when some entry
    is beyond int64, of Python ints. An array of a dtype that casts safely to
    int64, or a float or uint64 array of integers in int64, is read as an
    array; anything else entry by entry by ``integer``, and the first entry
    in row order that is not an integer raises ``InvalidParameter`` naming
    it, with its (row, column) as ``witness``. So does a value that is not a
    square 2-D array (with no witness), or is empty when ``nonempty``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged rows
        arr = np.empty(0)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or (nonempty and not arr.size):
        raise InvalidParameter(f"{what} must be square" + " and nonempty" * nonempty)
    if np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    # One vectorized check, which NaN and infinities fail; not of a list that
    # numpy read as floats, as it may have rounded the list's ints beyond 2^53.
    if arr.dtype.kind in "uf" and isinstance(value, np.ndarray):
        if np.all((abs(arr) < 2.0 ** 63) & (arr == np.trunc(arr))):
            return arr.astype(np.int64)
    rows = np.asarray(value, dtype=object).tolist()  # each entry as the caller gave it
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            try:
                row[j] = integer(entry, what)
            except InvalidParameter:
                raise InvalidParameter(f"{what} entry {entry!r} at ({i}, {j}) is not an integer",
                                       witness=(i, j)) from None
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:  # some entry beyond int64
        return np.array(rows, dtype=object)


def index(value, what: str, size: int) -> int:
    """``value`` as an index into 0..size-1: an integer by ``integer``, which
    is never truncated and never counted from the end."""
    number = integer(value, what)
    if not 0 <= number < size:
        raise InvalidParameter(f"{what} {number} outside 0..{size - 1}")
    return number


def real(value, what: str) -> int | float:
    """``value`` as a Python int or float if it is an int within float range, a
    finite float or a 0-D numpy bool, integer or finite float; anything else
    (NaN, an infinity, an int beyond float range, a string, bytes, a complex
    number, an array of one or more dimensions) raises ``InvalidParameter``
    naming it as ``what``."""
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    number = math.nan  # not a number unless read as one below
    if kind is None and isinstance(value, (int, float)):  # also a bool or another subclass
        number = int(value) if isinstance(value, int) else float(value)
    elif kind in ("b", "i", "u", "f") and not getattr(value, "ndim", 0):
        number = float(value) if kind == "f" else int(value)
    try:
        finite = math.isfinite(number)  # false for NaN
    except OverflowError:  # an int that no float can hold
        finite = False
    if not finite:
        raise InvalidParameter(f"{what} {value!r} is not a real number")
    return number


def items(value, what: str) -> list:
    """The items of ``value`` as a list; text, bytes and a value that cannot
    be iterated raise ``InvalidParameter`` naming it as ``what``."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return list(value)
        except TypeError:
            pass
    raise InvalidParameter(f"{what} must be a collection, not {type(value).__name__}")


def pair(value, what: str) -> tuple:
    """The two items of ``value``; anything else raises ``InvalidParameter``
    naming it as ``what``."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise InvalidParameter(f"{what} must be a pair") from None
    return first, second


def instance(value, kind: type, what: str):
    """``value`` if it is a ``kind``; anything else raises ``InvalidParameter``
    naming it as ``what`` and its type."""
    if not isinstance(value, kind):
        raise InvalidParameter(f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value
