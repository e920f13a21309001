"""Exact integer univariate polynomials and exact characteristic polynomials.

Coefficients are arbitrary-precision Python ints stored in ascending degree
order. Characteristic polynomials are computed many matrices per call, by
Hessenberg reduction and the Hessenberg recurrence (Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 2.2.9) in numpy int64. The
matrices of one dimension share one coefficient bound, 2 (1 + S)^n with
S = ceil(sqrt(ceil(||M||_F^2 / n))), proven by Maclaurin's and Schur's
inequalities (see ``char_poly_integers``), and one list of word-size primes
whose product covers it. The reduction runs one step in both rings: the
least-magnitude nonzero entry below the diagonal is the pivot, then one
blocked similarity. Where the bound takes two primes or more, each matrix
is first reduced over the integers, as long as every pivot divides the
entries below it and no entry can wrap int64; most super graphs' matrices
get there, and each diagonal block of the form is finished over Z: the
1 x 1 blocks, as (value, count) pairs, by one recurrence from the
logarithmic derivative in O(D d) products for d distinct values of total
count D. The other matrices are computed mod p (Dumas, Pernet & Wan,
"Efficient computation of the characteristic polynomial", ISSAC 2005):
each (matrix, prime) pair is one layer of a (P, n, n) stack of residues,
run in the fewest equal chunks of at most 2^18 int64 entries (2 MiB) into
one (matrices x primes, n + 1) array, and Garner's algorithm (Knuth,
*TAOCP* vol. 2, 4.3.2) rebuilds the coefficients of all of a dimension's
matrices in one array pass per prime. Integer numpy arrays are read as
arrays. The result is exact at any size.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, InvalidParameter, integer, integer_matrix, items, pair
from .groups import is_prime


class PolynomialZ:
    """Immutable integer-coefficient polynomial.

    ``coeffs`` is ascending: coeffs[i] is the coefficient of x**i. Trailing
    zeros are stripped; the zero polynomial has an empty coefficient tuple
    and degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self._coeffs = _trimmed(tuple(c if type(c) is int else integer(c, "coefficient")
                                      for c in items(coeffs, "coefficients")))

    @classmethod
    def zero(cls) -> "PolynomialZ":
        return cls(())

    @classmethod
    def one(cls) -> "PolynomialZ":
        return cls((1,))

    @classmethod
    def x(cls) -> "PolynomialZ":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Iterable[tuple[int, int]]) -> "PolynomialZ":
        """Monic polynomial with the given integer (root, multiplicity) pairs,
        each read by the integer rule, then expanded by ``_from_root_pairs``."""
        pairs = []
        for entry in items(roots, "roots"):
            root, mult = pair(entry, "a (root, multiplicity) entry")
            pairs.append((root if type(root) is int else integer(root, "root"),
                          integer(mult, "multiplicity", least=0)))
        return cls._from_root_pairs(pairs)

    @classmethod
    def _from_root_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "PolynomialZ":
        """``from_roots`` on (root, multiplicity) pairs of Python ints with
        multiplicities of at least 0, unchecked: the quotient route's clique
        factors, whose pairs ``spectra._quotients`` computes.

        Equal roots are merged and zero multiplicities dropped, leaving d
        distinct roots r_j with multiplicities m_j and degree D = sum m_j. With
        R = prod (x - r_j) and S = sum m_j R / (x - r_j), the product
        Q = prod (x - r_j)^(m_j) has Q'/Q = S/R, so R Q' = S Q. In descending
        coefficients (q_0 = R_0 = 1; S_t the coefficient of x^(d-1-t), so
        S_d = 0), the coefficient of x^(D+d-1-K) on both sides gives

            K q_K = sum_{t=1..min(K, d)} (R_t (D - K + t) - S_t) q_(K-t),

        an exact division since every q_K is an integer. That is O(D d)
        products of a coefficient of R or S, small when d is, by one of Q.
        """
        merged: dict[int, int] = {}
        for root, mult in pairs:
            merged[root] = merged.get(root, 0) + mult
        merged = {root: mult for root, mult in merged.items() if mult}
        total, d = sum(merged.values()), len(merged)
        r_coeffs = [1]
        for root in merged:
            r_coeffs = [a - root * b for a, b in zip(r_coeffs + [0], [0] + r_coeffs)]
        s_coeffs = [0] * (d + 1)
        for root, mult in merged.items():
            acc = 0  # synthetic division of R by (x - root), descending
            for t, c in enumerate(r_coeffs[:d]):
                acc = acc * root + c
                s_coeffs[t] += mult * acc
        q = [1]
        for k in range(1, total + 1):
            acc = 0
            for t in range(1, min(k, d) + 1):
                acc += (r_coeffs[t] * (total - k + t) - s_coeffs[t]) * q[-t]
            q.append(acc // k)
        return cls._of(reversed(q))

    @classmethod
    def _of(cls, coeffs: Iterable[int]) -> "PolynomialZ":
        """The polynomial of coefficients this module computed itself, Python
        ints in ascending order, without the per-coefficient integer rule."""
        poly = object.__new__(cls)
        poly._coeffs = _trimmed(tuple(coeffs))
        return poly

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self._coeffs[-1] if self._coeffs else 0

    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolynomialZ):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> "PolynomialZ":
        return PolynomialZ(tuple(-c for c in self._coeffs))

    def __add__(self, other: "PolynomialZ") -> "PolynomialZ":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolynomialZ(out)

    def __sub__(self, other: "PolynomialZ") -> "PolynomialZ":
        return self + (-other)

    def __mul__(self, other) -> "PolynomialZ":
        if isinstance(other, int):
            factor = int(other)
            return PolynomialZ._of([c * factor for c in self._coeffs])
        if not isinstance(other, PolynomialZ):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return PolynomialZ.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return PolynomialZ._of(out)

    def __rmul__(self, other) -> "PolynomialZ":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "PolynomialZ":
        e = integer(exponent, "polynomial exponent", least=0)
        result = PolynomialZ.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, value):
        """Evaluate by Horner's rule; exact for int and Fraction arguments, and
        for numpy integers, which are read as Python ints so as not to wrap."""
        value = int(value) if isinstance(value, np.integer) else value
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def deflate(self, root: int) -> tuple["PolynomialZ", int]:
        """Synthetic division by (x - root): returns (quotient, remainder)."""
        if not self._coeffs:
            return PolynomialZ.zero(), 0
        out = []
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        return PolynomialZ(tuple(reversed(out))), rem

    def root_multiplicity(self, root: int) -> int:
        """Exact multiplicity of an integer root (0 if not a root, and 0 for
        the zero polynomial). Horner tests the root; only a root deflates."""
        mult = 0
        p = self
        while p and p(root) == 0:
            p = p.deflate(root)[0]
            mult += 1
        return mult

    def to_json_dict(self) -> dict:
        return {"coeffs": [_decimal(c) for c in self._coeffs]}

    @classmethod
    def from_json_dict(cls, data) -> "PolynomialZ":
        """Polynomial from ``{"coeffs": [str, ...]}`` as ``to_json_dict`` writes
        it; any other shape raises ``FormatError``."""
        coeffs = data.get("coeffs") if isinstance(data, dict) else None
        if isinstance(coeffs, list) and all(type(c) in (int, str) for c in coeffs):
            try:
                return cls(map(int, coeffs))
            except ValueError:  # a string that is not an integer
                pass
        raise FormatError('a polynomial must be {"coeffs": [str, ...]} of integer strings')

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self._coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = _decimal(mag)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 else f"{_decimal(mag)}{xpow}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"PolynomialZ({self._coeffs!r})"


def _trimmed(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients without trailing zeros."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _decimal(c: int) -> str:
    """``str(c)``, the decimal digits in which every writer of a polynomial
    spells a coefficient. Past Python's int-to-str digit limit it raises
    InvalidParameter; the limit is process-wide, so it is left as it is."""
    try:
        return str(c)
    except ValueError:
        raise InvalidParameter(
            f"a coefficient of {c.bit_length()} bits has more decimal digits than Python's "
            f"int-to-str limit of {sys.get_int_max_str_digits()} digits") from None


# Largest dimension accepted; it keeps the primes at 21 bits or more.
MAX_DIMENSION = 1 << 20

# Int64 entries in one stacked residue array, 2 MiB. The (matrix, prime)
# layers of a dimension group run in the fewest chunks of at most
# max(1, _STACK_ENTRIES // n^2) layers, all of about the same size: the 20
# layers of a 98 x 98 matrix run as one stack, a 400 x 400 matrix one prime
# at a time. Besides a chunk's residues, the reduction's row updates take at
# most an eighth of this, and the recurrence (b + 1)(n + 1) entries a layer
# for the longest block of b rows of the Hessenberg form: little when the
# form splits into small blocks, as on the super graphs' matrices (the 98 x
# 98 one peaks at 1.9 MiB under tracemalloc), and about as much as the
# residues when it does not.
_STACK_ENTRIES = 1 << 18


def char_poly_integer(matrix: Sequence[Sequence[int]]) -> PolynomialZ:
    """Exact monic characteristic polynomial det(xI - M) of an integer matrix.

    This is ``char_poly_integers`` on a batch of one: the matrix is its own
    dimension group, so its primes cover its own coefficient bound, and on
    the modular route every layer of the stack is one of its primes.
    """
    return char_poly_integers([matrix])[0]


def char_poly_integers(matrices: Iterable[Sequence[Sequence[int]]]) -> list[PolynomialZ]:
    """Exact monic characteristic polynomials det(xI - M) of integer matrices.

    The matrices are grouped by dimension, and each group gets one list of
    primes, chosen for the largest bound (below) in the group. If it takes
    two primes or more, ``_hessenberg_over_z`` first reduces the group's
    stack to upper Hessenberg form over the integers, layer by layer, where
    that stays exact; a layer that gets there is finished over the integers
    by ``_split_char_poly``, and only the layers that stop take the modular
    route, whole. With one prime the modular route is already a single int64
    reduction, and the group takes it at once.

    Multi-modular route: for each prime p, M mod p is reduced to upper
    Hessenberg form by similarity transforms and the Hessenberg recurrence
    gives the characteristic polynomial mod p (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.2.9), in O(n^3) int64
    operations. Every (matrix, prime) pair of a group is one layer of a
    stack of residues, matrix by matrix and prime by prime, run in the
    fewest chunks of at most ``_STACK_ENTRIES`` int64 entries; a chunk may
    end inside a matrix. The integer coefficients of each matrix are rebuilt
    by the Chinese remainder theorem (Garner) into the symmetric range
    (Dumas, Pernet & Wan, ISSAC 2005).

    The primes of a group are chosen up front so that their product exceeds
    2 (1 + S)^n for every matrix in it, where S = ceil(sqrt(ceil(||M||_F^2 /
    n))) and ||M||_F^2 is the sum of the squared entries. With eigenvalues
    lambda, the coefficient c_k of x^(n-k) is +-e_k(lambda), so, for any
    square M,
    |c_k| <= e_k(|lambda|) <= C(n, k) (sum |lambda| / n)^k (Maclaurin)
          <= C(n, k) (sum |lambda|^2 / n)^(k/2) (power means)
          <= C(n, k) (||M||_F^2 / n)^(k/2) (Schur) <= C(n, k) S^k <= (1 + S)^n.
    A matrix given more primes than its own bound needs gets the same result.
    The results are exact, not probabilistic, and do not depend on
    machine-integer width.

    Each matrix is read by ``errors.integer_matrix``: a numpy array of
    integer or bool dtype (one that casts safely to int64) as an array, with
    no per-entry Python, and the first entry that is not an integer raises
    ``InvalidParameter`` naming it and its position.
    """
    arrays = [_integer_array(m) for m in items(matrices, "matrices")]
    groups: dict[int, list[int]] = {}
    for index, a in enumerate(arrays):
        groups.setdefault(len(a), []).append(index)
    results: list = [None] * len(arrays)
    for n, members in groups.items():
        stack = np.array([arrays[i] for i in members])  # object if any entry is beyond int64
        primes = _covering_primes(stack)
        if len(primes) > 1:  # with one prime the modular route is one int64 reduction
            forms, done = _hessenberg_over_z(stack)
            for k in np.flatnonzero(done).tolist():
                results[members[k]] = _split_char_poly(forms[k])
            stack = stack[~done]
            members = [i for i, d in zip(members, done.tolist()) if not d]
        for i, poly in zip(members, _char_polys_modular(stack, primes)):
            results[i] = poly
    return results


def _covering_primes(stack: np.ndarray) -> list[int]:
    """The fewest primes of ``_primes(_prime_bits(n))``, in its order, whose
    product exceeds ``_coefficient_bound(stack)``."""
    bound = _coefficient_bound(stack)
    primes = []
    modulus = 1
    for p in _primes(_prime_bits(stack.shape[-1])):
        primes.append(p)
        modulus *= p
        if modulus > bound:
            return primes


def _char_polys_modular(stack: np.ndarray, primes: list[int]) -> list[PolynomialZ]:
    """det(xI - M) of each layer M of an (m, n, n) stack, int64 or of Python
    ints, from its residues mod ``primes``, whose product must exceed twice
    every coefficient: every (layer, prime) pair is one layer of a stack of
    residues, run in the fewest chunks of at most ``_STACK_ENTRIES`` entries
    by ``_char_poly_mod`` into one (m, primes, n + 1) array of residues, and
    the coefficients of all layers are rebuilt together by Garner's
    algorithm, one pass per prime, into the symmetric range."""
    if not len(stack):
        return []
    n = stack.shape[-1]
    layer_primes = np.array(primes, dtype=np.int64)
    count = len(primes)
    total = len(stack) * count
    chunks = -(-total // max(1, _STACK_ENTRIES // (n * n)))
    size = -(-total // chunks)
    residues = np.empty((total, n + 1), dtype=np.int64)  # row j * count + k: layer j mod p_k
    for lo in range(0, total, size):
        which, prime_index = np.divmod(np.arange(lo, min(lo + size, total)), count)
        mods = layer_primes[prime_index]
        chunk = stack[which]  # a copy, reduced in place
        np.remainder(chunk, mods[:, None, None], out=chunk)
        residues[lo:lo + size] = _char_poly_mod(chunk.astype(np.int64, copy=False), mods)
        del chunk  # before the next chunk's copy is made
    residues = residues.reshape(len(stack), count, n + 1)
    # Garner step k: with c the coefficients mod modulus = p_0 ... p_(k-1),
    # the unique value mod modulus * p_k that is c mod modulus and r mod p_k
    # is c + modulus * ((r - c) modulus^-1 mod p_k). c is int64 after the
    # first prime and Python ints after the second.
    coeffs, modulus = residues[:, 0], 1
    for k in range(1, count):
        p = primes[k]
        modulus *= primes[k - 1]
        digits = (residues[:, k] - (coeffs % p).astype(np.int64)) * pow(modulus, -1, p) % p
        coeffs = coeffs.astype(object, copy=False) + modulus * digits.astype(object)
    modulus *= primes[-1]
    coeffs = np.where(coeffs > modulus // 2, coeffs - modulus, coeffs)
    return [PolynomialZ._of(row) for row in coeffs.tolist()]


def _entry_limit(n: int) -> int:
    """L = floor(cbrt(2^62 / n)). With every entry of an n x n int64 matrix
    in [-L, L], one step of ``_hessenberg_over_z`` leaves the row operations'
    entries in [-(L + L^2), L + L^2], and the column operation adds at most
    n L (L + L^2) to one of them: no intermediate reaches 2^63."""
    target = (1 << 62) // n
    root = round(target ** (1 / 3))  # the real root to within 1e-9
    return root - 1 if root ** 3 > target else root


def _hessenberg_over_z(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper Hessenberg forms over the integers of the layers of an (m, n, n)
    stack, int64 or of Python ints, where they stay exact, in int64; and
    which layers got there.

    At column j a layer's pivot is its least-magnitude nonzero entry below
    the diagonal, swapped into row j + 1. If it divides every entry below it,
    the row operations R_i -= (h_ij / pivot) R_{j+1} and the inverse column
    operation are unimodular similarity transforms, so the characteristic
    polynomial is unchanged (Cohen, Alg. 2.2.9, over Z). A layer stops at
    the first column without such a pivot, or once an entry leaves [-L, L]
    for L = ``_entry_limit(n)``, which keeps every intermediate below 2^63;
    a stopped layer is set to zero, on which every later step is a no-op.
    """
    count, n, _ = stack.shape
    limit = _entry_limit(n)
    h = np.clip(stack, -limit - 1, limit + 1).astype(np.int64, copy=False)  # a copy
    ok = np.ones(count, dtype=bool)
    _stop(h, ok, np.abs(h).max(axis=(1, 2)) > limit)
    for j in range(n - 2):
        pivot = _swap_pivot(h, j)
        if pivot is None:
            continue
        quotients, remainders = np.divmod(h[:, j + 2:, j], (pivot + (pivot == 0))[:, None])
        if np.count_nonzero(remainders):
            _stop(h, ok, remainders.any(axis=1))
        _similarity_step(h, j, quotients)
        changed = h[:, :, j + 1:]
        if max(changed.max(), -changed.min()) > limit:  # no temporary of the stack's size
            _stop(h, ok, np.abs(changed).max(axis=(1, 2)) > limit)
    return h, ok


def _swap_pivot(h: np.ndarray, j: int) -> np.ndarray | None:
    """Swap each layer's least-magnitude nonzero entry below the diagonal of
    column j into row j + 1, by a similarity that swaps two rows and the same
    two columns; return the pivots h[:, j + 1, j] (zero in a layer without
    one), or None if no layer has one."""
    below = h[:, j + 1:, j]
    if not np.count_nonzero(below):
        return None
    # |entry| - 1 as uint64 puts the zeros last
    offset = (np.abs(below) - 1).view(np.uint64).argmin(axis=1)
    if np.count_nonzero(offset):
        swap = np.flatnonzero(offset)
        a, b = j + 1, j + 1 + offset[swap]
        h[swap, a], h[swap, b] = h[swap, b], h[swap, a]
        h[swap, :, a], h[swap, :, b] = h[swap, :, b], h[swap, :, a]
    return h[:, j + 1, j]


def _similarity_step(h: np.ndarray, j: int, u: np.ndarray, primes=None) -> None:
    """R_i -= u_i R_(j+1) for i > j + 1, in blocks of rows whose products take
    at most an eighth of ``_STACK_ENTRIES`` entries, then the inverse column
    operation C_(j+1) += sum_i u_i C_i; mod each layer's prime if ``primes``
    is given. With u_i = h_ij / h_(j+1,j) it clears column j below row j + 1."""
    count, n, _ = h.shape
    pivot_row = h[:, j + 1, None, j:]
    step = max(1, _STACK_ENTRIES // 8 // (count * (n - j)))
    for lo in range(0, n - j - 2, step):
        block = h[:, j + 2 + lo:j + 2 + lo + step, j:]
        block -= u[:, lo:lo + step, None] * pivot_row
        if primes is not None:
            block %= primes[:, None, None]
    column = h[:, :, j + 1]
    column += np.matmul(h[:, :, j + 2:], u[:, :, None])[:, :, 0]
    if primes is not None:
        column %= primes[:, None]


def _stop(h: np.ndarray, ok: np.ndarray, stop: np.ndarray) -> None:
    """Mark the layers of ``stop`` as stopped in ``ok`` and set them to zero."""
    ok &= ~stop
    h[stop] = 0


def _split_char_poly(h: np.ndarray) -> PolynomialZ:
    """det(xI - H) of an upper Hessenberg integer matrix H over the integers:
    the product of its diagonal blocks' char polys, cut where the subdiagonal
    is zero. The 1 x 1 blocks are counted by value and multiplied out at once
    by ``_linear_factors``; each longer block's p_r of the Hessenberg
    recurrence in Python ints (Cohen, Alg. 2.2.9) is multiplied in by
    ``PolynomialZ.__mul__``: p_0 = 1 and, from 1 in the block,
    p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_(i-1).
    """
    diagonal, below = h.diagonal().tolist(), h.diagonal(-1).tolist()
    cuts = [0, *(k + 1 for k, v in enumerate(below) if v == 0), len(h)]
    ones: dict[int, int] = {}
    factors = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a == 1:
            ones[diagonal[a]] = ones.get(diagonal[a], 0) + 1
            continue
        block = h[a:b, a:b].tolist()
        polys = [[1]]  # polys[k]: ascending coefficients of p_k
        for j in range(b - a):  # p_(j+1) from the block's column j, from 0
            row = [0, *polys[j]]
            chain = 1  # block[i+1][i] ... block[j][j-1], 1 for i = j
            for i in range(j, -1, -1):
                weight = block[i][j] * chain
                if weight:
                    row[:i + 1] = [r - weight * c for r, c in zip(row, polys[i])]
                chain *= block[i][i - 1]  # block[0][-1] at i = 0, after the last term
            polys.append(row)
        factors.append(PolynomialZ._of(polys[-1]))
    poly = _linear_factors(ones)
    for factor in factors:
        poly = poly * factor
    return poly


def _linear_factors(counts: dict[int, int]) -> PolynomialZ:
    """prod (x - v)^m over the (value v, count m > 0) items of ``counts``,
    d of them, of degree D = sum m, in O(D d) products, by the recurrence
    from the logarithmic derivative. With R = prod (x - v) and
    S = sum m R / (x - v), in descending coefficients (S_t that of
    x^(d-1-t), S_d = 0), Q = prod (x - v)^m has R Q' = S Q, so q_0 = 1 and

        K q_K = sum_{t=1..min(K, d)} (R_t (D - K + t) - S_t) q_(K-t),

    an exact division."""
    total, d = sum(counts.values()), len(counts)
    r = [1]
    for v in counts:
        r = [a - v * b for a, b in zip([*r, 0], [0, *r])]
    s = [0] * (d + 1)
    for v, m in counts.items():
        acc = 0  # synthetic division of R by (x - v), descending
        for t, c in enumerate(r[:d]):
            acc = acc * v + c
            s[t] += m * acc
    terms = list(zip(range(1, d + 1), r[1:], s[1:]))
    q = [1]
    for k in range(1, total + 1):
        acc = 0
        for t, r_t, s_t in terms[:k]:
            acc += (r_t * (total - k + t) - s_t) * q[-t]
        q.append(acc // k)
    return PolynomialZ._of(reversed(q))


def _integer_array(matrix) -> np.ndarray:
    """A square nonempty integer matrix of at most ``MAX_DIMENSION`` rows by
    ``errors.integer_matrix``, its dimension checked before it is read."""
    n = operator.length_hint(matrix)  # 0 without a length, as for a 0-D array
    if n > MAX_DIMENSION:
        raise InvalidParameter(f"matrix dimension {n} exceeds {MAX_DIMENSION}")
    return integer_matrix(matrix, "matrix")


def _coefficient_bound(stack: np.ndarray) -> int:
    """2 (1 + S)^n with S = ceil(sqrt(ceil(||M||_F^2 / n))) for the largest
    ||M||_F^2 of an (n, n) matrix or an (m, n, n) stack of them, int64 or of
    Python ints: more than twice the absolute value of every coefficient of
    each det(xI - M) (see ``char_poly_integers`` for the proof). The squares
    are summed in int64 when n^2 max|a|^2 < 2^63, and as Python ints
    otherwise."""
    n = stack.shape[-1]
    flat = stack.reshape(-1, n * n)
    peak = max(-int(flat.min()), int(flat.max()))
    if n * n * peak * peak >= 1 << 63:
        flat = flat.astype(object)
    mean_square = -(-int((flat * flat).sum(axis=1).max()) // n)
    root = math.isqrt(mean_square - 1) + 1 if mean_square else 0
    return 2 * (1 + root) ** n


def _prime_bits(n: int) -> int:
    """Bit size b of the primes for dimension n: with n < 2^L and 2b <= 63 - L,
    n * (p - 1)^2 < 2^63, so a sum of n products of residues fits in int64."""
    return (63 - n.bit_length()) // 2


# Primes below 2^bits in descending order, per bit size, extended on first use.
_PRIMES: dict[int, list[int]] = {}


def _primes(bits: int) -> Iterator[int]:
    """The primes below 2^bits in descending order."""
    cached = _PRIMES.setdefault(bits, [])
    yield from cached
    candidate = cached[-1] if cached else 1 << bits
    while candidate > 2:
        candidate -= 1
        if is_prime(candidate):
            cached.append(candidate)
            yield candidate
    raise InvalidParameter(f"ran out of primes below 2^{bits}")


def _char_poly_mod(h: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Ascending coefficients of det(xI - H_k) mod p_k, one row per prime.

    ``h`` is a (P, n, n) int64 stack whose layer k holds entries in [0, p_k)
    for the k-th of the P ``primes``; it is overwritten by the Hessenberg
    forms. Every step runs on all layers at once.
    """
    count, n, _ = h.shape
    mods = primes[:, None]
    # Reduce to upper Hessenberg form by the similarity steps of
    # ``_hessenberg_over_z`` mod p, where every nonzero pivot is invertible;
    # a layer with none gets u = 0, which leaves it unchanged.
    for j in range(n - 2):
        pivot = _swap_pivot(h, j)
        if pivot is None:
            continue
        inverses = [pow(v, -1, p) if v else 0 for v, p in zip(pivot.tolist(), primes.tolist())]
        u = h[:, j + 2:, j] * np.array(inverses)[:, None]
        u %= mods
        _similarity_step(h, j, u, primes)

    # Hessenberg recurrence on the leading m x m blocks:
    # p_m = x p_{m-1} - sum_{start<i<=m} h[i-1, m-1] c_i p_{i-1},
    # c_i = prod_{i<=k<m} h[k, k-1] (so c_m = 1), held in chain[:, i-1].
    # The products are carried through subdiagonal entries that are zero in
    # some layers only, where they vanish for that layer. Where h[m-1, m-2]
    # is zero in every layer the form splits: start moves up to m - 1 and
    # p_m = (x - h[m-1, m-1]) p_{m-1}; the cuts are read from the form, as
    # no step after step j touches h[j+1, j]. polys holds p_start, ... of the
    # current block only, in its rows 0, 1, ... Before a row is reduced its
    # entries are below (n + 1) (p - 1)^2 < 2^63 in absolute value.
    linked = h.diagonal(-1, 1, 2).any(axis=0).tolist()
    cuts = [0, *(i + 1 for i, link in enumerate(linked) if not link), n]
    longest = max(b - a for a, b in zip(cuts, cuts[1:]))
    polys = np.zeros((count, longest + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    chain = np.ones((count, n), dtype=np.int64)
    start = 0
    for m in range(1, n + 1):
        if m > 1 and not linked[m - 2]:
            polys[:, 0] = polys[:, m - 1 - start]
            start = m - 1
        k = m - start
        prev, row = polys[:, k - 1], polys[:, k]
        row[:, 0] = 0
        row[:, 1:] = prev[:, :-1]
        head = row[:, :m]
        if k > 1:
            links = chain[:, start:m - 1]
            links *= h[:, m - 1, m - 2, None]
            links %= mods
            weights = h[:, start:m, m - 1] * chain[:, start:m]
            weights %= mods
            head -= np.matmul(weights[:, None, :], polys[:, :k, :m])[:, 0]
        else:
            head -= h[:, m - 1, m - 1, None] * prev[:, :m]
        head %= mods
    return polys[:, n - start]
