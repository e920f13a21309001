"""Spectra and characteristic polynomials of super graphs.

Three independent routes are provided: LAPACK's symmetric eigensolver on the
explicit matrix, exact integer characteristic polynomials of explicit
matrices, and the quotient-matrix factorization that carries the spectrum of a
join of cliques on a small matrix. One private function, ``_quotients``, is
the quotient route: it builds the quotient matrix on the closed-twin classes
of each compressed graph and one clique eigenvalue per class. The exact char
polys and the quotient spectrum share it: ``_quotient_charpoly`` and
``_quotient_spectrum`` read one of its entries, so a caller that needs both
builds it once. ``_t`` is the one check of a matrix name, and
``super_charpolys`` runs the quotient cores of many super graphs in one exact
kernel call. Integer-root factorization serves the verifier; the star-join
Laplacian closed form and the interlacing check serve the acceptance
criteria.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import (
    InvalidParameter,
    NoConvergence,
    NotSymmetric,
    SizeMismatch,
    instance,
    integer,
    items,
    pair,
    real,
)
from .graphs import SimpleGraph, _block_cross, _check_partition, _closed_twin_classes
from .partitions import Partition
from .polynomials import PolynomialZ, char_poly_integer, char_poly_integers

_GROUPING_FACTOR = 1e-8


class Spectrum:
    """Multiset of eigenvalues as (value, multiplicity) pairs, sorted ascending.

    Values are ints (exact) or floats (numeric), read by ``errors.real``.
    They compare by Python's exact ``==``, which never rounds an int to a
    float: equal values merge on construction, and two spectra are equal,
    and hash equal, when their pairs are.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        entries = []
        for entry in items(pairs, "spectrum pairs"):
            value, mult = pair(entry, "a (value, multiplicity) entry")
            entries.append((real(value, "eigenvalue"), integer(mult, "multiplicity", least=0)))
        merged = []
        for value, mult in sorted(entries, key=lambda e: e[0]):
            if mult == 0:
                continue
            if merged and merged[-1][0] == value:
                merged[-1][1] += mult
            else:
                merged.append([value, mult])
        self._pairs = tuple((v, m) for v, m in merged)

    @property
    def pairs(self) -> tuple:
        return self._pairs

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self._pairs)

    def values(self) -> tuple:
        return tuple(v for v, _ in self._pairs)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self._pairs)

    def expand(self) -> list[float]:
        """Sorted eigenvalues as floats, repeated by multiplicity."""
        out = []
        for v, m in self._pairs:
            out.extend([float(v)] * m)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __str__(self) -> str:
        def fmt(v):
            if isinstance(v, float):
                return f"{v:.6g}"
            return str(v)

        return ", ".join(
            fmt(v) if m == 1 else f"{fmt(v)}(x{m})" for v, m in self._pairs
        )

    def __repr__(self) -> str:
        return f"Spectrum({list(self._pairs)!r})"

    def to_json_dict(self) -> dict:
        eigs = []
        for v, m in self._pairs:
            encoded = v if isinstance(v, int) else float(v)
            eigs.append({"value": encoded, "multiplicity": m})
        return {"eigenvalues": eigs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def jacobi_eigenvalues(matrix) -> Spectrum:
    """All eigenvalues of a symmetric matrix by LAPACK's symmetric solver.

    The name is historical: the solver is ``numpy.linalg.eigvalsh``. The
    eigenvalues are grouped into multiplicities with tolerance
    1e-8 * max(1, ||M||_F).
    """
    try:
        a = np.asarray(matrix)
        if a.dtype.kind not in "biufO":  # complex, string or bytes entries
            raise TypeError(f"{a.dtype} entries")
        a = a.astype(float)
    except (TypeError, ValueError) as exc:  # ragged, or entries that are not real numbers
        raise InvalidParameter(f"matrix is not an array of real numbers: {exc}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidParameter("matrix must be square and nonempty")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise InvalidParameter(f"matrix Frobenius norm is not finite ({norm})")
    if float(np.abs(a - a.T).max()) > 1e-12 * max(1.0, norm):
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative tolerance")
    try:
        eigs = np.linalg.eigvalsh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver did not converge: {exc}") from exc

    return _grouped(eigs, np.ones(len(eigs), dtype=np.int64), _GROUPING_FACTOR * max(1.0, norm))


def _grouped(values, mults, tol: float) -> Spectrum:
    """Spectrum of ascending values with the given multiplicities, where
    neighbours within tol merge into one eigenvalue at their weighted mean."""
    values, mults = np.asarray(values, dtype=float), np.asarray(mults, dtype=np.int64)
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)
    counts = np.add.reduceat(mults, starts)
    means = np.add.reduceat(values * mults, starts) / counts
    return Spectrum(zip(means.tolist(), counts.tolist()))


def _t(matrix: str) -> int:
    """The t of N(t) below for a matrix name: 0 for adjacency, 1 for laplacian."""
    if matrix not in ("adjacency", "laplacian"):
        raise InvalidParameter("matrix must be 'adjacency' or 'laplacian'")
    return 0 if matrix == "adjacency" else 1


def _quotients(cases, t: int) -> list[tuple]:
    """The quotient route of each (graph, partition) case: the quotient
    matrix N(t) and the clique eigenvalues.

    The super graph is a join of cliques over the compressed graph, and so
    over the closed-twin classes of the compressed graph, the coarsest such
    join (``_closed_twin_classes``). With n_i the size of class i (the summed
    sizes of its blocks), rho the adjacency of the classes (read from the
    block cross adjacency, without building the compressed graph's labels)
    and N_i = sum_j rho_ij n_j, the quotient matrix N(t) has sqrt(n_i n_j)
    where rho_ij is set and n_i - 1 - t * (n_i - 1 + N_i) on the diagonal.
    The super graph's adjacency (t = 0) or Laplacian (t = 1) spectrum is the
    eigenvalues of N(0), or of -N(1), and one clique eigenvalue per class,
    -1 or N_i + n_i, with multiplicity n_i - 1 (Cardoso, de Freitas, Martins
    & Robbiano, *Discrete Math.* 313, 2013), for any template: a disconnected
    compressed graph makes N(t) block diagonal up to a permutation.

    Returns N(0) or -N(1) as an int64 companion matrix (n_j for sqrt(n_i n_j):
    similar by diag(sqrt(n_i)), so with the same char poly) and as a float
    symmetric matrix, and the clique (eigenvalue, multiplicity) pairs, k x k
    and k pairs for k closed-twin classes. The cases of one vertex count are
    one stack, padded with empty blocks, which join nothing.
    """
    by_size: dict[int, list[int]] = {}
    for c, (graph, partition) in enumerate(cases):
        _check_partition(graph, partition)
        by_size.setdefault(graph.n, []).append(c)
    quotients: list = [None] * len(cases)
    sign = -1 if t else 1
    for members in by_size.values():
        graphs, parts = zip(*(cases[c] for c in members))
        k = max(p.block_count for p in parts)
        adjacency = [g.adjacency for g in graphs]
        stack = adjacency[0][None] if len(graphs) == 1 else np.array(adjacency)  # no copy of one
        rho, n = _closed_twin_classes(
            _block_cross(stack, np.array([p.block_of for p in parts]), k),
            np.array([p.sizes + (0,) * (k - p.block_count) for p in parts]))
        neighbor_sums = (rho.astype(np.int64) @ n[:, :, None])[:, :, 0]
        diag = np.eye(n.shape[1], dtype=np.int64) * (n - 1 - t * (n - 1 + neighbor_sums))[:, None]
        companion = sign * (np.where(rho, n[:, None, :], 0) + diag)
        symmetric = sign * (np.where(rho, np.sqrt(n[:, :, None] * n[:, None, :]), 0.0) + diag)
        classes = np.count_nonzero(n, axis=1).tolist()  # the classes of blocks come first
        for i, (c, kc) in enumerate(zip(members, classes)):
            cliques = [(big_n + n_i if t else -1, n_i - 1)
                       for n_i, big_n in zip(n[i, :kc].tolist(), neighbor_sums[i, :kc].tolist())]
            quotients[c] = companion[i, :kc, :kc], symmetric[i, :kc, :kc], cliques
    return quotients


def _quotient_charpoly(quotient: tuple) -> PolynomialZ:
    """The exact char poly of a super graph from its ``_quotients`` entry."""
    companion, _, cliques = quotient
    return char_poly_integer(companion) * PolynomialZ.from_roots(cliques)


def _quotient_spectrum(quotient: tuple) -> Spectrum:
    """The numeric spectrum of a super graph from its ``_quotients`` entry."""
    _, symmetric, cliques = quotient
    pairs = sorted([*jacobi_eigenvalues(symmetric).pairs, *((v, m) for v, m in cliques if m)])
    values, mults = zip(*pairs)
    return _grouped(values, mults, _GROUPING_FACTOR * max(1.0, float(np.linalg.norm(symmetric))))


def super_adjacency_charpoly(graph: SimpleGraph, partition: Partition) -> PolynomialZ:
    """Exact characteristic polynomial of the adjacency matrix of the super graph:
    char(N(0)) of the quotient matrix on the k closed-twin classes of the
    compressed graph times (x + 1)^(n - k)."""
    return _quotient_charpoly(_quotients([(graph, partition)], 0)[0])


def super_laplacian_charpoly(graph: SimpleGraph, partition: Partition) -> PolynomialZ:
    """Exact characteristic polynomial of the Laplacian of the super graph:
    char(-N(1)) of the quotient matrix on the closed-twin classes of the
    compressed graph times prod_i (x - N_i - n_i)^(n_i - 1), over the
    classes i."""
    return _quotient_charpoly(_quotients([(graph, partition)], 1)[0])


def super_charpolys(cases, matrix: str) -> list[PolynomialZ]:
    """Exact characteristic polynomials of many super graphs, one per
    (graph, partition) case, of the adjacency or the Laplacian matrix as
    ``matrix`` says: ``super_adjacency_charpoly`` or
    ``super_laplacian_charpoly`` of each case, with the quotient cores of all
    cases computed in one ``char_poly_integers`` call."""
    t = _t(matrix)
    quotients = _quotients([pair(case, "a (graph, partition) case")
                            for case in items(cases, "cases")], t)
    cores = char_poly_integers([companion for companion, _, _ in quotients])
    return [
        core * PolynomialZ.from_roots(cliques) for core, (_, _, cliques) in zip(cores, quotients)
    ]


def quotient_spectrum(graph: SimpleGraph, partition: Partition, matrix: str) -> Spectrum:
    """Numeric spectrum of the super graph via the quotient route.

    The quotient matrix is solved with LAPACK's symmetric solver
    (``jacobi_eigenvalues``) and the clique eigenvalues (-1, or N_i + n_i for
    the Laplacian) contribute the rest exactly; values within the solver's
    grouping tolerance, 1e-8 * max(1, ||N||_F), merge into one eigenvalue.
    Independent of any catalogued closed form.
    """
    return _quotient_spectrum(_quotients([(graph, partition)], _t(matrix))[0])


def star_join_laplacian_spectrum(sizes) -> Spectrum:
    """Exact integer Laplacian spectrum of a star join of cliques:
    0, n, the center size (k-2 times), and N_i + n_i with multiplicity n_i - 1."""
    sizes = [integer(s, "star join block size", least=1) for s in items(sizes, "sizes")]
    if len(sizes) < 2:
        raise InvalidParameter("star join needs at least two blocks")
    k = len(sizes)
    n = sum(sizes)
    n1 = sizes[0]
    pairs = [(0, 1), (n, 1), (n1, k - 2), (n, n1 - 1)]
    pairs.extend((n1 + s, s - 1) for s in sizes[1:])
    return Spectrum(pairs)


def multiset_match(s1: Spectrum, s2: Spectrum, tol: float) -> bool:
    """True when the expanded eigenvalue lists pair up within tol."""
    instance(s1, Spectrum, "spectrum")
    instance(s2, Spectrum, "spectrum")
    tol = real(tol, "tolerance")
    if s1.total_multiplicity != s2.total_multiplicity:
        raise SizeMismatch(
            f"total multiplicities differ: {s1.total_multiplicity} vs {s2.total_multiplicity}"
        )
    return all(abs(a - b) <= tol for a, b in zip(s1.expand(), s2.expand()))


def grouped_match(expected: Spectrum, actual: Spectrum, tol: float) -> bool:
    """True when the grouped (value, multiplicity) pairs agree: equal group
    counts, identical multiplicities, values within tol."""
    instance(expected, Spectrum, "spectrum")
    instance(actual, Spectrum, "spectrum")
    tol = real(tol, "tolerance")
    if len(expected.pairs) != len(actual.pairs):
        return False
    return all(
        m1 == m2 and abs(float(v1) - float(v2)) <= tol
        for (v1, m1), (v2, m2) in zip(expected.pairs, actual.pairs)
    )


def interlacing_check(eigs_full, eigs_sub, slack: float = 1e-9) -> bool:
    """Check lambda_k <= beta_k <= lambda_(k+n-m) within slack for sorted
    eigenvalue lists of a symmetric matrix and a principal submatrix."""
    slack = real(slack, "slack")
    full = sorted(real(v, "eigenvalue") for v in items(eigs_full, "eigenvalues"))
    sub = sorted(real(v, "eigenvalue") for v in items(eigs_sub, "eigenvalues"))
    n, m = len(full), len(sub)
    if m > n:
        raise InvalidParameter("submatrix has more eigenvalues than the full matrix")
    return all(
        full[i] - slack <= sub[i] <= full[i + n - m] + slack for i in range(m)
    )


def spectrum_from_integer_charpoly(poly: PolynomialZ, bound: int | None = None) -> Spectrum | None:
    """Factor a monic characteristic polynomial into integer roots if possible.

    Each candidate root in [-bound, bound] is scanned with
    ``PolynomialZ.root_multiplicity``; the default bound of twice the degree
    covers adjacency (|eig| <= n-1) and Laplacian (eig <= 2(n-1)) matrices of
    simple graphs. Returns None when the multiplicities found do not sum to
    the degree, that is when the polynomial does not split into integer roots
    within the bound.
    """
    if not instance(poly, PolynomialZ, "polynomial").is_monic():
        return None
    bound = 2 * max(poly.degree, 0) if bound is None else integer(bound, "root bound")
    pairs = [(root, poly.root_multiplicity(root)) for root in range(-bound, bound + 1)]
    if sum(m for _, m in pairs) != poly.degree:
        return None
    return Spectrum(pairs)
