"""Spectra and characteristic polynomials of super graphs.

Three independent routes are provided: LAPACK's symmetric eigensolver on the
explicit matrix, exact integer characteristic polynomials of explicit
matrices, and the quotient-matrix factorization that carries the spectrum of a
join of cliques on a small matrix. One private function, ``_quotient``, is
the quotient route: it checks the matrix name and builds the quotient matrix
of the whole compressed graph and one clique eigenvalue per block. The two
exact char polys and the quotient spectrum share it, and
``super_charpolys`` runs the quotient cores of many super graphs in one exact
kernel call. Root isolation and integer-root factorization serve the
verifier; the star-join Laplacian closed form and the interlacing check serve
the acceptance criteria.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import (
    InvalidParameter,
    NoConvergence,
    NoSignChange,
    NotSymmetric,
    SizeMismatch,
)
from .graphs import SimpleGraph, compressed_graph
from .partitions import Partition
from .polynomials import PolynomialZ, char_poly_integer, char_poly_integers

_GROUPING_FACTOR = 1e-8
_ROOT_TOL = 1e-10


def _values_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return float(a) == float(b)
    return a == b  # ints compare exactly


class Spectrum:
    """Multiset of eigenvalues as (value, multiplicity) pairs, sorted ascending.

    Values are ints (exact) or floats (numeric); equal values are merged on
    construction.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        merged = []
        for value, mult in sorted(pairs, key=lambda p: float(p[0])):
            mult = int(mult)
            if mult < 0:
                raise InvalidParameter("multiplicities must be nonnegative")
            if mult == 0:
                continue
            if merged and _values_equal(merged[-1][0], value):
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
        if len(self._pairs) != len(other._pairs):
            return False
        return all(
            m1 == m2 and _values_equal(v1, v2)
            for (v1, m1), (v2, m2) in zip(self._pairs, other._pairs)
        )

    def __hash__(self) -> int:
        return hash(tuple((float(v), m) for v, m in self._pairs))

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
    a = np.array(matrix, dtype=float)
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


def _quotient(graph: SimpleGraph, partition: Partition, matrix: str):
    """The quotient route: check ``matrix`` and build its quotient matrix.

    With n_i the size of block i, rho the compressed graph's adjacency and
    N_i = sum_j rho_ij n_j, the quotient matrix N(t) has sqrt(n_i n_j) where
    rho_ij is set and n_i - 1 - t * (n_i - 1 + N_i) on the diagonal. The
    super graph's adjacency (t = 0) or Laplacian (t = 1) spectrum is the
    eigenvalues of N(0), or of -N(1), and one clique eigenvalue per block,
    -1 or N_i + n_i, with multiplicity n_i - 1 (Cardoso, de Freitas, Martins
    & Robbiano, *Discrete Math.* 313, 2013), for any template: a disconnected
    compressed graph makes N(t) block diagonal up to a permutation.

    Returns N(0) or -N(1) as an int64 companion matrix (n_j for sqrt(n_i n_j):
    similar by diag(sqrt(n_i)), so with the same char poly) and as a float
    symmetric matrix, and the clique (eigenvalue, multiplicity) pairs.
    """
    if matrix not in ("adjacency", "laplacian"):
        raise InvalidParameter("matrix must be 'adjacency' or 'laplacian'")
    t = 0 if matrix == "adjacency" else 1
    rho = compressed_graph(graph, partition).adjacency
    n = np.array(partition.sizes, dtype=np.int64)
    neighbor_sums = rho.astype(np.int64) @ n
    diag = np.diag(n - 1 - t * (n - 1 + neighbor_sums))
    sign = -1 if t else 1
    companion = sign * (np.where(rho, n, 0) + diag)
    symmetric = sign * (np.where(rho, np.sqrt(np.outer(n, n).astype(float)), 0.0) + diag)
    cliques = [(big_n + n_i if t else -1, n_i - 1)
               for n_i, big_n in zip(partition.sizes, neighbor_sums.tolist())]
    return companion, symmetric, cliques


def _quotient_charpoly(graph: SimpleGraph, partition: Partition, matrix: str) -> PolynomialZ:
    companion, _, cliques = _quotient(graph, partition, matrix)
    return char_poly_integer(companion) * PolynomialZ.from_roots(cliques)


def super_adjacency_charpoly(graph: SimpleGraph, partition: Partition) -> PolynomialZ:
    """Exact characteristic polynomial of the adjacency matrix of the super graph:
    char(N(0)) of the compressed graph's quotient matrix times (x + 1)^(n - k)."""
    return _quotient_charpoly(graph, partition, "adjacency")


def super_laplacian_charpoly(graph: SimpleGraph, partition: Partition) -> PolynomialZ:
    """Exact characteristic polynomial of the Laplacian of the super graph:
    char(-N(1)) of the compressed graph's quotient matrix times
    prod_i (x - N_i - n_i)^(n_i - 1)."""
    return _quotient_charpoly(graph, partition, "laplacian")


def super_charpolys(cases, matrix: str) -> list[PolynomialZ]:
    """Exact characteristic polynomials of many super graphs, one per
    (graph, partition) case, of the adjacency or the Laplacian matrix as
    ``matrix`` says: ``super_adjacency_charpoly`` or
    ``super_laplacian_charpoly`` of each case, with the quotient cores of all
    cases computed in one ``char_poly_integers`` call."""
    quotients = [_quotient(graph, partition, matrix) for graph, partition in cases]
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
    _, symmetric, cliques = _quotient(graph, partition, matrix)
    pairs = sorted([*jacobi_eigenvalues(symmetric).pairs, *((v, m) for v, m in cliques if m)])
    values, mults = zip(*pairs)
    return _grouped(values, mults, _GROUPING_FACTOR * max(1.0, float(np.linalg.norm(symmetric))))


def star_join_laplacian_spectrum(sizes) -> Spectrum:
    """Exact integer Laplacian spectrum of a star join of cliques:
    0, n, the center size (k-2 times), and N_i + n_i with multiplicity n_i - 1."""
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2:
        raise InvalidParameter("star join needs at least two blocks")
    if any(s < 1 for s in sizes):
        raise InvalidParameter("all block sizes must be >= 1")
    k = len(sizes)
    n = sum(sizes)
    n1 = sizes[0]
    pairs = [(0, 1), (n, 1), (n1, k - 2), (n, n1 - 1)]
    pairs.extend((n1 + s, s - 1) for s in sizes[1:])
    return Spectrum(pairs)


def real_root_isolate(poly: PolynomialZ, brackets) -> list[float]:
    """One real root per integer bracket by bisection to width 1e-10.

    Each bracket must exhibit a strict sign change at its endpoints, checked
    with exact integer evaluation.
    """
    roots = []
    for lo, hi in brackets:
        lo, hi = int(lo), int(hi)
        if lo >= hi:
            raise InvalidParameter(f"empty bracket ({lo}, {hi})")
        flo, fhi = poly(lo), poly(hi)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            raise NoSignChange(
                f"no sign change on ({lo}, {hi}): p({lo})={flo}, p({hi})={fhi}",
                interval=(lo, hi),
            )
        neg, pos = (float(lo), float(hi)) if flo < 0 else (float(hi), float(lo))
        for _ in range(200):
            if abs(pos - neg) <= _ROOT_TOL:
                break
            mid = (neg + pos) / 2.0
            if poly(mid) < 0:
                neg = mid
            else:
                pos = mid
        roots.append((neg + pos) / 2.0)
    return roots


def multiset_match(s1: Spectrum, s2: Spectrum, tol: float) -> bool:
    """True when the expanded eigenvalue lists pair up within tol."""
    if s1.total_multiplicity != s2.total_multiplicity:
        raise SizeMismatch(
            f"total multiplicities differ: {s1.total_multiplicity} vs {s2.total_multiplicity}"
        )
    return all(abs(a - b) <= tol for a, b in zip(s1.expand(), s2.expand()))


def grouped_match(expected: Spectrum, actual: Spectrum, tol: float) -> bool:
    """True when the grouped (value, multiplicity) pairs agree: equal group
    counts, identical multiplicities, values within tol."""
    if len(expected.pairs) != len(actual.pairs):
        return False
    return all(
        m1 == m2 and abs(float(v1) - float(v2)) <= tol
        for (v1, m1), (v2, m2) in zip(expected.pairs, actual.pairs)
    )


def interlacing_check(eigs_full, eigs_sub, slack: float = 1e-9) -> bool:
    """Check lambda_k <= beta_k <= lambda_(k+n-m) within slack for sorted
    eigenvalue lists of a symmetric matrix and a principal submatrix."""
    full = sorted(float(v) for v in eigs_full)
    sub = sorted(float(v) for v in eigs_sub)
    n, m = len(full), len(sub)
    if m > n:
        raise InvalidParameter("submatrix has more eigenvalues than the full matrix")
    return all(
        full[i] - slack <= sub[i] <= full[i + n - m] + slack for i in range(m)
    )


def spectrum_from_integer_charpoly(poly: PolynomialZ, bound: int | None = None) -> Spectrum | None:
    """Factor a monic characteristic polynomial into integer roots if possible.

    Candidate roots are scanned in [-bound, bound]; the default of twice the
    degree covers adjacency (|eig| <= n-1) and Laplacian (eig <= 2(n-1))
    matrices of simple graphs. Returns None when the polynomial does not split
    into integer roots within the bound.
    """
    if not poly.is_monic():
        return None
    if bound is None:
        bound = 2 * max(poly.degree, 0)
    pairs = []
    p = poly
    for root in range(-bound, bound + 1):
        while p.degree > 0:
            q, rem = p.deflate(root)
            if rem != 0:
                break
            pairs.append((root, 1))
            p = q
    if p.degree > 0:
        return None
    return Spectrum(pairs)
