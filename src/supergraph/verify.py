"""Executable verification of the catalogued spectral and structural claims.

Each claim is checked along three routes: the catalogued closed form, the
quotient-matrix pipeline, and brute force on the explicit matrix. One
``Claim`` record per claim holds its parameter range, the group family it
builds (``family_group``) and its published form. At a point that
``Claim.check`` has passed, its methods give the published form, the
published spectrum, and the exact diff of that form against the quotient
route's char poly.
A ``SpectralPoint`` runs every route of one super graph once and yields the
same three labelled checks at every point, which ``verify`` and ``spectrum
--compare`` judge alike. The verdict separates internal
inconsistencies ("Mismatch": the quotient route and brute force disagree,
which would be a bug here) from divergences between our computations and a
catalogued published formula ("Mismatch(paper-table)", reported with a diff
and never thrown). Verdicts are named in one place, ``_report``, from the
first failing check of a task: a spectral point, a structure claim's
published-form check or a generic property.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectra
from .errors import (
    InvalidParameter,
    OutOfRange,
    SupergraphError,
    UnsupportedClosedForm,
    integer,
    items,
    pair,
)
from .graphs import (
    SimpleGraph,
    _block_cross,
    _clear_diagonal,
    _connected,
    _contained,
    _join,
    _lift,
    _pairs,
    _reach,
    _super_graphs,
    commuting_graph,
    complete_graph,
    generalized_join,
    star_graph,
    super_graph,
    twin_canonical_form,
)
from .groups import dihedral, generalized_quaternion, is_prime, semidirect_pq
from .partitions import Partition, _refines, relation_partition
from .polynomials import PolynomialZ, char_poly_integer, char_poly_integers
from .spectra import (
    Spectrum,
    _t,
    jacobi_eigenvalues,
    multiset_match,
    spectrum_from_integer_charpoly,
    super_charpolys,
)

MATCH = "Match"
MISMATCH = "Mismatch"
PAPER_TABLE = "Mismatch(paper-table)"

SPECTRAL_TOL = 1e-8

DEFAULT_PQ_PAIRS = ((3, 2), (5, 2), (7, 3), (7, 2), (13, 3))


@dataclass
class ClaimReport:
    """Outcome of checking one claim at one parameter point."""

    claim: str
    params: dict
    verdict: str = MATCH
    diff: str | None = None
    ms: int = 0

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": dict(sorted(self.params.items())),
            "verdict": self.verdict,
            "diff": self.diff,
            "ms": self.ms,
        }


# ---------------------------------------------------------------------------
# Claim catalogue

def _cubic(c0: int, c1: int, c2: int) -> PolynomialZ:
    return PolynomialZ((c0, c1, c2, 1))


def _star_join(*sizes: int) -> SimpleGraph:
    return generalized_join(star_graph(len(sizes)), [complete_graph(s) for s in sizes])


_reads: Counter | None = None  # in ``run_suite``: the reads its tasks will make of each call
_built: dict | None = None  # what the run holds of a call, from its first read to its last


def _shared(build, *args):
    """build(*args), built once for all the reads that a run counted of it."""
    key = (build, *args)
    if not _reads or _reads[key] <= 0:
        return build(*args)
    if key not in _built:
        _built[key] = build(*args)
    _reads[key] -= 1
    return _built[key] if _reads[key] else _built.pop(key)


def _family_call(family: str, params) -> tuple:
    """The constructor and its arguments that build a family group."""
    if family not in ("D", "Q", "PQ", "Dc") or len(params) != (2 if family == "PQ" else 1):
        raise InvalidParameter(f"no group family {family!r} with parameters {params}")
    if family == "Dc":
        return (dihedral, 2 * integer(params[0], "Dc parameter"))
    return ({"D": dihedral, "Q": generalized_quaternion, "PQ": semidirect_pq}[family], *params)


def family_group(family: str, *params):
    """The group of a family tag and its parameters: D n is D_2n, Q n is Q_4n,
    PQ p q is Z_p x| Z_q and Dc m is D_4m, the dihedral group of order 4m."""
    return _shared(*_family_call(family, params))


def _super_of(relation: str, *call) -> tuple[SimpleGraph, SimpleGraph, Partition]:
    """The super graph of a group call over a relation, its commuting graph and
    partition; the one build of a super graph is the one read of its group."""
    group = _shared(*call)
    base = commuting_graph(group)
    part = relation_partition(group, relation)
    return super_graph(base, part), base, part


@dataclass(frozen=True)
class Claim:
    """One catalogued claim: its parameter points, what it builds and what it asserts.

    The callables take the parameters as keywords (``n``, ``m`` or ``p, q``)
    and look the library functions up when they run, so that rebinding a
    name in this module reaches them.
    """

    name: str
    suite: str  # "4.1" .. "4.5"
    family: str  # D | Q | PQ | Dc: the tag --family selects and family_group builds
    axis: str  # odd_n | n | m | pq: the suite option that gives the parameter points
    relations: tuple[str, ...]  # the first is built; the others give the same graph where valid
    default: tuple[int, int] = (0, 0)  # parameter range when the axis option is absent
    least: int = 0  # smallest valid parameter
    parity: int | None = None  # required parameter % 2, if any
    matrix: str | None = None  # adjacency | laplacian; None for a structure claim
    closed: Callable | None = None  # published polynomial or spectrum, or the claimed graph
    twin: str | None = None  # in place of closed: the family whose super graph is claimed
    cubic: Callable | None = None  # (cubic factor, multiplicity of -1) of an adjacency claim
    brackets: Callable | None = None  # published integer brackets of the cubic's roots
    sides: tuple[str, str] = ("computed", "claimed")  # names of a structure claim's forms

    @property
    def kind(self) -> str:
        return "structure" if self.matrix is None else "spectral"

    @property
    def key(self) -> str:
        return "m" if self.axis == "m" else "n"

    @property
    def keys(self) -> tuple[str, ...]:
        return ("p", "q") if self.axis == "pq" else (self.key,)

    def point(self, values) -> dict:
        """Parameters from positional values: (7, 3) -> {"p": 7, "q": 3}."""
        values = items(values, "claim parameters")
        if len(values) != len(self.keys):
            raise InvalidParameter(f"claim {self.name!r} takes the parameters {self.keys}")
        return dict(zip(self.keys, values))

    def points(self, bounds, pq_pairs) -> list[dict]:
        """Parameter points in ``bounds`` (else the default range) that the
        claim covers, each as ``check`` passes it; a pq pair it refuses raises."""
        if self.axis == "pq":
            return [self.check(self.point(values)) for values in pq_pairs]
        bounds = pair(self.default if bounds is None else bounds, f"{self.axis} range")
        lo, hi = (integer(b, f"{self.axis} bound") for b in bounds)
        return [
            {self.key: v} for v in range(max(lo, self.least), hi + 1)
            if self.parity in (None, v % 2)
        ]

    def check(self, params) -> dict:
        """The parameters (a mapping or (key, value) pairs) as an int dict. Raise
        InvalidParameter unless they are the claim's integer parameters, and
        OutOfRange outside its validity range."""
        try:
            params = dict(params)
        except (TypeError, ValueError):  # neither a mapping nor pairs
            params = {}
        if params.keys() != set(self.keys):
            raise InvalidParameter(f"claim {self.name!r} takes the parameters {self.keys}")
        params = {k: integer(params[k], f"claim parameter {k}") for k in self.keys}
        if self.axis == "pq":
            p, q = params["p"], params["q"]
            if not (is_prime(p) and is_prime(q) and p != q and (p - 1) % q == 0):
                raise OutOfRange("requires distinct primes with q | p-1")
        elif params[self.key] < self.least or self.parity not in (None, params[self.key] % 2):
            parity = {None: "", 0: "even ", 1: "odd "}[self.parity]
            raise OutOfRange(f"requires {parity}{self.key} >= {self.least}")
        return params

    # The methods below take a point that ``check`` has passed.

    def supers(self, params: dict) -> list[tuple]:
        """The ``_shared`` calls of the super graphs of its family and its twin."""
        return [(_super_of, self.relations[0], *_family_call(f, tuple(params.values())))
                for f in (self.family, self.twin) if f]

    def form(self, params: dict):
        """The published form: a PolynomialZ or a Spectrum, or the claimed graph."""
        if self.twin is not None:
            return _shared(*self.supers(params)[1])[0]
        if self.cubic is None:
            return self.closed(**params)
        cubic, exp = self.cubic(**params)
        return cubic * PolynomialZ.from_roots([(-1, exp)])

    def spectrum(self, params: dict) -> Spectrum:
        """The published spectrum: the table, or the cubic's roots by
        ``numpy.roots`` together with the eigenvalue -1. A cubic root that
        numpy finds complex is no eigenvalue, and ``Spectrum`` raises
        InvalidParameter on it; the brackets are judged by ``diff`` alone."""
        if self.cubic is None:
            form = self.closed(**params)
            if isinstance(form, Spectrum):
                return form
            raise InvalidParameter(f"claim {self.name!r} publishes no spectrum")
        cubic, exp = self.cubic(**params)
        return Spectrum([(r, 1) for r in np.roots(cubic.coeffs[::-1])] + [(-1.0, exp)])

    def diff(self, params: dict, computed) -> str | None:
        """How the published form contradicts ``computed``, or a cubic's
        published root brackets the cubic; None when both hold. ``computed``
        is the quotient route's exact char poly, or a structure claim's built
        super graph, compared by twin form. A table that differs is told apart
        eigenvalue by eigenvalue where the computed char poly splits over Z."""
        form = self.form(params)
        if self.kind == "structure":
            if computed == form:  # equal graphs have equal twin forms
                return None
            built, claimed = twin_canonical_form(computed), twin_canonical_form(form)
            left, right = self.sides
            return None if built == claimed else (
                f"{left} {built.describe()} != {right} {claimed.describe()}")
        published = PolynomialZ.from_roots(form.pairs) if isinstance(form, Spectrum) else form
        if published == computed:
            if self.brackets is None:
                return None
            cubic, brackets = self.cubic(**params)[0], self.brackets(**params)
            if all(cubic(lo) * cubic(hi) < 0 for lo, hi in brackets):
                return None
            return f"root bracket sign check failed on {brackets}"
        split = spectrum_from_integer_charpoly(computed) if isinstance(form, Spectrum) else None
        if split is not None:
            return _spectrum_diff(form, split)
        return f"published poly {published} != computed {computed}"


CLAIMS = (
    Claim(
        "Thm4.1(i)", "4.1", "D", "odd_n", default=(3, 25), least=3, parity=1,
        relations=("order", "conjugacy"), matrix="adjacency",
        cubic=lambda n: (
            _cubic(2 * n * n - 4 * n + 1, n * n - 5 * n + 3, -(2 * n - 3)), 2 * n - 3
        ),
        brackets=lambda n: [(-2, -1), (n - 2, n - 1), (n, n + 1)],
    ),
    Claim(
        "Thm4.1(ii)", "4.1", "Q", "odd_n", default=(3, 15), least=3, parity=1,
        relations=("order",), matrix="adjacency",
        cubic=lambda n: (
            _cubic(12 * n * n - 16 * n + 1, 4 * n * n - 12 * n + 3, -(4 * n - 3)), 4 * n - 3
        ),
        brackets=lambda n: [
            (-3, -2),
            (2 * n - 3, 2 * n - 2),
            (2 * n + 1, 2 * n + 2) if n <= 13 else (2 * n + 2, 2 * n + 3),
        ],
    ),
    Claim(
        "Thm4.1(iii)", "4.1", "PQ", "pq",
        relations=("order", "conjugacy"), matrix="adjacency",
        cubic=lambda p, q: (
            _cubic(
                2 * p * p * q - 3 * p * q - 2 * p * p + 2 * p + 1,
                p * p * q - 3 * p * q - p * p + p + 3,
                -(p * q - 3),
            ),
            p * q - 3,
        ),
        brackets=lambda p, q: [(-2, -1), (p - 2, p - 1), (p * q - p, p * q - p + 1)],
    ),
    Claim(
        "Thm4.2(i)", "4.2", "D", "odd_n", default=(3, 25), least=3, parity=1,
        relations=("order", "conjugacy"), matrix="laplacian",
        closed=lambda n: Spectrum([(0, 1), (1, 1), (n, n - 2), (n + 1, n - 1), (2 * n, 1)]),
    ),
    Claim(
        "Thm4.2(ii)", "4.2", "Q", "odd_n", default=(3, 13), least=3, parity=1,
        relations=("order",), matrix="laplacian",
        closed=lambda n: Spectrum(
            [(0, 1), (2, 1), (2 * n, 2 * n - 3), (2 * n + 2, 2 * n - 1), (4 * n, 2)]
        ),
    ),
    Claim(
        "Thm4.2(iii)", "4.2", "PQ", "pq",
        relations=("order", "conjugacy"), matrix="laplacian",
        closed=lambda p, q: Spectrum(
            [(0, 1), (1, 1), (p, p - 2), (p * q - p + 1, p * q - p - 1), (p * q, 1)]
        ),
    ),
    # The Sec4.2 displays for the conjugacy super graph of the order-4m
    # dihedral group are reproduced verbatim, even where the pipelines
    # contradict them.
    Claim(
        "Sec4.2-Dc-adj", "4.2", "Dc", "m", default=(2, 6), least=2,
        relations=("conjugacy",), matrix="adjacency",
        closed=lambda m: PolynomialZ.from_roots([(-1, 4 * m - 4), (m - 1, 1)]) * _cubic(
            10 * m * m - 15 * m + 1, 2 * m * m - 10 * m + 3, -(3 * m - 3)
        ),
    ),
    Claim(
        "Sec4.2-Dc-lap", "4.2", "Dc", "m", default=(2, 6), least=2,
        relations=("conjugacy",), matrix="laplacian",
        closed=lambda m: Spectrum(
            [(0, 1), (2, 1), (m + 2, 2 * m - 2), (2 * m, 2 * m - 3), (4 * m, 2)]
        ),
    ),
    Claim(
        "Sec4.2-Dc-iso", "4.2", "Dc", "m", default=(2, 8), least=2, relations=("conjugacy",),
        twin="Q",
        sides=("Dc(D)", "Dc(Q)"),
    ),
    Claim(
        "Sec4.1-complete(D)", "4.1", "D", "n", default=(4, 12), least=4, parity=0,
        relations=("order",), closed=lambda n: complete_graph(2 * n),
    ),
    Claim(
        "Sec4.1-complete(Q)", "4.1", "Q", "n", default=(2, 8), least=2, parity=0,
        relations=("order",), closed=lambda n: complete_graph(4 * n),
    ),
    Claim(
        "Thm4.3", "4.3", "D", "n", default=(3, 12), least=3, relations=("conjugacy",),
        closed=lambda n: (
            _star_join(2, n // 2, n // 2, n - 2) if n % 2 == 0 else _star_join(1, n - 1, n)
        ),
    ),
    Claim(
        "Thm4.4", "4.4", "Q", "n", default=(2, 8), least=2, relations=("conjugacy",),
        closed=lambda n: _star_join(2, n, n, 2 * n - 2),
    ),
    Claim(
        "Thm4.5", "4.5", "PQ", "pq", relations=("conjugacy",),
        closed=lambda p, q: _star_join(1, p - 1, p * q - p),
    ),
)

_CATALOGUE = {claim.name: claim for claim in CLAIMS}


def _claim(name: str, kind: str | None = None) -> Claim:
    claim = _CATALOGUE.get(name)
    if claim is None or kind not in (None, claim.kind):
        raise InvalidParameter(f"unknown {kind or 'catalogued'} claim {name!r}")
    return claim


def closed_form(claim: str, **params):
    """Catalogued closed form for a spectral claim: a PolynomialZ or a Spectrum.

    Laplacian table claims return the table exactly as published, including
    the Dc table whose multiplicities are reproduced verbatim even though the
    verification pipelines contradict them.
    """
    entry = _claim(claim, "spectral")
    return entry.form(entry.check(params))


def closed_claim(family: str, relation: str, matrix: str) -> Claim:
    """The spectral claim whose closed form covers a group family, relation and matrix."""
    for claim in CLAIMS:
        if claim.family == family and claim.matrix == matrix and relation in claim.relations:
            return claim
    raise UnsupportedClosedForm(
        f"no closed form for family {family}, relation {relation}, matrix {matrix}"
    )


def _spectrum_diff(expected: Spectrum, computed: Spectrum) -> str:
    exp, got = dict(expected.pairs), dict(computed.pairs)  # both integer spectra
    bits = []
    for value in sorted(exp.keys() | got.keys()):
        a, b = exp.get(value, 0), got.get(value, 0)
        if a != b:
            bits.append(f"eigenvalue {value:g}: table multiplicity {a}, computed {b}")
    if expected.total_multiplicity != computed.total_multiplicity:
        bits.append(
            f"table multiplicities sum to {expected.total_multiplicity}, "
            f"expected {computed.total_multiplicity}"
        )
    return "; ".join(bits)


# ---------------------------------------------------------------------------
# Claim verifiers

# The diff of each internal check names the explicit route that disagrees.
_INTERNAL_EXACT = "exact char poly of the explicit matrix disagrees with the quotient route"
_INTERNAL_LAPACK = "LAPACK spectrum of the explicit matrix disagrees with the quotient route"
# The published-form check, of a spectral or a structure claim, is exact; its
# label, like ``jacobi``, is historical.
_CLOSED_CHECK = "jacobi ~ closed form (1e-08)"


class SpectralPoint:
    """The adjacency or Laplacian spectrum of one super graph along every route.

    ``base`` is the commuting graph, ``partition`` the classes of the relation
    and ``graph`` the super graph over them. Each route runs when it is first
    read, and at most once: the explicit matrix, its exact char poly
    (``exact``) and LAPACK spectrum (``jacobi``), and the quotient route's
    one ``_quotients`` entry, read through ``spectra`` where a test may
    rebind it, and its char poly (``quotient``) and spectrum.
    """

    def __init__(self, base: SimpleGraph, partition: Partition, graph: SimpleGraph, matrix: str):
        self.base, self.partition, self.graph = base, partition, graph
        self.t = _t(matrix)  # the one check of the matrix name

    @cached_property
    def explicit(self):
        return self.graph.laplacian_matrix() if self.t else self.graph.adjacency_matrix()

    @cached_property
    def exact(self) -> PolynomialZ:
        return char_poly_integer(self.explicit)

    @cached_property
    def jacobi(self) -> Spectrum:
        return jacobi_eigenvalues(self.explicit)

    @cached_property
    def quotient_entry(self) -> tuple:
        return spectra._quotients([(self.base, self.partition)], self.t)[0]

    @cached_property
    def quotient(self) -> PolynomialZ:
        return spectra._quotient_charpoly(self.quotient_entry)

    @cached_property
    def quotient_eigenvalues(self) -> Spectrum:
        return spectra._quotient_spectrum(self.quotient_entry)

    def checks(self, claim: Claim | None = None, params=None):
        """Each check as (label, problem), the problem None where the check
        holds: the exact and the LAPACK explicit route against the quotient
        route, then the published form of ``claim`` at ``params`` against the
        quotient route's char poly."""
        agree = self.exact == self.quotient
        yield "exact == quotient (char poly)", None if agree else _INTERNAL_EXACT
        agree = multiset_match(self.jacobi, self.quotient_eigenvalues, SPECTRAL_TOL)
        yield f"jacobi ~ quotient spectrum ({SPECTRAL_TOL:g})", None if agree else _INTERNAL_LAPACK
        if claim is not None:
            yield _CLOSED_CHECK, claim.diff(params, self.quotient)


def _report(claim: str, params: dict, checks) -> ClaimReport:
    """The one place a verdict is named. ``checks`` yields (label, problem),
    the problem None where the check holds; it runs, timed, up to its first
    failing check: Match when none fails, Mismatch(paper-table) with the
    diff when that is the published-form check, Mismatch when another."""
    start = time.perf_counter()
    verdict, diff = MATCH, None
    for label, problem in checks:
        if problem is not None:
            verdict, diff = PAPER_TABLE if label == _CLOSED_CHECK else MISMATCH, problem
            break
    return ClaimReport(claim, params, verdict, diff, int((time.perf_counter() - start) * 1000))


def _verify_point(claim: Claim, params) -> ClaimReport:
    """Check a spectral or structure claim at one parameter point: a spectral
    point's three checks, or a structure claim's published-form check."""
    params = claim.check(params)

    def checks():
        graph, base, part = _shared(*claim.supers(params)[0])
        if claim.kind == "structure":
            yield _CLOSED_CHECK, claim.diff(params, graph)
        else:
            yield from SpectralPoint(base, part, graph, claim.matrix).checks(claim, params)

    return _report(claim.name, params, checks())


def verify_spectral(claim: str, param_list) -> list[ClaimReport]:
    """Check a spectral claim over several parameter points."""
    entry = _claim(claim, "spectral")
    return [_verify_point(entry, p) for p in items(param_list, "parameter points")]


def verify_structure(claim: str, params) -> ClaimReport:
    """Build both sides of a structural claim and compare canonical forms."""
    return _verify_point(_claim(claim, "structure"), params)


# ---------------------------------------------------------------------------
# Generic randomized property suites
#
# A property draws each kind of value (sizes, graphs, block counts, labels,
# ...) as one array of 32-bit words from the kind's own stdlib stream, row t
# for trial t, so that a trial's draws do not depend on the trial count. A
# word w is a uniform draw below h as (w * h) >> 32 and an event of
# probability p as w < p * 2**32. Every trial is padded to one instance
# size: the vertices past its n are isolated, each a block of its own
# numbered after the real blocks. So each check runs all trials as one stack
# through the array kernels that the public graph functions run on a stack
# of one. Only the first failing trial is built as a Partition, for its
# message.

def _stream(seed: int, name: str, trials: int) -> Callable:
    """draw(kind, width, rows=trials): a (rows, width) array of the words of
    the stream of ``name`` and ``kind``, row t holding words
    [t * width, (t + 1) * width). The bytes of fewer whole words are a prefix
    of the same stream, so fewer rows are the first rows of all of them.
    String seeds hash via sha512, stable across runs and processes."""
    def draw(kind: str, width: int, rows: int = trials) -> np.ndarray:
        data = random.Random(f"{seed}:{name}:{kind}").randbytes(4 * rows * width)
        return np.frombuffer(data, dtype="<u4").astype(np.uint64).reshape(rows, width)
    return draw


def _below(words: np.ndarray, bound) -> np.ndarray:
    """Uniform draws in 0..bound-1, ``bound`` broadcasting against ``words``."""
    return ((words * np.asarray(bound, dtype=np.uint64)) >> np.uint64(32)).astype(np.intp)


_UPPER = {size: np.triu_indices(size, 1) for size in (4, 6, 9)}  # pairs i < j of _graphs' sizes


def _graphs(words: np.ndarray, counts: np.ndarray, p: float, size: int) -> np.ndarray:
    """(T, size, size) stack of G(counts[t], p) graphs padded with isolated
    vertices: the word of pair i < j, row by row, makes an edge when it is
    below p * 2**32 and j < counts[t]."""
    i, j = _UPPER[size]
    adj = np.zeros((len(words), size, size), dtype=bool)
    adj[:, i, j] = (words < int(p * 2**32)) & (j < counts[:, None])
    return adj | adj.transpose(0, 2, 1)


def _first_appearance(raw: np.ndarray) -> np.ndarray:
    """Each row of labels renumbered 0, 1, ... by first appearance, the
    order of Partition's blocks."""
    first = (raw[:, :, None] == raw[:, None, :]).argmax(axis=2)  # first vertex of each label
    rank = np.cumsum(first == np.arange(raw.shape[1]), axis=1) - 1
    return np.take_along_axis(rank, first, axis=1)


def _labels(draw, n: np.ndarray) -> np.ndarray:
    """(T, 9) block labels: k uniform in 1..n, each real vertex's block
    uniform below k, and each pad a block of its own."""
    k = 1 + _below(draw("blocks", 1)[:, 0], n)
    pad = np.arange(9) >= n[:, None]
    return _first_appearance(np.where(pad, 9 + np.arange(9), _below(draw("labels", 9), k[:, None])))


def _refined(draw, labels: np.ndarray) -> np.ndarray:
    """Labels of a random refinement: block b split into a uniform 1..|b|
    parts, and each vertex in a part uniform below its block's."""
    words = draw("refinement", 18)
    parts = 1 + _below(words[:, :9], (labels[:, :, None] == np.arange(9)).sum(axis=1))
    part = _below(words[:, 9:], np.take_along_axis(parts, labels, axis=1))
    return _first_appearance(labels * 9 + part)


def _partition(labels) -> Partition:
    blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for v, b in enumerate(labels):
        blocks[b].append(v)
    return Partition(len(labels), blocks)


def _record(failed: dict, mask, problem) -> None:
    """Note ``problem``, a callable of the trial that returns its text, for
    each trial where ``mask`` holds, unless an earlier check failed."""
    for t in np.flatnonzero(mask).tolist():
        failed.setdefault(t, problem)


def _outcome(failed: dict) -> tuple[list[int], str | None]:
    """The failing trials in order and the first one's problem, the only one built."""
    order = sorted(failed)
    return order, failed[order[0]](order[0]) if order else None


def _sample_graph_partition(draw) -> tuple:
    n = 2 + _below(draw("size", 1)[:, 0], 8)
    return n, _graphs(draw("graph", 36), n, 0.4, 9), _labels(draw, n)


def _sample_prop32(draw) -> tuple:
    n, adj, labels = _sample_graph_partition(draw)
    return n, adj, labels, _refined(draw, labels)


def _sample_lemma12(draw) -> tuple:
    """k in 2..5, a G(k, 0.5) template padded to 6 vertices, and k parts of
    1..4 vertices, each G(s, 0.4): (k, template, part sizes, (T, 5, 4, 4) parts)."""
    k = 2 + _below(draw("size", 1)[:, 0], 4)
    words = draw("parts", 35)
    sizes = np.where(np.arange(5) < k[:, None], 1 + _below(words[:, :5], 4), 0)
    parts = _graphs(words[:, 5:].reshape(-1, 6), sizes.reshape(-1), 0.4, 4)
    return k, _graphs(draw("template", 15), k, 0.5, 6), sizes, parts.reshape(-1, 5, 4, 4)


def _sample_thm35(draw) -> tuple:
    """A connected graph per trial: round r draws a graph for every trial
    still waiting, from the stream of round r, and a trial keeps its first
    connected one. A round draws the rows up to the last trial waiting."""
    n = 2 + _below(draw("size", 1)[:, 0], 8)
    adj = np.zeros((len(n), 9, 9), dtype=bool)
    waiting = np.arange(len(n))
    for r in range(10000):
        drawn = _graphs(draw(f"round{r}", 36, waiting[-1] + 1)[waiting], n[waiting], 0.4, 9)
        connected = _connected(drawn, n[waiting])
        adj[waiting[connected]] = drawn[connected]
        waiting = waiting[~connected]
        if not waiting.size:
            return n, adj, _labels(draw, n)
    raise SupergraphError(f"Thm3.5 sampler drew no connected graph for trial {waiting[0]} "
                          f"in {r + 1} rounds")


def _check_thm33(draws) -> tuple[list[int], str | None]:
    n, adj, block_of = draws
    cross = _block_cross(adj, block_of, 9)
    sup = _lift(cross, block_of)
    order = np.argsort(block_of, axis=1, kind="stable")  # the vertices block by block
    owner = np.take_along_axis(block_of, order, axis=1)
    join = _join(cross, owner, _clear_diagonal(owner[:, :, None] == owner[:, None, :]))
    failed: dict = {}
    _record(failed, (_pairs(sup, order) != join).any(axis=(1, 2)), lambda t: (
        f"edge sets differ for n={n[t]}, partition={_partition(block_of[t, :n[t]]).blocks}"))
    _record(failed, ~_contained(adj, sup), lambda t: (
        f"original graph not spanning subgraph of super graph for n={n[t]}"))
    return _outcome(failed)


def _check_prop32(draws) -> tuple[list[int], str | None]:
    n, adj, coarse, fine = draws
    least = np.broadcast_to(np.arange(9), coarse.shape)
    failed: dict = {}
    _record(failed, ~_refines(fine, coarse),
            lambda t: "refinement sampler produced a non-refinement")
    contained = _contained(_super_graphs(adj, fine, 9), _super_graphs(adj, coarse, 9))
    _record(failed, ~contained, lambda t: (
        f"containment fails for n={n[t]}, fine={_partition(fine[t, :n[t]]).blocks}, "
        f"coarse={_partition(coarse[t, :n[t]]).blocks}"))
    _record(failed, (_super_graphs(adj, least, 9) != adj).any(axis=(1, 2)),
            lambda t: "super graph over the identity relation is not the graph itself")
    return _outcome(failed)


def _check_thm34(draws) -> tuple[list[int], str | None]:
    n, adj, block_of = draws
    counts = block_of.max(axis=1) + n - 8  # the real blocks; the pads' 9 - n come last
    cross = _block_cross(adj, block_of, 9)
    graph = _connected(adj, n)
    compressed = _connected(cross, counts)
    # the block subgraphs are connected iff reach along the edges inside
    # blocks, from the first vertex of each block, covers every vertex
    inside = adj & (block_of[:, :, None] == block_of[:, None, :])
    firsts = np.diff(np.maximum.accumulate(block_of, axis=1), axis=1, prepend=-1) > 0
    blocks = _reach(inside, firsts).all(axis=1)
    failed: dict = {}
    _record(failed, graph & ~compressed, lambda t: (
        f"graph connected but compressed graph disconnected (n={n[t]})"))
    _record(failed, compressed & blocks & ~graph, lambda t: (
        f"compressed+blocks connected but graph disconnected (n={n[t]})"))
    return _outcome(failed)


def _check_lemma12(draws) -> tuple[list[int], str | None]:
    """The join of the parts, numbered one after another and padded to 20
    vertices owned by the template's isolated sixth vertex."""
    k, template, sizes, parts = draws
    ends = np.cumsum(sizes, axis=1)
    owner = (ends[:, None, :] <= np.arange(20)[:, None]).sum(axis=2)
    t, i, a, b = np.nonzero(parts)
    starts = ends - sizes
    inner = np.zeros((len(k), 20, 20), dtype=bool)
    inner[t, starts[t, i] + a, starts[t, i] + b] = True
    join = _join(template, owner, inner)
    failed: dict = {}
    _record(failed, _connected(template, k) != _connected(join, ends[:, -1]),
            lambda t: f"connectivity equivalence fails for k={k[t]}")
    return _outcome(failed)


def _check_thm35(draws) -> tuple[list[int], str | None]:
    """The quotient route against brute force on every trial's super graph,
    in one batched exact call per route and matrix, each trial cut to its
    own n vertices."""
    n, adj, block_of = draws
    sup = _super_graphs(adj, block_of, 9).astype(np.int64)
    laplacian = -sup
    laplacian.reshape(len(n), -1)[:, ::10] = sup.sum(axis=2)
    sizes = n.tolist()
    cases = [(SimpleGraph._of(adj[t, :s, :s]), _partition(block_of[t, :s]))
             for t, s in enumerate(sizes)]
    explicit = char_poly_integers([m[t, :s, :s] for m in (sup, laplacian)
                                   for t, s in enumerate(sizes)])
    failed: dict = {}
    for matrix, quotient, brute in (
            ("adjacency", super_charpolys(cases, "adjacency"), explicit[:len(n)]),
            ("Laplacian", super_charpolys(cases, "laplacian"), explicit[len(n):])):
        _record(failed, [a != b for a, b in zip(quotient, brute)],
                lambda t, matrix=matrix: f"{matrix} char poly mismatch "
                f"(n={cases[t][0].n}, partition={cases[t][1].blocks})")
    return _outcome(failed)


# Each property: a sampler that takes the property's ``draw`` and returns
# its draws as arrays, row t for trial t, and a check of the draws that
# returns the failing trials in order and the first one's problem.
_GENERIC_CHECKS = {
    "Lemma1.2": (_sample_lemma12, _check_lemma12),
    "Prop3.2": (_sample_prop32, _check_prop32),
    "Thm3.3": (_sample_graph_partition, _check_thm33),
    "Thm3.4": (_sample_graph_partition, _check_thm34),
    "Thm3.5": (_sample_thm35, _check_thm35),
}


def verify_generic(seed: int, trials: int) -> list[ClaimReport]:
    """Run the seeded randomized property suites; one report per property."""
    seed, trials = integer(seed, "seed"), integer(trials, "trials", least=1)

    def checks(name):
        sample, check = _GENERIC_CHECKS[name]
        failed, problem = check(sample(_stream(seed, name, trials)))
        yield name, None if not failed else (
            f"{len(failed)}/{trials} counterexamples; first: trial {failed[0]}: {problem}")

    return [_report(name, {"seed": seed, "trials": trials}, checks(name))
            for name in sorted(_GENERIC_CHECKS)]


# ---------------------------------------------------------------------------
# Suites

def suite_tasks(
    suite: str,
    *,
    family: str | None = None,
    odd_n: tuple[int, int] | None = None,
    n_range: tuple[int, int] | None = None,
    m_range: tuple[int, int] | None = None,
    pq_pairs=None,
    trials: int = 200,
    seed: int = 42,
) -> list[tuple]:
    """Build the (kind, claim, params) task list for a verification suite.

    ``family`` keeps the claims tagged with it; a tag that no claim carries
    raises InvalidParameter. Without it, suite 4.2 leaves out the Dc claims,
    which ``all`` and ``family="Dc"`` select. The generic suite carries no
    family tag and runs under any family.
    """
    if family not in (None, *(claim.family for claim in CLAIMS)):
        raise InvalidParameter(f"no claim carries the family tag {family!r}")
    bounds = {"odd_n": odd_n, "n": n_range, "m": m_range}
    pq_pairs = items(() if pq_pairs is None else pq_pairs, "pq pairs") or DEFAULT_PQ_PAIRS
    tasks: list[tuple] = []
    for claim in CLAIMS:
        if family is None:
            wanted = suite == "all" or (suite == claim.suite and claim.family != "Dc")
        else:
            wanted = suite in ("all", claim.suite) and family == claim.family
        if wanted:
            points = claim.points(bounds.get(claim.axis), pq_pairs)
            tasks += [(claim.kind, claim.name, p) for p in points]
    if suite in ("generic", "all"):
        tasks.append(("generic", "generic", {"seed": integer(seed, "seed"), "trials": trials}))
    if not tasks:
        raise InvalidParameter(f"suite {suite!r} selected no claims")
    return tasks


def run_claim_task(task: tuple) -> list[ClaimReport]:
    """Execute one task; module-level so worker processes can import it."""
    kind, claim, params = task
    if kind == "generic":
        return verify_generic(params["seed"], params["trials"])
    if kind not in ("spectral", "structure"):
        raise InvalidParameter(f"unknown task kind {kind!r}")
    return [_verify_point(_claim(claim, kind), params)]


def run_suite(suite: str, *, jobs: int = 1, **kwargs) -> list[ClaimReport]:
    """Run a verification suite, optionally fanning claims out to workers.

    At most one worker per task is started, by spawning, with one BLAS
    thread each, so two workers do not contend for the cores. Reports come back
    deterministically ordered by (claim, params) regardless of the worker
    count. With one worker, a run builds each group and super graph once and
    drops it at the last read its claims make; nothing outlives the run.
    """
    global _reads, _built
    tasks = suite_tasks(suite, **kwargs)
    jobs = min(integer(jobs, "jobs", least=1), len(tasks))
    if jobs > 1:
        import multiprocessing  # loaded for a pool only
        from concurrent.futures import ProcessPoolExecutor

        # Spawned workers read one BLAS thread each from the environment they
        # start with; the parent's own is restored once the pool is done.
        saved = dict(os.environ)
        os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        try:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
                grouped = list(pool.map(run_claim_task, tasks))
        finally:
            os.environ.clear()
            os.environ.update(saved)
    else:
        reads = [key for _, name, params in tasks if name in _CATALOGUE
                 for key in _CATALOGUE[name].supers(params)]
        _reads, _built = Counter(reads) + Counter(key[2:] for key in set(reads)), {}
        try:
            grouped = [run_claim_task(t) for t in tasks]
        finally:
            _reads = _built = None
    reports = [r for group in grouped for r in group]
    reports.sort(key=lambda r: (r.claim, sorted(r.params.items())))
    return reports


def summarize(reports) -> dict:
    counts = {"match": 0, "mismatch": 0, "paper_table": 0}
    for r in reports:
        counts[{MATCH: "match", PAPER_TABLE: "paper_table"}.get(r.verdict, "mismatch")] += 1
    return counts


def format_report_table(reports) -> str:
    rows = [("claim", "params", "verdict", "note")]
    for r in reports:
        params = ", ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        rows.append((r.claim, params, r.verdict, r.diff or ""))
    widths = [max(len(row[i]) for row in rows) for i in range(3)] + [0]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    counts = summarize(reports)
    lines.append(
        f"summary: {counts['match']} Match, {counts['mismatch']} Mismatch, "
        f"{counts['paper_table']} Mismatch(paper-table)"
    )
    return "\n".join(lines)
