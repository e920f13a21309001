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

import itertools
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
# Every trial draws from its own rng, always in the same order of calls: a
# G(n, p) graph as one rng.random() < p per pair i < j, row by row, and a
# partition as block labels numbered by first appearance, the order of
# Partition's blocks. A sampler draws every trial of a property; its check
# then runs the trials of one size as one stack through the array kernels
# that the public graph functions run on a stack of one. Only the first
# failing trial is built as a Partition, for its message.

def _edges(rng: random.Random, n: int, p: float = 0.4) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _first_appearance(labels) -> list[int]:
    seen: dict = {}
    return [seen.setdefault(label, len(seen)) for label in labels]


def _labels(rng: random.Random, n: int) -> list[int]:
    k = rng.randint(1, n)
    return _first_appearance([rng.randrange(k) for _ in range(n)])


def _blocks(labels) -> list[list[int]]:
    blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for v, b in enumerate(labels):
        blocks[b].append(v)
    return blocks


def _refined(rng: random.Random, labels) -> list[int]:
    """Labels of a random refinement: each block, in order, split into
    rng.randint(1, size) parts."""
    sub: list = [None] * len(labels)
    for b, block in enumerate(_blocks(labels)):
        parts = rng.randint(1, len(block))
        for v in block:
            sub[v] = (b, rng.randrange(parts))
    return _first_appearance(sub)


def _partition(labels) -> Partition:
    return Partition(len(labels), _blocks(labels))


def _by_size(trials, sizes):
    """(size, trials of that size in order) for each size among ``trials``."""
    groups: dict[int, list[int]] = {}
    for t in trials:
        groups.setdefault(sizes[t], []).append(t)
    return groups.items()


def _stack(n: int, edge_lists) -> np.ndarray:
    """(T, n, n) adjacency stack, layer t holding the edges (i, j), i < j, of edge_lists[t]."""
    adj = np.zeros((len(edge_lists), n, n), dtype=bool)
    layer = [t for t, edges in enumerate(edge_lists) for _ in edges]
    ends = np.array([e for edges in edge_lists for e in edges], dtype=np.intp).reshape(-1, 2)
    adj[layer, ends[:, 0], ends[:, 1]] = True
    return adj | adj.transpose(0, 2, 1)


def _stacks(draws):
    """For each size n among draws (n, edges, labels, ...): n, its trials in
    order, and their adjacency and block label stacks."""
    for n, trials in _by_size(range(len(draws)), [d[0] for d in draws]):
        yield (n, trials, _stack(n, [draws[t][1] for t in trials]),
               np.array([draws[t][2] for t in trials]))


def _record(failed: dict, trials, mask, problem) -> None:
    """Note ``problem``, a callable of the trial that returns its text, for
    each trial where ``mask`` holds, unless an earlier check failed."""
    for i in np.flatnonzero(mask).tolist():
        failed.setdefault(trials[i], problem)


def _outcome(failed: dict) -> tuple[list[int], str | None]:
    """The failing trials in order and the first one's problem, the only one built."""
    order = sorted(failed)
    return order, failed[order[0]](order[0]) if order else None


def _sample_graph_partition(rngs) -> list[tuple]:
    draws = []
    for rng in rngs:
        n = rng.randint(2, 9)
        draws.append((n, _edges(rng, n), _labels(rng, n)))
    return draws


def _sample_prop32(rngs) -> list[tuple]:
    return [(*draw, _refined(rng, draw[2]))
            for rng, draw in zip(rngs, _sample_graph_partition(rngs))]


def _sample_lemma12(rngs) -> list[tuple]:
    draws = []
    for rng in rngs:
        k = rng.randint(2, 5)
        template = _edges(rng, k, 0.5)
        parts = []
        for _ in range(k):
            size = rng.randint(1, 4)
            parts.append((size, _edges(rng, size)))
        draws.append((k, template, parts))
    return draws


def _sample_thm35(rngs) -> list[tuple]:
    """A connected graph per trial, redrawn from the trial's rng until one
    is: each round draws one graph for every trial still waiting and checks
    those of one size as one stack."""
    sizes = [rng.randint(2, 9) for rng in rngs]
    graphs: list = [None] * len(rngs)
    waiting = list(range(len(rngs)))
    for _ in range(10000):
        drawn = {t: _edges(rngs[t], sizes[t]) for t in waiting}
        for n, trials in _by_size(waiting, sizes):
            connected = _connected(_stack(n, [drawn[t] for t in trials]))
            for t in itertools.compress(trials, connected.tolist()):
                graphs[t] = drawn[t]
        waiting = [t for t in waiting if graphs[t] is None]
        if not waiting:
            return [(n, edges, _labels(rng, n)) for rng, n, edges in zip(rngs, sizes, graphs)]
    raise AssertionError("failed to sample a connected graph")


def _check_thm33(draws) -> tuple[list[int], str | None]:
    failed: dict = {}
    for n, trials, adj, block_of in _stacks(draws):
        cross = _block_cross(adj, block_of, block_of.max() + 1)
        sup = _lift(cross, block_of)
        order = np.argsort(block_of, axis=1, kind="stable")  # the vertices block by block
        owner = np.take_along_axis(block_of, order, axis=1)
        join = _join(cross, owner, _clear_diagonal(owner[:, :, None] == owner[:, None, :]))
        _record(failed, trials, (_pairs(sup, order) != join).any(axis=(1, 2)), lambda t: (
            f"edge sets differ for n={draws[t][0]}, partition={_partition(draws[t][2]).blocks}"))
        _record(failed, trials, ~_contained(adj, sup), lambda t: (
            f"original graph not spanning subgraph of super graph for n={draws[t][0]}"))
    return _outcome(failed)


def _check_prop32(draws) -> tuple[list[int], str | None]:
    failed: dict = {}
    for n, trials, adj, coarse in _stacks(draws):
        fine = np.array([draws[t][3] for t in trials])
        least = np.broadcast_to(np.arange(n), coarse.shape)
        _record(failed, trials, ~_refines(fine, coarse),
                lambda t: "refinement sampler produced a non-refinement")
        contained = _contained(_super_graphs(adj, fine, fine.max() + 1),
                               _super_graphs(adj, coarse, coarse.max() + 1))
        _record(failed, trials, ~contained, lambda t: (
            f"containment fails for n={draws[t][0]}, fine={_partition(draws[t][3]).blocks}, "
            f"coarse={_partition(draws[t][2]).blocks}"))
        _record(failed, trials, (_super_graphs(adj, least, n) != adj).any(axis=(1, 2)),
                lambda t: "super graph over the identity relation is not the graph itself")
    return _outcome(failed)


def _check_thm34(draws) -> tuple[list[int], str | None]:
    failed: dict = {}
    for n, trials, adj, block_of in _stacks(draws):
        counts = block_of.max(axis=1) + 1
        cross = _block_cross(adj, block_of, counts.max())
        graph = _connected(adj)
        compressed = _connected(cross, counts)
        # the block subgraphs are connected iff reach along the edges inside
        # blocks, from the first vertex of each block, covers every vertex
        inside = adj & (block_of[:, :, None] == block_of[:, None, :])
        firsts = np.diff(np.maximum.accumulate(block_of, axis=1), axis=1, prepend=-1) > 0
        blocks = _reach(inside, firsts).all(axis=1)
        _record(failed, trials, graph & ~compressed, lambda t: (
            f"graph connected but compressed graph disconnected (n={draws[t][0]})"))
        _record(failed, trials, compressed & blocks & ~graph, lambda t: (
            f"compressed+blocks connected but graph disconnected (n={draws[t][0]})"))
    return _outcome(failed)


def _check_lemma12(draws) -> tuple[list[int], str | None]:
    failed: dict = {}
    sizes = [sum(size for size, _ in parts) for _, _, parts in draws]
    for size, trials in _by_size(range(len(draws)), sizes):
        counts = np.array([draws[t][0] for t in trials])
        template = _stack(counts.max(), [draws[t][1] for t in trials])
        owner = np.array([
            [b for b, (s, _) in enumerate(draws[t][2]) for _ in range(s)] for t in trials
        ])
        inner = []  # the parts' edges, the parts numbered one after another
        for t in trials:
            starts = itertools.accumulate([s for s, _ in draws[t][2]], initial=0)
            inner.append([(i + a, j + a) for a, (_, part) in zip(starts, draws[t][2])
                          for i, j in part])
        join = _join(template, owner, _stack(size, inner))
        _record(failed, trials, _connected(template, counts) != _connected(join),
                lambda t: f"connectivity equivalence fails for k={draws[t][0]}")
    return _outcome(failed)


def _check_thm35(draws) -> tuple[list[int], str | None]:
    """The quotient route against brute force on every trial's super graph,
    in one batched exact call per route and matrix."""
    cases: list = [None] * len(draws)
    explicit: list = [None] * (2 * len(draws))
    for n, trials, adj, block_of in _stacks(draws):
        sup = _super_graphs(adj, block_of, block_of.max() + 1).astype(np.int64)
        laplacian = -sup
        laplacian.reshape(len(trials), -1)[:, :: n + 1] = sup.sum(axis=2)
        for i, t in enumerate(trials):
            cases[t] = (SimpleGraph._of(adj[i]), _partition(draws[t][2]))
            explicit[t], explicit[len(draws) + t] = sup[i], laplacian[i]
    adjacency = super_charpolys(cases, "adjacency")
    laplacian = super_charpolys(cases, "laplacian")
    explicit = char_poly_integers(explicit)
    failed: dict = {}
    for matrix, quotient, brute in (("adjacency", adjacency, explicit[:len(draws)]),
                                    ("Laplacian", laplacian, explicit[len(draws):])):
        _record(failed, range(len(draws)), [a != b for a, b in zip(quotient, brute)],
                lambda t, matrix=matrix: f"{matrix} char poly mismatch "
                f"(n={cases[t][0].n}, partition={cases[t][1].blocks})")
    return _outcome(failed)


# Each property: a sampler that takes one seeded rng per trial and returns
# its draws, and a check of the draws that returns the failing trials in
# order and the first one's problem.
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
        # string seeds hash via sha512, stable across runs and processes
        rngs = [random.Random(f"{seed}:{name}:{t}") for t in range(trials)]
        sample, check = _GENERIC_CHECKS[name]
        failed, problem = check(sample(rngs))
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

    At most one worker per task is started. Reports come back
    deterministically ordered by (claim, params) regardless of the worker
    count. With one worker, a run builds each group and super graph once and
    drops it at the last read its claims make; nothing outlives the run.
    """
    global _reads, _built
    tasks = suite_tasks(suite, **kwargs)
    jobs = min(integer(jobs, "jobs"), len(tasks))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            grouped = list(pool.map(run_claim_task, tasks))
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
