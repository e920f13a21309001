"""Executable verification of the catalogued spectral and structural claims.

Each claim is checked along up to three routes: the catalogued closed form,
the quotient-matrix pipeline, and brute force on the explicit matrix. The
verdict separates internal inconsistencies ("Mismatch": the quotient route and
brute force disagree, which would be a bug here) from divergences between our
computations and a catalogued published formula ("Mismatch(paper-table)",
reported with a diff and never thrown).
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .errors import InvalidParameter, NoSignChange, OutOfRange, UnsupportedClosedForm
from .graphs import (
    SimpleGraph,
    commuting_graph,
    complete_graph,
    compressed_graph,
    generalized_join,
    is_connected,
    is_spanning_subgraph,
    star_graph,
    super_graph,
    twin_canonical_form,
)
from .groups import dihedral, generalized_quaternion, is_prime, semidirect_pq
from .partitions import (
    Partition,
    conjugacy_partition,
    least_partition,
    order_partition,
    refines,
)
from .polynomials import PolynomialZ, char_poly_integer, char_poly_integers
from .spectra import (
    Spectrum,
    grouped_match,
    jacobi_eigenvalues,
    multiset_match,
    quotient_spectrum,
    real_root_isolate,
    spectrum_from_integer_charpoly,
    super_adjacency_charpoly,
    super_charpolys,
    super_laplacian_charpoly,
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
    artifacts: dict = field(default_factory=dict)
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


def _super(group, relation: str) -> tuple[SimpleGraph, SimpleGraph, Partition]:
    base = commuting_graph(group)
    part = order_partition(group) if relation == "order" else conjugacy_partition(group)
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
    family: str  # D | Q | PQ | Dc: the tag --family selects
    axis: str  # odd_n | n | m | pq: the suite option that gives the parameter points
    group: Callable  # the group whose super graph is built
    relations: tuple[str, ...]  # the first is built; the others give the same graph where valid
    default: tuple[int, int] = (0, 0)  # parameter range when the axis option is absent
    least: int = 0  # smallest valid parameter
    parity: int | None = None  # required parameter % 2, if any
    matrix: str | None = None  # adjacency | laplacian; None for a structure claim
    closed: Callable | None = None  # published polynomial or spectrum, or the claimed graph
    cubic: Callable | None = None  # (cubic factor, multiplicity of -1) of an adjacency claim
    brackets: Callable | None = None  # integer brackets of the cubic's roots
    routes: tuple[str, ...] = ()  # explicit-matrix routes that run: "exact", "jacobi"
    sides: tuple[str, str] = ("computed", "claimed")  # names of a structure claim's forms

    @property
    def kind(self) -> str:
        return "structure" if self.matrix is None else "spectral"

    @property
    def key(self) -> str:
        return "m" if self.axis == "m" else "n"

    def point(self, values) -> dict:
        """Parameters from positional values: (7, 3) -> {"p": 7, "q": 3}."""
        return dict(zip(("p", "q") if self.axis == "pq" else (self.key,), values))

    def points(self, bounds, pq_pairs) -> list[dict]:
        """Parameter points in ``bounds`` (else the default range) that the claim covers."""
        if self.axis == "pq":
            return [self.point(pair) for pair in pq_pairs]
        lo, hi = bounds or self.default
        return [
            {self.key: v} for v in range(max(lo, self.least), hi + 1)
            if self.parity in (None, v % 2)
        ]

    def check(self, params: dict) -> None:
        """Raise OutOfRange unless the parameters lie in the claim's validity range."""
        if self.axis == "pq":
            p, q = params["p"], params["q"]
            if not (is_prime(p) and is_prime(q) and p != q and (p - 1) % q == 0):
                raise OutOfRange("requires distinct primes with q | p-1")
            return
        v = params[self.key]
        if v < self.least or self.parity not in (None, v % 2):
            parity = {None: "", 0: "even ", 1: "odd "}[self.parity]
            raise OutOfRange(f"requires {parity}{self.key} >= {self.least}")


CLAIMS = (
    Claim(
        "Thm4.1(i)", "4.1", "D", "odd_n", default=(3, 25), least=3, parity=1,
        group=lambda n: dihedral(n), relations=("order", "conjugacy"),
        matrix="adjacency", routes=("jacobi",),
        cubic=lambda n: (
            _cubic(2 * n * n - 4 * n + 1, n * n - 5 * n + 3, -(2 * n - 3)), 2 * n - 3
        ),
        brackets=lambda n: [(-2, -1), (n - 2, n - 1), (n, n + 1)],
    ),
    Claim(
        "Thm4.1(ii)", "4.1", "Q", "odd_n", default=(3, 15), least=3, parity=1,
        group=lambda n: generalized_quaternion(n), relations=("order",),
        matrix="adjacency", routes=("jacobi",),
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
        group=lambda p, q: semidirect_pq(p, q), relations=("order", "conjugacy"),
        matrix="adjacency", routes=("jacobi",),
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
        group=lambda n: dihedral(n), relations=("order", "conjugacy"),
        matrix="laplacian", routes=("exact", "jacobi"),
        closed=lambda n: Spectrum([(0, 1), (1, 1), (n, n - 2), (n + 1, n - 1), (2 * n, 1)]),
    ),
    Claim(
        "Thm4.2(ii)", "4.2", "Q", "odd_n", default=(3, 13), least=3, parity=1,
        group=lambda n: generalized_quaternion(n), relations=("order",),
        matrix="laplacian", routes=("exact", "jacobi"),
        closed=lambda n: Spectrum(
            [(0, 1), (2, 1), (2 * n, 2 * n - 3), (2 * n + 2, 2 * n - 1), (4 * n, 2)]
        ),
    ),
    Claim(
        "Thm4.2(iii)", "4.2", "PQ", "pq",
        group=lambda p, q: semidirect_pq(p, q), relations=("order", "conjugacy"),
        matrix="laplacian", routes=("exact", "jacobi"),
        closed=lambda p, q: Spectrum(
            [(0, 1), (1, 1), (p, p - 2), (p * q - p + 1, p * q - p - 1), (p * q, 1)]
        ),
    ),
    # The Sec4.2 displays for the conjugacy super graph of the order-4m
    # dihedral group are reproduced verbatim, even where the pipelines
    # contradict them.
    Claim(
        "Sec4.2-Dc-adj", "4.2", "Dc", "m", default=(2, 6), least=2,
        group=lambda m: dihedral(2 * m), relations=("conjugacy",),
        matrix="adjacency", routes=("exact",),
        closed=lambda m: PolynomialZ.from_roots([(-1, 4 * m - 4), (m - 1, 1)]) * _cubic(
            10 * m * m - 15 * m + 1, 2 * m * m - 10 * m + 3, -(3 * m - 3)
        ),
    ),
    Claim(
        "Sec4.2-Dc-lap", "4.2", "Dc", "m", default=(2, 6), least=2,
        group=lambda m: dihedral(2 * m), relations=("conjugacy",),
        matrix="laplacian", routes=("exact", "jacobi"),
        closed=lambda m: Spectrum(
            [(0, 1), (2, 1), (m + 2, 2 * m - 2), (2 * m, 2 * m - 3), (4 * m, 2)]
        ),
    ),
    Claim(
        "Sec4.2-Dc-iso", "4.2", "Dc", "m", default=(2, 8), least=2,
        group=lambda m: dihedral(2 * m), relations=("conjugacy",),
        closed=lambda m: _super(generalized_quaternion(m), "conjugacy")[0],
        sides=("Dc(D)", "Dc(Q)"),
    ),
    Claim(
        "Sec4.1-complete(D)", "4.1", "D", "n", default=(4, 12), least=4, parity=0,
        group=lambda n: dihedral(n), relations=("order",),
        closed=lambda n: complete_graph(2 * n),
    ),
    Claim(
        "Sec4.1-complete(Q)", "4.1", "Q", "n", default=(2, 8), least=2, parity=0,
        group=lambda n: generalized_quaternion(n), relations=("order",),
        closed=lambda n: complete_graph(4 * n),
    ),
    Claim(
        "Thm4.3", "4.3", "D", "n", default=(3, 12), least=3,
        group=lambda n: dihedral(n), relations=("conjugacy",),
        closed=lambda n: (
            _star_join(2, n // 2, n // 2, n - 2) if n % 2 == 0 else _star_join(1, n - 1, n)
        ),
    ),
    Claim(
        "Thm4.4", "4.4", "Q", "n", default=(2, 8), least=2,
        group=lambda n: generalized_quaternion(n), relations=("conjugacy",),
        closed=lambda n: _star_join(2, n, n, 2 * n - 2),
    ),
    Claim(
        "Thm4.5", "4.5", "PQ", "pq",
        group=lambda p, q: semidirect_pq(p, q), relations=("conjugacy",),
        closed=lambda p, q: _star_join(1, p - 1, p * q - p),
    ),
)

_CATALOGUE = {claim.name: claim for claim in CLAIMS}


def _claim(name: str, kind: str | None = None) -> Claim:
    claim = _CATALOGUE.get(name)
    if claim is None or kind not in (None, claim.kind):
        raise InvalidParameter(f"unknown {kind or 'catalogued'} claim {name!r}")
    return claim


def _adjacency_claim(name: str, params: dict) -> Claim:
    claim = _claim(name)
    if claim.cubic is None:
        raise InvalidParameter(f"unknown adjacency claim {name!r}")
    claim.check(params)
    return claim


def claim_cubic(claim: str, params: dict) -> tuple[PolynomialZ, int]:
    """Cubic factor and the multiplicity of the eigenvalue -1."""
    return _adjacency_claim(claim, params).cubic(**params)


def claim_brackets(claim: str, params: dict) -> list[tuple[int, int]]:
    """Integer root brackets stated with each adjacency claim."""
    return _adjacency_claim(claim, params).brackets(**params)


def closed_form(claim: str, **params):
    """Catalogued closed form for a spectral claim: a PolynomialZ or a Spectrum.

    Laplacian table claims return the table exactly as published, including
    the Dc table whose multiplicities are reproduced verbatim even though the
    verification pipelines contradict them.
    """
    entry = _claim(claim, "spectral")
    entry.check(params)
    if entry.cubic is not None:
        cubic, exp = entry.cubic(**params)
        return cubic * PolynomialZ.from_roots([(-1, exp)])
    return entry.closed(**params)


def closed_spectrum(claim: str, params: dict) -> Spectrum:
    """Catalogued spectrum: the published table, or the cubic's roots isolated
    in their brackets together with the eigenvalue -1."""
    form = closed_form(claim, **params)
    if isinstance(form, Spectrum):
        return form
    cubic, exp = claim_cubic(claim, params)
    roots = real_root_isolate(cubic, claim_brackets(claim, params))
    return Spectrum([(r, 1) for r in roots] + [(-1.0, exp)])


def closed_claim(family: str, relation: str, matrix: str) -> Claim:
    """The spectral claim whose closed form covers a group family, relation and matrix."""
    for claim in CLAIMS:
        if claim.family == family and claim.matrix == matrix and relation in claim.relations:
            return claim
    raise UnsupportedClosedForm(
        f"no closed form for family {family}, relation {relation}, matrix {matrix}"
    )


def _poly_from_spectrum(spec: Spectrum) -> PolynomialZ:
    return PolynomialZ.from_roots((int(v), m) for v, m in spec.pairs)


def _spectrum_diff(expected: Spectrum, computed: Spectrum) -> str:
    exp = {float(v): m for v, m in expected.pairs}
    got = {float(v): m for v, m in computed.pairs}
    bits = []
    for value in sorted(set(exp) | set(got)):
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

def _paper_diff(claim: Claim, params: dict, closed, quotient, jac) -> str | None:
    """How the published form contradicts the computed one; None when it holds.

    A published table is compared group by group with the Jacobi spectrum; an
    adjacency cubic's isolated roots, where Jacobi ran, as a multiset.
    """
    if isinstance(closed, Spectrum):
        if _poly_from_spectrum(closed) == quotient and grouped_match(closed, jac, SPECTRAL_TOL):
            return None
        computed = spectrum_from_integer_charpoly(quotient)
        if computed is None:
            computed = Spectrum([(round(float(v)), m) for v, m in jac.pairs])
        return _spectrum_diff(closed, computed)
    if closed != quotient:
        return f"published poly {closed} != computed {quotient}"
    if jac is None:
        return None
    try:
        expected = closed_spectrum(claim.name, params)
    except NoSignChange:
        return f"root bracket sign check failed on {claim_brackets(claim.name, params)}"
    if multiset_match(jac, expected, SPECTRAL_TOL):
        return None
    return f"eigenvalues {jac} do not match catalogued roots {expected}"


def _verify_spectral_point(claim: Claim, params: dict) -> ClaimReport:
    start = time.perf_counter()
    closed = closed_form(claim.name, **params)
    graph, base, part = _super(claim.group(**params), claim.relations[0])
    if claim.matrix == "adjacency":
        quotient = super_adjacency_charpoly(base, part)
        matrix = graph.adjacency_matrix()
    else:
        quotient = super_laplacian_charpoly(base, part)
        matrix = graph.laplacian_matrix()
    internal_ok, brute, jac = True, None, None
    if "exact" in claim.routes:
        brute = char_poly_integer(matrix)
        internal_ok = brute == quotient
    if "jacobi" in claim.routes:
        brute = jac = jacobi_eigenvalues(matrix)
        internal_ok = internal_ok and multiset_match(
            jac, quotient_spectrum(base, part, claim.matrix), SPECTRAL_TOL
        )

    report = ClaimReport(claim=claim.name, params=params)
    report.artifacts = {"closed": str(closed), "quotient": str(quotient), "brute": str(brute)}
    if not internal_ok:
        report.verdict = MISMATCH
        report.diff = "quotient pipeline disagrees with brute force"
    else:
        report.diff = _paper_diff(claim, params, closed, quotient, jac)
        if report.diff is not None:
            report.verdict = PAPER_TABLE
    report.ms = int((time.perf_counter() - start) * 1000)
    return report


def verify_spectral(claim: str, param_list) -> list[ClaimReport]:
    """Check a spectral claim over several parameter points."""
    entry = _claim(claim, "spectral")
    return [_verify_spectral_point(entry, dict(p)) for p in param_list]


def verify_structure(claim: str, params) -> ClaimReport:
    """Build both sides of a structural claim and compare canonical forms."""
    entry = _claim(claim, "structure")
    params = dict(params)
    start = time.perf_counter()
    entry.check(params)
    built, _, _ = _super(entry.group(**params), entry.relations[0])
    f1 = twin_canonical_form(built)
    f2 = twin_canonical_form(entry.closed(**params))
    left, right = entry.sides
    report = ClaimReport(claim=claim, params=params)
    report.artifacts = {left: f1.describe(), right: f2.describe()}
    if f1 != f2:
        report.verdict = PAPER_TABLE
        report.diff = f"{left} {f1.describe()} != {right} {f2.describe()}"
    report.ms = int((time.perf_counter() - start) * 1000)
    return report


# ---------------------------------------------------------------------------
# Generic randomized property suites

def _random_graph(rng: random.Random, n: int, p: float = 0.4) -> SimpleGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SimpleGraph(n, edges)


def _random_connected_graph(rng: random.Random, n: int, p: float = 0.4) -> SimpleGraph:
    for _ in range(10000):
        g = _random_graph(rng, n, p)
        if is_connected(g):
            return g
    raise AssertionError("failed to sample a connected graph")


def _random_partition(rng: random.Random, n: int) -> Partition:
    k = rng.randint(1, n)
    assignment = [rng.randrange(k) for _ in range(n)]
    blocks: dict[int, list[int]] = {}
    for v, b in enumerate(assignment):
        blocks.setdefault(b, []).append(v)
    return Partition(n, blocks.values())


def _random_refinement(rng: random.Random, coarse: Partition) -> Partition:
    blocks = []
    for block in coarse.blocks:
        parts = rng.randint(1, len(block))
        sub: dict[int, list[int]] = {}
        for v in block:
            sub.setdefault(rng.randrange(parts), []).append(v)
        blocks.extend(sub.values())
    return Partition(coarse.ground_size, blocks)


def _block_order_permutation(partition: Partition) -> list[int]:
    return [v for block in partition.blocks for v in block]


def _check_thm33(rng: random.Random) -> str | None:
    n = rng.randint(2, 9)
    g = _random_graph(rng, n)
    part = _random_partition(rng, n)
    sup = super_graph(g, part)
    join = generalized_join(
        compressed_graph(g, part), [complete_graph(s) for s in part.sizes]
    )
    perm = _block_order_permutation(part)
    relabeled = sup.induced_subgraph(perm)
    if relabeled != join:
        return f"edge sets differ for n={n}, partition={part.blocks}"
    if not is_spanning_subgraph(g, sup):
        return f"original graph not spanning subgraph of super graph for n={n}"
    return None


def _check_prop32(rng: random.Random) -> str | None:
    n = rng.randint(2, 9)
    g = _random_graph(rng, n)
    coarse = _random_partition(rng, n)
    fine = _random_refinement(rng, coarse)
    if not refines(fine, coarse):
        return "refinement sampler produced a non-refinement"
    if not is_spanning_subgraph(super_graph(g, fine), super_graph(g, coarse)):
        return f"containment fails for n={n}, fine={fine.blocks}, coarse={coarse.blocks}"
    if super_graph(g, least_partition(n)) != g:
        return "super graph over the identity relation is not the graph itself"
    return None


def _check_thm34(rng: random.Random) -> str | None:
    n = rng.randint(2, 9)
    g = _random_graph(rng, n)
    part = _random_partition(rng, n)
    comp = compressed_graph(g, part)
    if is_connected(g) and not is_connected(comp):
        return f"graph connected but compressed graph disconnected (n={n})"
    blocks_connected = all(
        is_connected(g.induced_subgraph(b)) for b in part.blocks
    )
    if is_connected(comp) and blocks_connected and not is_connected(g):
        return f"compressed+blocks connected but graph disconnected (n={n})"
    return None


def _check_lemma12(rng: random.Random) -> str | None:
    k = rng.randint(2, 5)
    template = _random_graph(rng, k, 0.5)
    parts = [_random_graph(rng, rng.randint(1, 4)) for _ in range(k)]
    join = generalized_join(template, parts)
    if is_connected(template) != is_connected(join):
        return f"connectivity equivalence fails for k={k}"
    return None


def _sample_thm35(rng: random.Random) -> tuple[SimpleGraph, Partition]:
    n = rng.randint(2, 9)
    return _random_connected_graph(rng, n), _random_partition(rng, n)


def _check_thm35(rngs: list[random.Random]) -> list[str | None]:
    """The quotient route against brute force on every trial's super graph,
    in one batched exact call per route and matrix."""
    cases = [_sample_thm35(rng) for rng in rngs]
    adjacency = super_charpolys(cases, "adjacency")
    laplacian = super_charpolys(cases, "laplacian")
    supers = [super_graph(g, part) for g, part in cases]
    explicit = char_poly_integers(
        [s.adjacency_matrix() for s in supers] + [s.laplacian_matrix() for s in supers]
    )
    problems: list[str | None] = []
    for (g, part), adj, lap, brute_adj, brute_lap in zip(
        cases, adjacency, laplacian, explicit, explicit[len(cases):]
    ):
        where = f"(n={g.n}, partition={part.blocks})"
        if adj != brute_adj:
            problems.append(f"adjacency char poly mismatch {where}")
        elif lap != brute_lap:
            problems.append(f"Laplacian char poly mismatch {where}")
        else:
            problems.append(None)
    return problems


def _per_trial(check: Callable[[random.Random], str | None]):
    """A generic check on a list of trial rngs, from its one-trial body."""
    return lambda rngs: [check(rng) for rng in rngs]


# Each check takes one seeded rng per trial and returns one problem (or
# None) per trial.
_GENERIC_CHECKS = {
    "Lemma1.2": _per_trial(_check_lemma12),
    "Prop3.2": _per_trial(_check_prop32),
    "Thm3.3": _per_trial(_check_thm33),
    "Thm3.4": _per_trial(_check_thm34),
    "Thm3.5": _check_thm35,
}


def verify_generic(seed: int, trials: int) -> list[ClaimReport]:
    """Run the seeded randomized property suites; one report per property."""
    if trials < 1:
        raise InvalidParameter("trials must be >= 1")
    reports = []
    for name in sorted(_GENERIC_CHECKS):
        start = time.perf_counter()
        report = ClaimReport(claim=name, params={"seed": seed, "trials": trials})
        # string seeds hash via sha512, stable across runs and processes
        rngs = [random.Random(f"{seed}:{name}:{t}") for t in range(trials)]
        failed = [(t, p) for t, p in enumerate(_GENERIC_CHECKS[name](rngs)) if p is not None]
        report.verdict = MATCH if not failed else MISMATCH
        if failed:
            t, problem = failed[0]
            report.diff = f"{len(failed)}/{trials} counterexamples; first: trial {t}: {problem}"
        report.artifacts = {"trials": str(trials)}
        report.ms = int((time.perf_counter() - start) * 1000)
        reports.append(report)
    return reports



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

    ``family`` keeps the claims tagged with it. Without it, suite 4.2 leaves
    out the Dc claims, which ``all`` and ``family="Dc"`` select. The generic
    suite carries no family tag and runs under any family.
    """
    bounds = {"odd_n": odd_n, "n": n_range, "m": m_range}
    pq_pairs = tuple(pq_pairs) if pq_pairs else DEFAULT_PQ_PAIRS
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
        tasks.append(("generic", "generic", {"seed": seed, "trials": trials}))
    if not tasks:
        raise InvalidParameter(f"suite {suite!r} selected no claims")
    return tasks


def run_claim_task(task: tuple) -> list[ClaimReport]:
    """Execute one task; module-level so worker processes can import it."""
    kind, claim, params = task
    if kind == "spectral":
        return verify_spectral(claim, [params])
    if kind == "structure":
        return [verify_structure(claim, params)]
    if kind == "generic":
        return verify_generic(params["seed"], params["trials"])
    raise InvalidParameter(f"unknown task kind {kind!r}")


def run_suite(suite: str, *, jobs: int = 1, **kwargs) -> list[ClaimReport]:
    """Run a verification suite, optionally fanning claims out to workers.

    At most one worker per task is started. Reports come back
    deterministically ordered by (claim, params) regardless of the worker
    count.
    """
    tasks = suite_tasks(suite, **kwargs)
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            grouped = list(pool.map(run_claim_task, tasks))
    else:
        grouped = [run_claim_task(t) for t in tasks]
    reports = [r for group in grouped for r in group]
    reports.sort(key=lambda r: (r.claim, sorted(r.params.items())))
    return reports


def summarize(reports) -> dict:
    counts = {"match": 0, "mismatch": 0, "paper_table": 0}
    for r in reports:
        if r.verdict == MATCH:
            counts["match"] += 1
        elif r.verdict == PAPER_TABLE:
            counts["paper_table"] += 1
        else:
            counts["mismatch"] += 1
    return counts


def format_report_table(reports) -> str:
    rows = [("claim", "params", "verdict", "note")]
    for r in reports:
        params = ", ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        rows.append((r.claim, params, r.verdict, r.diff or ""))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for row in rows:
        lines.append(
            f"{row[0]:<{widths[0]}}  {row[1]:<{widths[1]}}  {row[2]:<{widths[2]}}  {row[3]}".rstrip()
        )
    counts = summarize(reports)
    lines.append(
        f"summary: {counts['match']} Match, {counts['mismatch']} Mismatch, "
        f"{counts['paper_table']} Mismatch(paper-table)"
    )
    return "\n".join(lines)
