"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 6 and 7 check the paper's structure theorems (Thm 4.3, 4.4) and its
Sec 4.2 Laplacian table for the order-4m dihedral group. They pin each
published claim wherever it holds. At the erratum points, where computation
contradicts it (D_2n with n = 2 (mod 4), Q_4n with n odd, the Dc table at
every m), they pin the proven correct form instead, and require the verify
report to flag exactly those points as Mismatch(paper-table).
"""

import random
import time

from supergraph import (
    PolynomialZ,
    Spectrum,
    char_poly_integer,
    commuting_graph,
    complete_graph,
    conjugacy_partition,
    dihedral,
    generalized_join,
    generalized_quaternion,
    grouped_match,
    interlacing_check,
    jacobi_eigenvalues,
    order_partition,
    semidirect_pq,
    star_graph,
    star_join_laplacian_spectrum,
    super_adjacency_charpoly,
    super_graph,
    twin_canonical_form,
)
from supergraph.partitions import Partition
from supergraph.verify import (
    MATCH,
    PAPER_TABLE,
    _claim,
    closed_form,
    verify_generic,
    verify_spectral,
    verify_structure,
)

TOL = 1e-8
SLACK = 1e-9

D_RANGE = range(3, 26, 2)
Q_RANGE = range(3, 14, 2)
PQ_PAIRS = ((3, 2), (5, 2), (7, 3), (7, 2), (13, 3))


def _finish(number: int, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {number}] {status}"
    if detail:
        line += f" - {detail}"
    if failures:
        line += f" - {len(failures)} failure(s): {failures}"
    print(line)
    assert not failures, f"criterion {number}: {failures}"


def _order_super(group):
    return super_graph(commuting_graph(group), order_partition(group))


def _conjugacy_super(group):
    return super_graph(commuting_graph(group), conjugacy_partition(group))


def _laplacian_protocol(group, expected_pairs, budget=1.0):
    """Jacobi on the explicit Laplacian, grouped-multiplicity comparison."""
    start = time.perf_counter()
    graph = _order_super(group)
    spectrum = jacobi_eigenvalues(graph.laplacian_matrix())
    ok = grouped_match(Spectrum(expected_pairs), spectrum, TOL)
    elapsed = time.perf_counter() - start
    return ok, elapsed <= budget, elapsed


def test_criterion_1_dihedral_laplacian_spectra():
    failures = []
    for n in D_RANGE:
        expected = [(0, 1), (1, 1), (n, n - 2), (n + 1, n - 1), (2 * n, 1)]
        ok, fast, elapsed = _laplacian_protocol(dihedral(n), expected)
        if not ok:
            failures.append(f"n={n}: spectrum mismatch")
        if not fast:
            failures.append(f"n={n}: took {elapsed:.2f}s")
    _finish(1, failures, f"dihedral Laplacian spectra, odd n in 3..25")


def test_criterion_2_quaternion_and_semidirect_laplacian_spectra():
    failures = []
    for n in Q_RANGE:
        expected = [
            (0, 1), (2, 1), (2 * n, 2 * n - 3), (2 * n + 2, 2 * n - 1), (4 * n, 2),
        ]
        ok, fast, elapsed = _laplacian_protocol(generalized_quaternion(n), expected)
        if not ok:
            failures.append(f"Q n={n}: spectrum mismatch")
        if not fast:
            failures.append(f"Q n={n}: took {elapsed:.2f}s")
    for p, q in PQ_PAIRS:
        expected = [
            (0, 1), (1, 1), (p, p - 2),
            (p * q - p + 1, p * q - p - 1), (p * q, 1),
        ]
        ok, fast, elapsed = _laplacian_protocol(semidirect_pq(p, q), expected)
        if not ok:
            failures.append(f"PQ ({p},{q}): spectrum mismatch")
        if not fast:
            failures.append(f"PQ ({p},{q}): took {elapsed:.2f}s")
    _finish(2, failures, "dicyclic and semidirect Laplacian spectra")


def test_criterion_3_adjacency_charpoly_factorizations_and_brackets():
    failures = []
    cases = (
        [("Thm4.1(i)", {"n": n}, dihedral(n)) for n in D_RANGE]
        + [("Thm4.1(ii)", {"n": n}, generalized_quaternion(n))
           for n in list(Q_RANGE) + [15]]
        + [("Thm4.1(iii)", {"p": p, "q": q}, semidirect_pq(p, q))
           for p, q in PQ_PAIRS]
    )
    for claim, params, group in cases:
        pipeline = super_adjacency_charpoly(
            commuting_graph(group), order_partition(group)
        )
        if pipeline != closed_form(claim, **params):
            failures.append(f"{claim} {params}: coefficients differ")
            continue
        cubic, _ = _claim(claim).cubic(**params)
        for lo, hi in _claim(claim).brackets(**params):
            flo, fhi = cubic(lo), cubic(hi)
            if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
                failures.append(f"{claim} {params}: no sign change on ({lo},{hi})")
    # gamma-bracket switchover, explicitly at n=13 and n=15
    f13, _ = _claim("Thm4.1(ii)").cubic(n=13)
    f15, _ = _claim("Thm4.1(ii)").cubic(n=15)
    if not (f13(27) < 0 < f13(28)):
        failures.append("n=13: gamma not in (2n+1, 2n+2)")
    if not (f15(32) < 0 < f15(33)):
        failures.append("n=15: gamma not in (2n+2, 2n+3)")
    _finish(3, failures, "exact adjacency factorizations and root brackets")


def _random_graph(rng, n, p=0.4):
    from supergraph import SimpleGraph

    return SimpleGraph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def _random_partition(rng, n):
    k = rng.randint(1, n)
    blocks = {}
    for v in range(n):
        blocks.setdefault(rng.randrange(k), []).append(v)
    return Partition(n, blocks.values())


def test_criterion_4_quotient_formula_property_suite():
    from supergraph import is_connected, super_laplacian_charpoly

    failures = []
    start = time.perf_counter()
    for t in range(200):
        rng = random.Random(f"acceptance:3.5:{t}")
        n = rng.randint(2, 9)
        graph = _random_graph(rng, n)
        while not is_connected(graph):
            graph = _random_graph(rng, n)
        part = _random_partition(rng, n)
        sup = super_graph(graph, part)
        if super_adjacency_charpoly(graph, part) != char_poly_integer(
            sup.adjacency_matrix()
        ):
            failures.append(f"trial {t}: adjacency")
        if super_laplacian_charpoly(graph, part) != char_poly_integer(
            sup.laplacian_matrix()
        ):
            failures.append(f"trial {t}: laplacian")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(4, failures, f"200 quotient-vs-brute instances in {elapsed:.1f}s")


def test_criterion_5_structural_property_suites():
    reports = verify_generic(seed=42, trials=200)
    wanted = {"Thm3.3", "Prop3.2", "Thm3.4", "Lemma1.2"}
    failures = [
        f"{r.claim}: {r.diff}"
        for r in reports
        if r.claim in wanted and r.verdict != "Match"
    ]
    _finish(5, failures, "200 seeded instances per structural property")


def _star_join(*sizes):
    return generalized_join(star_graph(len(sizes)), [complete_graph(s) for s in sizes])


# Erratum forms of the conjugacy super graphs. In D_2n the reflections ba^i and
# ba^j commute iff 2(i - j) = 0 (mod n), i.e. j = i + n/2; the reflection
# classes are {ba^even} and {ba^odd}, so when n = 2 (mod 4) (n/2 odd) every
# commuting reflection pair crosses the two classes, the classes become
# adjacent and all n reflections form one clique. In Q_4n, a^i b and a^j b
# commute iff i = j (mod n), which crosses the classes {a^even b}, {a^odd b}
# exactly when n is odd. The centre K_2 and the non-central rotations are
# unchanged.

def _thm43_sizes(n):
    """(published, corrected) star-join sizes; corrected is None where Thm 4.3 holds."""
    if n % 2:
        return (1, n - 1, n), None
    published = (2, n // 2, n // 2, n - 2)
    return published, ((2, n - 2, n) if n % 4 == 2 else None)


def _thm44_sizes(n):
    """(published, corrected) star-join sizes; corrected is None where Thm 4.4 holds."""
    return (2, n, n, 2 * n - 2), ((2, 2 * n - 2, 2 * n) if n % 2 else None)


def test_criterion_6_structure_theorems():
    failures, errata = [], {"Thm4.3": [], "Thm4.4": []}

    def check(tag, built, claimed, claim=None, params=None, erratum=False):
        f1, f2 = twin_canonical_form(built), twin_canonical_form(claimed)
        if f1 != f2:
            failures.append(f"{tag}: computed {f1.describe()} != claimed {f2.describe()}")
        if claim is None:
            return
        verdict = verify_structure(claim, params).verdict
        wanted = PAPER_TABLE if erratum else MATCH
        if verdict != wanted:
            failures.append(f"{tag}: verify verdict {verdict}, expected {wanted}")

    for claim, ns, group, sizes in (
        ("Thm4.3", range(3, 13), dihedral, _thm43_sizes),
        ("Thm4.4", range(2, 9), generalized_quaternion, _thm44_sizes),
    ):
        for n in ns:
            published, corrected = sizes(n)
            if corrected is None:
                tag, claimed = f"{claim} n={n}", published
            else:
                tag, claimed = f"{claim} n={n} (erratum, corrected form)", corrected
                errata[claim].append(str(n))
            check(
                tag, _conjugacy_super(group(n)), _star_join(*claimed),
                claim, {"n": n}, erratum=corrected is not None,
            )
    for p, q in PQ_PAIRS:
        check(
            f"Thm4.5 ({p},{q})",
            _conjugacy_super(semidirect_pq(p, q)),
            _star_join(1, p - 1, p * q - p),
            "Thm4.5", {"p": p, "q": q},
        )
    for m in range(2, 9):
        check(
            f"cross-family m={m}",
            _conjugacy_super(dihedral(2 * m)),
            _conjugacy_super(generalized_quaternion(m)),
            "Sec4.2-Dc-iso", {"m": m},
        )
    for n in (4, 6, 8, 10, 12):
        check(
            f"complete D n={n}", _order_super(dihedral(n)), complete_graph(2 * n),
            "Sec4.1-complete(D)", {"n": n},
        )
    for n in (2, 4, 6, 8):
        check(
            f"complete Q n={n}",
            _order_super(generalized_quaternion(n)),
            complete_graph(4 * n),
            "Sec4.1-complete(Q)", {"n": n},
        )
    confirmed = "; ".join(f"{c} n={','.join(ns)}" for c, ns in errata.items())
    _finish(
        6, failures,
        f"structure claims via twin-canonical forms, erratum confirmed at {confirmed}",
    )


def test_criterion_7_laplacian_table_discrepancy():
    # The Dc graph is the conjugacy super graph of D_4m, i.e. Thm 4.3 at n = 2m.
    # Odd m is a Thm 4.3 erratum point: the graph is K_2 v (K_{2m-2} u K_{2m}),
    # whose Laplacian spectrum by the join rule is
    # 0, 2, (2m)^(2m-3), (2m+2)^(2m-1), (4m)^2. Even m keeps the published
    # structure K_2 v (K_m u K_m u K_{2m-2}), with eigenvalue 2 twice. The
    # published table's multiplicities sum to 4m - 1, so it is wrong at every m.
    failures, odd = [], []
    for m in range(2, 7):
        report = verify_spectral("Sec4.2-Dc-lap", [{"m": m}])[0]
        if report.verdict != PAPER_TABLE:
            failures.append(f"m={m}: report not flagged, verdict {report.verdict}")
        if m % 2:
            odd.append(str(m))
            sizes = (2, 2 * m - 2, 2 * m)
            wrong = [
                f"eigenvalue {m + 2}: table multiplicity {2 * m - 2}, computed 0",
                f"eigenvalue {2 * m + 2}: table multiplicity 0, computed {2 * m - 1}",
            ]
        else:
            sizes = (2, m, m, 2 * m - 2)
            wrong = ["eigenvalue 2: table multiplicity 1, computed 2"]
        wrong.append(f"table multiplicities sum to {4 * m - 1}, expected {4 * m}")
        for bit in wrong:
            if bit not in (report.diff or ""):
                failures.append(f"m={m}: report diff {report.diff!r} lacks {bit!r}")
        brute = char_poly_integer(_conjugacy_super(dihedral(2 * m)).laplacian_matrix())
        closed = star_join_laplacian_spectrum(sizes)
        if brute != PolynomialZ.from_roots(closed.pairs):
            failures.append(f"m={m}: brute force {brute} != star join {sizes} {closed}")
        mult, wanted = brute.root_multiplicity(2), 1 if m % 2 else 2
        if mult != wanted:
            failures.append(
                f"m={m}: brute-force eigenvalue-2 multiplicity {mult} != {wanted}"
            )
    _finish(
        7, failures,
        "Dc Laplacian table flagged at m=2..6; brute force equals the star-join "
        f"closed form, erratum confirmed at odd m={','.join(odd)}",
    )


def test_criterion_8_interlacing_on_deleted_vertices():
    failures = []

    def check(tag, graph, deleted):
        keep = [v for v in range(graph.n) if v not in deleted]
        for name, matrix in (
            ("adjacency", graph.adjacency_matrix()),
            ("laplacian", graph.laplacian_matrix()),
        ):
            full = jacobi_eigenvalues(matrix).expand()
            sub = jacobi_eigenvalues(matrix[keep][:, keep]).expand()
            if not interlacing_check(full, sub, SLACK):
                failures.append(f"{tag} ({name})")

    for n in D_RANGE:
        check(f"D n={n}", _order_super(dihedral(n)), {0})
    for n in Q_RANGE:
        check(f"Q n={n}", _order_super(generalized_quaternion(n)), {0, n})
    for p, q in PQ_PAIRS:
        check(f"PQ ({p},{q})", _order_super(semidirect_pq(p, q)), {0})
    _finish(8, failures, "principal-submatrix interlacing")
