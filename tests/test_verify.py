import dataclasses
import itertools
import json
import random

import pytest

from supergraph import (
    InvalidParameter,
    OutOfRange,
    PolynomialZ,
    Spectrum,
    commuting_graph,
    conjugacy_partition,
    dihedral,
    order_partition,
    semidirect_pq,
    super_graph,
)
from supergraph import verify
from supergraph.verify import (
    MATCH,
    PAPER_TABLE,
    closed_form,
    format_report_table,
    run_suite,
    suite_tasks,
    summarize,
    verify_generic,
    verify_spectral,
    verify_structure,
)


# ---------------------------------------------------------------------------
# Closed forms

def test_closed_form_laplacian_dihedral():
    s = closed_form("Thm4.2(i)", n=5)
    assert s == Spectrum([(0, 1), (1, 1), (5, 3), (6, 4), (10, 1)])


def test_closed_form_adjacency_quaternion_n3():
    # coefficient of x is 4n^2 - 12n + 3 = +3 at n = 3
    got = closed_form("Thm4.1(ii)", n=3)
    assert got == PolynomialZ((1, 1)) ** 9 * PolynomialZ((61, 3, -9, 1))


def test_closed_form_laplacian_pq():
    s = closed_form("Thm4.2(iii)", p=7, q=3)
    assert s == Spectrum([(0, 1), (1, 1), (7, 5), (15, 13), (21, 1)])


def test_closed_form_multiplicities_sum_to_group_order():
    for claim, params, order in (
        ("Thm4.2(i)", {"n": 7}, 14),
        ("Thm4.2(ii)", {"n": 5}, 20),
        ("Thm4.2(iii)", {"p": 13, "q": 3}, 39),
    ):
        assert closed_form(claim, **params).total_multiplicity == order


def test_closed_form_out_of_range():
    with pytest.raises(OutOfRange):
        closed_form("Thm4.1(i)", n=4)  # even
    with pytest.raises(OutOfRange):
        closed_form("Thm4.2(iii)", p=5, q=3)  # q does not divide p-1
    with pytest.raises(OutOfRange):
        closed_form("Sec4.2-Dc-lap", m=1)


def test_claim_brackets_quaternion_switchover():
    quaternion = verify._claim("Thm4.1(ii)")
    assert quaternion.brackets(n=13)[2] == (27, 28)
    assert quaternion.brackets(n=15)[2] == (32, 33)
    assert verify._claim("Thm4.1(i)").brackets(n=3) == [(-2, -1), (1, 2), (3, 4)]


def test_claim_cubic_sign_checks_at_endpoints():
    quaternion = verify._claim("Thm4.1(ii)")
    for n in (3, 7, 13, 15):
        cubic, _ = quaternion.cubic(n=n)
        for lo, hi in quaternion.brackets(n=n):
            assert (cubic(lo) > 0) != (cubic(hi) > 0)


def test_claim_spectrum_is_the_table_or_the_bracketed_cubic_roots():
    assert verify._claim("Thm4.2(i)").spectrum({"n": 5}) == closed_form("Thm4.2(i)", n=5)
    quaternion = verify._claim("Thm4.1(ii)")
    got = quaternion.spectrum({"n": 3})
    cubic, exp = quaternion.cubic(n=3)
    assert got.pairs[1] == (-1.0, exp) and got.total_multiplicity == exp + 3
    roots = [v for v, _ in got.pairs if v != -1.0]
    assert all(lo < r < hi for r, (lo, hi) in zip(roots, quaternion.brackets(n=3)))
    assert all(abs(cubic(r)) < 1e-4 for r in roots)


def test_claim_spectrum_of_a_published_polynomial_is_an_error():
    with pytest.raises(InvalidParameter, match="publishes no spectrum"):
        verify._claim("Sec4.2-Dc-adj").spectrum({"m": 2})


def test_range_is_checked_once_per_spectral_point(monkeypatch):
    calls = []

    def counted(n, _fn=verify.is_prime):
        calls.append(n)
        return _fn(n)

    monkeypatch.setattr(verify, "is_prime", counted)
    assert verify_spectral("Thm4.1(iii)", [{"p": 7, "q": 3}])[0].verdict == MATCH
    assert calls == [7, 3]


# ---------------------------------------------------------------------------
# Spectral claims

def test_verify_spectral_laplacian_dihedral_matches():
    reports = verify_spectral("Thm4.2(i)", [{"n": n} for n in (3, 5, 7)])
    assert all(r.verdict == MATCH for r in reports)


def test_verify_spectral_adjacency_all_families():
    assert verify_spectral("Thm4.1(i)", [{"n": 5}])[0].verdict == MATCH
    assert verify_spectral("Thm4.1(ii)", [{"n": 3}])[0].verdict == MATCH
    assert verify_spectral("Thm4.1(iii)", [{"p": 7, "q": 3}])[0].verdict == MATCH


def test_verify_spectral_dc_laplacian_flags_paper_table():
    report = verify_spectral("Sec4.2-Dc-lap", [{"m": 2}])[0]
    assert report.verdict == PAPER_TABLE
    assert "eigenvalue 2: table multiplicity 1, computed 2" in report.diff


def test_verify_spectral_dc_adjacency_parity():
    even = verify_spectral("Sec4.2-Dc-adj", [{"m": 2}, {"m": 4}])
    assert all(r.verdict == MATCH for r in even)
    odd = verify_spectral("Sec4.2-Dc-adj", [{"m": 3}])[0]
    assert odd.verdict == PAPER_TABLE


def test_a_table_whose_poly_does_not_split_is_diffed_as_polynomials(monkeypatch):
    # Thm4.1(i) published as a table: its computed char poly (the cubic form,
    # which holds at n = 5) has irrational roots, so no eigenvalue is named
    # and nothing is rounded
    claim = verify._claim("Thm4.1(i)")
    table = dataclasses.replace(
        claim, cubic=None, brackets=None, closed=lambda n: Spectrum([(-1, 2 * n - 1), (n, 1)])
    )
    monkeypatch.setitem(verify._CATALOGUE, claim.name, table)
    report = verify_spectral(claim.name, [{"n": 5}])[0]
    published = PolynomialZ.from_roots([(-1, 9), (5, 1)])
    assert report.verdict == PAPER_TABLE
    assert report.diff == f"published poly {published} != computed {claim.form({'n': 5})}"


# ---------------------------------------------------------------------------
# Structure claims

def test_verify_structure_valid_cases():
    assert verify_structure("Thm4.3", {"n": 5}).verdict == MATCH
    assert verify_structure("Thm4.3", {"n": 8}).verdict == MATCH
    assert verify_structure("Thm4.4", {"n": 2}).verdict == MATCH
    assert verify_structure("Thm4.5", {"p": 7, "q": 3}).verdict == MATCH
    assert verify_structure("Sec4.1-complete(D)", {"n": 4}).verdict == MATCH
    assert verify_structure("Sec4.1-complete(Q)", {"n": 2}).verdict == MATCH
    assert verify_structure("Sec4.2-Dc-iso", {"m": 4}).verdict == MATCH


def test_verify_structure_known_failures_of_published_claims():
    # the two reflection conjugacy classes contain commuting cross pairs when
    # n/2 (dihedral) resp. n (dicyclic) is odd, so the published star join is
    # not the graph that gets built; the report records both forms
    r = verify_structure("Thm4.3", {"n": 6})
    assert r.verdict == PAPER_TABLE
    assert "K_{1,2}[K_2, K_4, K_6]" in r.diff
    assert "K_{1,3}[K_2, K_3, K_3, K_4]" in r.diff
    r = verify_structure("Thm4.4", {"n": 3})
    assert r.verdict == PAPER_TABLE


def test_cross_family_isomorphism_holds_for_all_m():
    for m in range(2, 9):
        assert verify_structure("Sec4.2-Dc-iso", {"m": m}).verdict == MATCH


def _d12_via_hexagon_symmetries():
    """Independent construction of the conjugacy super commuting graph of the
    symmetry group of a regular hexagon, bypassing the library's group,
    partition and graph machinery."""
    def compose(f, g):
        return tuple(f[g[i]] for i in range(6))

    elems = [tuple((i + t) % 6 for i in range(6)) for t in range(6)]
    elems += [tuple((t - i) % 6 for i in range(6)) for t in range(6)]
    index = {e: i for i, e in enumerate(elems)}
    inverse = [index[tuple(sorted(range(6), key=lambda x: e[x]))] for e in elems]

    classes, seen = [], set()
    for i, e in enumerate(elems):
        if i in seen:
            continue
        orbit = {
            index[compose(compose(h, e), elems[inverse[j]])]
            for j, h in enumerate(elems)
        }
        seen |= orbit
        classes.append(sorted(orbit))
    block_of = {v: bi for bi, block in enumerate(classes) for v in block}
    commutes = [
        [compose(a, b) == compose(b, a) for b in elems] for a in elems
    ]
    edges = set()
    for x, y in itertools.combinations(range(12), 2):
        if block_of[x] == block_of[y] or any(
            commutes[u][v] for u in classes[block_of[x]] for v in classes[block_of[y]]
        ):
            edges.add((x, y))
    return edges


def test_d12_conjugacy_super_graph_against_independent_oracle():
    oracle_edges = _d12_via_hexagon_symmetries()
    built = super_graph(commuting_graph(dihedral(6)), conjugacy_partition(dihedral(6)))
    assert built.edge_count == len(oracle_edges) == 42
    # the published join has 33 edges, so the claim cannot hold
    from supergraph import complete_graph, generalized_join, star_graph

    claimed = generalized_join(star_graph(4), [complete_graph(s) for s in (2, 3, 3, 4)])
    assert claimed.edge_count == 33


# ---------------------------------------------------------------------------
# Labeled coincidences of the two relations

def test_conjugacy_equals_order_super_graph_where_expected():
    for group in (dihedral(3), dihedral(7), semidirect_pq(7, 3), semidirect_pq(5, 2)):
        base = commuting_graph(group)
        assert super_graph(base, conjugacy_partition(group)) == super_graph(
            base, order_partition(group)
        )


# ---------------------------------------------------------------------------
# Generic properties

def test_verify_generic_all_pass():
    reports = verify_generic(123, 60)
    assert [r.claim for r in reports] == [
        "Lemma1.2", "Prop3.2", "Thm3.3", "Thm3.4", "Thm3.5",
    ]
    assert all(r.verdict == MATCH for r in reports)


def test_verify_generic_deterministic():
    a = verify_generic(42, 25)
    b = verify_generic(42, 25)
    assert [(r.claim, r.verdict, r.diff) for r in a] == [
        (r.claim, r.verdict, r.diff) for r in b
    ]


def test_verify_generic_reports_at_seed_42():
    reports = verify_generic(42, 200)
    assert [(r.claim, r.verdict, r.diff, r.artifacts) for r in reports] == [
        (name, MATCH, None, {"trials": "200"})
        for name in ("Lemma1.2", "Prop3.2", "Thm3.3", "Thm3.4", "Thm3.5")
    ]


def _thm35_draws(seed, trials):
    """The (n, partition blocks) of each Thm 3.5 trial, drawn one trial at a
    time from the trial's own rng."""
    draws = []
    for t in range(trials):
        rng = random.Random(f"{seed}:Thm3.5:{t}")
        n = rng.randint(2, 9)
        verify._random_connected_graph(rng, n)
        draws.append((n, verify._random_partition(rng, n).blocks))
    return draws


def _recording_super_charpolys(monkeypatch, wrong_at=()):
    """Record the cases of every batched quotient call; the polynomials of
    the trials in ``wrong_at`` are made wrong."""
    calls = []
    batched = verify.super_charpolys

    def recorded(cases, matrix):
        calls.append((matrix, [(g.n, part.blocks) for g, part in cases]))
        polys = batched(cases, matrix)
        return [p + PolynomialZ.one() if t in wrong_at else p for t, p in enumerate(polys)]

    monkeypatch.setattr(verify, "super_charpolys", recorded)
    return calls


def test_thm35_batch_samples_what_each_trial_draws(monkeypatch):
    calls = _recording_super_charpolys(monkeypatch)
    verify_generic(7, 40)
    draws = _thm35_draws(7, 40)
    assert calls == [("adjacency", draws), ("laplacian", draws)]


def test_thm35_reports_the_first_wrong_trial(monkeypatch):
    _recording_super_charpolys(monkeypatch, wrong_at=(3, 7))
    report = verify_generic(42, 200)[-1]
    n, blocks = _thm35_draws(42, 4)[3]
    assert report.claim == "Thm3.5" and report.verdict == "Mismatch"
    assert report.diff == (
        f"2/200 counterexamples; first: trial 3: adjacency char poly mismatch "
        f"(n={n}, partition={blocks})"
    )


def test_thm35_reports_a_laplacian_mismatch(monkeypatch):
    batched = verify.super_charpolys

    def wrong_laplacian(cases, matrix):
        polys = batched(cases, matrix)
        return [-p if matrix == "laplacian" and t == 5 else p for t, p in enumerate(polys)]

    monkeypatch.setattr(verify, "super_charpolys", wrong_laplacian)
    report = verify_generic(42, 20)[-1]
    n, blocks = _thm35_draws(42, 6)[5]
    assert report.diff == (
        f"1/20 counterexamples; first: trial 5: Laplacian char poly mismatch "
        f"(n={n}, partition={blocks})"
    )


# ---------------------------------------------------------------------------
# Suites

def _strip_ms(reports):
    return [(r.claim, tuple(sorted(r.params.items())), r.verdict, r.diff) for r in reports]


def test_run_suite_45_all_match():
    reports = run_suite("4.5")
    assert len(reports) == 5
    assert all(r.verdict == MATCH for r in reports)


def test_run_suite_parallel_matches_serial():
    serial = run_suite("4.3", n_range=(3, 8), jobs=1)
    parallel = run_suite("4.3", n_range=(3, 8), jobs=2)
    assert _strip_ms(serial) == _strip_ms(parallel)


def test_run_suite_42_default_excludes_dc_family():
    reports = run_suite("4.2", odd_n=(3, 7))
    assert all(not r.claim.startswith("Sec4.2-Dc") for r in reports)
    assert all(r.verdict == MATCH for r in reports)


def test_suite_family_filters_every_tagged_claim():
    claims = {claim for _, claim, _ in suite_tasks("all", family="Q")}
    assert claims == {"Sec4.1-complete(Q)", "Thm4.1(ii)", "Thm4.2(ii)", "Thm4.4", "generic"}


def test_summary_and_table():
    reports = run_suite("4.4", n_range=(2, 4))
    counts = summarize(reports)
    assert counts == {"match": 2, "mismatch": 0, "paper_table": 1}
    table = format_report_table(reports)
    assert "summary: 2 Match, 0 Mismatch, 1 Mismatch(paper-table)" in table


def test_report_json_shape():
    report = run_suite("4.5")[0]
    data = report.to_json_dict()
    assert set(data) == {"claim", "params", "verdict", "diff", "ms"}
    json.dumps(data)  # serializable


def test_run_suite_all_pins_the_catalogue():
    reports = run_suite("all", odd_n=(3, 9), trials=5, jobs=1)
    assert summarize(reports) == {"match": 67, "mismatch": 0, "paper_table": 12}
    flagged = {
        (r.claim, tuple(r.params.values())) for r in reports if r.verdict == PAPER_TABLE
    }
    assert flagged == (
        {("Sec4.2-Dc-adj", (m,)) for m in (3, 5)}
        | {("Sec4.2-Dc-lap", (m,)) for m in range(2, 7)}
        | {("Thm4.3", (n,)) for n in (6, 10)}
        | {("Thm4.4", (n,)) for n in (3, 5, 7)}
    )
