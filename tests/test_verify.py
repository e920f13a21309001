import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from supergraph import (
    InvalidParameter,
    OutOfRange,
    PolynomialZ,
    SimpleGraph,
    Spectrum,
    SupergraphError,
    commuting_graph,
    complete_graph,
    compressed_graph,
    conjugacy_partition,
    dihedral,
    generalized_join,
    greatest_partition,
    is_connected,
    is_spanning_subgraph,
    least_partition,
    order_partition,
    semidirect_pq,
    super_graph,
)
from supergraph import graphs, polynomials, spectra, verify
from supergraph.verify import (
    MATCH,
    MISMATCH,
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


def test_unknown_family_claim_and_task_kind_raise():
    with pytest.raises(InvalidParameter, match="no group family 'X'"):
        verify.family_group("X", 3)
    with pytest.raises(InvalidParameter, match="unknown spectral claim 'nope'"):
        closed_form("nope")
    with pytest.raises(InvalidParameter, match="unknown task kind 'bogus'"):
        verify.run_claim_task(("bogus", "x", {}))


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


# frozen by bisection (independent of the quotient pipeline); the trace
# identity alpha+beta+gamma = 3 pins them down
D6_CUBIC_ROOTS = (-1.6016791319, 1.3398768866, 3.2618022453)


def test_claim_spectrum_is_the_table_or_the_bracketed_cubic_roots():
    assert verify._claim("Thm4.2(i)").spectrum({"n": 5}) == closed_form("Thm4.2(i)", n=5)
    for name in ("Thm4.1(i)", "Thm4.1(ii)", "Thm4.1(iii)"):
        claim = verify._claim(name)
        for params in claim.points(None, verify.DEFAULT_PQ_PAIRS):
            got = claim.spectrum(params)
            exp = claim.cubic(**params)[1]
            assert got.pairs[1] == (-1.0, exp) and got.total_multiplicity == exp + 3
            roots = [v for v, _ in got.pairs if v != -1.0]
            brackets = claim.brackets(**params)
            assert all(lo < r < hi for r, (lo, hi) in zip(roots, brackets)), (name, params)
    d6 = verify._claim("Thm4.1(i)").spectrum({"n": 3})
    assert [v for v, _ in d6.pairs if v != -1.0] == pytest.approx(D6_CUBIC_ROOTS, abs=1e-9)


def test_a_published_cubic_that_is_not_real_rooted_has_no_spectrum(monkeypatch):
    # x^3 + x + 1 has one real root and two complex ones: no eigenvalues of
    # a symmetric matrix, so the spectrum is refused, not rounded to reals
    monkeypatch.setattr(verify, "_cubic", lambda c0, c1, c2: PolynomialZ((1, 1, 0, 1)))
    with pytest.raises(InvalidParameter, match="is not a real number"):
        verify._claim("Thm4.1(i)").spectrum({"n": 5})


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


def test_a_published_root_bracket_without_a_sign_change_is_a_paper_table_diff(monkeypatch):
    # the cubic's roots at n = 5 lie in (-2, -1), (3, 4) and (5, 6); a third
    # bracket of (10, 11) holds none, though the published poly holds
    claim = verify._claim("Thm4.1(i)")
    planted = dataclasses.replace(
        claim, brackets=lambda n: [(-2, -1), (n - 2, n - 1), (n + 5, n + 6)])
    monkeypatch.setitem(verify._CATALOGUE, claim.name, planted)
    report = verify_spectral(claim.name, [{"n": 5}])[0]
    assert report.verdict == PAPER_TABLE
    assert report.diff == "root bracket sign check failed on [(-2, -1), (3, 4), (10, 11)]"


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
    assert [(r.claim, r.params, r.verdict, r.diff) for r in reports] == [
        (name, {"seed": 42, "trials": 200}, MATCH, None)
        for name in ("Lemma1.2", "Prop3.2", "Thm3.3", "Thm3.4", "Thm3.5")
    ]


# A one-trial reference of the generic suite's draws. A property draws each
# kind of value from its own stream of 32-bit words, w words a trial, and
# trial t reads words [t * w, (t + 1) * w): here one trial at a time, one
# word at a time, on the real vertices only.

def _words(seed, name, kind, t, width):
    data = random.Random(f"{seed}:{name}:{kind}").randbytes(4 * width * (t + 1))
    return [int.from_bytes(data[i:i + 4], "little") for i in range(4 * width * t, len(data), 4)]


def _uniform(word, bound):
    """A uniform draw in 0..bound-1."""
    return word * bound >> 32


def _reference_edges(words, n, p, size):
    """G(n, p): one word per pair i < j of ``size`` vertices, row by row."""
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    return tuple((i, j) for (i, j), w in zip(pairs, words) if j < n and w < int(p * 2**32))


def _reference_blocks(labels):
    """The blocks of a labelling, in order of first appearance."""
    blocks = {}
    for v, label in enumerate(labels):
        blocks.setdefault(label, []).append(v)
    return tuple(map(tuple, blocks.values()))


def _reference_trial(seed, name, t):
    """(n, edges, blocks) of trial t of a property; Prop 3.2 records the
    coarse and the fine blocks, and Lemma 1.2 (k, template edges, parts)."""
    def words(kind, width):
        return _words(seed, name, kind, t, width)

    if name == "Lemma1.2":
        k = 2 + _uniform(words("size", 1)[0], 4)
        template = _reference_edges(words("template", 15), k, 0.5, 6)
        parts = words("parts", 35)
        sizes = [1 + _uniform(parts[i], 4) for i in range(k)]
        return k, template, tuple((s, _reference_edges(parts[5 + 6 * i:], s, 0.4, 4))
                                  for i, s in enumerate(sizes))
    n = 2 + _uniform(words("size", 1)[0], 8)
    if name == "Thm3.5":  # the first connected graph of rounds 0, 1, ...
        rounds = (_reference_edges(words(f"round{r}", 36), n, 0.4, 9) for r in itertools.count())
        edges = next(e for e in rounds if is_connected(SimpleGraph(n, e)))
    else:
        edges = _reference_edges(words("graph", 36), n, 0.4, 9)
    k = 1 + _uniform(words("blocks", 1)[0], n)
    blocks = _reference_blocks([_uniform(w, k) for w in words("labels", 9)[:n]])
    if name != "Prop3.2":
        return n, edges, blocks
    refinement = words("refinement", 18)
    parts = [1 + _uniform(refinement[b], len(block)) for b, block in enumerate(blocks)]
    block_of = {v: b for b, block in enumerate(blocks) for v in block}
    fine = [(block_of[v], _uniform(refinement[9 + v], parts[block_of[v]])) for v in range(n)]
    return n, edges, (blocks, _reference_blocks(fine))


GENERIC_NAMES = ("Lemma1.2", "Prop3.2", "Thm3.3", "Thm3.4", "Thm3.5")


def _reference_records(seed, trials):
    """(property, trial, ...) of every trial, padded as the suite pads them:
    9 vertices past the real ones isolated, each a block of its own, and
    Lemma 1.2's parts past k empty."""
    for name in GENERIC_NAMES:
        for t in range(trials):
            n, edges, blocks = _reference_trial(seed, name, t)
            if name == "Lemma1.2":
                yield (name, t, n, edges, blocks + ((0, ()),) * (5 - n))
                continue
            pads = tuple((v,) for v in range(n, 9))
            blocks = (blocks[0] + pads, blocks[1] + pads) if name == "Prop3.2" else blocks + pads
            yield (name, t, n, edges, blocks)


def _suite_records(seed, trials):
    """The same records from the suite's own samplers."""
    def edges(adj):
        return tuple(SimpleGraph._of(adj).edges())

    for name in GENERIC_NAMES:
        sample, _ = verify._GENERIC_CHECKS[name]
        draws = sample(verify._stream(seed, name, trials))
        for t in range(trials):
            if name == "Lemma1.2":
                k, template, sizes, parts = (d[t] for d in draws)
                yield (name, t, int(k), edges(template),
                       tuple((int(s), edges(p)) for s, p in zip(sizes, parts)))
            else:
                n, adj, *labels = (d[t] for d in draws)
                blocks = tuple(_reference_blocks(row.tolist()) for row in labels)
                yield (name, t, int(n), edges(adj), blocks if name == "Prop3.2" else blocks[0])


def _digest(records):
    return hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()


# Of the records of verify_generic(42, 200), drawn by the one-trial reference.
GENERIC_DRAWS_SHA256 = "7817080a8a3a0368091196eb6968b1a88a128fb8ce40ba97b369db8eba183114"


def test_generic_draws_are_pinned():
    assert _digest(_reference_records(42, 200)) == GENERIC_DRAWS_SHA256
    assert _digest(_suite_records(42, 200)) == GENERIC_DRAWS_SHA256


def test_generic_draws_of_a_trial_do_not_depend_on_the_trial_count():
    records = list(_suite_records(42, 200))
    few = list(_suite_records(42, 40))
    assert few == [r for r in records if r[1] < 40] and len(few) == 5 * 40


def _thm35_draws(seed, trials):
    """The (n, partition blocks) of each Thm 3.5 trial, by the one-trial
    reference."""
    return [_reference_trial(seed, "Thm3.5", t)[::2] for t in range(trials)]


def test_thm35_sampler_exhaustion_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(verify, "_connected", lambda adj, counts=None: np.zeros(len(adj), bool))
    message = "^Thm3.5 sampler drew no connected graph for trial 0 in 10000 rounds$"
    with pytest.raises(SupergraphError, match=message):
        verify_generic(42, 2)


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


# A defect planted in one graph kernel reaches the public functions and the
# generic suite alike. Each failing property's (count, first trial, problem)
# in verify_generic(42, 200) is that of a one-trial suite on the reference
# draws above, which checks each trial by the public functions with the same
# defect planted.
PLANTED_DEFECTS = [
    (
        "lift drops same-block edges", "_lift",
        lambda cross, block_of: graphs._clear_diagonal(graphs._pairs(cross, block_of)),
        lambda: super_graph(SimpleGraph(2), greatest_partition(2)).edge_count == 1,
        {
            "Prop3.2": (79, 1, "containment fails for n=7, fine=((0, 4), (1,), (2,), (3,), "
                        "(5,), (6,)), coarse=((0, 4, 6), (1,), (2,), (3,), (5,))"),
            "Thm3.3": (188, 0, "edge sets differ for n=7, partition=((0, 1, 2, 3, 4, 5, 6),)"),
            "Thm3.5": (195, 0, "adjacency char poly mismatch "
                        "(n=8, partition=((0, 1, 2, 3, 4, 5, 6, 7),))"),
        },
    ),
    (
        "join drops part edges", "_join",
        lambda template, owner, inner: graphs._pairs(template, owner),
        lambda: generalized_join(complete_graph(1), [complete_graph(2)]).edge_count == 1,
        {
            "Thm3.3": (188, 0, "edge sets differ for n=7, partition=((0, 1, 2, 3, 4, 5, 6),)"),
        },
    ),
    (
        "reach follows one edge", "_reach",
        lambda adj, seeds: seeds | (adj & seeds[:, :, None]).any(axis=1),
        lambda: is_connected(SimpleGraph(3, [(0, 2), (1, 2)])),
        {
            "Lemma1.2": (27, 3, "connectivity equivalence fails for k=5"),
            "Thm3.4": (2, 27, "compressed+blocks connected but graph disconnected (n=5)"),
        },
    ),
    (
        "containment reversed", "_contained",
        lambda sub, sup, real=graphs._contained: real(sup, sub),
        lambda: is_spanning_subgraph(SimpleGraph(2), complete_graph(2)),
        {
            "Prop3.2": (69, 1, "containment fails for n=7, fine=((0, 4), (1,), (2,), (3,), "
                        "(5,), (6,)), coarse=((0, 4, 6), (1,), (2,), (3,), (5,))"),
            "Thm3.3": (180, 0, "original graph not spanning subgraph of super graph for n=7"),
        },
    ),
    (
        "cross adjacency one way", "_block_cross",
        lambda adj, block_of, k, real=graphs._block_cross: np.triu(real(adj, block_of, k), 1),
        lambda: compressed_graph(complete_graph(2), least_partition(2)) == complete_graph(2),
        {
            "Prop3.2": (184, 0, "super graph over the identity relation is not the graph "
                        "itself"),
            "Thm3.3": (137, 1, "original graph not spanning subgraph of super graph for n=7"),
            "Thm3.4": (5, 3, "graph connected but compressed graph disconnected (n=6)"),
        },
    ),
]


@pytest.mark.parametrize("defect, kernel, planted, public, failing", PLANTED_DEFECTS,
                         ids=[d[0] for d in PLANTED_DEFECTS])
def test_a_defect_planted_in_a_graph_kernel_fails_the_generic_suite(
        monkeypatch, defect, kernel, planted, public, failing):
    assert public()
    for module in (graphs, spectra, verify):
        if hasattr(module, kernel):
            monkeypatch.setattr(module, kernel, planted)
    assert not public()
    expected = [
        (name, "Match", None) if name not in failing else
        (name, "Mismatch", "%d/200 counterexamples; first: trial %d: %s" % failing[name])
        for name in ("Lemma1.2", "Prop3.2", "Thm3.3", "Thm3.4", "Thm3.5")
    ]
    assert [(r.claim, r.verdict, r.diff) for r in verify_generic(42, 200)] == expected


def _problem(text, built):
    """A problem callable of the trial that notes each trial it is built for."""
    def problem(t):
        built.append((text, t))
        return f"{text} at trial {t}"
    return problem


def test_record_keeps_the_earlier_check_and_outcome_builds_the_first_problem():
    built = []
    failed = {}
    verify._record(failed, np.array([False, False, True, True]), _problem("first", built))
    verify._record(failed, [False, True, True, False], _problem("second", built))
    assert sorted(failed) == [1, 2, 3] and not built
    # trials come back sorted, and only trial 1's problem, that of the later check, is built
    assert verify._outcome(failed) == ([1, 2, 3], "second at trial 1")
    assert built == [("second", 1)]

    built.clear()
    failed = {}
    verify._record(failed, [False, True, False], _problem("first", built))
    verify._record(failed, [False, True, True], _problem("second", built))
    # trial 1 failed both checks: the earlier check's problem is kept
    assert verify._outcome(failed) == ([1, 2], "first at trial 1")
    assert built == [("first", 1)]
    assert verify._outcome({}) == ([], None)


def test_generic_seed_is_read_by_the_integer_rule():
    expected = _strip_ms(verify_generic(1, 5))
    for seed in (1.0, np.int64(1), True):
        reports = verify_generic(seed, 5)
        assert _strip_ms(reports) == expected
        assert all(type(r.params["seed"]) is int for r in reports)
    tasks = suite_tasks("generic", seed=np.int64(1), trials=5)
    assert tasks == [("generic", "generic", {"seed": 1, "trials": 5})]
    assert type(tasks[0][2]["seed"]) is int
    for seed in ("abc", 1.5, [1], None):
        with pytest.raises(InvalidParameter, match="^seed .* is not an integer$"):
            verify_generic(seed, 5)
        with pytest.raises(InvalidParameter, match="^seed .* is not an integer$"):
            suite_tasks("all", seed=seed)


def test_generic_seed_draws_as_its_integer(monkeypatch):
    calls = _recording_super_charpolys(monkeypatch)
    verify_generic(1.0, 5)  # drawn from the streams "1:Thm3.5:...", not "1.0:Thm3.5:..."
    assert calls[0] == ("adjacency", _thm35_draws(1, 5))

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


def test_worker_pool_leaves_the_environment_as_it_was(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    run_suite("4.5", pq_pairs=[(3, 2), (5, 2)], jobs=2)
    assert dict(os.environ) == before


def test_a_run_leaves_numpy_random_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from supergraph.verify import run_suite; run_suite('all', trials=5); "
         "print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_suite_refuses_a_family_tag_no_claim_carries():
    for family in ("Z", "d", "cayley", ""):
        with pytest.raises(InvalidParameter, match=f"family tag {family!r}"):
            suite_tasks("all", family=family)
    with pytest.raises(InvalidParameter, match="family tag 'Z'"):
        run_suite("generic", family="Z")
    for family in ("D", "Q", "PQ", "Dc"):
        assert {claim for _, claim, _ in suite_tasks("all", family=family)} > {"generic"}


# Of (claim, sorted params, verdict, diff) of every report of
# run_suite("all", seed=42), one repr per line.
CATALOGUE_SEED_42_SHA256 = "2b1b930bdaad2d44c03feccb8fcde43bcc760af1f07377301729bffa79904a14"


def test_seed_42_catalogue_report_is_pinned():
    reports = run_suite("all", seed=42)
    assert summarize(reports) == {"match": 88, "mismatch": 0, "paper_table": 12}
    records = [(r.claim, sorted(r.params.items()), r.verdict, r.diff) for r in reports]
    assert _digest(records) == CATALOGUE_SEED_42_SHA256


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


# One run builds each group and super graph once and shares it between the
# claims that ask for it; nothing it built outlives it.

def _counting_family_builders(monkeypatch):
    built = []
    for name in ("dihedral", "generalized_quaternion", "semidirect_pq"):
        def counted(*args, build=getattr(verify, name), name=name):
            built.append((name, *args))
            return build(*args)

        monkeypatch.setattr(verify, name, counted)
    return built


def test_a_run_shares_each_build_and_reports_what_each_task_reports_alone():
    shared = run_suite("all", seed=42)
    alone = [r for task in suite_tasks("all", seed=42) for r in verify.run_claim_task(task)]
    alone.sort(key=lambda r: (r.claim, sorted(r.params.items())))
    assert _strip_ms(shared) == _strip_ms(alone)
    assert summarize(shared) == {"match": 88, "mismatch": 0, "paper_table": 12}


def test_each_run_builds_each_group_once_and_keeps_nothing(monkeypatch):
    built = _counting_family_builders(monkeypatch)
    run_suite("all", seed=42)
    assert len(built) == len(set(built)) == 35  # Dc m is D 2m: one dihedral(2m)
    assert verify._built is None
    run_suite("all", seed=42)
    assert len(built) == 70 and set(built[35:]) == set(built[:35])
    verify.family_group("D", 3)
    verify.family_group("D", 3)  # outside a run, every call builds
    assert built[70:] == [("dihedral", 3)] * 2


def test_a_failing_task_closes_the_runs_build_table(monkeypatch):
    def failing(task):
        verify.family_group("Q", 3)
        raise InvalidParameter("planted")

    monkeypatch.setattr(verify, "run_claim_task", failing)
    with pytest.raises(InvalidParameter, match="planted"):
        run_suite("4.5")
    assert verify._built is None


def _laplacian_clique_plus_one(monkeypatch):
    quotients = spectra._quotients

    def planted(cases, t):
        out = quotients(cases, t)
        return [(c, s, [(v + t, m) for v, m in cliques]) for c, s, cliques in out]

    monkeypatch.setattr(spectra, "_quotients", planted)


def _adjacency_quotient_diagonal_plus_one(monkeypatch):
    quotients = spectra._quotients

    def planted(cases, t):
        out = quotients(cases, t)
        if t:
            return out
        return [(c + np.eye(len(c), dtype=np.int64), s + np.eye(len(s)), cliques)
                for c, s, cliques in out]

    monkeypatch.setattr(spectra, "_quotients", planted)


def _adjacency_companion_diagonal_plus_one(monkeypatch):
    # the int64 companion alone: the float symmetric quotient stays right,
    # so only the exact routes can see it
    quotients = spectra._quotients

    def planted(cases, t):
        out = quotients(cases, t)
        if t:
            return out
        return [(c + np.eye(len(c), dtype=np.int64), s, cliques) for c, s, cliques in out]

    monkeypatch.setattr(spectra, "_quotients", planted)


def _non_twin_classes_merged(monkeypatch):
    # the last closed-twin class of each compressed graph with two or more
    # folded into the one before it, which is never its closed twin
    classes = spectra._closed_twin_classes

    def planted(rho, n):
        rho, n = classes(rho, n)
        for c, last in enumerate(np.count_nonzero(n, axis=1) - 1):
            if last:
                n[c, last - 1] += n[c, last]
                n[c, last] = 0
        return rho, n

    monkeypatch.setattr(spectra, "_closed_twin_classes", planted)


def _explicit_laplacian_corner_plus_one(monkeypatch):
    laplacian = SimpleGraph.laplacian_matrix

    def planted(self):
        out = laplacian(self)
        out[0, 0] += 1
        return out

    monkeypatch.setattr(SimpleGraph, "laplacian_matrix", planted)


def _lapack_top_eigenvalue_up(monkeypatch):
    jacobi = verify.jacobi_eigenvalues

    def planted(matrix):
        *rest, (top, mult) = jacobi(matrix).pairs
        return Spectrum([*rest, (top + 1e-6, mult)])

    monkeypatch.setattr(verify, "jacobi_eigenvalues", planted)


def _exact_finish_coefficient_off(monkeypatch):
    split = polynomials._split_char_poly

    def planted(h):
        low, *rest = split(h).coeffs
        return PolynomialZ((low + 1, *rest))

    monkeypatch.setattr(polynomials, "_split_char_poly", planted)


def _clique_factor_low_coefficient_off(monkeypatch):
    # PolynomialZ.from_roots builds the quotient route's clique factors; the
    # explicit matrix's exact char poly never calls it
    from_roots = PolynomialZ.from_roots.__func__

    def planted(cls, roots):
        low, *rest = from_roots(cls, roots).coeffs
        return cls((low + 1, *rest))

    monkeypatch.setattr(PolynomialZ, "from_roots", classmethod(planted))


@pytest.fixture(scope="module")
def seed_42_verdicts():
    return _verdicts(run_suite("all", seed=42))


def _verdicts(reports):
    return {(r.claim, tuple(sorted(r.params.items()))): r.verdict for r in reports}


# One fault per layer that a route owns. Each must be seen, and every
# verdict it changes must read Mismatch: a planted fault that turned a Match
# into Mismatch(paper-table) would blame the paper for the program.
@pytest.mark.parametrize("plant", [_laplacian_clique_plus_one,
                                   _adjacency_quotient_diagonal_plus_one,
                                   _adjacency_companion_diagonal_plus_one,
                                   _non_twin_classes_merged,
                                   _explicit_laplacian_corner_plus_one,
                                   _lapack_top_eigenvalue_up,
                                   _exact_finish_coefficient_off,
                                   _clique_factor_low_coefficient_off])
def test_a_planted_fault_reads_mismatch(plant, monkeypatch, seed_42_verdicts):
    plant(monkeypatch)
    planted = _verdicts(run_suite("all", seed=42))
    assert planted.keys() == seed_42_verdicts.keys()
    changed = {k: v for k, v in planted.items() if v != seed_42_verdicts[k]}
    assert changed
    assert set(changed.values()) == {MISMATCH}
    assert not any(seed_42_verdicts[k] == MATCH and v == PAPER_TABLE for k, v in planted.items())


@pytest.mark.parametrize("plant, diff", [
    (_adjacency_companion_diagonal_plus_one, verify._INTERNAL_EXACT),
    (_lapack_top_eigenvalue_up, verify._INTERNAL_LAPACK),
])
def test_an_internal_mismatch_names_the_explicit_route(plant, diff, monkeypatch):
    plant(monkeypatch)
    [report] = verify_spectral("Thm4.1(i)", [{"n": 5}])
    assert (report.verdict, report.diff) == (MISMATCH, diff)


@pytest.mark.parametrize("claim, params", [("Thm4.1(i)", {"n": 5}), ("Thm4.2(i)", {"n": 5}),
                                           ("Sec4.2-Dc-adj", {"m": 3})])
def test_verify_runs_every_route_once_at_every_point(claim, params, monkeypatch):
    calls = Counter()

    def counting(module, name):
        def counted(*args, _fn=getattr(module, name)):
            calls[name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)

    counting(verify, "char_poly_integer")  # where verify binds the explicit routes
    counting(verify, "jacobi_eigenvalues")
    counting(spectra, "_quotients")
    [report] = verify_spectral(claim, [params])
    assert report.verdict in (MATCH, PAPER_TABLE)
    assert calls == {"char_poly_integer": 1, "jacobi_eigenvalues": 1, "_quotients": 1}


def test_run_suite_all_parallel_matches_serial_in_order():
    assert _strip_ms(run_suite("all", seed=42, jobs=2)) == _strip_ms(run_suite("all", seed=42))


def test_a_shuffled_task_order_gives_the_same_reports(monkeypatch):
    serial = run_suite("all", seed=42)
    tasks = verify.suite_tasks

    def shuffled(*args, **kwargs):  # as the benchmark reorders a pass's tasks
        order = tasks(*args, **kwargs)
        random.Random(3).shuffle(order)
        return order

    monkeypatch.setattr(verify, "suite_tasks", shuffled)
    assert _strip_ms(run_suite("all", seed=42)) == _strip_ms(serial)


def test_a_run_drops_each_build_after_the_last_task_that_reads_it(monkeypatch):
    tasks, run, order, held = verify.suite_tasks, verify.run_claim_task, [], []

    def shuffled(*args, **kwargs):
        out = tasks(*args, **kwargs)
        random.Random(5).shuffle(out)
        return out

    def holding(task):
        order.append(task)
        held.append(set(verify._built))
        return run(task)

    monkeypatch.setattr(verify, "suite_tasks", shuffled)
    monkeypatch.setattr(verify, "run_claim_task", holding)
    run_suite("all", seed=42)
    for i, keys in enumerate(held):  # (_super_of, relation, *group call)
        supers = {key for _, name, params in order[i:] if name in verify._CATALOGUE
                  for key in verify._CATALOGUE[name].supers(params)}
        groups = {key[2:] for key in supers - keys}  # still to build from their group
        assert keys <= supers | groups
    assert any(held)  # what a later task reads is kept
    held.clear()
    run_suite("4.1", odd_n=(3, 41))  # no two tasks of suite 4.1 read one group
    assert held and not any(held)
