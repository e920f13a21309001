import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from supergraph import FormatError, dihedral, direct_product, write_cayley_file
from supergraph.cli import GroupSpec, main, parse_group_spec


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_parse_group_spec():
    assert parse_group_spec("D:3") == GroupSpec("D", (3,))
    assert parse_group_spec("PQ:7,3") == GroupSpec("PQ", (7, 3))
    assert parse_group_spec("cayley:some/table.txt") == GroupSpec(
        "cayley", path="some/table.txt"
    )
    with pytest.raises(FormatError, match="position"):
        parse_group_spec("D:x")
    with pytest.raises(FormatError):
        parse_group_spec("X:3")
    with pytest.raises(FormatError):
        parse_group_spec("D3")
    with pytest.raises(FormatError):
        parse_group_spec("PQ:7")
    with pytest.raises(FormatError, match="D needs exactly one parameter"):
        parse_group_spec("D:3,4")


def test_graph_command_json(in_tmp, capsys):
    assert main(["graph", "--group", "D:3", "--relation", "order", "--out", "json"]) == 0
    out = capsys.readouterr().out
    assert "6 vertices, 9 edges" in out
    assert "K_{1,2}[K_1, K_2, K_3]" in out
    assert "block sizes (1, 2, 3)" in out
    data = json.loads((in_tmp / "D3-order.json").read_text())
    assert data["n"] == 6
    assert len(data["edges"]) == 9
    assert data["labels"][0] == "e"


def test_graph_command_complete_even_case(in_tmp, capsys):
    assert main(["graph", "--group", "D:4", "--relation", "order"]) == 0
    assert "K_8" in capsys.readouterr().out


def test_graph_command_dot(in_tmp, capsys):
    assert main(["graph", "--group", "Q:2", "--relation", "conjugacy",
                 "--out", "dot", "--output", "q8.dot"]) == 0
    out = capsys.readouterr().out
    assert "block sizes (2, 2, 2, 2)" in out
    text = (in_tmp / "q8.dot").read_text()
    assert text.startswith("graph G {")
    assert '0 [label="e"];' in text


def test_graph_command_relation_file(in_tmp, capsys):
    (in_tmp / "part.json").write_text(
        json.dumps({"n": 6, "blocks": [[0], [1, 2], [3, 4, 5]]})
    )
    assert main(["graph", "--group", "D:3", "--relation", "file:part.json"]) == 0
    assert "9 edges" in capsys.readouterr().out


def test_graph_command_malformed_relation_file(in_tmp, capsys):
    for bad in (
        {"n": "x", "blocks": []},
        {"n": 6, "blocks": 5},
        [1, 2],
        {"n": 6, "blocks": [[0, 1, 2], [3, 4, 5.5]]},
    ):
        (in_tmp / "part.json").write_text(json.dumps(bad))
        assert main(["graph", "--group", "D:3", "--relation", "file:part.json"]) == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in in_tmp.iterdir()) == ["part.json"]


def test_graph_command_cayley_group(in_tmp, capsys):
    write_cayley_file(dihedral(3), in_tmp / "d6.txt")
    assert main(["graph", "--group", "cayley:d6.txt", "--relation", "conjugacy"]) == 0
    assert "6 vertices" in capsys.readouterr().out


def test_graph_command_commuting_graph_of_d18(in_tmp, capsys):
    # nine reflections, each its own twin class with the same quotient row:
    # one run for the canonical-form tie-break, not 9! orderings
    assert main(["graph", "--group", "D:9"]) == 0
    assert "K_{1,10}[K_1, " in capsys.readouterr().out
    assert json.loads((in_tmp / "D9-none.json").read_text())["n"] == 18


def test_graph_command_failure_writes_no_file(in_tmp, capsys):
    # the commuting graph of D8 x D6 has too many tie-break orderings for the
    # canonical form, so the command fails; it must fail before writing
    write_cayley_file(direct_product(dihedral(4), dihedral(3)), in_tmp / "d8d6.txt")
    assert main(["graph", "--group", "cayley:d8d6.txt", "--relation", "none"]) == 1
    assert "orderings" in capsys.readouterr().err
    assert sorted(p.name for p in in_tmp.iterdir()) == ["d8d6.txt"]


def test_graph_command_rejects_an_unknown_relation(in_tmp, capsys):
    assert main(["graph", "--group", "D:3", "--relation", "bogus"]) == 1
    assert capsys.readouterr().err.strip() == 'error: unknown relation "bogus"'
    assert list(in_tmp.iterdir()) == []


def test_spectrum_closed_laplacian_csv(in_tmp, capsys):
    assert main([
        "spectrum", "--group", "D:3", "--relation", "order", "--matrix",
        "laplacian", "--method", "closed", "--out", "csv",
    ]) == 0
    text = (in_tmp / "D3-order-laplacian-closed.csv").read_text()
    assert text == "value,multiplicity\n0,1\n1,1\n3,1\n4,2\n6,1\n"


def test_spectrum_quotient_poly_json(in_tmp, capsys):
    assert main([
        "spectrum", "--group", "D:3", "--relation", "order", "--matrix",
        "laplacian", "--method", "quotient", "--output", "p.json",
    ]) == 0
    coeffs = [int(c) for c in json.loads((in_tmp / "p.json").read_text())["coeffs"]]
    # x(x-6)(x-1)(x-4)^2(x-3)
    from supergraph import PolynomialZ

    assert PolynomialZ(coeffs) == PolynomialZ.from_roots(
        [(0, 1), (6, 1), (1, 1), (4, 2), (3, 1)]
    )


def test_spectrum_closed_pq(in_tmp, capsys):
    assert main([
        "spectrum", "--group", "PQ:7,3", "--relation", "order", "--matrix",
        "laplacian", "--method", "closed", "--out", "csv", "--output", "pq.csv",
    ]) == 0
    body = (in_tmp / "pq.csv").read_text().splitlines()
    assert body[1:] == ["0,1", "1,1", "7,5", "15,13", "21,1"]


def test_spectrum_compare_agrees(in_tmp, capsys):
    code = main([
        "spectrum", "--group", "Q:3", "--relation", "order", "--matrix",
        "adjacency", "--method", "jacobi", "--compare",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "DISAGREE" not in out
    assert "compare:" in out


def test_spectrum_compare_skips_out_of_range_closed_form(in_tmp, capsys):
    for group in ("D:4", "Q:4"):
        code = main([
            "spectrum", "--group", group, "--relation", "order", "--matrix",
            "adjacency", "--method", "quotient", "--compare",
        ])
        assert code == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("compare:")]
        assert len(lines) == 2
        assert all(ln.endswith(": agree") for ln in lines)
    assert main([
        "spectrum", "--group", "D:4", "--relation", "order", "--method", "closed",
    ]) == 1


def test_spectrum_compare_runs_each_route_once(in_tmp, monkeypatch):
    import numpy as np

    from supergraph import spectra, verify

    calls = {"char_poly_integer": 0, "jacobi_eigenvalues": 0, "roots": 0, "_quotients": 0}
    modules = {"_quotients": spectra, "roots": np}  # the module that binds the route
    for name in calls:
        module = modules.get(name, verify)

        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    runs = [("laplacian", method) for method in ("exact", "jacobi", "quotient", "closed")]
    for matrix, method in runs + [("adjacency", "closed")]:  # a cubic: its roots found once
        calls.update(char_poly_integer=0, jacobi_eigenvalues=0, roots=0, _quotients=0)
        assert main([
            "spectrum", "--group", "D:5", "--relation", "order", "--matrix",
            matrix, "--method", method, "--compare",
        ]) == 0
        assert calls == {
            "char_poly_integer": 1, "jacobi_eigenvalues": 1, "roots": int(matrix == "adjacency"),
            "_quotients": 1,
        }, (matrix, method)


def test_spectrum_closed_refuses_a_cubic_that_is_not_real_rooted(in_tmp, capsys, monkeypatch):
    from supergraph import PolynomialZ, verify

    monkeypatch.setattr(verify, "_cubic", lambda c0, c1, c2: PolynomialZ((1, 1, 0, 1)))
    assert main([
        "spectrum", "--group", "D:5", "--relation", "order", "--method", "closed",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: eigenvalue") and "is not a real number" in err
    assert "Traceback" not in err
    assert not list(in_tmp.iterdir())  # no file written


def test_spectrum_compare_judges_the_published_form_without_lapack(in_tmp, capsys,
                                                                     monkeypatch):
    from supergraph import Spectrum, verify

    def shifted(matrix, _fn=verify.jacobi_eigenvalues):  # the top eigenvalue off by 1e-6
        *rest, (value, mult) = _fn(matrix).pairs
        return Spectrum([*rest, (value + 1e-6, mult)])

    monkeypatch.setattr(verify, "jacobi_eigenvalues", shifted)
    assert main([
        "spectrum", "--group", "D:5", "--relation", "order", "--matrix",
        "laplacian", "--method", "quotient", "--compare",
    ]) == 2
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("compare:")]
    assert lines == [
        "compare: exact == quotient (char poly): agree",
        "compare: jacobi ~ quotient spectrum (1e-08): DISAGREE",
        "compare: jacobi ~ closed form (1e-08): agree",
    ]
    report = verify.verify_spectral("Thm4.2(i)", [{"n": 5}])[0]
    assert (report.verdict, report.diff) == (verify.MISMATCH, verify._INTERNAL_LAPACK)


def test_spectrum_compare_judges_the_closed_form_as_verify_does(in_tmp, capsys, monkeypatch):
    from supergraph import Spectrum, verify

    claim = verify._claim("Thm4.2(i)")
    # one eigenvalue moved from n to 1: the same total, a wrong table
    wrong = dataclasses.replace(claim, closed=lambda n: Spectrum(
        [(0, 1), (1, 2), (n, n - 3), (n + 1, n - 1), (2 * n, 1)]
    ))
    monkeypatch.setattr(verify, "CLAIMS", tuple(wrong if c is claim else c for c in verify.CLAIMS))
    monkeypatch.setitem(verify._CATALOGUE, claim.name, wrong)
    assert main([
        "spectrum", "--group", "D:5", "--relation", "order", "--matrix",
        "laplacian", "--method", "quotient", "--compare",
    ]) == 2
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("compare:")]
    assert lines == [
        "compare: exact == quotient (char poly): agree",
        "compare: jacobi ~ quotient spectrum (1e-08): agree",
        "compare: jacobi ~ closed form (1e-08): DISAGREE",
    ]
    report = verify.verify_spectral("Thm4.2(i)", [{"n": 5}])[0]
    assert report.verdict == verify.PAPER_TABLE
    assert report.diff == (
        "eigenvalue 1: table multiplicity 2, computed 1; "
        "eigenvalue 5: table multiplicity 2, computed 3"
    )


def _cli_spectral_points():
    """(claim, relation, params) for every spectral claim the CLI reaches, under
    each of its relations, at its first three default points."""
    from supergraph import verify

    return [
        (claim, relation, params)
        for claim in verify.CLAIMS
        if claim.kind == "spectral" and claim.family != "Dc"
        for relation in claim.relations
        for params in claim.points(None, verify.DEFAULT_PQ_PAIRS)[:3]
    ]


def _point_id(value) -> str:
    if isinstance(value, dict):
        return ",".join(f"{k}={v}" for k, v in value.items())
    return getattr(value, "name", value)


@pytest.mark.parametrize("claim, relation, params", _cli_spectral_points(), ids=_point_id)
def test_spectrum_compare_prints_the_checks_verify_judges(in_tmp, capsys, claim, relation,
                                                           params):
    from supergraph import verify
    from supergraph.graphs import commuting_graph, super_graph
    from supergraph.partitions import relation_partition

    group = verify.family_group(claim.family, *params.values())
    base, part = commuting_graph(group), relation_partition(group, relation)
    point = verify.SpectralPoint(base, part, super_graph(base, part), claim.matrix)
    expected = [f"compare: {label}: {'agree' if problem is None else 'DISAGREE'}"
                for label, problem in point.checks(claim, params)]
    code = main([
        "spectrum", "--group", f"{claim.family}:{','.join(map(str, params.values()))}",
        "--relation", relation, "--matrix", claim.matrix, "--method", "quotient", "--compare",
    ])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("compare:")]
    assert lines == expected and len(lines) == 3
    verdict = verify.verify_spectral(claim.name, [params])[0].verdict
    assert (code == 2) == (verdict != verify.MATCH) and code in (0, 2)


def test_spectrum_closed_unsupported(in_tmp, capsys):
    code = main([
        "spectrum", "--group", "Q:2", "--relation", "conjugacy", "--matrix",
        "adjacency", "--method", "closed",
    ])
    assert code == 1
    assert "no closed form" in capsys.readouterr().err


def test_spectrum_refuses_a_char_poly_beyond_the_int_to_str_limit(in_tmp, capsys):
    # the D_1600 conjugacy Laplacian has a coefficient of 14,613 bits, more
    # than 4,300 decimal digits; D_1400's largest has fewer
    assert main([
        "spectrum", "--group", "D:800", "--relation", "conjugacy", "--matrix", "laplacian",
        "--method", "quotient",
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"limit of {sys.get_int_max_str_digits()} " in err
    assert "Traceback" not in err
    assert not list(in_tmp.iterdir())  # no partial file


def test_spectrum_exact_csv_lists_every_coefficient(in_tmp, capsys):
    assert main(["spectrum", "--group", "D:3", "--relation", "order", "--method", "exact",
                 "--out", "csv", "--output", "p.csv"]) == 0
    # x^6 - 9x^4 - 10x^3 + 9x^2 + 18x + 7, the D_6 order adjacency
    assert (in_tmp / "p.csv").read_text() == (
        "degree,coefficient\n0,7\n1,18\n2,9\n3,-10\n4,-9\n5,0\n6,1\n")


def test_spectrum_jacobi_csv_writes_floats_to_12_digits(in_tmp, capsys):
    # the D_6 order adjacency: -1 thrice and the three irrational roots of a cubic
    args = ["spectrum", "--group", "D:3", "--relation", "order", "--method", "jacobi"]
    assert main(args + ["--out", "csv", "--output", "s.csv"]) == 0
    assert main(args + ["--output", "s.json"]) == 0
    pairs = [(e["value"], e["multiplicity"])
             for e in json.loads((in_tmp / "s.json").read_text())["eigenvalues"]]
    lines = (in_tmp / "s.csv").read_text().splitlines()
    assert lines[0] == "value,multiplicity"
    assert lines[1:] == [f"{v:.12g},{m}" for v, m in pairs]
    assert lines[1:] == ["-1.60167913188,1", "-1,3", "1.33987688662,1", "3.26180224526,1"]


def test_spectrum_multiplicities_sum_to_vertex_count(in_tmp):
    for group, order in (("D:4", 8), ("Q:3", 12), ("PQ:5,2", 10)):
        assert main([
            "spectrum", "--group", group, "--relation", "conjugacy", "--matrix",
            "laplacian", "--method", "jacobi", "--output", "s.json",
        ]) == 0
        data = json.loads((in_tmp / "s.json").read_text())
        assert sum(e["multiplicity"] for e in data["eigenvalues"]) == order


def test_spectrum_outputs_byte_identical(in_tmp):
    args = [
        "spectrum", "--group", "D:5", "--relation", "order", "--matrix",
        "laplacian", "--method", "jacobi",
    ]
    assert main(args + ["--output", "a.json"]) == 0
    assert main(args + ["--output", "b.json"]) == 0
    assert (in_tmp / "a.json").read_bytes() == (in_tmp / "b.json").read_bytes()


def test_verify_cli_green_suite(in_tmp, capsys):
    code = main(["verify", "--suite", "4.5", "--report", "r.json", "--jobs", "1"])
    assert code == 0
    data = json.loads((in_tmp / "r.json").read_text())
    assert data["summary"] == {"match": 5, "mismatch": 0, "paper_table": 0}
    for entry in data["reports"]:
        assert set(entry) == {"claim", "params", "verdict", "diff", "ms"}


def test_verify_cli_writes_no_report_without_flag(in_tmp, capsys):
    assert main(["verify", "--suite", "4.5", "--jobs", "1"]) == 0
    assert list(in_tmp.iterdir()) == []
    assert "wrote" not in capsys.readouterr().out


def test_verify_cli_strict_flips_exit_code(in_tmp):
    base = ["verify", "--suite", "4.4", "--n", "2..4", "--jobs", "1"]
    assert main(base + ["--report", "r1.json"]) == 0
    assert main(base + ["--strict", "--report", "r2.json"]) == 2


def test_verify_cli_rejects_reversed_range(in_tmp, capsys):
    for args in (["--suite", "4.1", "--odd-n", "9..3"], ["--suite", "4.3", "--n", "12..3"]):
        assert main(["verify", *args, "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert f'range "{args[-1]}"' in err


def test_verify_cli_rejects_malformed_ranges_and_pairs(in_tmp, capsys):
    for args, message in ((["--suite", "4.3", "--n", "5"], 'range "5": expected LO..HI'),
                          (["--suite", "4.3", "--n", "a..b"],
                           'range "a..b": bounds must be integers'),
                          (["--suite", "4.1", "--pq", "7"], 'pq pair "7": expected P,Q'),
                          (["--suite", "4.1", "--pq", "7,x"],
                           'pq pair "7,x": values must be integers')):
        assert main(["verify", *args, "--jobs", "1", "--report", "r.json"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", args
    assert list(in_tmp.iterdir()) == []


def test_verify_cli_reads_pq_pairs(in_tmp, capsys):
    assert main(["verify", "--suite", "4.1", "--family", "PQ", "--pq", "7,3", "--pq", "5,2",
                 "--jobs", "1", "--report", "r.json"]) == 0
    data = json.loads((in_tmp / "r.json").read_text())
    assert [(e["claim"], e["params"], e["verdict"]) for e in data["reports"]] == [
        ("Thm4.1(iii)", {"p": 5, "q": 2}, "Match"), ("Thm4.1(iii)", {"p": 7, "q": 3}, "Match")]


def test_verify_cli_exits_2_on_an_internal_mismatch(in_tmp, capsys, monkeypatch):
    # every Laplacian clique root of the quotient route moved by one: the
    # explicit exact char poly disagrees with it at every Thm 4.2(i) point
    from supergraph import spectra

    quotients = spectra._quotients

    def planted(cases, t):
        return [(c, s, [(v + t, m) for v, m in cliques]) for c, s, cliques in quotients(cases, t)]

    monkeypatch.setattr(spectra, "_quotients", planted)
    assert main(["verify", "--suite", "4.2", "--family", "D", "--odd-n", "3..5", "--jobs", "1",
                 "--report", "r.json"]) == 2
    data = json.loads((in_tmp / "r.json").read_text())
    assert data["summary"] == {"match": 0, "mismatch": 2, "paper_table": 0}
    assert "Mismatch" in capsys.readouterr().out


def test_verify_cli_deterministic_modulo_ms(in_tmp):
    args = ["verify", "--suite", "generic", "--trials", "25", "--seed", "42", "--jobs", "1"]
    assert main(args + ["--report", "r1.json"]) == 0
    assert main(args + ["--report", "r2.json"]) == 0

    def strip(path):
        data = json.loads((in_tmp / path).read_text())
        for entry in data["reports"]:
            entry.pop("ms")
        return data

    assert strip("r1.json") == strip("r2.json")


def test_verify_cli_rejects_bad_worker_counts(in_tmp, capsys):
    assert main(["verify", "--suite", "4.5", "--report", "r.json", "--jobs", "0"]) == 1
    assert 'jobs "0": expected an integer >= 1' in capsys.readouterr().err
    assert not (in_tmp / "r.json").exists()


def test_usage_error_exit_code():
    assert main(["graph"]) == 1  # missing required --group
    assert main(["verify", "--suite", "nope"]) == 1


def test_in_process_calls_share_one_parser_and_no_state(in_tmp, capsys, monkeypatch):
    from supergraph import cli

    cli._build_parser.cache_clear()
    spectrum = ["spectrum", "--group", "D:3", "--relation", "order", "--output", "s.json"]

    def spectrum_call():
        assert main(spectrum) == 0
        return capsys.readouterr().out, (in_tmp / "s.json").read_bytes()

    before = spectrum_call()
    assert main(["--help"]) == 0
    assert "usage: supergraph" in capsys.readouterr().out
    assert spectrum_call() == before
    assert main(["spectrum"]) == 1  # no --group
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: supergraph spectrum")
    assert spectrum_call() == before

    # --pq appends to a list: a second call must not see the first call's pairs
    for report in ("r1.json", "r2.json"):
        assert main(["verify", "--suite", "4.5", "--pq", "7,3", "--jobs", "1",
                     "--report", report]) == 0
        data = json.loads((in_tmp / report).read_text())
        assert [e["params"] for e in data["reports"]] == [{"p": 7, "q": 3}]

    seen = []
    monkeypatch.setattr(cli, "cmd_graph", lambda args: seen.append(args.group) or 7)
    assert main(["graph", "--group", "D:4"]) == 7
    assert seen == ["D:4"]

    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 7)


def test_import_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import supergraph.cli as cli; print(cli._build_parser.cache_info().currsize)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_group_error_reported(in_tmp, capsys):
    assert main(["graph", "--group", "D:2"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["graph", "--group", "D:3,4"]) == 1
    assert capsys.readouterr().err == 'error: group spec "D:3,4": D needs exactly one parameter\n'


def test_oversized_group_is_an_error_and_writes_no_file(in_tmp, capsys):
    assert main(["graph", "--group", "D:3000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceeds the cap of 8192" in err
    assert list(in_tmp.iterdir()) == []


def test_import_leaves_multiprocessing_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, supergraph; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "supergraph.cli", "verify", "--suite", "4.5",
         "--report", os.devnull],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert "summary: 5 Match" in proc.stdout


def _small_group(text: str) -> bool:
    """Whether a --group spec is malformed or names a group of order at most
    a few hundred, which the fuzz below may build."""
    try:
        spec = parse_group_spec(text)
    except FormatError:
        return True
    return spec.family == "cayley" or max(map(abs, spec.params)) <= 64


TABLE_BYTES = st.one_of(
    st.binary(max_size=48),
    st.text(alphabet="0123 \n#labels:-x.", max_size=48).map(str.encode),
)
PARTITION_BYTES = st.one_of(
    st.binary(max_size=40),
    st.text(alphabet='{}[]"nblocks:,0123456. ', max_size=40).map(str.encode),
    st.fixed_dictionaries({
        "n": st.one_of(st.integers(-1, 8), st.floats(0, 7), st.text(max_size=2)),
        "blocks": st.lists(st.lists(st.one_of(st.integers(-1, 7), st.floats(0, 6)), max_size=4),
                           max_size=4),
    }).map(lambda d: json.dumps(d).encode()),
)
GROUP_TEXT = st.one_of(
    st.text(max_size=12),
    st.builds("{}:{}".format, st.sampled_from(["D", "Q", "PQ", "cayley", " D ", "d", ""]),
              st.text(alphabet="0123456789,.-+_ eEx", max_size=6)),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(table=TABLE_BYTES, partition=PARTITION_BYTES, group=GROUP_TEXT)
def test_cli_fuzz_exits_with_a_code_and_no_traceback(table, partition, group):
    """Random Cayley-file bytes, partition-file bytes and --group strings
    through the command line: every run ends with exit code 0, 1 or 2."""
    assume(_small_group(group))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        (Path(tmp) / "table.txt").write_bytes(table)
        (Path(tmp) / "part.json").write_bytes(partition)
        out = ["--output", str(Path(tmp) / "out.json")]
        codes = {
            main(["graph", "--group", f"cayley:{tmp}/table.txt", "--relation", "order", *out]),
            main(["graph", "--group", "D:3", "--relation", f"file:{tmp}/part.json", *out]),
            main(["graph", "--group", group, "--relation", "conjugacy", *out]),
        }
    assert codes <= {0, 1, 2}
    assert "Traceback" not in err.getvalue()
