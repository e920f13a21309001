import json
import os
import subprocess
import sys

import pytest

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
    import supergraph.cli as cli

    calls = {"char_poly_integer": 0, "jacobi_eigenvalues": 0}
    for name in calls:
        def counted(*args, _fn=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cli, name, counted)
    for method in ("exact", "jacobi", "quotient", "closed"):
        calls.update(char_poly_integer=0, jacobi_eigenvalues=0)
        assert main([
            "spectrum", "--group", "D:5", "--relation", "order", "--matrix",
            "laplacian", "--method", method, "--compare",
        ]) == 0
        assert calls == {"char_poly_integer": 1, "jacobi_eigenvalues": 1}, method


def test_spectrum_closed_unsupported(in_tmp, capsys):
    code = main([
        "spectrum", "--group", "Q:2", "--relation", "conjugacy", "--matrix",
        "adjacency", "--method", "closed",
    ])
    assert code == 1
    assert "no closed form" in capsys.readouterr().err


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


def test_verify_cli_jobs_env(in_tmp, monkeypatch):
    monkeypatch.setenv("SUPERGRAPH_JOBS", "2")
    assert main(["verify", "--suite", "4.5", "--report", "r.json"]) == 0


def test_verify_cli_rejects_bad_worker_counts(in_tmp, monkeypatch, capsys):
    monkeypatch.setenv("SUPERGRAPH_JOBS", "x")
    assert main(["verify", "--suite", "4.5", "--report", "r.json"]) == 1
    assert 'jobs "x"' in capsys.readouterr().err
    monkeypatch.delenv("SUPERGRAPH_JOBS")
    assert main(["verify", "--suite", "4.5", "--report", "r.json", "--jobs", "0"]) == 1
    assert not (in_tmp / "r.json").exists()


def test_usage_error_exit_code():
    assert main(["graph"]) == 1  # missing required --group
    assert main(["verify", "--suite", "nope"]) == 1


def test_group_error_reported(in_tmp, capsys):
    assert main(["graph", "--group", "D:2"]) == 1
    assert "error" in capsys.readouterr().err


def test_oversized_group_is_an_error_and_writes_no_file(in_tmp, capsys):
    assert main(["graph", "--group", "D:3000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceeds the cap of 8192" in err
    assert list(in_tmp.iterdir()) == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "supergraph.cli", "verify", "--suite", "4.5",
         "--report", os.devnull],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert "summary: 5 Match" in proc.stdout
