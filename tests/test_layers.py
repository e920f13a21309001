import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "layers.py"
LAYERS = ["groups", "commuting_graph", "partitions", "super_graph", "twin_canonical_form",
          "quotient_polynomial", "quotient_spectrum", "numeric_eigenvalues", "exact_char_poly"]


def test_layer_script_writes_a_bench_file_at_order_50(tmp_path):
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--label", "check", "--orders", "50", "--runs", "1",
         "--out", str(tmp_path)],
        check=True, capture_output=True, text=True)
    path = tmp_path / "BENCH_check.json"
    assert run.stdout.strip() == str(path)
    bench = json.loads(path.read_text())
    assert set(bench) == {"env", "end_to_end", "layers", "cap_s", "runs"}
    assert set(bench["env"]) == {"python", "numpy", "platform", "git_rev"}
    assert list(bench["end_to_end"]) == ["verify_all_s", "run_suite_s", "import_s"]
    assert all(seconds > 0 for seconds in bench["end_to_end"].values())
    assert list(bench["layers"]) == ["50"] and list(bench["layers"]["50"]) == LAYERS
    assert all(ms is not None and ms > 0 for ms in bench["layers"]["50"].values())
    assert bench["cap_s"] >= 5 and bench["runs"] == 1


def test_layer_script_measures_a_second_checkout_in_alternate_rounds(tmp_path):
    root = SCRIPT.parents[1]
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--label", "pair", "--orders", "50", "--runs", "1",
         "--against", str(root), "--out", str(tmp_path)],
        check=True, capture_output=True, text=True)
    paths = [tmp_path / "BENCH_pair.json", tmp_path / "BENCH_pair-against.json"]
    assert run.stdout.split() == [str(path) for path in paths]
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    benches = [json.loads(path.read_text()) for path in paths]
    assert benches[0]["env"] == benches[1]["env"]  # one checkout, measured twice
    for bench in benches:
        assert list(bench["end_to_end"]) == ["verify_all_s", "run_suite_s", "import_s"]
        assert all(seconds > 0 for seconds in bench["end_to_end"].values())
        assert list(bench["layers"]) == ["50"] and list(bench["layers"]["50"]) == LAYERS
        assert all(ms is not None and ms > 0 for ms in bench["layers"]["50"].values())
        assert bench["runs"] == 1


def test_the_committed_bench_files_have_every_layer_at_every_order():
    paths = sorted(SCRIPT.parents[1].glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        assert list(bench["layers"]) == ["50", "100", "200", "400"], path.name
        assert all(list(times) == LAYERS for times in bench["layers"].values()), path.name
