import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kdiameter

from kdiameter.cli import main
from kdiameter.clustering import MAX_POINTS
from kdiameter.graphs import complete_graph, incidence_hypergraph, path_graph
from kdiameter.lp import MAX_VERTICES


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "K4.json"
    path.write_text(json.dumps(complete_graph(4).to_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_gadget_build_and_verify(tmp_path, capsys):
    out = tmp_path / "gadget.json"
    code, _ = run(capsys, "gadget", "build", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["certified"]
    assert report["gadget"]["removed_edge"] == [6, 10]
    code, _ = run(capsys, "gadget", "verify", "--gadget", str(out))
    assert code == 0


def test_reports_are_byte_identical(tmp_path, capsys):
    region = tmp_path / "region.json"
    assert run(capsys, "sphere", "region", "--kappa", "3",
               "--out", str(region))[0] == 0
    p7 = tmp_path / "P7.json"
    p7.write_text(json.dumps(path_graph(7).to_dict()))
    for argv in (["gadget", "build"],
                 # long enough that a wall-clock column would differ
                 ["sphere", "sweep", "--kappa", "10..12",
                  "--t-grid", "163/125,3/2"],
                 ["sphere", "verify-lemma53", "--kappa", "4"],
                 ["cluster", "exact", "--pointset", str(region)],
                 ["embeddability", "--graph", str(p7)]):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        codes = [run(capsys, *argv, "--out", str(out))[0] for out in (a, b)]
        assert codes[0] == codes[1]
        assert a.read_bytes() == b.read_bytes(), argv


def test_composite_embed_then_cluster(tmp_path, k4_file, capsys):
    out = tmp_path / "pointset.json"
    code, _ = run(capsys, "composite", "embed", "--graph", k4_file,
                  "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["verified"]
    assert report["achieved_ratio"] == {"num": 3, "den": 2}
    assert report["q"] == 16
    cl_out = tmp_path / "clustering.json"
    code, _ = run(capsys, "cluster", "exact", "--pointset", str(out),
                  "--k", "3", "--out", str(cl_out))
    assert code == 0
    clustering = json.loads(cl_out.read_text())
    assert clustering["diameter"] == report["q"]


def test_composite_build(k4_file, capsys):
    code, out = run(capsys, "composite", "build", "--graph", k4_file)
    report = json.loads(out)
    assert code == 0
    h = incidence_hypergraph(complete_graph(4))
    assert report["composite"]["graph"]["n"] == h.n + 12 * len(h.hyperedges)


def test_sphere_verify_exit_codes(capsys):
    code, out = run(capsys, "sphere", "verify-lemma53", "--kappa", "12",
                    "--t", "163/125")
    assert code == 0
    assert json.loads(out)["verdicts"]["separation_holds"] is True
    code, out = run(capsys, "sphere", "verify-lemma53", "--kappa", "4",
                    "--t", "163/125")
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["separation_holds"] is False
    assert report["witness"] is not None


def test_sphere_verify_budget_exit_code(capsys):
    code, _ = run(capsys, "sphere", "verify-lemma53", "--kappa", "12",
                  "--budget-nodes", "5")
    assert code == 2


def test_sphere_region_and_reduce(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _ = run(capsys, "sphere", "region", "--kappa", "4",
                  "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["points"] == 3 * 5 * 6 // 2 - 3
    hg = tmp_path / "G.json"
    hg.write_text(json.dumps(incidence_hypergraph(complete_graph(4)).to_dict()))
    code, out_text = run(capsys, "sphere", "reduce", "--hypergraph", str(hg),
                         "--kappa", "2")
    assert code == 0
    assert json.loads(out_text)["regions"] == 4


def test_sphere_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _ = run(capsys, "sphere", "sweep", "--kappa", "2..3",
                  "--t-grid", "163/125,7/5", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("kappa,t_num,t_den,separation_holds")
    assert len(lines) == 5


def test_embeddability(tmp_path, capsys):
    path = tmp_path / "P7.json"
    path.write_text(json.dumps(path_graph(7).to_dict()))
    code, out = run(capsys, "embeddability", "--graph", str(path))
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert (cert["r_num"], cert["r_den"]) == (5, 3)
    assert cert["verified"] and not cert["unbounded"]


def test_usage_errors(capsys, tmp_path):
    assert main(["no-such-command"]) == 3
    assert main(["cluster", "exact", "--pointset",
                 str(tmp_path / "missing.json")]) == 3
    assert main(["sphere", "verify-lemma53", "--t", "not-a-fraction"]) == 3


def test_threads_flag_is_gone(capsys):
    assert main(["repro-all", "--threads", "2"]) == 3


def run_with_budget_environment(value):
    env = dict(os.environ, KDIAMETER_BUDGET=value,
               PYTHONPATH=str(Path(kdiameter.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "kdiameter.cli", "gadget", "build"],
                          env=env, capture_output=True, text=True, timeout=60)


def test_malformed_budget_environment_is_a_usage_error():
    result = run_with_budget_environment("abc")
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        "usage error: KDIAMETER_BUDGET must be an integer, got 'abc'"]


def test_negative_budget_environment_is_a_usage_error():
    result = run_with_budget_environment("-5")
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        "usage error: KDIAMETER_BUDGET must be non-negative, got '-5'"]


def embedding_file(**changes):
    """A Hamming embedding of P3 as JSON, with `changes` applied."""
    embedding = {"graph": path_graph(3).to_dict(), "metric": "hamming",
                 "short": 1, "long": 2, "image": {"0": "00", "1": "11", "2": "01"}}
    return json.dumps({**embedding, **changes})


BAD_INPUTS = {
    "graph_over_lp_cap": json.dumps(path_graph(MAX_VERTICES + 1).to_dict()),
    "self_loop.json": json.dumps({"n": 3, "edges": [[0, 0], [0, 1]]}),
    "malformed.json": '{"n": 3, "edges": [[0, 1]',
    "mixed.json": json.dumps({"metric": "l1_int", "points": [[0, 0], [1, 2, 3]]}),
    "points.json": json.dumps({"metric": "l1_int", "points": [[0, 0], [1, 2]]}),
    "path.json": json.dumps(path_graph(4).to_dict()),
    "empty.json": json.dumps({"n": 0, "edges": []}),
    # two K4s with one edge subdivided each, the subdivision vertices joined:
    # cubic, with the bridge (4, 9)
    "bridge.json": json.dumps({"n": 10, "edges": [
        [0, 4], [4, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3],
        [5, 9], [9, 6], [5, 7], [5, 8], [6, 7], [6, 8], [7, 8], [4, 9]]}),
    "no_removed_edge.json": json.dumps({"attachments": [[0, 1, 2]]}),
    "over_cap.json": json.dumps({"metric": "l1_int",
                                 "points": [[i] for i in range(MAX_POINTS + 1)]}),
    "emb_missing_vertex.json": embedding_file(image={"0": "00", "1": "11"}),
    "emb_vertex_out_of_range.json": embedding_file(
        image={"0": "00", "1": "11", "2": "01", "3": "10"}),
    "emb_mixed_lengths.json": embedding_file(
        image={"0": "00", "1": "110", "2": "01"}),
    "emb_short_not_a_number.json": embedding_file(short="short"),
}


@pytest.mark.parametrize("argv", [
    ["embeddability", "--graph", "graph_over_lp_cap"],
    ["embeddability", "--graph", "self_loop.json"],
    ["embeddability", "--graph", "malformed.json"],
    ["cluster", "exact", "--pointset", "mixed.json"],
    ["cluster", "exact", "--pointset", "points.json", "--k", "7"],
    ["sphere", "verify-lemma53", "--kappa", "0"],
    ["sphere", "sweep", "--kappa", "4..x", "--t-grid", "1"],
    ["composite", "build", "--graph", "path.json"],
    ["composite", "embed", "--graph", "bridge.json"],
    ["composite", "build", "--graph", "empty.json"],
    ["composite", "embed", "--graph", "empty.json"],
    ["cluster", "gonzalez", "--pointset", "points.json", "--k", "0"],
    ["sphere", "region", "--kappa", "2", "--axes", "0", "0", "1"],
    ["sphere", "region", "--kappa", "2", "--axes", "-1", "0", "1"],
    ["gadget", "verify", "--gadget", "no_removed_edge.json"],
    ["embedding", "verify", "--embedding", "path.json"],
    ["cluster", "exact", "--pointset", "over_cap.json"],
    ["sphere", "verify-lemma53", "--kappa", "2", "--t", "-1"],
    ["sphere", "verify-lemma53", "--kappa", "2", "--t", "0"],
    ["sphere", "sweep", "--kappa", "2", "--t-grid", "1,-1"],
    ["sphere", "sweep", "--kappa", "3..2", "--t-grid", "1"],
    ["embedding", "verify", "--embedding", "emb_missing_vertex.json"],
    ["embedding", "verify", "--embedding", "emb_vertex_out_of_range.json"],
    ["embedding", "verify", "--embedding", "emb_mixed_lengths.json"],
    ["embedding", "verify", "--embedding", "emb_short_not_a_number.json"],
    # the test's own temporary directory, where a file is expected
    ["cluster", "exact", "--pointset", "."],
    ["cluster", "exact", "--pointset", "points.json", "--out", "."],
    ["gadget", "build", "--budget-nodes", "-5"],
], ids=["lp-cap", "self-loop", "malformed-json", "mixed-lengths", "k7",
        "kappa0", "kappa-range", "composite-not-cubic", "composite-bridge",
        "composite-empty-build", "composite-empty-embed",
        "gonzalez-k0", "axes-repeated", "axes-negative", "gadget-no-removed-edge",
        "not-an-embedding", "exact-over-cap", "t-negative", "t-zero",
        "t-grid-negative", "kappa-range-empty", "embedding-missing-vertex",
        "embedding-vertex-out-of-range", "embedding-mixed-lengths",
        "embedding-short-not-a-number", "pointset-is-a-directory",
        "out-is-a-directory", "budget-negative"])
def test_bad_input_is_a_one_line_usage_error(argv, tmp_path):
    for name, text in BAD_INPUTS.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(kdiameter.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "kdiameter.cli", *argv],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 3
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
