import argparse
import copy
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from collections import Counter
from itertools import takewhile
from pathlib import Path

import pytest

import kdiameter

from kdiameter import acceptance
from kdiameter.cli import build_parser, main
from kdiameter.coloring import BudgetExceeded
from kdiameter.clustering import MAX_POINTS
from kdiameter.gadgets import build_gadget_H
from kdiameter.graphs import (
    complete_graph,
    cycle_graph,
    incidence_hypergraph,
    path_graph,
    petersen_graph,
)
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
    code, verified = run(capsys, "gadget", "verify", "--gadget", str(out))
    assert code == 0
    assert json.loads(verified)["gadget"] == report["gadget"]
    # verify checks a file only: `gadget build` certifies what it builds
    assert run(capsys, "gadget", "verify") == (3, "")


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


# sha256 of each command's report with default flags; a change to any report
# byte on valid input shows here
REPORT_DIGESTS = [
    (["gadget", "build"],
     "d7f351177af858405381fa61ce2b1aa2ddd005fcd4dd85a82f3f5664fa77bd09"),
    (["composite", "build", "--graph", "K4.json"],
     "2e23fe37ec9b0e2bff67957ff4bade2ba0e25ed4d144cac9fde549122c5108d7"),
    (["composite", "embed", "--graph", "K4.json"],
     "67635681a5fde17b5a747394ab83bece397567ca1fe2379c25e7f15dba11964f"),
    (["sphere", "region", "--kappa", "3"],
     "bf8b520a984a4bf33e391445b98f3ed00ea859cd52e3d53296c4f0ac28a220fd"),
    (["sphere", "region", "--kappa", "4", "--axes", "3", "5", "7"],
     "fddcd4f39b918bd3065d736c973f95bc62c1893de49f55122234cefbf406c6b5"),
    (["sphere", "verify-lemma53", "--kappa", "4"],
     "7e113f1511b63a0301776f0d92716164b3dfa12da7275761622048b07ff28723"),
    (["sphere", "reduce", "--hypergraph", "K4_incidence.json"],
     "4e66534d2763d10dfeabcb9644a81d3bfd25feb6176eac40c578132a32526537"),
    (["sphere", "sweep", "--kappa", "2..4", "--t-grid", "163/125,3/2"],
     "d5ae9f46bdd671d49fa08dcbe0e42416e4a18f3d727a6b7b9e34c4566cbf9135"),
    (["cluster", "exact", "--pointset", "region.json"],
     "146ba45400a355c6da3470fef8bf9013bc2b5e1f0b0f529afd9ef93e202612a9"),
    (["cluster", "exact", "--k", "2", "--pointset", "region.json"],
     "364e1bbaafb2c5a4dc73838add4a2e69ef257f6f8318c0cfde534f4ce11e8178"),
    (["cluster", "gonzalez", "--pointset", "region.json"],
     "8372529d67cdb344e6bb9d07f41b121d001ca277b5bbdf52ffd5772d4b630d60"),
    (["embeddability", "--graph", "P7.json"],
     "3d43c6065956cc04b3651f1d498139e0ebfd7552fa62beab6c960060d60d7ab8"),
]


def test_report_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("K4.json").write_text(json.dumps(complete_graph(4).to_dict()))
    Path("K4_incidence.json").write_text(
        json.dumps(incidence_hypergraph(complete_graph(4)).to_dict()))
    Path("P7.json").write_text(json.dumps(path_graph(7).to_dict()))
    assert run(capsys, "sphere", "region", "--kappa", "3",
               "--out", "region.json")[0] == 0
    for argv, digest in REPORT_DIGESTS:
        run(capsys, *argv, "--out", "report")
        assert hashlib.sha256(Path("report").read_bytes()).hexdigest() == digest, argv


# K4's image 3-clusters at diameter q = short; Petersen, which is not
# 3-edge-colorable, only at the edge distance long = 3q/2
@pytest.mark.parametrize("J, q, diameter_key", [
    (complete_graph(4), 16, "short"), (petersen_graph(), 64, "long")],
    ids=["k4", "petersen"])
def test_composite_embed_then_cluster(tmp_path, capsys, J, q, diameter_key):
    """The report is an embedding file, which `embedding verify` checks
    to the same verdict and witnesses, and a pointset file."""
    graph_file = tmp_path / "J.json"
    graph_file.write_text(json.dumps(J.to_dict()))
    out = tmp_path / "pointset.json"
    code, _ = run(capsys, "composite", "embed", "--graph", str(graph_file),
                  "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["verified"]
    assert report["achieved_ratio"] == {"num": 3, "den": 2}
    assert report["short"] == q
    code, verified = run(capsys, "embedding", "verify", "--embedding", str(out))
    assert code == 0
    verified = json.loads(verified)
    for key in ("verdicts", "achieved_ratio", "worst_edge_pair",
                "worst_nonedge_pair"):
        assert verified[key] == report[key], key
    cl_out = tmp_path / "clustering.json"
    code, _ = run(capsys, "cluster", "exact", "--pointset", str(out),
                  "--k", "3", "--out", str(cl_out))
    assert code == 0
    clustering = json.loads(cl_out.read_text())
    assert clustering["diameter"] == report[diameter_key]


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


def test_sphere_sweep_json_prints_the_csv_it_writes(tmp_path, capsys):
    # --json prints the report to stdout as well, as every command does
    out = tmp_path / "sweep.csv"
    code, printed = run(capsys, "sphere", "sweep", "--kappa", "2",
                        "--t-grid", "1", "--out", str(out), "--json")
    assert code == 0
    assert printed and printed == out.read_text()
    assert run(capsys, "sphere", "sweep", "--kappa", "2", "--t-grid", "1",
               "--out", str(out)) == (0, "")


@pytest.mark.parametrize("long, expected", [
    ({"num": 3, "den": 2}, 0), ({"num": 5, "den": 2}, 1),
    ({"num": 1, "den": 0}, 3)])
def test_embedding_thresholds_as_fractions(long, expected, tmp_path, capsys):
    # P3's edges land at distances 3 and 2, its non-edge at 1
    path = tmp_path / "emb.json"
    path.write_text(embedding_file(points=["000", "111", "001"],
                                   short={"num": 1, "den": 1}, long=long))
    assert main(["embedding", "verify", "--embedding", str(path)]) == expected


def test_embeddability(tmp_path, capsys):
    """The report of a bounded ratio is the file of its embedding."""
    path = tmp_path / "P7.json"
    path.write_text(json.dumps(path_graph(7).to_dict()))
    out = tmp_path / "cert.json"
    code, _ = run(capsys, "embeddability", "--graph", str(path),
                  "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    cert = report["certificate"]
    assert (cert["r_num"], cert["r_den"]) == (5, 3)
    assert report["verdicts"]["certified"] and not cert["unbounded"]
    code, verified = run(capsys, "embedding", "verify", "--embedding", str(out))
    assert code == 0
    assert json.loads(verified)["achieved_ratio"] == {"num": 5, "den": 3}


def test_gadget_base_embeddability(tmp_path, capsys):
    # the 12-vertex gadget base (Chvatal minus edge (6, 10)) certifies at
    # 12/7, above the 3/2 of the gadget's oriented embeddings
    path = tmp_path / "gadget_base.json"
    path.write_text(json.dumps(build_gadget_H().base.to_dict()))
    code, out = run(capsys, "embeddability", "--graph", str(path))
    assert code == 0
    report = json.loads(out)
    cert = report["certificate"]
    assert (cert["r_num"], cert["r_den"]) == (12, 7)
    assert report["verdicts"]["certified"] and not cert["unbounded"]


def test_repro_all_exhausted_budget_exits_2(capsys):
    code, out = run(capsys, "repro-all", "--budget-nodes", "10")
    report = json.loads(out)
    failing = [c["details"].get("verdict") for c in report["criteria"]
               if not c["ok"]]
    assert failing and set(failing) == {"budget_exceeded"}
    assert report["verdicts"]["all_pass"] is False
    assert code == 2


def test_sphere_sweep_exhausted_budget_exits_2(capsys):
    argv = ["sphere", "sweep", "--kappa", "4..5", "--t-grid", "1,5/4"]
    # every row is written, as before the exit code was 2
    assert run(capsys, *argv, "--budget-nodes", "0") == (2, (
        "kappa,t_num,t_den,separation_holds,nodes_explored\n"
        "4,1,1,budget_exceeded,1\n4,5,4,budget_exceeded,1\n"
        "5,1,1,budget_exceeded,1\n5,5,4,budget_exceeded,1\n"))
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("argv", [
    ["cluster", "exact", "--pointset", "region.json"],
    ["gadget", "build"],
    ["composite", "embed", "--graph", "K4.json"],
    ["sphere", "verify-lemma53", "--kappa", "4"],
], ids=["cluster-exact", "gadget-build", "composite-embed", "verify-lemma53"])
def test_exhausted_search_writes_no_report(argv, tmp_path, capsys,
                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("K4.json").write_text(json.dumps(complete_graph(4).to_dict()))
    assert run(capsys, "sphere", "region", "--kappa", "3",
               "--out", "region.json")[0] == 0
    code = main([*argv, "--budget-nodes", "0", "--out", "report.json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "budget exceeded after 1 nodes\n"
    assert not Path("report.json").exists()


def _verdict(argv, out):
    """What a run concluded, apart from node counts and timings."""
    if argv[:2] == ["sphere", "sweep"]:
        return [row.split(",")[3] for row in out.splitlines()[1:]]
    report = json.loads(out)
    if argv[0] == "repro-all":
        return [(c["criterion"], c["ok"]) for c in report["criteria"]]
    if argv[0] == "cluster":
        return report["diameter"], report["assignment"]
    return report["verdicts"]


def test_budget_sweep_exits_2_or_keeps_the_verdict(tmp_path, capsys):
    gadget, region = tmp_path / "gadget.json", tmp_path / "region.json"
    assert run(capsys, "gadget", "build", "--out", str(gadget))[0] == 0
    assert run(capsys, "sphere", "region", "--kappa", "3",
               "--out", str(region))[0] == 0
    commands = [["gadget", "build"],
                ["gadget", "verify", "--gadget", str(gadget)],
                ["sphere", "verify-lemma53", "--kappa", "4"],
                ["sphere", "sweep", "--kappa", "4..5", "--t-grid", "1,5/4"],
                ["cluster", "exact", "--pointset", str(region)],
                ["repro-all"]]
    for argv in commands:
        code, out = run(capsys, *argv)
        unbounded = (code, _verdict(argv, out))
        for budget in ("0", "1", "10", "100"):
            code, out = run(capsys, *argv, "--budget-nodes", budget)
            assert code == 2 or (code, _verdict(argv, out)) == unbounded, \
                (argv, budget)


def test_composite_embed_budget_sweep_exits_2_or_keeps_the_verdict(
        k4_file, capsys):
    # the budget caps only build_gadget_H's coloring enumeration here
    argv = ["composite", "embed", "--graph", k4_file]
    code, out = run(capsys, *argv)
    unbounded = (code, _verdict(argv, out))
    assert unbounded == (0, {"verified": True})
    for budget in ("0", "1", "10", "100"):
        code, out = run(capsys, *argv, "--budget-nodes", budget)
        assert code == 2 or (code, _verdict(argv, out)) == unbounded, budget


def _exhaust(budget, seed):
    raise BudgetExceeded(budget + 1)


def _crash(budget, seed):
    raise RuntimeError("criterion crashed")


@pytest.mark.parametrize("results, expected", [
    ([{"ok": True}], 0),
    ([{"ok": True}, _exhaust], 2),
    ([{"ok": False, "verdict": "budget_exceeded", "nodes": 11}], 2),
    ([_exhaust, {"ok": False}], 1),
    ([{"ok": False}, _exhaust], 1),
    ([_exhaust, _crash], 1),
])
def test_repro_all_exit_code(capsys, monkeypatch, results, expected):
    criteria = {num: (f"c{num}", r if callable(r) else
                      lambda budget, seed, r=r: dict(r))
                for num, r in enumerate(results, 1)}
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    code, out = run(capsys, "repro-all")
    assert code == expected
    assert json.loads(out)["verdicts"]["all_pass"] is (expected == 0)


@pytest.mark.parametrize("argv, expected", [
    (["sphere", "region", "--kappa", "3"], 0),
    (["sphere", "verify-lemma53", "--kappa", "4", "--t", "163/125"], 1),
    (["sphere", "sweep", "--kappa", "2", "--t-grid", "3/2"], 0),
])
def test_closed_stdout_keeps_the_exit_code(argv, expected):
    # a pipe whose reader is already gone, as after `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(kdiameter.__file__).parents[1]))
    try:
        result = subprocess.run([sys.executable, "-m", "kdiameter.cli", *argv],
                                env=env, stdout=write_end, stderr=subprocess.PIPE,
                                text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (expected, "")


def test_usage_errors(capsys, tmp_path):
    assert main(["no-such-command"]) == 3
    assert main(["cluster", "exact", "--pointset",
                 str(tmp_path / "missing.json")]) == 3
    assert main(["sphere", "verify-lemma53", "--t", "not-a-fraction"]) == 3


def test_threads_flag_is_gone(capsys):
    assert main(["repro-all", "--threads", "2"]) == 3


def _readme_block(heading, language):
    """The first fenced `language` block under `heading` in the README."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_lines_parse():
    lines = [line for line in _readme_block("## CLI", "sh").splitlines()
             if line.startswith("kdiameter ")]
    assert len(lines) == 14
    for line in lines:
        assert callable(build_parser().parse_args(shlex.split(line)[1:]).func)


def _parser_words(parser, path=()):
    """{command path: the flags it takes} of the parser: a path is the words
    before any flag, such as ("cluster", "exact"), ("gadget", "verify") or
    ("repro-all",), and a group such as ("cluster",) takes only --help."""
    words = {path: set()}
    for action in parser._actions:
        words[path].update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                words.update(_parser_words(sub, path + (name,)))
    return words


def test_readme_cli_text_names_only_accepted_commands_and_flags():
    """Each `command`, `command --flag` or `--flag` quoted in the CLI
    section's text, outside the example block, is one the parser accepts:
    a flag after a command is one that command takes, and a flag alone one
    that some command takes."""
    words = _parser_words(build_parser())
    commands = {path[0] for path in words if path}

    def refused(span):
        spoken = span.split()
        path = tuple(takewhile(lambda w: not w.startswith("--"), spoken))
        named = {w for w in spoken if w.startswith("--")}
        if path and path[0] in commands:
            return path not in words or not named <= words[path]
        return not named <= set().union(*words.values())

    assert refused("cluster two") and refused("gadget verify --file")
    assert refused("cluster gonzalez --budget-nodes") and refused("--threads")
    assert not refused("cluster exact --budget-nodes")
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section,
                                            flags=re.S))
    assert {"cluster exact", "gadget verify", "--budget-nodes"} <= set(spans)
    assert [span for span in spans if refused(span)] == []


def test_readme_example_prints_3_2(capsys):
    exec(_readme_block("## Example", "python"), {})
    assert capsys.readouterr().out == "3/2\n"


def embedding_file(metric="hamming", points=("00", "11", "01"), **changes):
    """A Hamming embedding of P3 as JSON, in `Embedding.to_dict`'s form,
    with its pointset's `metric` and `points` and the other `changes`."""
    embedding = {"graph": path_graph(3).to_dict(),
                 "pointset": {"metric": metric, "points": list(points)},
                 "short": 1, "long": 2}
    return json.dumps({**embedding, **changes})


BAD_INPUTS = {
    "graph_over_lp_cap": json.dumps(path_graph(MAX_VERTICES + 1).to_dict()),
    "self_loop.json": json.dumps({"n": 3, "edges": [[0, 0], [0, 1]]}),
    "malformed.json": '{"n": 3, "edges": [[0, 1]',
    "mixed.json": json.dumps({"metric": "l1_int", "points": [[0, 0], [1, 2, 3]]}),
    "points.json": json.dumps({"metric": "l1_int", "points": [[0, 0], [1, 2]]}),
    "path.json": json.dumps(path_graph(4).to_dict()),
    "emb.json": embedding_file(),
    "empty.json": json.dumps({"n": 0, "edges": []}),
    # two K4s with one edge subdivided each, the subdivision vertices joined:
    # cubic, with the bridge (4, 9)
    "bridge.json": json.dumps({"n": 10, "edges": [
        [0, 4], [4, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3],
        [5, 9], [9, 6], [5, 7], [5, 8], [6, 7], [6, 8], [7, 8], [4, 9]]}),
    "no_removed_edge.json": json.dumps({"attachments": [[0, 1, 2]]}),
    "attachments_string.json": json.dumps({"removed_edge": [6, 10],
                                           "attachments": "0"}),
    "attachments_null.json": json.dumps({"removed_edge": [6, 10], "attachments":
                                         [[None, 10], [0, 5, 7], [6, 9]]}),
    "attachments_nested.json": json.dumps({"removed_edge": [6, 10], "attachments":
                                           [[[1]], [0, 5, 7], [6, 9]]}),
    "over_cap.json": json.dumps({"metric": "l1_int",
                                 "points": [[i] for i in range(MAX_POINTS + 1)]}),
    # 200 million pairs: over the pair table's cap, which Gonzalez reads
    "line_20000.json": json.dumps({"metric": "l1_int",
                                   "points": [[i] for i in range(20000)]}),
    "emb_missing_vertex.json": embedding_file(points=["00", "11"]),
    "emb_vertex_out_of_range.json": embedding_file(
        points=["00", "11", "01", "10"]),
    "emb_mixed_lengths.json": embedding_file(points=["00", "110", "01"]),
    "emb_short_not_a_number.json": embedding_file(short="short"),
    "emb_no_vertices.json": embedding_file(graph={"n": 0, "edges": []},
                                           points=[]),
    # the vertex-keyed image of an earlier form, which no reader accepts
    "emb_image_form.json": json.dumps(
        {"graph": path_graph(3).to_dict(), "metric": "hamming",
         "image": {"0": "00", "1": "11", "2": "01"}, "short": 1, "long": 2}),
    "no_points.json": json.dumps({"metric": "l1_int", "points": []}),
    "pairs_hypergraph.json": json.dumps({"n": 3, "hyperedges": [[0, 1], [1, 2]]}),
    "negative_n_hypergraph.json": json.dumps({"n": -1, "hyperedges": []}),
    "no_hyperedges.json": json.dumps({"n": 4, "hyperedges": []}),
    "coeff_count.json": json.dumps({"metric": "l2_sphere_lattice", "points": [
        {"axes": [0, 1, 2], "pos": 0, "coeffs": [3, 0, 0], "kappa": 3},
        {"axes": [0, 1, 2], "pos": 0, "coeffs": [1, 2], "kappa": 3}]}),
    "negative_axis.json": json.dumps({"metric": "l2_sphere_lattice", "points": [
        {"axes": [-1, 0, 1], "pos": pos, "coeffs": coeffs, "kappa": 1}
        for pos, coeffs in ((-1, [1, 0, 0]), (0, [0, 1, 0]), (1, [0, 0, 1]))]}),
    "unknown_metric.json": json.dumps({"metric": "foo", "points": [[0, 0], [1, 1]]}),
    "emb_unknown_metric.json": embedding_file(metric="foo"),
    # truncated to [0, 0], these points would have a 2-clustering of
    # diameter 2; the true optimum is 3/2
    "float_entry.json": json.dumps({"metric": "l1_int",
                                    "points": [[0.5, 0], [1, 1], [3, 0]]}),
    "float_coeff.json": json.dumps({"metric": "l2_sphere_lattice", "points": [
        {"axes": [0, 1, 2], "pos": 0, "coeffs": [3, 0, 0], "kappa": 3},
        {"axes": [0, 1, 2], "pos": 0, "coeffs": [1.7, 1.3, 1], "kappa": 3}]}),
    # read as the edge (1, 3) if a boolean were an integer
    "edge_bool.json": json.dumps({"n": 4, "edges": [[0, 1], [3, True]]}),
    "hyperedge_float.json": json.dumps({"n": 3, "hyperedges": [[0, 1, 2.0]]}),
    # a repeated key would be read as its last value
    "graph_repeated_key.json": '{"n": 3, "n": 4, "edges": [[0, 1], [2, 3]]}',
    "hypergraph_repeated_key.json":
        '{"n": 3, "hyperedges": [[0, 1, 2]], "hyperedges": [[0, 1, 2], [0, 1, 2]]}',
    "emb_repeated_key.json": embedding_file().replace(
        '"short": 1', '"short": 1, "short": 2'),
    "pointset_repeated_key.json":
        '{"pointset": {"metric": "l1_int", "points": [[0], [1]], "metric": "l1_int"}}',
    # read as the 1-bit points 0, 1, 1, 0, or as the keys, if any iterable passed
    "points_string.json": json.dumps({"metric": "hamming", "points": "0110"}),
    "points_object.json": json.dumps({"metric": "hamming",
                                      "points": {"01": 1, "10": 2}}),
    "gadget_repeated_key.json": json.dumps(
        {"gadget": build_gadget_H().to_dict()}).replace(
        '"removed_edge"', '"removed_edge": [6, 10], "removed_edge"'),
}


# the whole message of an argparse `type=` parser's refusal, which argparse
# would replace by its own ("invalid _parse_budget value: '-5'") were the
# refusal a ValueError
TYPE_ERRORS = {("--budget-nodes", "-5"): "bad budget '-5': must be at least 0",
               ("--kappa", "0"): "bad kappa '0': must be at least 1",
               ("--kappa", "x"): "bad kappa 'x': not an integer"}

# a flag that its command does not take, refused like any unknown flag
REFUSED_FLAGS = [
    ["sphere", "region", "--kappa", "3", "--seed", "1"],
    ["cluster", "exact", "--pointset", "points.json", "--seed", "1"],
    ["cluster", "gonzalez", "--pointset", "points.json", "--budget-nodes", "5"],
    ["embeddability", "--graph", "path.json", "--budget-nodes", "0"],
    ["embedding", "verify", "--embedding", "emb.json", "--seed", "2"],
]


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
    ["cluster", "exact", "--k", "2", "--pointset", "over_cap.json"],
    ["sphere", "verify-lemma53", "--kappa", "2", "--t", "-1"],
    ["sphere", "verify-lemma53", "--kappa", "2", "--t", "0"],
    ["sphere", "sweep", "--kappa", "2", "--t-grid", "1,-1"],
    ["sphere", "sweep", "--kappa", "3..2", "--t-grid", "1"],
    ["embedding", "verify", "--embedding", "emb_missing_vertex.json"],
    ["embedding", "verify", "--embedding", "emb_vertex_out_of_range.json"],
    ["embedding", "verify", "--embedding", "emb_mixed_lengths.json"],
    ["embedding", "verify", "--embedding", "emb_short_not_a_number.json"],
    ["embedding", "verify", "--embedding", "emb_no_vertices.json"],
    ["embedding", "verify", "--embedding", "emb_image_form.json"],
    # the test's own temporary directory, where a file is expected
    ["cluster", "exact", "--pointset", "."],
    ["cluster", "exact", "--pointset", "points.json", "--out", "."],
    ["gadget", "build", "--budget-nodes", "-5"],
    ["cluster", "exact", "--pointset", "no_points.json"],
    ["cluster", "exact", "--k", "2", "--pointset", "no_points.json"],
    ["cluster", "gonzalez", "--pointset", "no_points.json"],
    ["sphere", "reduce", "--hypergraph", "pairs_hypergraph.json"],
    ["embeddability", "--graph", "empty.json"],
    ["cluster", "exact", "--k", "2", "--pointset", "negative_axis.json"],
    ["cluster", "exact", "--pointset", "coeff_count.json"],
    ["embedding", "verify", "--embedding", "emb_unknown_metric.json"],
    ["cluster", "exact", "--pointset", "unknown_metric.json"],
    ["cluster", "exact", "--pointset", "float_entry.json", "--k", "2"],
    ["cluster", "exact", "--pointset", "float_coeff.json"],
    ["gadget", "verify", "--gadget", "attachments_string.json"],
    ["gadget", "verify", "--gadget", "attachments_null.json"],
    ["gadget", "verify", "--gadget", "attachments_nested.json"],
    ["embeddability", "--graph", "edge_bool.json"],
    ["sphere", "reduce", "--hypergraph", "hyperedge_float.json"],
    ["embeddability", "--graph", "graph_repeated_key.json"],
    ["sphere", "reduce", "--hypergraph", "hypergraph_repeated_key.json"],
    ["embedding", "verify", "--embedding", "emb_repeated_key.json"],
    ["cluster", "exact", "--pointset", "pointset_repeated_key.json"],
    ["gadget", "verify", "--gadget", "gadget_repeated_key.json"],
    ["cluster", "exact", "--k", "2", "--pointset", "points_string.json"],
    ["cluster", "exact", "--k", "2", "--pointset", "points_object.json"],
    ["sphere", "sweep", "--kappa", "2", "--t-grid", "1", "--budget-nodes", "-5"],
    ["sphere", "region", "--kappa", "0"],
    ["sphere", "verify-lemma53", "--kappa", "x"],
    ["sphere", "verify-lemma53", "--kappa", "200"],
    ["sphere", "sweep", "--kappa", "1..1000000000", "--t-grid", "1"],
    ["sphere", "region", "--kappa", "3000"],
    ["cluster", "gonzalez", "--k", "3", "--pointset", "line_20000.json"],
    ["sphere", "reduce", "--hypergraph", "negative_n_hypergraph.json"],
    ["sphere", "reduce", "--hypergraph", "no_hyperedges.json"],
    # 2-clustering is `cluster exact --k 2`, and `gadget verify` needs a file
    ["cluster", "two", "--pointset", "points.json"],
    ["gadget", "verify"],
    *REFUSED_FLAGS,
], ids=["lp-cap", "self-loop", "malformed-json", "mixed-lengths", "k7",
        "kappa0", "kappa-range", "composite-not-cubic", "composite-bridge",
        "composite-empty-build", "composite-empty-embed",
        "gonzalez-k0", "axes-repeated", "axes-negative", "gadget-no-removed-edge",
        "not-an-embedding", "exact-over-cap", "two-over-cap",
        "t-negative", "t-zero",
        "t-grid-negative", "kappa-range-empty", "embedding-missing-vertex",
        "embedding-vertex-out-of-range", "embedding-mixed-lengths",
        "embedding-short-not-a-number", "embedding-empty",
        "embedding-image-form", "pointset-is-a-directory",
        "out-is-a-directory", "budget-negative", "exact-empty", "two-empty",
        "gonzalez-empty", "reduce-pairs", "lp-empty", "pointset-negative-axis",
        "pointset-coeff-count", "embedding-unknown-metric", "pointset-unknown-metric",
        "pointset-float-entry", "pointset-float-coeff",
        "gadget-attachments-string", "gadget-attachments-null",
        "gadget-attachments-nested", "graph-bool-endpoint",
        "hypergraph-float-vertex", "graph-repeated-key", "hypergraph-repeated-key",
        "embedding-repeated-key", "pointset-repeated-key",
        "gadget-repeated-key", "pointset-points-string",
        "pointset-points-object", "sweep-budget-negative", "region-kappa0",
        "kappa-not-an-integer", "verify-table-over-cap",
        "sweep-table-over-cap", "region-over-cap", "gonzalez-table-over-cap",
        "reduce-negative-n", "reduce-no-hyperedges", "cluster-two",
        "gadget-verify-no-file", "region-seed", "exact-seed",
        "gonzalez-budget", "embeddability-budget", "embedding-verify-seed"])
def test_bad_input_is_a_one_line_usage_error(argv, tmp_path):
    for name, text in BAD_INPUTS.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(kdiameter.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "kdiameter.cli", *argv],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout) == (3, "")
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    if "malformed.json" in argv:
        # the JSON parser's error, not the edge-list parser's
        assert "bad graph in malformed.json: Expecting" in lines[0]
        assert "invalid literal for int()" not in lines[0]
    if "mixed.json" in argv:
        assert "bad pointset in mixed.json: " in lines[0]
    if "no_points.json" in argv:
        assert "bad pointset in no_points.json: empty pointset" in lines[0]
    if "over_cap.json" in argv:
        assert "pointset over_cap.json: pointset size" in lines[0]
    if "200" in argv or "1..1000000000" in argv or "line_20000.json" in argv:
        assert "exceeds the pair table's cap 4096" in lines[0], lines[0]
    if argv == ["sphere", "region", "--kappa", "3000"]:
        assert lines[0].endswith("over the cap 262144"), lines[0]
    if "emb_missing_vertex.json" in argv:
        assert lines[0].endswith("image has 2 points for 3 vertices"), lines[0]
    if "emb_vertex_out_of_range.json" in argv:
        assert lines[0].endswith("image has 4 points for 3 vertices"), lines[0]
    if "emb_mixed_lengths.json" in argv:
        assert lines[0].endswith("point lengths differ: [2, 3]"), lines[0]
    if "emb_short_not_a_number.json" in argv:
        assert "short 'short' is not an integer" in lines[0]
    if "emb_no_vertices.json" in argv:
        assert "bad embedding in emb_no_vertices.json: empty pointset" in lines[0]
    if "emb_image_form.json" in argv:
        assert lines[0] == ("usage error: bad embedding in emb_image_form.json: "
                            "'pointset'")
    if "coeff_count.json" in argv:
        assert "bad pointset in coeff_count.json: coefficients" in lines[0]
    if "emb_unknown_metric.json" in argv or "unknown_metric.json" in argv:
        assert "unknown metric 'foo'" in lines[0]
    if "float_entry.json" in argv:
        assert "bad pointset in float_entry.json: an entry must be" in lines[0]
    if "float_coeff.json" in argv:
        assert "bad pointset in float_coeff.json: a coefficient must" in lines[0]
    if "edge_bool.json" in argv:
        assert "bad graph in edge_bool.json: an endpoint must" in lines[0]
    if "hyperedge_float.json" in argv:
        assert "bad hypergraph in hyperedge_float.json: a vertex must" in lines[0]
    if "points_string.json" in argv or "points_object.json" in argv:
        assert "points must be a list" in lines[0]
    # the prefix only: argparse quotes the choices differently across Pythons
    if argv[:2] == ["cluster", "two"]:
        assert lines[0].startswith("usage error: argument mode: invalid choice")
    if argv == ["gadget", "verify"]:
        assert lines[0].startswith(
            "usage error: the following arguments are required: --gadget")
    if "negative_n_hypergraph.json" in argv:
        assert lines[0] == ("usage error: bad hypergraph in negative_n_hypergraph"
                            ".json: vertex count must be nonnegative")
    if "no_hyperedges.json" in argv:
        assert lines[0] == ("usage error: hypergraph no_hyperedges.json: "
                            "hypergraph has no hyperedges")
    if "repeated_key" in argv[-1]:
        assert lines[0].endswith("is repeated"), lines[0]
    if argv[:3] == ["gadget", "verify", "--gadget"]:
        assert f"bad gadget in {argv[3]}: " in lines[0]
    if argv in REFUSED_FLAGS:
        assert lines[0] == ("usage error: unrecognized arguments: "
                            + " ".join(argv[-2:]))
    for (flag, value), message in TYPE_ERRORS.items():
        if flag in argv and argv[argv.index(flag) + 1] == value:
            assert lines[0] == "usage error: " + message


# a million vertices in a file of a few dozen bytes
HUGE_N = 10 ** 6


@pytest.mark.parametrize("name, text, argv", [
    ("huge.json", json.dumps({"n": HUGE_N, "edges": []}),
     ["embeddability", "--graph"]),
    ("huge.txt", f"0 {HUGE_N - 1}\n", ["embeddability", "--graph"]),
    ("huge.json", json.dumps({"n": HUGE_N, "edges": []}),
     ["composite", "build", "--graph"]),
    ("huge.json", json.dumps({"n": HUGE_N, "edges": []}),
     ["composite", "embed", "--graph"]),
    ("huge_emb.json", embedding_file(graph={"n": HUGE_N, "edges": []}),
     ["embedding", "verify", "--embedding"]),
], ids=["embeddability-json", "embeddability-edge-list", "composite-build",
        "composite-embed", "embedding-verify"])
def test_a_tiny_file_naming_a_huge_graph_is_refused_in_little_memory(
        name, text, argv, tmp_path, capsys):
    import tracemalloc

    path = tmp_path / name
    path.write_text(text)
    tracemalloc.start()
    try:
        code = main([*argv, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err.startswith("usage error: ")
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("argv", [["embeddability", "--graph"],
                                  ["composite", "build", "--graph"]],
                         ids=["embeddability", "composite-build"])
def test_edges_to_far_vertices_are_refused_in_little_memory(
        argv, tmp_path, capsys):
    """200 edges i -- 999999-i in 2 KB: a graph's memory follows its edges,
    not its largest vertex id, as neighbor bitsets' would (25.8 MiB)."""
    import tracemalloc

    path = tmp_path / "far.txt"
    path.write_text("".join(f"{i} {HUGE_N - 1 - i}\n" for i in range(200)))
    tracemalloc.start()
    try:
        code = main([*argv, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err.startswith("usage error: ")
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# the exit-code contract under mutated input files

# values a mutation puts in place of any part of a valid input
FUZZ_ATOMS = (True, False, None, 0, 1, 2, -1, 1.0, 2.5, "01", " 1", "x", [], {})


def _fuzz_seeds():
    """(argv before the file name, a valid input) for every command that
    reads a file; graphs stay at 8 vertices or fewer, and every command that
    searches a coloring takes a budget of 100,000 nodes."""
    sphere_points = [{"axes": [0, 1, 2], "pos": pos, "coeffs": coeffs, "kappa": 1}
                     for pos, coeffs in ((0, [1, 0, 0]), (1, [0, 1, 0]),
                                         (2, [0, 0, 1]), (0, [0, 1, 0]))]
    capped = ["--budget-nodes", "100000"]
    return [
        (["embeddability", "--graph"], cycle_graph(5).to_dict()),
        (["embeddability", "--graph"], path_graph(4).to_dict()),
        (["composite", "build", *capped, "--graph"],
         complete_graph(4).to_dict()),
        (["composite", "embed", *capped, "--graph"],
         complete_graph(4).to_dict()),
        (["gadget", "verify", *capped, "--gadget"], build_gadget_H().to_dict()),
        (["embedding", "verify", "--embedding"], json.loads(embedding_file())),
        (["sphere", "reduce", "--kappa", "2", "--hypergraph"],
         incidence_hypergraph(complete_graph(4)).to_dict()),
        (["cluster", "exact", *capped, "--k", "2", "--pointset"],
         {"metric": "hamming", "points": ["0011", "0101", "1111", "0000"]}),
        (["cluster", "exact", *capped, "--k", "2", "--pointset"],
         {"metric": "l1_int", "points": [[0, 1], [2, 3], [5, 0]]}),
        (["cluster", "gonzalez", "--k", "2", "--pointset"],
         {"metric": "linf_int", "points": [[0], [4], [9]]}),
        (["cluster", "exact", *capped, "--pointset"],
         {"metric": "l2_sphere_lattice", "points": sphere_points}),
    ]


def _json_paths(value, path=()):
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _mutate(value, rng):
    """`value` with one part replaced by an atom or deleted, a list element
    duplicated, or an object key renamed to a non-canonical form."""
    path = rng.choice(list(_json_paths(value)))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else value
    op = rng.choice(("atom", "atom", "delete", "duplicate", "key"))
    if op == "duplicate" and isinstance(node, list) and node:
        node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
    elif op == "key" and isinstance(node, dict) and node:
        key = rng.choice(list(node))
        node[rng.choice(("0" + key, " " + key, key + ".0"))] = node.pop(key)
    elif op == "delete" and path:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = copy.deepcopy(rng.choice(FUZZ_ATOMS))
    else:
        return copy.deepcopy(rng.choice(FUZZ_ATOMS))
    return value


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(83)
    seeds = _fuzz_seeds()
    path = tmp_path / "input.json"
    codes = Counter()
    for _ in range(500):
        argv, valid = rng.choice(seeds)
        value = copy.deepcopy(valid)
        for _ in range(rng.randint(1, 3)):
            value = _mutate(value, rng)
        text = json.dumps(value)
        if rng.random() < 0.05:
            text = text[:rng.randrange(len(text))]   # truncated JSON
        path.write_text(text)
        code = main([*argv, str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, text)
        if code == 3:
            assert len(err.splitlines()) == 1, (argv, text, err)
        codes[code] += 1
    # both refused and accepted inputs occur
    assert codes[3] and codes[0] + codes[1]
