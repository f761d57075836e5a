import json
from fractions import Fraction

import pytest

from kdiameter.acceptance import (
    _kappa12_region,
    criterion_6,
    criterion_7,
    criterion_8,
)
from kdiameter.cli import main
from kdiameter.clustering import (
    distinct_distances,
    exact_cluster,
    gonzalez_cluster,
    two_cluster,
)
from kdiameter.coloring import BudgetExceeded, find_coloring
from kdiameter.geometry import PairTable, SqDistance
from kdiameter.graphs import Graph, Hypergraph, complete_graph, incidence_hypergraph
from kdiameter.sphere import (
    SEPARATION_THRESHOLD,
    axis_key,
    build_P_G,
    build_region_instance,
    build_threshold_graph,
    clustering_to_coloring,
    coloring_to_clustering,
    completeness_clustering,
    region_points,
    remark_clustering,
    separation_answer,
    verify_anchor_separation,
)


def test_region_point_count():
    for kappa in (1, 2, 3, 6, 12):
        pts = region_points((0, 1, 2), kappa)
        assert len(pts) == 3 * (kappa + 1) * (kappa + 2) // 2 - 3
    with pytest.raises(ValueError):
        region_points((0, 1, 2), 0)


def test_region_instance_anchors():
    inst = build_region_instance((0, 1, 2), 4)
    for axis in (0, 1, 2):
        i = inst.anchor_index[axis]
        assert inst.points[i].key == axis_key(axis)


def test_build_P_G_deduplicates_shared_axes():
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    inst = build_P_G(h, kappa=3)
    single = len(region_points((0, 1, 2), 3))
    assert len(inst.points) < 2 * single
    assert set(inst.anchor_index) == {0, 1, 2, 3}
    # the shared negative axis points appear exactly once
    assert len(inst.points) == len({p.key for p in inst.points})


def test_threshold_graph_monotone():
    inst = build_region_instance((0, 1, 2), 3)
    table = distinct_distances(inst.pointset())
    low = build_threshold_graph(table, Fraction(1))
    high = build_threshold_graph(table, Fraction(169, 100))
    assert high.edges <= low.edges


def test_threshold_graph_strict_at_exact_tie():
    inst = build_region_instance((0, 1, 2), 3)
    table = distinct_distances(inst.pointset())
    a, b = inst.anchor_index[0], inst.anchor_index[1]
    # ||e_a - e_b||^2 is exactly 1: an edge only strictly below it
    assert not build_threshold_graph(table, 1).has_edge(a, b)
    assert build_threshold_graph(table, Fraction(99, 100)).has_edge(a, b)


def test_threshold_graph_matches_per_pair_exceeds():
    ps = build_region_instance((0, 1, 2), 8).pointset()
    table = distinct_distances(ps)
    n = len(ps)
    dists = {(i, j): ps.distance(i, j) for i in range(n) for j in range(i + 1, n)}
    for t in (1, Fraction(5, 4), Fraction(163, 125), Fraction(4, 3),
              Fraction(3, 2)):
        t_sq = Fraction(t) ** 2
        expected = Graph(n, [e for e, d in dists.items() if d > t_sq])
        assert build_threshold_graph(table, t_sq) == expected


def test_anchor_separation_holds_at_kappa12():
    inst = build_region_instance((0, 1, 2), 12)
    holds, witness, nodes = separation_answer(inst)
    assert holds is True and witness is None
    assert nodes == 1044
    assert verify_anchor_separation(inst) == (True, None)


def test_anchor_separation_fails_at_small_kappa():
    inst = build_region_instance((0, 1, 2), 4)
    holds, witness = verify_anchor_separation(inst)
    assert not holds
    assert witness is not None
    graph = build_threshold_graph(distinct_distances(inst.pointset()),
                                  SEPARATION_THRESHOLD ** 2)
    assert all(witness[u] != witness[v] for u, v in graph.edges)
    anchors = [inst.anchor_index[a] for a in (0, 1, 2)]
    assert len({witness[a] for a in anchors}) < 3


def test_anchor_separation_refuses_non_positive_threshold():
    inst = build_region_instance((0, 1, 2), 2)
    for t in (Fraction(-1), 0):
        with pytest.raises(ValueError):
            verify_anchor_separation(inst, threshold=t)


def test_completeness_clustering_diameter_at_most_one():
    inst = build_region_instance((0, 1, 2), 6)
    cl = completeness_clustering(inst)
    d = cl.diameter
    assert d == 0 or not d > 1


def test_remark_clustering_bound_and_anchor_grouping():
    inst = build_region_instance((0, 1, 2), 6)
    cl = remark_clustering(inst)
    assert cl.diameter <= SqDistance(-1, 1, 2)   # 1 + sqrt(2)/2
    eb = inst.index_of[axis_key(1)]
    ec = inst.index_of[axis_key(2)]
    assert cl.assignment[eb] == cl.assignment[ec]


def test_coloring_clustering_roundtrip():
    J = complete_graph(4)
    h = incidence_hypergraph(J)
    inst = build_P_G(h, kappa=3)
    coloring = find_coloring(h.constraint_graph().adjacency_bitsets(), 3)
    assert coloring is not None
    cl = coloring_to_clustering(inst, h, coloring)
    back = clustering_to_coloring(inst, h, cl)
    for e in h.hyperedges:
        assert len({back[v] for v in e}) == 3


def test_coloring_to_clustering_rejects_non_rainbow():
    h = Hypergraph(3, [(0, 1, 2)])
    inst = build_P_G(h, kappa=2)
    with pytest.raises(ValueError):
        coloring_to_clustering(inst, h, [0, 0, 1])


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_sweep_matches_single_verifications(capsys):
    """Every `sphere sweep` row is the `verify-lemma53` report for its
    (kappa, t), verdict, node total and exhaustion alike, whatever the
    budget."""
    grid = [(1, 1), (163, 125), (3, 2)]
    csv_verdict = {True: "yes", False: "no",
                   "budget_exceeded": "budget_exceeded"}
    for budget in ([], ["--budget-nodes", "0"], ["--budget-nodes", "30"],
                   ["--budget-nodes", "272"]):
        code, out = _run(capsys, "sphere", "sweep", "--kappa", "2,4,12",
                         "--t-grid", ",".join(f"{n}/{d}" for n, d in grid),
                         *budget)
        header, *rows = out.splitlines()
        assert header == "kappa,t_num,t_den,separation_holds,nodes_explored"
        assert [row.split(",")[:3] for row in rows] == [
            [str(kappa), str(n), str(d)] for kappa in (2, 4, 12)
            for n, d in grid]
        single_codes = []
        for row in rows:
            kappa, n, d, verdict, nodes = row.split(",")
            single, text = _run(capsys, "sphere", "verify-lemma53",
                                "--kappa", kappa, "--t", f"{n}/{d}", *budget)
            single_codes.append(single)
            report = json.loads(text)
            assert (verdict, int(nodes)) == (
                csv_verdict[report["verdicts"]["separation_holds"]],
                report["nodes"]), (budget, row)
            assert ("witness" in report) is (verdict != "budget_exceeded")
        assert code == (2 if 2 in single_codes else 0), budget


def test_sweep_csv_shape(capsys):
    code, out = _run(capsys, "sphere", "sweep", "--kappa", "2,3",
                     "--t-grid", "163/125")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "kappa,t_num,t_den,separation_holds,nodes_explored"
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[3] in ("yes", "no", "budget_exceeded")


def test_separation_reports_count_the_whole_question(capsys):
    """At kappa=12, t=163/125 and a budget of 272 nodes, the searches before
    the exhausted one explore 332 nodes: both commands and the library
    report the question's total, 605, and not the last search's 273."""
    code, out = _run(capsys, "sphere", "verify-lemma53", "--kappa", "12",
                     "--t", "163/125", "--budget-nodes", "272")
    report = json.loads(out)
    assert (code, report["nodes"]) == (2, 605)
    assert report["verdicts"] == {"separation_holds": "budget_exceeded"}
    assert _run(capsys, "sphere", "sweep", "--kappa", "12", "--t-grid",
                "163/125", "--budget-nodes", "272") == (2, (
                    "kappa,t_num,t_den,separation_holds,nodes_explored\n"
                    "12,163,125,budget_exceeded,605\n"))
    inst = build_region_instance((0, 1, 2), 12)
    assert separation_answer(inst, budget=272) == ("budget_exceeded", None, 605)
    with pytest.raises(BudgetExceeded) as exhausted:
        verify_anchor_separation(inst, budget=272)
    assert exhausted.value.nodes == 605


def test_uncolorable_threshold_graph_refutes_separation(capsys):
    """At kappa = 2 and t = 1/1000 the threshold graph is not 3-colorable:
    separation fails with no witness after the free search alone."""
    code, out = _run(capsys, "sphere", "verify-lemma53", "--kappa", "2",
                     "--t", "1/1000")
    report = json.loads(out)
    assert code == 1
    assert report["verdicts"] == {"separation_holds": False}
    assert (report["witness"], report["nodes"]) == (None, 3)
    assert _run(capsys, "sphere", "sweep", "--kappa", "2",
                "--t-grid", "1/1000") == (0, (
                    "kappa,t_num,t_den,separation_holds,nodes_explored\n"
                    "2,1,1000,no,3\n"))


def _count_tables(monkeypatch):
    """A list that gains one entry per `PairTable` built from now on."""
    built = []
    init = PairTable.__init__

    def counting(self, pointset):
        built.append(len(pointset))
        init(self, pointset)

    monkeypatch.setattr(PairTable, "__init__", counting)
    return built


def test_one_pair_table_per_pointset(monkeypatch):
    built = _count_tables(monkeypatch)
    inst = build_region_instance((0, 1, 2), 4)
    assert inst.pointset() is inst.pointset()
    # the separation verdicts and clusterings one region is asked
    for t in (1, Fraction(5, 4), SEPARATION_THRESHOLD, Fraction(4, 3),
              Fraction(3, 2)):
        verify_anchor_separation(inst, threshold=t)
    ps = inst.pointset()
    exact_cluster(ps, 3)
    two_cluster(ps)
    gonzalez_cluster(ps, 3)
    completeness_clustering(inst)
    remark_clustering(inst)
    assert built == [len(inst.points)]
    # a sweep builds one table per kappa, whatever the budget
    for budget in ("0", "272", "1000000000"):
        built.clear()
        main(["sphere", "sweep", "--kappa", "2..4", "--t-grid",
              "1,163/125,3/2", "--budget-nodes", budget])
        assert built == [3 * (kappa + 1) * (kappa + 2) // 2 - 3
                         for kappa in (2, 3, 4)]
    # acceptance criteria 6-8 ask about one kappa=12 region
    built.clear()
    _kappa12_region.cache_clear()
    assert all(criterion()["ok"]
               for criterion in (criterion_6, criterion_7, criterion_8))
    assert built == [270]
