import json
from fractions import Fraction
from itertools import permutations

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
    make_clustering,
    two_cluster,
)
from kdiameter.coloring import BudgetExceeded, find_coloring, forall_colorings
from kdiameter.geometry import (
    PairTable,
    SphereLatticePoint,
    SqDistance,
    sphere_key,
)
from kdiameter.graphs import (
    Graph,
    Hypergraph,
    complete_graph,
    incidence_hypergraph,
    petersen_graph,
)
from kdiameter.sphere import (
    MAX_INSTANCE_POINTS,
    SEPARATION_THRESHOLD,
    axis_key,
    build_P_G,
    build_region_instance,
    build_threshold_graph,
    coloring_to_clustering,
    region_size,
    remark_clustering,
    separation_answer,
    verify_anchor_separation,
)


def test_region_point_count():
    for kappa in (1, 2, 3, 6, 12):
        inst = build_region_instance((0, 1, 2), kappa)
        assert len(inst.points) == region_size(kappa)
        assert region_size(kappa) == 3 * (kappa + 1) * (kappa + 2) // 2 - 3
    with pytest.raises(ValueError):
        build_region_instance((0, 1, 2), 0)


def test_instances_over_the_point_cap_are_refused():
    """The cap counts regions x region_size(kappa) before any point is
    built, so these refusals take no time."""
    assert region_size(416) <= MAX_INSTANCE_POINTS < region_size(417)
    for kappa in (417, 3000, 10 ** 9):
        with pytest.raises(ValueError, match="over the cap 262144"):
            build_region_instance((0, 1, 2), kappa)
    h = Hypergraph(3 * 1000, [(3 * i, 3 * i + 1, 3 * i + 2)
                              for i in range(1000)])
    assert 1000 * region_size(12) > MAX_INSTANCE_POINTS
    with pytest.raises(ValueError, match=r"1000 region\(s\) at kappa 12"):
        build_P_G(h, kappa=12)
    # the Petersen reduction at the paper's kappa stays well under the cap
    petersen = build_P_G(incidence_hypergraph(petersen_graph()), kappa=12)
    assert len(petersen.points) == 2670


def test_region_instance_anchors():
    inst = build_region_instance((0, 1, 2), 4)
    for axis in (0, 1, 2):
        i = inst.anchor_index[axis]
        assert inst.points[i].key == axis_key(axis)


def test_build_P_G_deduplicates_shared_axes():
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    inst = build_P_G(h, kappa=3)
    single = region_size(3)
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


def test_kappa12_is_the_least_kappa_that_separates():
    """The paper's choice of kappa: at t = 163/125 anchor separation fails
    for every kappa from 1 to 11 and holds at 12 and 13."""
    answers = {kappa: separation_answer(build_region_instance((0, 1, 2), kappa),
                                        Fraction(163, 125))
               for kappa in range(1, 14)}
    assert {kappa: a[0] for kappa, a in answers.items()} == {
        kappa: kappa >= 12 for kappa in range(1, 14)}
    assert (answers[12][2], answers[13][2]) == (1044, 703)


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
    """The completeness direction's clustering of each region, criterion 7's
    construction: squared diameter exactly 1 and the three anchors in three
    clusters."""
    for kappa in range(2, 13):
        inst = build_region_instance((0, 1, 2), kappa)
        cl = coloring_to_clustering(inst, [0, 1, 2])
        assert cl.diameter == 1, kappa
        assert [cl.assignment[inst.anchor_index[v]] for v in (0, 1, 2)] == [
            0, 1, 2]


def test_remark_clustering_bound_and_anchor_grouping():
    """The construction's ceiling: for kappa = 1..16 the coordinate rule
    puts the anchors e_1 and e_2 in one cluster, apart from e_0, at squared
    diameter at most 1 + sqrt(2)/2 (order key 1/2), so no such region proves
    a factor above sqrt(1 + 1/sqrt(2)).  The key is 1/2 at even kappa and
    1/2 - 1/(kappa^2 - 2 kappa + 3) at odd kappa."""
    for kappa in range(1, 17):
        inst = build_region_instance((0, 1, 2), kappa)
        cl = remark_clustering(inst)
        assert cl.diameter <= SqDistance(-1, 1, 2)   # 1 + sqrt(2)/2
        ea, eb, ec = (inst.anchor_index[v] for v in (0, 1, 2))
        assert inst.points[eb].key == axis_key(1)
        assert cl.assignment[eb] == cl.assignment[ec] != cl.assignment[ea]
        key = Fraction(*sphere_key(cl.diameter))
        half = Fraction(1, 2)
        assert key == (half - Fraction(1, kappa ** 2 - 2 * kappa + 3)
                       if kappa % 2 else half), kappa


def test_odd_kappa_frontier_is_the_remark_clustering_key():
    """At odd kappa from 3 to 13 the separation frontier is the remark
    clustering's diameter key s = 1/2 - 1/(kappa^2 - 2 kappa + 3): anchor
    separation holds on the pairs farther than the greatest key below s,
    and fails on the pairs farther than s, where the remark clustering is a
    proper coloring merging two anchors."""
    below, nodes = {}, {}
    for kappa in range(3, 14, 2):
        inst = build_region_instance((0, 1, 2), kappa)
        table = inst.pointset().table
        anchors = [inst.anchor_index[v] for v in (0, 1, 2)]
        s = Fraction(1, 2) - Fraction(1, kappa ** 2 - 2 * kappa + 3)
        r = table.keys.index(s)
        below[kappa] = table.keys[r - 1]
        holding, failing = table.bitsets_at(r), table.bitsets_at(r + 1)
        stats = {"nodes": 0}
        assert find_coloring(holding, 3, stats=stats) is not None
        assert forall_colorings(holding, 3, anchors, stats=stats) is None
        nodes[kappa] = stats["nodes"]
        assert forall_colorings(failing, 3, anchors) is not None
        cl = remark_clustering(inst)
        assert Fraction(*sphere_key(cl.diameter)) == s
        for c in range(3):
            mask = sum(1 << i for i, a in enumerate(cl.assignment) if a == c)
            assert all(failing[i] & mask == 0 for i in range(len(failing))
                       if mask >> i & 1), (kappa, c)
        assert len({cl.assignment[a] for a in anchors}) < 3
    assert below == {3: Fraction(1, 5), 5: Fraction(49, 117),
                     7: Fraction(196, 425), 9: Fraction(576, 1189),
                     11: Fraction(20, 41), 13: Fraction(3249, 6643)}
    assert nodes == {3: 54, 5: 162, 7: 200, 9: 298, 11: 612, 13: 703}


def test_coloring_clustering_roundtrip():
    J = complete_graph(4)
    h = incidence_hypergraph(J)
    inst = build_P_G(h, kappa=3)
    coloring = find_coloring(h.constraint_graph().adjacency_bitsets(), 3)
    assert coloring is not None
    cl = coloring_to_clustering(inst, coloring)
    # each anchor e_v lies in the families v alone, so it gets v's color
    back = [cl.assignment[inst.anchor_index[v]] for v in range(h.n)]
    assert back == coloring
    for e in h.hyperedges:
        assert len({back[v] for v in e}) == 3


def test_coloring_to_clustering_rejects_non_rainbow():
    h = Hypergraph(3, [(0, 1, 2)])
    inst = build_P_G(h, kappa=2)
    with pytest.raises(ValueError, match="not rainbow on region"):
        coloring_to_clustering(inst, [0, 0, 1])
    # two regions: a coloring rainbow on one region but not the other
    inst = build_P_G(Hypergraph(4, [(0, 1, 2), (1, 2, 3)]), kappa=2)
    for coloring in ([0, 1, 2, 1], [0, 0, 1, 2], [1, 1, 1, 1]):
        with pytest.raises(ValueError, match="not rainbow on region"):
            coloring_to_clustering(inst, coloring)
    assert coloring_to_clustering(inst, [0, 1, 2, 0]).diameter <= 1


def _prism_graph():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])


def _wagner_graph():
    return Graph(8, [(i, (i + 1) % 8) for i in range(8)]
                 + [(i, i + 4) for i in range(4)])


CUBIC_GRAPHS = {"K4": complete_graph(4), "Petersen": petersen_graph(),
                "prism": _prism_graph(), "Wagner": _wagner_graph()}

REGION_AXES = [(0, 1, 2), (2, 0, 1), (3, 5, 7), (7, 3, 5)]


def _family_indices(instance, axes, pos):
    """The indices of the instance's points in family `pos` of the region
    over `axes`, found by regenerating that family's points."""
    index_of = {p.key: i for i, p in enumerate(instance.points)}
    keys = {SphereLatticePoint(axes, pos, (i, j, instance.kappa - i - j),
                               instance.kappa).key
            for i in range(instance.kappa + 1)
            for j in range(instance.kappa + 1 - i)}
    return [index_of[k] for k in sorted(keys) if k in index_of]


def _regenerated_families(instance):
    """Each point's families' axes, in first-seen order, region by region."""
    families = [[] for _ in instance.points]
    for region in instance.regions:
        for v in region:
            for i in _family_indices(instance, region, v):
                if v not in families[i]:
                    families[i].append(v)
    return [tuple(axes) for axes in families]


def _instances():
    for axes in REGION_AXES:
        for kappa in range(1, 13):
            yield build_region_instance(axes, kappa)
    for J in CUBIC_GRAPHS.values():
        for kappa in range(1, 5):
            yield build_P_G(incidence_hypergraph(J), kappa)


def test_families_match_regenerated_family_points():
    for inst in _instances():
        assert list(inst.families) == _regenerated_families(inst), inst
        assert len(inst.families) == len(inst.points)
        # every anchor lies in its own families only, every shared negative
        # axis point in two
        for v, i in inst.anchor_index.items():
            assert inst.families[i] == (v,)


def test_coloring_to_clustering_matches_regenerated_families():
    """Every relabelling of each P_G coloring gives the clustering in which
    each point takes the least color of the families it is found in by
    regenerating every family's points."""
    for name in ("K4", "prism", "Wagner"):
        h = incidence_hypergraph(CUBIC_GRAPHS[name])
        coloring = find_coloring(h.constraint_graph().adjacency_bitsets(), 3)
        assert coloring is not None
        for kappa in range(1, 5):
            inst = build_P_G(h, kappa)
            families = _regenerated_families(inst)
            for perm in permutations(range(3)):
                relabelled = [perm[c] for c in coloring]
                want = make_clustering(
                    inst.pointset(),
                    [min(relabelled[v] for v in axes) for axes in families], 3)
                got = coloring_to_clustering(inst, relabelled)
                assert (got.assignment, repr(got.diameter),
                        got.witness_pair) == (want.assignment,
                                              repr(want.diameter),
                                              want.witness_pair), (name, kappa)


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_sweep_matches_single_verifications(capsys):
    """Every `sphere sweep` row is what `verify-lemma53` gives for its
    (kappa, t), verdict, node total and exhaustion alike, whatever the
    budget: a report, or on exhaustion the one stderr line."""
    grid = [(1, 1), (163, 125), (3, 2)]
    csv_verdict = {True: "yes", False: "no"}
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
            single = main(["sphere", "verify-lemma53", "--kappa", kappa,
                           "--t", f"{n}/{d}", *budget])
            single_codes.append(single)
            captured = capsys.readouterr()
            if single == 2:
                assert (verdict, captured.out, captured.err) == (
                    "budget_exceeded", "",
                    f"budget exceeded after {nodes} nodes\n"), (budget, row)
                continue
            report = json.loads(captured.out)
            assert (verdict, int(nodes)) == (
                csv_verdict[report["verdicts"]["separation_holds"]],
                report["nodes"]), (budget, row)
            assert "witness" in report
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


def test_kappa12_separation_frontier(capsys):
    """t*(12)^2 = 1 + sqrt(361/732), so t* ~ 1.304707 lies between
    6523/5000 and 6524/5000: separation holds at the first and fails at the
    second, with a proper coloring of the threshold graph that merges two
    anchors."""
    below, above = Fraction(6523, 5000), Fraction(6524, 5000)
    assert (below ** 2 - 1) ** 2 < Fraction(361, 732) < (above ** 2 - 1) ** 2
    code, out = _run(capsys, "sphere", "verify-lemma53", "--kappa", "12",
                     "--t", "6523/5000")
    report = json.loads(out)
    assert (code, report["verdicts"], report["witness"]) == (
        0, {"separation_holds": True}, None)
    code, out = _run(capsys, "sphere", "verify-lemma53", "--kappa", "12",
                     "--t", "6524/5000")
    report = json.loads(out)
    assert (code, report["verdicts"]) == (1, {"separation_holds": False})
    witness = report["witness"]
    inst = build_region_instance((0, 1, 2), 12)
    graph = build_threshold_graph(distinct_distances(inst.pointset()),
                                  above ** 2)
    assert all(witness[u] != witness[v] for u, v in graph.edges)
    assert len({witness[inst.anchor_index[a]] for a in (0, 1, 2)}) < 3


def test_separation_reports_count_the_whole_question(capsys):
    """At kappa=12, t=163/125 and a budget of 272 nodes, the searches before
    the exhausted one explore 332 nodes: both commands and the library
    report the question's total, 605, and not the last search's 273."""
    code = main(["sphere", "verify-lemma53", "--kappa", "12",
                 "--t", "163/125", "--budget-nodes", "272"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "budget exceeded after 605 nodes\n")
    assert _run(capsys, "sphere", "sweep", "--kappa", "12", "--t-grid",
                "163/125", "--budget-nodes", "272") == (2, (
                    "kappa,t_num,t_den,separation_holds,nodes_explored\n"
                    "12,163,125,budget_exceeded,605\n"))
    inst = build_region_instance((0, 1, 2), 12)
    for answer in (separation_answer, verify_anchor_separation):
        with pytest.raises(BudgetExceeded) as exhausted:
            answer(inst, budget=272)
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
    coloring_to_clustering(inst, [0, 1, 2])
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


@pytest.mark.parametrize("argv", [
    ["sweep", "--kappa", "50", "--t-grid", "163/125,0"],
    ["sweep", "--kappa", "2,50", "--t-grid", "1,-1/2"],
    ["verify-lemma53", "--kappa", "50", "--t", "0"],
])
def test_non_positive_threshold_is_refused_before_any_region(
        argv, monkeypatch, capsys):
    """Every threshold is checked before the first region is built, so a
    bad one late in the grid costs no search of the rows before it."""
    def refuse(*args):
        raise AssertionError("a region was built")

    monkeypatch.setattr("kdiameter.cli.build_region_instance", refuse)
    monkeypatch.setattr(PairTable, "__init__", refuse)
    assert main(["sphere", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: threshold must be positive\n"
