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
    MAX_TABLE_POINTS,
    PairTable,
    Pointset,
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
    SphereInstance,
    axis_key,
    build_P_G,
    build_region_instance,
    build_threshold_graph,
    coloring_to_clustering,
    region_size,
    remark_clustering,
    separation_answer,
    separation_frontier,
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
    assert nodes == 609
    assert verify_anchor_separation(inst) == (True, None)


def test_kappa12_is_the_least_kappa_that_separates():
    """The paper's choice of kappa: at t = 163/125 anchor separation fails
    for every kappa from 1 to 11 and holds at 12 and 13."""
    answers = {kappa: separation_answer(build_region_instance((0, 1, 2), kappa),
                                        Fraction(163, 125))
               for kappa in range(1, 14)}
    assert {kappa: a[0] for kappa, a in answers.items()} == {
        kappa: kappa >= 12 for kappa in range(1, 14)}
    assert (answers[12][2], answers[13][2]) == (609, 527)


MERGING_PATTERNS = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))


def _record_searches(monkeypatch, anchors):
    """A list that gains, for each coloring search from now on, its anchor
    pattern, or None for a free search."""
    ran = []

    def recording(adj, k, fixed=None, **kwargs):
        ran.append(None if fixed is None else tuple(fixed[a] for a in anchors))
        return find_coloring(adj, k, fixed=fixed, **kwargs)

    monkeypatch.setattr("kdiameter.coloring.find_coloring", recording)
    monkeypatch.setattr("kdiameter.sphere.find_coloring", recording)
    return ran


def _check_against_full_walk(monkeypatch, inst, threshold):
    """`separation_answer` gives the verdict and witness of the free search
    plus the unreduced `forall_colorings`.  It searches the merging patterns,
    only (0,0,0) and (0,0,1) on a symmetric instance, up to the first that
    extends, then the free search if none does, and its node total is those
    searches' nodes, each counted here on its own.  Returns the verdict."""
    anchors = [inst.anchor_index[v] for v in inst.regions[0]]
    table = distinct_distances(inst.pointset())
    adj = table.bitsets_at(table.rank_above(threshold ** 2))
    extends, nodes = {}, {}
    for pattern in (None, *MERGING_PATTERNS):
        fixed = None
        if pattern is not None:
            fixed = [-1] * table.n
            for v, c in zip(anchors, pattern):
                fixed[v] = c
        stats = {}
        extends[pattern] = find_coloring(adj, 3, fixed=fixed,
                                         stats=stats) is not None
        nodes[pattern] = stats["nodes"]
    witness = forall_colorings(adj, 3, anchors)
    searched = MERGING_PATTERNS
    if inst.symmetric:
        # the orbit of (0,0,1) extends together
        assert len({extends[p] for p in MERGING_PATTERNS[1:]}) == 1
        searched = MERGING_PATTERNS[:2]
    first = next((i for i, p in enumerate(searched) if extends[p]), None)
    with monkeypatch.context() as m:
        ran = _record_searches(m, anchors)
        holds, got, total = separation_answer(inst, threshold)
    assert (holds, got) == (extends[None] and witness is None, witness)
    assert ran == ([*searched, None] if first is None
                   else list(searched[:first + 1])), threshold
    assert total == sum(nodes[p] for p in ran)
    return holds


def _thresholds_at_every_rank(table):
    """One positive rational t per rank r >= 1 of `table` whose threshold
    graph is the one at r, found by bisection."""
    for rank in range(1, len(table.keys) + 1):
        lo, hi = Fraction(0), Fraction(2)
        while True:
            t = (lo + hi) / 2
            got = table.rank_above(t * t)
            if got == rank:
                yield t
                break
            lo, hi = (t, hi) if got < rank else (lo, t)


def test_orbit_reduced_separation_agrees_with_the_full_walk(monkeypatch):
    """On every rank of the kappa = 1..8 regions and at the kappa = 12 pins,
    the symmetric regions' questions match the full walk."""
    for kappa in range(1, 9):
        inst = build_region_instance((0, 1, 2), kappa)
        for t in _thresholds_at_every_rank(distinct_distances(inst.pointset())):
            _check_against_full_walk(monkeypatch, inst, t)
    inst = build_region_instance((0, 1, 2), 12)
    for t in (1, Fraction(5, 4), SEPARATION_THRESHOLD, Fraction(6523, 5000),
              Fraction(6524, 5000), Fraction(4, 3), Fraction(3, 2)):
        _check_against_full_walk(monkeypatch, inst, t)


def test_asymmetric_instance_searches_every_merging_pattern(monkeypatch):
    """With one non-anchor point dropped the region is not symmetric, and
    every rank's question matches the full walk over all four patterns:
    where separation holds, after searching each of them."""
    region = build_region_instance((0, 1, 2), 6)
    drop = len(region.points) - 1
    assert drop not in region.anchor_index.values()
    points = [p for i, p in enumerate(region.points) if i != drop]
    index = {p.key: i for i, p in enumerate(points)}
    inst = SphereInstance(
        region.kappa, region.regions, Pointset("l2_sphere_lattice", points),
        {v: index[axis_key(v)] for v in region.anchor_index},
        region.families[:drop] + region.families[drop + 1:])
    assert not inst.symmetric
    verdicts = {_check_against_full_walk(monkeypatch, inst, t)
                for t in _thresholds_at_every_rank(
                    distinct_distances(inst.pointset()))}
    assert verdicts == {False, True}


def test_regions_are_symmetric():
    """Every region over (0, 1, 2) passes the symmetry check, which is
    computed once and kept; a union of two regions does not."""
    for kappa in range(1, 14):
        inst = build_region_instance((0, 1, 2), kappa)
        assert inst.symmetric is True and "symmetric" in vars(inst)
    assert not build_P_G(Hypergraph(4, [(0, 1, 2), (1, 2, 3)]), 2).symmetric


def test_kappa12_separation_search_counts_are_pinned(monkeypatch):
    """(searches, nodes) of each kappa = 12 question of the `sphere`
    benchmark workload: a holding verdict searches (0,0,0), (0,0,1) and the
    free search, and a failing one stops at (0,0,0), which extends."""
    inst = build_region_instance((0, 1, 2), 12)
    ran = _record_searches(monkeypatch, list(inst.anchor_index.values()))
    counts = []
    for t in (1, Fraction(5, 4), SEPARATION_THRESHOLD, Fraction(4, 3),
              Fraction(3, 2)):
        ran.clear()
        nodes = separation_answer(inst, t)[2]
        counts.append((len(ran), nodes))
    assert counts == [(3, 275), (3, 285), (3, 609), (1, 267), (1, 267)]


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
        upper = separation_frontier(inst)[1]
        assert Fraction(*sphere_key(upper.diameter)) == s
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


def test_frontier_matches_single_verifications(capsys):
    """Every `verify-lemma53` verdict is what the `sphere frontier` report
    of its kappa gives, lower.diameter <= t^2 < upper.diameter, whatever
    the budget: a report, or on exhaustion the one stderr line with the
    question's total.  Under each budget the frontier itself exits 2 or
    gives the unbounded report."""
    grid = [Fraction(1), SEPARATION_THRESHOLD, Fraction(3, 2),
            Fraction(6523, 5000), Fraction(6524, 5000)]
    budgets = [[], ["--budget-nodes", "0"], ["--budget-nodes", "30"],
               ["--budget-nodes", "272"]]
    for kappa in (1, 2, 4, 12):
        inst = build_region_instance((0, 1, 2), kappa)
        argv = ["sphere", "frontier", "--kappa", str(kappa)]
        code, out = _run(capsys, *argv)
        report = json.loads(out)
        lower, upper = (SqDistance(**report[end]["diameter"])
                        for end in ("lower", "upper"))
        assert code == (0 if lower < upper else 1) == (0 if kappa > 1 else 1)
        for budget in budgets:
            bounded = main([*argv, *budget])
            captured = capsys.readouterr()
            if bounded == 2:
                assert captured.out == "", budget
                assert captured.err.startswith("budget exceeded after ")
            else:
                assert (bounded, {**json.loads(captured.out), "parameters": 0}
                        ) == (code, {**report, "parameters": 0}), budget
            for t in grid:
                single = main(["sphere", "verify-lemma53", "--kappa",
                               str(kappa), "--t", str(t), *budget])
                captured = capsys.readouterr()
                if single == 2:
                    with pytest.raises(BudgetExceeded) as exhausted:
                        separation_answer(inst, t, int(budget[1]))
                    assert (captured.out, captured.err) == (
                        "", f"budget exceeded after {exhausted.value.nodes}"
                            " nodes\n"), (kappa, t, budget)
                    continue
                holds = json.loads(captured.out)["verdicts"]["separation_holds"]
                assert holds == (lower <= t ** 2 < upper), (kappa, t, budget)
                assert single == (0 if holds else 1)


# s(kappa), the order key of the squared distance 1 + sqrt(s) at which
# anchor separation stops holding on the kappa-region (ROADMAP item 3)
FRONTIER_KEYS = {2: Fraction(1, 4), 3: Fraction(1, 3), 4: Fraction(5, 12),
                 5: Fraction(4, 9), 6: Fraction(6, 13), 7: Fraction(9, 19),
                 8: Fraction(529, 1100), 9: Fraction(16, 33),
                 10: Fraction(361, 738), 11: Fraction(25, 51),
                 12: Fraction(361, 732), 13: Fraction(36, 73)}


def test_frontier_matches_the_paper_table(capsys):
    """At kappa = 2..13 separation holds from squared distance 1 up to, not
    including, 1 + sqrt(s(kappa)).  Each end is checked by the searches on
    both sides of its rank: the graph is not 3-colorable just below the
    lower end and is at it, and separation holds at the rank below the
    upper end and fails at it.  At kappa = 1 the interval is empty."""
    for kappa, s in FRONTIER_KEYS.items():
        inst = build_region_instance((0, 1, 2), kappa)
        lower, upper, _ = separation_frontier(inst)
        assert lower.diameter == 1 and upper.diameter > 1
        assert Fraction(*sphere_key(upper.diameter)) == s
        table = inst.pointset().table
        anchors = [inst.anchor_index[v] for v in (0, 1, 2)]
        lo = table.rank_above(lower.diameter)
        hi = table.rank_above(upper.diameter)
        assert find_coloring(table.bitsets_at(lo - 1), 3) is None
        assert find_coloring(table.bitsets_at(hi - 1), 3) is not None
        assert forall_colorings(table.bitsets_at(hi - 1), 3, anchors) is None
        assert forall_colorings(table.bitsets_at(hi), 3, anchors) is not None
    lower, upper, _ = separation_frontier(build_region_instance((0, 1, 2), 1))
    assert lower.diameter == upper.diameter
    code, out = _run(capsys, "sphere", "frontier", "--kappa", "1")
    report = json.loads(out)
    assert (code, report["lower"]["diameter"]) == (1,
                                                   report["upper"]["diameter"])


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
    """At kappa=12, t=163/125 and a budget of 272 nodes, anchor pattern
    (0,0,0) explores 62 nodes and (0,0,1) breaks the budget at its 273rd:
    the command and the library report the question's total, 335, and not
    the last search's 273.  The frontier at that budget reports its total
    over both ends, 1,286."""
    inst = build_region_instance((0, 1, 2), 12)
    for argv, answers, total in (
            (["verify-lemma53", "--t", "163/125"],
             (separation_answer, verify_anchor_separation), 335),
            (["frontier"], (separation_frontier,), 1286)):
        code = main(["sphere", *argv, "--kappa", "12", "--budget-nodes",
                     "272"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", f"budget exceeded after {total} nodes\n")
        for answer in answers:
            with pytest.raises(BudgetExceeded) as exhausted:
                answer(inst, budget=272)
            assert exhausted.value.nodes == total


def test_uncolorable_threshold_graph_refutes_separation(capsys):
    """At kappa = 2 and t = 1/1000 the threshold graph is not 3-colorable:
    separation fails with no witness: the two anchor patterns searched stop
    at once on adjacent anchors, and the free search finds no coloring."""
    code, out = _run(capsys, "sphere", "verify-lemma53", "--kappa", "2",
                     "--t", "1/1000")
    report = json.loads(out)
    assert code == 1
    assert report["verdicts"] == {"separation_holds": False}
    assert (report["witness"], report["nodes"]) == (None, 3)


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
    separation_frontier(inst)
    assert built == [len(inst.points)]
    # a frontier run builds one table, whatever the budget
    for budget in ("0", "272", "1000000000"):
        built.clear()
        main(["sphere", "frontier", "--kappa", "4", "--budget-nodes", budget])
        assert built == [region_size(4)]
    # acceptance criteria 6-8 ask about one kappa=12 region
    built.clear()
    _kappa12_region.cache_clear()
    assert all(criterion()["ok"]
               for criterion in (criterion_6, criterion_7, criterion_8))
    assert built == [270]


def _refuse_regions(monkeypatch):
    def refuse(*args):
        raise AssertionError("a region was built")

    monkeypatch.setattr("kdiameter.cli.build_region_instance", refuse)
    monkeypatch.setattr(PairTable, "__init__", refuse)


@pytest.mark.parametrize("argv", [
    ["verify-lemma53", "--kappa", "50", "--t", "0"],
    ["verify-lemma53", "--kappa", "50", "--t=-1/2"],
    ["verify-lemma53", "--kappa", "2", "--t", "0/7"],
])
def test_non_positive_threshold_is_refused_before_any_region(
        argv, monkeypatch, capsys):
    """The threshold is checked before the region is built, so a bad one
    costs no pair table of the region's 3,975 points."""
    _refuse_regions(monkeypatch)
    assert main(["sphere", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: threshold must be positive\n"


def test_frontier_over_the_cap_builds_no_region(monkeypatch, capsys):
    """kappa = 51 is the least kappa whose region is over the pair table's
    cap, and it is refused before any region or table is built."""
    assert region_size(50) <= MAX_TABLE_POINTS < region_size(51)
    _refuse_regions(monkeypatch)
    assert main(["sphere", "frontier", "--kappa", "51"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "usage error: pointset size 4131 exceeds the pair table's cap 4096\n"))
