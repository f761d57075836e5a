from fractions import Fraction

import pytest

from kdiameter.clustering import distinct_distances
from kdiameter.coloring import find_coloring
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
    kappa_sweep,
    region_points,
    remark_clustering,
    remark_diameter_within_bound,
    sweep_csv,
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
        expected = Graph(n, [e for e, d in dists.items() if d.exceeds(t_sq)])
        assert build_threshold_graph(table, t_sq) == expected


def test_anchor_separation_holds_at_kappa12():
    inst = build_region_instance((0, 1, 2), 12)
    stats = {"nodes": 0}
    holds, witness = verify_anchor_separation(inst, stats=stats)
    assert holds and witness is None
    assert stats["nodes"] > 0


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
    assert d == 0 or not d.exceeds(Fraction(1))


def test_remark_clustering_bound_and_anchor_grouping():
    inst = build_region_instance((0, 1, 2), 6)
    cl = remark_clustering(inst)
    assert remark_diameter_within_bound(cl)
    eb = inst.index_of[axis_key(1)]
    ec = inst.index_of[axis_key(2)]
    assert cl.assignment[eb] == cl.assignment[ec]


def test_coloring_clustering_roundtrip():
    J = complete_graph(4)
    h = incidence_hypergraph(J)
    inst = build_P_G(h, kappa=3)
    coloring = find_coloring(h.constraint_graph(), 3)
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


def test_sweep_matches_single_verifications():
    thresholds = [1, Fraction(5, 4), Fraction(163, 125), Fraction(3, 2)]
    rows = kappa_sweep([2, 3, 4], thresholds)
    for row in rows:
        stats = {"nodes": 0}
        holds, _ = verify_anchor_separation(
            build_region_instance((0, 1, 2), row["kappa"]),
            threshold=Fraction(row["t_num"], row["t_den"]), stats=stats)
        assert row["separation_holds"] == ("yes" if holds else "no")
        assert row["nodes_explored"] == stats["nodes"]


def test_sweep_csv_shape():
    rows = kappa_sweep([2, 3], [Fraction(163, 125)])
    csv = sweep_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "kappa,t_num,t_den,separation_holds,nodes_explored,seconds"
    assert len(lines) == 3
    for row in rows:
        assert row["separation_holds"] in ("yes", "no", "budget_exceeded")
