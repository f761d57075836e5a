import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from kdiameter.acceptance import brute_force_cluster_diameter, random_int_pointset
from kdiameter.clustering import (
    MAX_POINTS,
    barrier_screen,
    distinct_distances,
    exact_cluster,
    gonzalez_cluster,
    jung_bound_holds,
    make_clustering,
    min_enclosing_ball,
    threshold_graph_at,
    two_cluster,
)
from kdiameter.geometry import BitVector, IntVector, Pointset
from kdiameter.graphs import Graph, odd_girth
from kdiameter.hadamard import hadamard_code
from kdiameter.sphere import build_region_instance


def test_make_clustering_validation():
    ps = Pointset("l1_int", [IntVector([0]), IntVector([3])])
    cl = make_clustering(ps, [0, 0], 2)
    assert cl.diameter == 3 and cl.witness_pair == (0, 1)
    assert cl.clusters() == [[0, 1], []]
    with pytest.raises(ValueError):
        make_clustering(ps, [0], 2)
    with pytest.raises(ValueError):
        make_clustering(ps, [0, 2], 2)


def test_threshold_graph_and_distinct_distances():
    pts = [IntVector([0]), IntVector([2]), IntVector([5])]
    ps = Pointset("l1_int", pts)
    table = distinct_distances(ps)
    # 0 is always a candidate diameter (singleton clusters)
    assert table.keys == [0, 2, 3, 5]
    g = threshold_graph_at(table, table.rank_above(2))
    assert g.has_edge(0, 2) and g.has_edge(1, 2) and not g.has_edge(0, 1)


def _brute_candidates(ps):
    n = len(ps)
    values = sorted(ps.distance(i, j) for i in range(n) for j in range(i + 1, n))
    out = [0]
    for v in values:
        if v > out[-1]:
            out.append(v)
    return out


def _brute_graph(ps, farther_than):
    n = len(ps)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if farther_than(ps.distance(i, j))])


def test_pair_table_graphs_match_brute_force():
    rng = random.Random(41)
    pointsets = []
    for metric in ("l1_int", "linf_int", "l1_int"):
        for _ in range(10):
            pts = random_int_pointset(rng, max_points=9, span=3).points
            pts += rng.sample(pts, 2)  # duplicate points: distance 0
            pointsets.append(Pointset(metric, pts))
    words = [BitVector(6, rng.getrandbits(6)) for _ in range(14)]
    pointsets.append(Pointset("hamming", words + words[:3]))
    pointsets += [build_region_instance((0, 1, 2), kappa).pointset()
                  for kappa in (3, 4)]
    for ps in pointsets:
        n = len(ps)
        table = distinct_distances(ps)
        assert sorted(table.pairs) == [i * n + j for i in range(n)
                                       for j in range(i + 1, n)]
        candidates = _brute_candidates(ps)
        assert len(table.keys) == len(candidates)
        for rank, cutoff in enumerate(candidates):
            assert table.rank_above(cutoff) == rank + 1
            assert threshold_graph_at(table, rank + 1) == _brute_graph(
                ps, lambda d: d > cutoff)


def test_exact_cluster_matches_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        ps = random_int_pointset(rng, max_points=9)
        for k in (2, 3, 4):
            got = exact_cluster(ps, k)
            assert got.diameter == brute_force_cluster_diameter(ps, k)
            # the returned assignment actually achieves the reported diameter
            check = make_clustering(ps, got.assignment, k)
            assert check.diameter == got.diameter


def test_exact_cluster_k_range():
    ps = random_int_pointset(random.Random(0))
    with pytest.raises(ValueError):
        exact_cluster(ps, 5)
    with pytest.raises(ValueError):
        exact_cluster(ps, 0)


def test_exact_cluster_refuses_more_than_max_points():
    ps = Pointset("l1_int", [IntVector([i]) for i in range(MAX_POINTS + 1)])
    with pytest.raises(ValueError):
        exact_cluster(ps, 3)


def test_two_cluster_optimal():
    rng = random.Random(33)
    for _ in range(40):
        ps = random_int_pointset(rng, max_points=10)
        assert two_cluster(ps).diameter == brute_force_cluster_diameter(ps, 2)


def test_gonzalez_within_factor_two():
    rng = random.Random(35)
    for _ in range(40):
        ps = random_int_pointset(rng, max_points=10)
        for k in (2, 3):
            opt = brute_force_cluster_diameter(ps, k)
            assert gonzalez_cluster(ps, k).diameter <= 2 * opt


def test_min_enclosing_ball_known_cases():
    ball = min_enclosing_ball([(Fraction(0), Fraction(0)),
                               (Fraction(2), Fraction(0))])
    assert ball.center == (1, 0) and ball.radius_sq == 1
    # equilateral-ish right triangle: circumball of the hypotenuse
    ball = min_enclosing_ball([(Fraction(0), Fraction(0)),
                               (Fraction(4), Fraction(0)),
                               (Fraction(0), Fraction(3))])
    assert ball.radius_sq == Fraction(25, 4)


def test_min_enclosing_ball_contains_all_points():
    rng = random.Random(37)
    for _ in range(50):
        dim = rng.randint(2, 4)
        pts = [tuple(Fraction(rng.randint(-10, 10)) for _ in range(dim))
               for _ in range(rng.randint(1, 7))]
        ball = min_enclosing_ball(pts)
        for p in pts:
            d = sum((a - c) ** 2 for a, c in zip(p, ball.center))
            assert d <= ball.radius_sq
        # support points lie exactly on the boundary
        assert any(sum((a - c) ** 2 for a, c in zip(p, ball.center))
                   == ball.radius_sq for p in pts)


def test_jung_bound():
    ball = min_enclosing_ball([(Fraction(0), Fraction(0)),
                               (Fraction(1), Fraction(0)),
                               (Fraction(0), Fraction(1))])
    diam_sq = Fraction(2)
    assert jung_bound_holds(ball, diam_sq, 2)


def test_barrier_screen_on_hadamard_pointset():
    code = hadamard_code(8)
    ps = Pointset("hamming", code.words)
    report = barrier_screen(ps, k=3)
    assert report["diameter"] == 8
    assert report["probe_ratio"] == Fraction(3, 2)
    assert report["odd_cycle_obstruction"] == (
        report["odd_girth"] != float("inf"))


def test_barrier_screen_sphere_probe_against_decimal_oracle():
    rng = random.Random(43)
    region = build_region_instance((0, 1, 2), 5).points
    checked = 0
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(12):
            ps = Pointset("l2_sphere_lattice", rng.sample(region, 9))
            ratio = Fraction(rng.randint(21, 40), 20)
            report = barrier_screen(ps, k=2, ratio=ratio)
            opt = report["optimal_k_diameter"]
            bound = (Decimal(ratio.numerator) / ratio.denominator) ** 2 * (
                1 - Decimal(opt.m) / Decimal(opt.big_n).sqrt())

            def at_least(d):
                gap = 1 - Decimal(d.m) / Decimal(d.big_n).sqrt() - bound
                if abs(gap) > Decimal(10) ** -40:
                    return gap > 0
                # a tie needs both sides rational (ratio != 1)
                return d.as_fraction() >= ratio ** 2 * opt.as_fraction()

            probe = _brute_graph(ps, at_least)
            assert report["odd_girth"] == odd_girth(probe)
            checked += opt.as_fraction() is None
    assert checked  # some optima are irrational


def test_cluster_hamming_points():
    words = [BitVector.from_string(s)
             for s in ("0000", "0001", "1110", "1111")]
    ps = Pointset("hamming", words)
    cl = exact_cluster(ps, 2)
    assert cl.diameter == 1
    assert cl.assignment[0] == cl.assignment[1]
    assert cl.assignment[2] == cl.assignment[3]
