import hashlib
import json
import random
from collections import deque
from fractions import Fraction
from itertools import islice

import pytest

from kdiameter import clustering
from kdiameter.acceptance import brute_force_cluster_diameter, random_int_pointset
from kdiameter.cli import main
from kdiameter.clustering import (
    MAX_POINTS,
    _bipartition,
    _farthest_first,
    distinct_distances,
    exact_cluster,
    gonzalez_cluster,
    jung_bound_holds,
    make_clustering,
    min_enclosing_ball,
    threshold_graph_at,
    two_cluster,
)
from kdiameter.coloring import BudgetExceeded, find_coloring
from kdiameter.gadgets import (
    build_composite,
    build_gadget_H,
    oriented_embedding_library,
    stitch_embedding,
    stitch_slot_maps,
)
from kdiameter.geometry import (
    _KEPT,
    BitVector,
    IntVector,
    Pointset,
    SqDistance,
    pair_rows,
)
from kdiameter.graphs import Graph, complete_graph, incidence_hypergraph, petersen_graph
from kdiameter.hadamard import linf_embedding
from kdiameter.sphere import (
    build_region_instance,
    coloring_to_clustering,
    remark_clustering,
    separation_answer,
    verify_anchor_separation,
)


def test_make_clustering_validation():
    ps = Pointset("l1_int", [IntVector([0]), IntVector([3])])
    cl = make_clustering(ps, [0, 0], 2)
    assert cl.diameter == 3 and cl.witness_pair == (0, 1)
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
            pts = list(random_int_pointset(rng, max_points=9, span=3).points)
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


def _walk_pointsets(rng):
    """Random hamming, l1 and linf pointsets with duplicate points, and the
    kappa = 3 and 4 sphere regions."""
    pointsets = []
    for metric in ("hamming", "l1_int", "linf_int"):
        for _ in range(4):
            if metric == "hamming":
                pts = [BitVector(6, rng.getrandbits(6))
                       for _ in range(rng.randint(1, 12))]
            else:
                pts = list(random_int_pointset(rng, max_points=9, span=3).points)
            pts += rng.choices(pts, k=2)  # duplicate points: distance 0
            pointsets.append(Pointset(metric, pts))
    pointsets += [build_region_instance((0, 1, 2), kappa).pointset()
                  for kappa in (3, 4)]
    return pointsets


def _graph_at(table, rank):
    return tuple(threshold_graph_at(table, rank).adjacency_bitsets())


def test_bitsets_at_follow_any_walk_of_ranks():
    rng = random.Random(47)
    restarts = 0
    for ps in _walk_pointsets(rng):
        table = distinct_distances(ps)
        top = len(table.keys)
        # up and down by random steps, repeated ranks, both ends
        walk = [0, top, top, 0, 0]
        for _ in range(16):
            walk += [rng.randint(0, top)] * rng.randint(1, 2)
        walk += [top, rng.randint(0, top), 0]
        for rank in walk:
            stop, kept = table.above[rank], dict(table._graphs)
            moved = table.moved
            adj = table.bitsets_at(rank)
            assert type(adj) is tuple and adj == _graph_at(table, rank)
            if stop in kept:   # asked for before: the kept tuple, no pairs
                assert adj is kept[stop] and table.moved == moved
            else:   # from the nearest kept prefix, or the empty graph
                near = min(abs(stop - m) for m in [0, *kept])
                assert table.moved - moved == near
                restarts += 0 < stop == near
    assert restarts


def test_bitsets_at_keeps_at_most_kept_graphs():
    """A walk over more distinct prefixes than `_KEPT` keeps the last
    `_KEPT` graphs it was given, and every graph stays correct."""
    ps = Pointset("l1_int", [IntVector([i * i]) for i in range(12)])
    table = distinct_distances(ps)
    ranks = list(range(1, len(table.keys) + 1))
    assert len(ranks) > _KEPT
    random.Random(53).shuffle(ranks)
    given = {rank: table.bitsets_at(rank) for rank in ranks}
    assert len(table._graphs) == _KEPT
    assert list(table._graphs) == [table.above[r] for r in ranks[-_KEPT:]]
    for rank in ranks:
        assert given[rank] == table.bitsets_at(rank) == _graph_at(table, rank)


def test_bitsets_at_two_ranks_at_once():
    """Two graphs read off one table stay what they were when given."""
    ps = build_region_instance((0, 1, 2), 4).pointset()
    table = distinct_distances(ps)
    for rank in range(len(table.keys)):
        low, high = table.bitsets_at(rank), table.bitsets_at(rank + 1)
        assert list(low) == threshold_graph_at(table, rank).adjacency_bitsets()
        assert list(high) == threshold_graph_at(table, rank + 1).adjacency_bitsets()


def _separation_and_clusterings(region):
    """The operations of one pass of the `sphere` benchmark workload."""
    for t in (1, Fraction(5, 4), Fraction(163, 125), Fraction(4, 3),
              Fraction(3, 2)):
        verify_anchor_separation(region, threshold=t)
    ps = region.pointset()
    exact_cluster(ps, 3)
    two_cluster(ps)
    gonzalez_cluster(ps, 3)


def test_pair_moves_on_the_kappa12_region():
    """The pairs the pair table XORs on the kappa = 12 region, counted
    by `PairTable.moved`: each probe starts from the nearest graph the
    table kept, and a graph asked for again moves no pairs."""
    ps = build_region_instance((0, 1, 2), 12).pointset()
    two_cluster(ps)
    assert ps.table.moved == 32_154
    region = build_region_instance((0, 1, 2), 12)
    table = distinct_distances(region.pointset())
    _separation_and_clusterings(region)
    assert table.moved == 31_887
    _separation_and_clusterings(region)
    assert table.moved == 31_887 + 0


def test_kappa12_region_clusterings():
    """The exact 3-clustering and the 2-clustering of the kappa = 12
    region, as the `sphere` benchmark workload checks them, and Gonzalez's
    3-clustering: squared diameter 2 where the optimum's is 1, ratio
    sqrt(2)."""
    ps = build_region_instance((0, 1, 2), 12).pointset()
    for cl, diameter, witness, digest in (
            (exact_cluster(ps, 3), SqDistance(0, 1, 1), (0, 12),
             "f91723b78760a89a1d41466a1b29dbe92764e9eb2f3ecf36477d1fbe656f1347"),
            (two_cluster(ps), SqDistance(-19, 74, 5), (97, 189),
             "e98ac2f5f3825efc78a37cfc050f36aa1460dd487881faa56588844e4b9f2387"),
            (gonzalez_cluster(ps, 3), SqDistance(-1, 1, 1), (90, 180),
             "0895ffcc9b9352f3a7c820a4220b251c874a9d3e3816f5ff71dc44ebc9b6bb0a")):
        assert repr(cl.diameter) == repr(diameter)
        assert cl.witness_pair == witness
        assert hashlib.sha256(bytes(cl.assignment)).hexdigest() == digest


def test_solvers_build_no_graph(monkeypatch):
    rng = random.Random(53)
    pointsets = _walk_pointsets(rng)
    regions = [build_region_instance((0, 1, 2), kappa) for kappa in (4, 12)]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(Graph, "__init__", refuse)
    for ps in pointsets:
        exact_cluster(ps, 3)
        two_cluster(ps)
    # separation fails at kappa = 4 with a merging witness and holds at 12
    holds, witness = verify_anchor_separation(regions[0])
    assert not holds and witness is not None
    assert verify_anchor_separation(regions[1]) == (True, None)


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


def _diameter_pointsets(rng):
    """Random pointsets in all four metrics, some with duplicate points and
    some with at most 4 points, and the kappa = 3 and 4 sphere regions."""
    region = build_region_instance((0, 1, 2), 4).points
    pointsets = []
    for trial in range(48):
        metric = ("hamming", "l1_int", "linf_int", "l2_sphere_lattice")[trial % 4]
        size = rng.randint(1, 4 if trial % 3 == 0 else 10)
        dim = rng.randint(1, 3)
        if metric == "hamming":
            pts = [BitVector(5, rng.getrandbits(5)) for _ in range(size)]
        elif metric == "l2_sphere_lattice":
            pts = rng.sample(region, size)
        else:
            pts = [IntVector([rng.randint(-3, 3) for _ in range(dim)])
                   for _ in range(size)]
        pts += rng.choices(pts, k=rng.randint(0, 2))  # duplicate points
        rng.shuffle(pts)
        pointsets.append(Pointset(metric, pts))
    return pointsets + [build_region_instance((0, 1, 2), kappa).pointset()
                        for kappa in (3, 4)]


def _walk_all_pairs(pointset, assignment):
    """Diameter and witness of a clustering by walking every pair i < j
    row-major and keeping the first one strictly farther than any before."""
    best, pair = 0, None
    n = len(pointset)
    for i in range(n):
        for j in range(i + 1, n):
            if assignment[i] == assignment[j]:
                d = pointset.distance(i, j)
                if d > best:
                    best, pair = d, (i, j)
    return best, pair


def test_clustering_diameters_match_a_walk_over_all_pairs(composites):
    rng = random.Random(59)
    # both clusters have diameter 5; walked cluster by cluster, cluster 0
    # would give the witness (2, 3), walked row-major it is (0, 1)
    line = Pointset("l1_int", [IntVector([x]) for x in (0, 5, 10, 15)])
    clusterings = [(line, make_clustering(line, [1, 1, 0, 0], 2))]
    for ps in _diameter_pointsets(rng):
        results = [two_cluster(ps)]
        results += [exact_cluster(ps, k) for k in (1, 2, 3, 4)
                    if len(ps) < 20 or k == 3]
        results += [gonzalez_cluster(ps, k) for k in (1, 2, 3)]
        for k in (1, 2, 3):
            assignment = [rng.randrange(k) for _ in range(len(ps))]
            results.append(make_clustering(ps, assignment, k))
        clusterings += [(ps, got) for got in results]
    region = build_region_instance((0, 1, 2), 4)
    clusterings += [(region.pointset(), got) for got in (
        coloring_to_clustering(region, [0, 1, 2]), remark_clustering(region))]
    # the gap's two sides at k = 3: the Petersen composite's optimum is
    # 3q/2 = 96 (q = 64), the K4 composite's is q = 16
    for name, diameter in (("Petersen", 96), ("K4", 16)):
        got = exact_cluster(composites[name], 3)
        assert got.diameter == diameter
        clusterings.append((composites[name], got))
    # k >= n: the solve colors every positive rank, so nothing is scanned
    line = Pointset("l1_int", [IntVector([x]) for x in (0, 2, 7)])
    for k in (3, 4):
        got = exact_cluster(line, k)
        assert (got.diameter, got.witness_pair) == (0, None)
        clusterings.append((line, got))
    for ps, got in clusterings:
        diameter, pair = _walk_all_pairs(ps, got.assignment)
        assert repr(got.diameter) == repr(diameter), (ps, got)
        assert got.witness_pair == pair, (ps, got)
    assert clusterings[0][1].witness_pair == (0, 1)


def test_witness_scan_starts_at_the_solved_rank(monkeypatch):
    """The pairs each solver's witness scan reads on the kappa = 12 region:
    exact_cluster and two_cluster start below the rank their coloring is
    proper at (16,630 and 227 pairs from the farthest pair), Gonzalez's
    assignment is scanned from the farthest pair."""
    scanned = []

    def counting(iterable, *args):
        for item in islice(iterable, *args):
            scanned.append(item)
            yield item

    monkeypatch.setattr(clustering, "islice", counting)
    ps = build_region_instance((0, 1, 2), 12).pointset()
    line = Pointset("l1_int", [IntVector([x]) for x in (0, 2, 7)])
    for solve, length in ((lambda: exact_cluster(ps, 3), 1),
                          (lambda: two_cluster(ps), 20),
                          (lambda: gonzalez_cluster(ps, 3), 25),
                          (lambda: exact_cluster(line, 3), 0)):
        scanned.clear()
        got = solve()
        assert len(scanned) == length
        if length:
            i, j = got.witness_pair
            assert scanned[-1] == i * len(got.assignment) + j


def test_make_clustering_evaluates_one_distance(monkeypatch):
    pointsets = _diameter_pointsets(random.Random(61))
    calls = []
    distance = Pointset.distance

    def counting(self, i, j):
        calls.append((i, j))
        return distance(self, i, j)

    monkeypatch.setattr(Pointset, "distance", counting)
    witnessed = []
    for ps in pointsets:
        n = len(ps)
        for assignment, k in ((list(range(n)), n), ([0] * n, 1)):
            calls.clear()
            got = make_clustering(ps, assignment, k)
            if got.witness_pair is None:
                assert got.diameter == 0 and calls == []
            else:
                assert got.diameter > 0 and calls == [got.witness_pair]
            witnessed.append(got.witness_pair is not None)
    # both cases occur: singletons, and one cluster of distinct points
    assert any(witnessed) and not all(witnessed)


def test_exact_cluster_k_range():
    ps = random_int_pointset(random.Random(0))
    with pytest.raises(ValueError):
        exact_cluster(ps, 5)
    with pytest.raises(ValueError):
        exact_cluster(ps, 0)


def test_exact_cluster_refuses_more_than_max_points():
    ps = Pointset("l1_int", [IntVector([i]) for i in range(MAX_POINTS + 1)])
    message = f"pointset size {MAX_POINTS + 1} exceeds the cap {MAX_POINTS}"
    for k in (2, 3):
        with pytest.raises(ValueError, match=message):
            exact_cluster(ps, k)
    with pytest.raises(ValueError, match=message):
        two_cluster(ps)


def test_two_cluster_optimal():
    rng = random.Random(33)
    for _ in range(40):
        ps = random_int_pointset(rng, max_points=10)
        assert two_cluster(ps).diameter == brute_force_cluster_diameter(ps, 2)


def _bfs_bipartition(adj):
    """The vertex-at-a-time BFS 2-coloring: each component rooted at its
    lowest vertex with color 0, or None at the first edge inside a color."""
    color = [-1] * len(adj)
    for s in range(len(adj)):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            nb = adj[v]
            while nb:
                low = nb & -nb
                nb ^= low
                w = low.bit_length() - 1
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def _random_bitsets(rng, n):
    """Neighbor bitsets of a random graph on n vertices: at a random
    density, or bipartite across a random split, sometimes plus one edge."""
    side = [rng.randrange(2) for _ in range(n)]
    bipartite, density = rng.random() < 0.5, rng.random()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (side[i] != side[j] or not bipartite) and rng.random() < density]
    if n > 1 and rng.random() < 0.3:
        edges.append(tuple(rng.sample(range(n), 2)))
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def test_layered_bipartition_matches_bfs(monkeypatch):
    rng = random.Random(73)
    answers = set()
    for _ in range(3000):
        adj = _random_bitsets(rng, rng.randint(0, 12))
        got = _bipartition(adj)
        assert got == _bfs_bipartition(adj)
        answers.add(got is None)
    assert answers == {True, False}
    # every threshold graph two_cluster probes on the kappa = 12 region
    probes = []

    def recording(adj):
        probes.append(list(adj))
        return _bipartition(adj)

    monkeypatch.setattr(clustering, "_bipartition", recording)
    two_cluster(build_region_instance((0, 1, 2), 12).pointset())
    assert len(probes) == 12
    for adj in probes:
        assert _bipartition(adj) == _bfs_bipartition(adj)


def test_gonzalez_within_factor_two():
    rng = random.Random(35)
    for _ in range(40):
        ps = random_int_pointset(rng, max_points=10)
        for k in (2, 3):
            opt = brute_force_cluster_diameter(ps, k)
            assert gonzalez_cluster(ps, k).diameter <= 2 * opt


def test_gonzalez_cost_does_not_grow_with_k():
    ps = Pointset("l1_int", [IntVector([0]), IntVector([4]), IntVector([9])])
    small = gonzalez_cluster(ps, 3)
    huge = gonzalez_cluster(ps, 10**12)
    assert huge.k == 10**12
    assert (huge.assignment, huge.diameter) == (small.assignment, small.diameter)


def _reference_seeds(pointset, count):
    """The first min(count, n) farthest-first seeds, each found by measuring
    every point against every seed so far, and the distance of each seed
    to the seeds before it (None for the first)."""
    n = len(pointset)
    seeds, gaps = [0], [None]
    while len(seeds) < min(count, n):
        best_i, best_d = None, None
        for i in range(n):
            if i in seeds:
                continue
            d = min(pointset.distance(i, s) for s in seeds)
            if best_d is None or d > best_d:
                best_i, best_d = i, d
        seeds.append(best_i)
        gaps.append(best_d)
    return seeds, gaps


def _reference_gonzalez(pointset, k):
    """Farthest-point seeding that measures each point against every seed
    for each new seed, then nearest-seed assignment in a second pass."""
    seeds = _reference_seeds(pointset, k)[0]
    assignment = []
    for i in range(len(pointset)):
        best_s, best_d = 0, None
        for si, s in enumerate(seeds):
            d = 0 if i == s else pointset.distance(i, s)
            if best_d is None or d < best_d:
                best_s, best_d = si, d
        assignment.append(best_s)
    return make_clustering(pointset, assignment, k)


def test_gonzalez_matches_two_pass_reference():
    rng = random.Random(53)
    region = build_region_instance((0, 1, 2), 4).points
    for trial in range(60):
        metric = ("hamming", "l1_int", "linf_int", "l2_sphere_lattice")[trial % 4]
        if metric == "hamming":
            pts = [BitVector(5, rng.getrandbits(5))
                   for _ in range(rng.randint(1, 10))]
        elif metric == "l2_sphere_lattice":
            pts = rng.sample(region, rng.randint(1, 10))
        else:
            pts = list(random_int_pointset(rng, max_points=10, span=3).points)
        pts += rng.choices(pts, k=rng.randint(0, 3))  # duplicate points
        rng.shuffle(pts)
        ps = Pointset(metric, pts)
        for k in (1, 2, 3, 5):
            got, expected = gonzalez_cluster(ps, k), _reference_gonzalez(ps, k)
            assert got == expected, (metric, pts, k)


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


def _fraction_min_enclosing_ball(points):
    """Oracle: Welzl's recursion over the same shuffled order with every
    circumcenter solved by Gauss-Jordan elimination over Fractions."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    dim = len(pts[0])
    order = list(range(len(pts)))
    random.Random(2).shuffle(order)

    def sq_dist(a, b):
        return sum((x - y) ** 2 for x, y in zip(a, b))

    def ball_of(support):
        center = _fraction_circumcenter([pts[i] for i in support])
        return center, sq_dist(center, pts[support[0]])

    def welzl(upto, support):
        if upto == 0 or len(support) == dim + 1:
            return ball_of(support) if support else (None, None)
        i = order[upto - 1]
        center, r_sq = welzl(upto - 1, support)
        if center is not None and sq_dist(center, pts[i]) <= r_sq:
            return center, r_sq
        return welzl(upto - 1, support + [i])

    center, r_sq = welzl(len(order), [])
    support = tuple(i for i, p in enumerate(pts) if sq_dist(center, p) == r_sq)
    return clustering.BallCertificate(center, r_sq, support)


def _fraction_circumcenter(support):
    p0 = support[0]
    diffs = [[c - d for c, d in zip(p, p0)] for p in support[1:]]
    m = len(diffs)
    # G lambda = b, G the Gram matrix of the diffs, b_i = |diff_i|^2 / 2
    mat = [[sum(x * y for x, y in zip(diffs[i], diffs[j])) for j in range(m)]
           + [Fraction(sum(x * x for x in diffs[i]), 2)] for i in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if mat[r][col]), None)
        if piv is None:
            raise ValueError("degenerate support set (affinely dependent)")
        mat[col], mat[piv] = mat[piv], mat[col]
        mat[col] = [x / mat[col][col] for x in mat[col]]
        for r in range(m):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return tuple(p0[d] + sum(mat[i][m] * diffs[i][d] for i in range(m))
                 for d in range(len(p0)))


def _ball_pointsets(rng):
    """Seeded pointsets in dimensions 1-4: general rational ones, collinear
    ones, ones with repeated points, single points, and small grids."""
    for _ in range(300):
        dim, n = rng.randint(1, 4), rng.randint(1, 9)
        kind = rng.randrange(5)
        if kind == 0:
            yield [tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                         for _ in range(dim)) for _ in range(n)]
        elif kind == 1:
            a = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim)]
            v = [rng.randint(-5, 5) for _ in range(dim)]
            ts = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            yield [tuple(x + t * y for x, y in zip(a, v)) for t in ts]
        elif kind == 2:
            base = [tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(1, 3))]
            yield [rng.choice(base) for _ in range(n)]
        elif kind == 3:
            yield [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(dim))]
        else:
            yield [tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(n)]


@pytest.mark.parametrize("seed", [1, 2])
def test_integer_ball_equals_fraction_oracle(seed):
    for pts in _ball_pointsets(random.Random(seed)):
        assert min_enclosing_ball(pts) == _fraction_min_enclosing_ball(pts), pts


@pytest.mark.parametrize("coordinate", [0.5, "1/3", True, None, 1j])
def test_min_enclosing_ball_takes_only_ints_and_fractions(coordinate):
    with pytest.raises(ValueError, match="int or a Fraction"):
        min_enclosing_ball([(Fraction(1, 2), 0), (coordinate, 1)])


def test_min_enclosing_ball_refuses_a_degenerate_support():
    with pytest.raises(ValueError, match="affinely dependent"):
        clustering._circumcenter([(0, 0), (1, 1), (2, 2)])


def test_cluster_hamming_points():
    words = [BitVector.from_string(s)
             for s in ("0000", "0001", "1110", "1111")]
    ps = Pointset("hamming", words)
    cl = exact_cluster(ps, 2)
    assert cl.diameter == 1
    assert cl.assignment[0] == cl.assignment[1]
    assert cl.assignment[2] == cl.assignment[3]


# ---------------------------------------------------------------------------
# the binary-search driver, bracketed by Gonzalez's lower bound


def _plain_least_colorable(table, color, top):
    """The driver without the bound: bisection from rank 0, midpoint first."""
    lo, hi = 0, len(table.keys) - 1
    best = top
    while lo < hi:
        mid = (lo + hi) // 2
        coloring = color(table.bitsets_at(mid + 1))
        if coloring is None:
            lo = mid + 1
        else:
            best, hi = coloring, mid
    return best


def _plain_exact(pointset, k):
    n = len(pointset)
    top = list(range(n)) if k >= n else [0] * n
    coloring = _plain_least_colorable(distinct_distances(pointset),
                                      lambda adj: find_coloring(adj, k), top)
    return make_clustering(pointset, coloring, k)


def _plain_two(pointset):
    coloring = _plain_least_colorable(distinct_distances(pointset),
                                      _bfs_bipartition, [0] * len(pointset))
    return make_clustering(pointset, coloring, 2)


@pytest.fixture(scope="module")
def composites():
    """The stitched Hamming images of the K4 and Petersen composites."""
    gadget = build_gadget_H()
    library = oriented_embedding_library(gadget)
    images = {}
    for name, J in (("K4", complete_graph(4)), ("Petersen", petersen_graph())):
        composite = build_composite(incidence_hypergraph(J), gadget,
                                    slot_maps=stitch_slot_maps(J))
        images[name] = Pointset(
            "hamming", stitch_embedding(composite, J, library=library).image)
    return images


def _bracket_pointsets(rng):
    """Random hamming, l1 and linf pointsets of 1 to 14 points, some with
    duplicate points, and the kappa = 2..8 sphere regions."""
    pointsets = []
    for trial in range(84):
        metric = ("hamming", "l1_int", "linf_int")[trial % 3]
        size = 1 + trial % 14
        if metric == "hamming":
            pts = [BitVector(6, rng.getrandbits(6)) for _ in range(size)]
        else:
            dim = rng.randint(1, 3)
            pts = [IntVector([rng.randint(-3, 3) for _ in range(dim)])
                   for _ in range(size)]
        repeats = rng.randint(0, min(2, size - 1))  # duplicate points
        pts[size - repeats:] = rng.choices(pts[:size - repeats], k=repeats)
        rng.shuffle(pts)
        pointsets.append(Pointset(metric, pts))
    return pointsets + [build_region_instance((0, 1, 2), kappa).pointset()
                        for kappa in range(2, 9)]


def _same(got, expected):
    return (got.assignment == expected.assignment
            and repr(got.diameter) == repr(expected.diameter)
            and got.witness_pair == expected.witness_pair)


def test_bracketed_driver_matches_plain_bisection(composites):
    pointsets = _bracket_pointsets(random.Random(67))
    assert {len(ps) for ps in pointsets} >= set(range(1, 15))
    for ps in pointsets + list(composites.values()):
        for k in (1, 2, 3, 4):
            plain = _plain_two(ps) if k == 2 else _plain_exact(ps, k)
            assert _same(exact_cluster(ps, k), plain), (ps, k)
        assert _same(two_cluster(ps), _plain_two(ps)), ps


def test_exact_cluster_at_k2_is_two_cluster(composites):
    """Assignment, diameter and witness, each pointset's `two_cluster` run
    on a fresh copy of it."""
    pointsets = (_bracket_pointsets(random.Random(67))
                 + _bracket_pointsets(random.Random(71))
                 + list(composites.values()))
    assert len(pointsets) == 184
    for ps in pointsets:
        fresh = Pointset(ps.metric, ps.points)
        assert _same(exact_cluster(ps, 2), two_cluster(fresh)), ps


def _stars_and_c5(stars):
    """The l-infinity image of `stars` disjoint K1,3 and one C5: a threshold
    graph with stars + 1 components, the C5 odd."""
    n = 4 * stars + 5
    edges = [(4 * s, 4 * s + leaf) for s in range(stars) for leaf in (1, 2, 3)]
    edges += [(4 * stars + i, 4 * stars + (i + 1) % 5) for i in range(5)]
    return Pointset("linf_int", linf_embedding(Graph(n, edges)).image)


def test_exact_cluster_at_k2_searches_no_coloring(monkeypatch, tmp_path, capsys):
    """The kernel, which backtracks across components, would search
    2^(stars+3) - 4 nodes here and run out of a budget of 10^4."""
    def refuse(*args, **kwargs):
        raise AssertionError("the coloring kernel was searched")

    monkeypatch.setattr(clustering, "find_coloring", refuse)
    ps = _stars_and_c5(20)
    assert len(ps) == 85
    got = exact_cluster(ps, 2, budget=10**4)
    assert got.diameter == 2
    assert _same(got, two_cluster(Pointset(ps.metric, ps.points)))
    path = tmp_path / "stars.json"
    path.write_text(json.dumps(ps.to_dict()))
    reports = []
    for argv in (["exact", "--k", "2", "--budget-nodes", "10000"], ["two"]):
        assert main(["cluster", *argv, "--pointset", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        reports.append([report[key] for key in
                        ("k", "assignment", "diameter", "witness_pair")])
    assert reports[0] == reports[1] and reports[0][2] == 2


def test_exhausted_exact_cluster_counts_every_probe(tmp_path, capsys):
    """The probes search 3 nodes, then 10 that break a budget of 9."""
    ps = random_int_pointset(random.Random(9))
    with pytest.raises(BudgetExceeded) as exhausted:
        exact_cluster(ps, 3, budget=9)
    assert exhausted.value.nodes == 13
    path = tmp_path / "ps.json"
    path.write_text(json.dumps(ps.to_dict()))
    assert main(["cluster", "exact", "--k", "3", "--budget-nodes", "9",
                 "--pointset", str(path)]) == 2
    assert capsys.readouterr().err == "budget exceeded after 13 nodes\n"


def test_farthest_first_bound_is_sound(composites):
    pointsets = _bracket_pointsets(random.Random(71))
    bounded = 0
    for ps in pointsets + list(composites.values()):
        n = len(ps)
        table = distinct_distances(ps)

        def rank(distance):
            return table.rank_above(distance) - 1

        for k in (1, 2, 3, 4):
            assignment, far = _farthest_first(ps, k)
            assert assignment == gonzalez_cluster(ps, k).assignment
            if n <= k:
                assert far == 0
                continue
            seeds, gaps = _reference_seeds(ps, k + 1)
            assert table.keys[far] == table.key(gaps[k])
            # the k seeds and the farthest point are pairwise at least the
            # distance of rank far, so two of them share a cluster in every
            # k-clustering
            assert all(rank(ps.distance(a, b)) >= far
                       for a in seeds for b in seeds if a < b)
            optimum = rank(exact_cluster(ps, k).diameter)
            assert far <= optimum
            bounded += far == optimum
    assert bounded   # the bound is attained on some of them


def test_farthest_first_evaluates_no_distance(monkeypatch):
    pointsets = _bracket_pointsets(random.Random(73))

    def refuse(self, i, j):
        raise AssertionError("a distance was evaluated")

    monkeypatch.setattr(Pointset, "distance", refuse)
    for ps in pointsets:
        for k in (1, 2, 3, 4):
            _farthest_first(ps, k)


def test_one_farthest_first_traversal_per_pointset(monkeypatch):
    """The traversal is kept with the pair table: on the kappa = 12 region
    the three solvers read three rows of ranks in all (one per seed, where
    each used to read its own: 3 + 2 + 3), and asking again reads none."""
    rows = []

    def counting(pointset, seeds):
        rows.extend(seeds)
        return pair_rows(pointset, seeds)

    monkeypatch.setattr(clustering, "pair_rows", counting)
    ps = build_region_instance((0, 1, 2), 12).pointset()
    for _ in range(2):
        exact_cluster(ps, 3)
        two_cluster(ps)
        gonzalez_cluster(ps, 3)
        assert len(rows) == 3
    # read off a kept traversal, extended seed by seed, or fresh: the same
    # answers, the farthest-first seeds' own
    extended = build_region_instance((0, 1, 2), 12).pointset()
    table = distinct_distances(ps)
    for k in (1, 2, 3, 5, 4):
        got = _farthest_first(ps, k)
        assert got == _farthest_first(extended, k)
        assert got == _farthest_first(Pointset(ps.metric, ps.points), k)
        assert got[0] == _reference_gonzalez(ps, k).assignment
        assert table.keys[got[1]] == table.key(_reference_seeds(ps, k + 1)[1][k])
    # five seeds' rows for each kept traversal, k for each fresh one
    assert len(rows) == 5 + 5 + (1 + 2 + 3 + 5 + 4)
    # callers get copies
    assignment = _farthest_first(ps, 3)[0]
    assignment[:] = [0] * len(assignment)
    assert _farthest_first(ps, 3) == _farthest_first(extended, 3)
    assert gonzalez_cluster(ps, 3).assignment != assignment


@pytest.mark.parametrize("kappa", [4, 5])
def test_solvers_interleaved_on_one_table_match_fresh_ones(kappa):
    """Every solver moves the one threshold graph its pointset's table
    owns; run in turn on one table, each gives what it gives on a fresh
    instance of the same region, the separation checks' node counts
    included."""
    thresholds = [Fraction(163, 125), 1, Fraction(3, 2), Fraction(6, 5),
                  Fraction(9, 5)]

    steps = [lambda inst, t=t: separation_answer(inst, t) for t in thresholds]
    steps += [lambda inst: exact_cluster(inst.pointset(), 3),
              lambda inst: two_cluster(inst.pointset()),
              lambda inst: gonzalez_cluster(inst.pointset(), 3)]
    steps += [lambda inst, t=t: separation_answer(inst, t)
              for t in reversed(thresholds)]
    shared = build_region_instance((0, 1, 2), kappa)
    for step in steps:
        assert step(shared) == step(build_region_instance((0, 1, 2), kappa))


def test_bound_saves_probes(composites, monkeypatch):
    calls = []

    def counting(adj, k, stats, **kwargs):
        before = stats.get("nodes", 0)
        got = find_coloring(adj, k, stats=stats, **kwargs)
        calls.append((got is not None, stats["nodes"] - before))
        return got

    monkeypatch.setattr(clustering, "find_coloring", counting)
    # the bound is the optimum: one probe, which colors
    exact_cluster(build_region_instance((0, 1, 2), 12).pointset(), 3)
    assert len(calls) == 1 and calls[0][0]
    calls.clear()
    exact_cluster(composites["K4"], 3)
    assert len(calls) == 1 and calls[0][0]
    # Petersen is not 3-edge-colorable: the bound's rank is refuted, and
    # the next probe colors
    calls.clear()
    exact_cluster(composites["Petersen"], 3)
    assert calls == [(False, 4562), (True, 135)]
