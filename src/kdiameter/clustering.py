"""Clustering algorithms over exact pointsets.

Minimizing the largest intra-cluster distance over k clusters is equivalent
to k-coloring the threshold graph whose edges join pairs farther than the
candidate diameter, which is how the exact solver works.  Every pair is
ranked once by exact distance in a pair table (`geometry.PairTable`), and
each threshold graph is a prefix of its ranked pair list.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from kdiameter.coloring import DEFAULT_BUDGET, find_coloring
from kdiameter.geometry import PairTable, key_at_least_scaled
from kdiameter.graphs import Graph, odd_girth

MAX_K = 4   # exact_cluster's largest k
MAX_POINTS = 400   # exact_cluster's largest pointset


@dataclass
class Clustering:
    assignment: list
    k: int
    diameter: object      # int, or squared surd for the sphere metric
    witness_pair: object  # (i, j) attaining the diameter, None if diameter 0

    def clusters(self):
        out = [[] for _ in range(self.k)]
        for i, c in enumerate(self.assignment):
            out[c].append(i)
        return out


def _cluster_diameter(pointset, assignment, k):
    """Exact max intra-cluster distance with its witness pair."""
    best, pair = 0, None
    groups = [[] for _ in range(k)]
    for i, c in enumerate(assignment):
        groups[c].append(i)
    for group in groups:
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                d = pointset.distance(group[a], group[b])
                if d > best:
                    best, pair = d, (group[a], group[b])
    return best, pair


def make_clustering(pointset, assignment, k):
    if len(assignment) != len(pointset):
        raise ValueError("assignment length must match the pointset")
    if any(not 0 <= c < k for c in assignment):
        raise ValueError("cluster ids out of range")
    diameter, pair = _cluster_diameter(pointset, assignment, k)
    return Clustering(list(assignment), k, diameter, pair)


def distinct_distances(pointset):
    """The pointset's pair table (`geometry.PairTable`): every pair ranked by
    its exact distance among the sorted distinct distances, which are the
    candidate diameters, always led by 0."""
    return PairTable(pointset)


def threshold_graph_at(table, rank):
    """Graph joining the pairs of rank >= `rank` in a pair table, the pairs
    farther than table.keys[rank - 1]; its k-colorings are exactly the
    k-clusterings of diameter at most that distance."""
    n = table.n
    return Graph(n, (divmod(p, n) for p in table.pairs[:table.above[rank]]))


def _least_colorable(table, color, top):
    """Binary search over the candidate diameters of a pair table: what
    `color` gives for the threshold graph at the least candidate it colors,
    or `top` when only the largest candidate (no edges) works.  Colorability
    is monotone in the cutoff (larger cutoff, fewer edges)."""
    lo, hi = 0, len(table.keys) - 1
    best = top
    while lo < hi:
        mid = (lo + hi) // 2
        coloring = color(threshold_graph_at(table, mid + 1))
        if coloring is None:
            lo = mid + 1
        else:
            best, hi = coloring, mid
    return best


def exact_cluster(pointset, k, budget=DEFAULT_BUDGET):
    """Optimal k-clustering by binary search over candidate diameters.

    The optimum is either 0 or an attained pairwise distance, so searching
    the sorted distinct distances for the least k-colorable threshold is
    exact.
    """
    return _exact_cluster(distinct_distances(_checked(pointset, k)),
                          k, budget)


def _checked(pointset, k):
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be between 1 and {MAX_K}")
    n = len(pointset)
    if n == 0:
        raise ValueError("empty pointset")
    if n > MAX_POINTS:
        raise ValueError(f"pointset size {n} exceeds the cap {MAX_POINTS}")
    return pointset


def _exact_cluster(table, k, budget):
    n = table.n
    if k >= n:
        top = list(range(n))
    else:
        # cutoff = overall diameter: the graph is edgeless, always colorable
        top = find_coloring(threshold_graph_at(table, len(table.keys)), k,
                            budget=budget)
        assert top is not None
    coloring = _least_colorable(
        table, lambda graph: find_coloring(graph, k, budget=budget), top)
    return make_clustering(table.pointset, coloring, k)


def two_cluster(pointset):
    """Optimal 2-clustering in polynomial time: the threshold graph must be
    bipartite, checked by BFS 2-coloring instead of backtracking."""
    n = len(pointset)
    if n == 0:
        raise ValueError("empty pointset")
    coloring = _least_colorable(distinct_distances(pointset), _bipartition,
                                [0] * n)
    return make_clustering(pointset, coloring, 2)


def _bipartition(graph):
    from collections import deque

    color = [-1] * graph.n
    for s in range(graph.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def gonzalez_cluster(pointset, k):
    """Farthest-point seeding followed by nearest-seed assignment; the
    classic 2-approximation.  Deterministic: the first seed is point 0 and
    all ties break toward the lowest index."""
    n = len(pointset)
    if n == 0:
        raise ValueError("empty pointset")
    seeds = [0]
    while len(seeds) < min(k, n):
        best_i, best_d = None, None
        for i in range(n):
            if i in seeds:
                continue
            d = min(pointset.distance(i, s) for s in seeds)
            if best_d is None or d > best_d:
                best_i, best_d = i, d
        seeds.append(best_i)
    assignment = []
    for i in range(n):
        best_s, best_d = 0, None
        for si, s in enumerate(seeds):
            d = 0 if i == s else pointset.distance(i, s)
            if best_d is None or d < best_d:
                best_s, best_d = si, d
        assignment.append(best_s)
    return make_clustering(pointset, assignment, k)


# ---------------------------------------------------------------------------
# exact smallest enclosing ball and the Jung diagnostic


@dataclass
class BallCertificate:
    center: tuple       # Fractions
    radius_sq: Fraction
    support: tuple      # indices of boundary points defining the ball


def min_enclosing_ball(points):
    """Exact smallest enclosing ball of rational-coordinate points.

    Welzl's move-to-front recursion with the circumcenter of each support
    set computed by Gaussian elimination over Fractions.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if not pts:
        raise ValueError("empty pointset")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points must share one dimension")
    order = list(range(len(pts)))
    random.Random(2).shuffle(order)

    def ball_of(support):
        if not support:
            return None, None
        center = _circumcenter([pts[i] for i in support])
        r_sq = _sq_dist(center, pts[support[0]])
        return center, r_sq

    def contains(center, r_sq, i):
        return center is not None and _sq_dist(center, pts[i]) <= r_sq

    def welzl(upto, support):
        if upto == 0 or len(support) == dim + 1:
            return ball_of(support)
        i = order[upto - 1]
        center, r_sq = welzl(upto - 1, support)
        if contains(center, r_sq, i):
            return center, r_sq
        return welzl(upto - 1, support + [i])

    center, r_sq = welzl(len(order), [])
    support = tuple(sorted(i for i in range(len(pts))
                           if _sq_dist(center, pts[i]) == r_sq))
    for p in pts:
        assert _sq_dist(center, p) <= r_sq
    return BallCertificate(center, r_sq, support)


def _sq_dist(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _circumcenter(support):
    """Center equidistant from all support points, in their affine hull."""
    p0 = support[0]
    diffs = [[c - d for c, d in zip(p, p0)] for p in support[1:]]
    if not diffs:
        return p0
    m = len(diffs)
    # solve G lambda = b where G is the Gram matrix of the diffs and
    # b_i = |diff_i|^2 / 2; center = p0 + sum lambda_i diff_i
    g = [[sum(x * y for x, y in zip(diffs[i], diffs[j])) for j in range(m)]
         for i in range(m)]
    b = [Fraction(sum(x * x for x in diffs[i]), 2) for i in range(m)]
    lam = _solve_linear(g, b)
    return tuple(p0[d] + sum(lam[i] * diffs[i][d] for i in range(m))
                 for d in range(len(p0)))


def _solve_linear(a, b):
    m = len(a)
    mat = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(m):
        piv = next((r for r in range(col, m) if mat[r][col]), None)
        if piv is None:
            raise ValueError("degenerate support set (affinely dependent)")
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for r in range(m):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return [mat[i][m] for i in range(m)]


def jung_bound_holds(ball, diam_sq, dim):
    """Exact check of radius^2 <= diam^2 * n / (2(n+1)) in n = dim dimensions."""
    return ball.radius_sq <= Fraction(diam_sq) * Fraction(dim, 2 * (dim + 1))


def barrier_screen(pointset, k=3, ratio=Fraction(3, 2)):
    """Diagnostic report for approximation-barrier preconditions.

    Reports the exact diameter, the enclosing-ball diameter relative to the
    pointset diameter (float rendering; exact for integer-coordinate
    metrics), and the odd girth of the probe graph joining the pairs at
    distance at least `ratio` times the optimal k-clustering diameter
    (`ratio` squared for the squared sphere distances).
    """
    from math import sqrt

    from kdiameter.geometry import pointset_diameter

    diam = pointset_diameter(pointset)
    table = distinct_distances(_checked(pointset, k))
    opt = _exact_cluster(table, k, DEFAULT_BUDGET)
    ratio = Fraction(ratio)
    if pointset.metric == "l2_sphere_lattice":
        dim = 1 + max(a for p in pointset.points for a, _ in p.key)
        coords = [p.float_coords(dim) for p in pointset.points]
        ball_diam_sq = 4 * _float_ball_radius_sq(coords)
        ball_ratio = sqrt(ball_diam_sq / float(diam))
        base = table.key(opt.diameter)
        probe = bisect_left(table.keys, True, key=lambda key: key_at_least_scaled(
            key, ratio ** 2, base))
    else:
        coords = _rational_coords(pointset)
        ball = min_enclosing_ball(coords)
        ball_ratio = sqrt(4 * ball.radius_sq) / float(diam) if diam else 0.0
        probe = bisect_left(table.keys, ratio * opt.diameter)
    gamma = threshold_graph_at(table, probe)
    og = odd_girth(gamma)
    return {
        "diameter": diam,
        "optimal_k_diameter": opt.diameter,
        "ball_diameter_over_diameter": ball_ratio,
        "probe_ratio": ratio,
        "odd_girth": og,
        "odd_cycle_obstruction": og != float("inf"),
    }


def _rational_coords(pointset):
    if pointset.metric == "hamming":
        return [list(p.bits) for p in pointset.points]
    return [list(p.entries) for p in pointset.points]


def _float_ball_radius_sq(coords):
    """Float smallest-ball radius squared; diagnostics only."""
    frac_coords = [[Fraction(c).limit_denominator(10**6) for c in p]
                   for p in coords]
    ball = min_enclosing_ball(frac_coords)
    return float(ball.radius_sq)
