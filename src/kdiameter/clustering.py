"""Clustering algorithms over exact pointsets.

Minimizing the largest intra-cluster distance over k clusters is equivalent
to k-coloring the threshold graph whose edges join pairs farther than the
candidate diameter, which is how the exact solver works.  A pointset is
immutable and ranks its pairs once by exact distance, in its pair table
(`geometry.PairTable`), which every solver asking about it shares; each
threshold graph is a prefix of the ranked pair list.  The table itself
gives that prefix as a tuple of neighbor bitsets, the coloring kernel's
input, and keeps it (`PairTable.bitsets_at`): a rank asked for again,
whichever solver asked, moves no pairs, and a new one XORs in only the
pairs between its prefix and the nearest kept one, or the empty graph; no
`Graph` is built on the way.  The search is bracketed from below by
Gonzalez's farthest-first traversal, which reads ranks: its k seeds and the
point farthest from them are k+1 points pairwise at least `far` apart, so
no k-clustering has a smaller diameter, and the first probe is the rank of
`far`.  Where that bound is the optimum, one probe finds it.  The traversal
is kept with the pair table, seed by seed, so the solvers asking about one
pointset read one row of ranks per seed between them.
The least colorable rank, and the bitsets the kernel sees there, do not
depend on the order of the probes, so the answers are the plain
bisection's.  Every clustering, whichever solver made it, gets its diameter
in one way (`make_clustering`): its witness is the first pair of the pair
table, by falling distance and row-major among equal distances, whose two
points share a cluster, so one exact distance is evaluated per clustering.
A solver's coloring splits every pair above the rank it solved at, so its
scan starts there.
`two_cluster` 2-colors each probe one BFS layer at a time, a layer being a
bitset, and stops at the first edge inside a layer; it is also
`exact_cluster`'s k = 2, so the kernel serves k = 1, 3 and 4 only.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import mul

from kdiameter.coloring import DEFAULT_BUDGET, find_coloring
from kdiameter.geometry import pair_rows
from kdiameter.graphs import Graph

MAX_K = 4   # exact_cluster's largest k
MAX_POINTS = 400   # exact_cluster's and two_cluster's largest pointset


@dataclass
class Clustering:
    assignment: list
    k: int
    diameter: object      # int, or squared surd for the sphere metric
    witness_pair: object  # (i, j) attaining the diameter, None if diameter 0


def make_clustering(pointset, assignment, k):
    """The clustering `assignment` gives, with its diameter and witness.

    The witness is the first pair in the pointset's pair table, by falling
    distance and row-major (i, then j) among equal distances, whose two
    points share a cluster; the diameter is its distance.  With no such
    pair the diameter is 0 and the witness None.  The scan starts at the
    table's farthest pair."""
    if len(assignment) != len(pointset):
        raise ValueError("assignment length must match the pointset")
    if any(not 0 <= c < k for c in assignment):
        raise ValueError("cluster ids out of range")
    return _witnessed(pointset, list(assignment), k,
                      len(distinct_distances(pointset).keys))


def _witnessed(pointset, assignment, k, rank):
    """`make_clustering` for an assignment that splits every pair of rank
    >= `rank`, pairs[:above[rank]]: none of them can be the witness, so the
    scan starts at pairs[above[rank]].  The solvers pass the rank their
    coloring is proper at."""
    table = distinct_distances(pointset)
    n = table.n
    for p in islice(table.pairs, table.above[rank], table.above[1]):
        i, j = divmod(p, n)
        if assignment[i] == assignment[j]:
            return Clustering(assignment, k, pointset.distance(i, j), (i, j))
    return Clustering(assignment, k, 0, None)


def distinct_distances(pointset):
    """The pointset's pair table (`geometry.PairTable`), built once per
    pointset: every pair ranked by its exact distance among the sorted
    distinct distances, which are the candidate diameters, always led by 0."""
    return pointset.table


def threshold_graph_at(table, rank):
    """Graph joining the pairs of rank >= `rank` in a pair table, the pairs
    farther than table.keys[rank - 1]; its k-colorings are exactly the
    k-clusterings of diameter at most that distance.  A view for diagnostics
    and tests: the solvers read the same prefix as `PairTable.bitsets_at`."""
    n = table.n
    return Graph(n, (divmod(p, n) for p in table.pairs[:table.above[rank]]))


def least_colorable(pointset, k, color, top):
    """Binary search over the candidate diameters of a pointset's pair
    table: `(coloring, rank)`, the least rank at whose threshold graph (as
    neighbor bitsets) `color` gives a coloring, and that coloring, or `top`
    and len(keys) when only the largest candidate (no edges) is left.  The
    coloring splits every pair of rank >= `rank`.

    `color` returns a proper k-coloring or None; it is monotone in the rank
    (once it gives a coloring it does at every larger rank, as edges only
    go) and None wherever the graph holds a (k+1)-clique.  The clustering
    solvers pass a colorability search, and `sphere.separation_frontier`
    that and a search for a proper coloring merging two anchors.  The first
    probe is the graph of the pairs farther than Gonzalez's bound `far`:
    the k farthest-first seeds and the point farthest from them are k+1
    points pairwise at least `far` apart, so every graph below it holds a
    (k+1)-clique.  The rest is bisected; `color` sees the same bitsets at a
    rank whatever path the search took, so the answer is the plain
    bisection's."""
    table = distinct_distances(pointset)
    lo = _farthest_first(pointset, k)[1]
    hi = len(table.keys) - 1
    best = top, len(table.keys)
    mid = lo
    while lo < hi:
        coloring = color(table.bitsets_at(mid + 1))
        if coloring is None:
            lo = mid + 1
        else:
            best, hi = (coloring, mid + 1), mid
        mid = (lo + hi) // 2
    return best


def exact_cluster(pointset, k, budget=DEFAULT_BUDGET):
    """Optimal k-clustering by binary search over candidate diameters.

    The optimum is either 0 or an attained pairwise distance, so searching
    the sorted distinct distances for the least k-colorable threshold is
    exact.  k = 2 is `two_cluster`, which reads no budget; every other k
    colors each probe with the kernel, each search under `budget` nodes,
    and an exhausted budget raises `BudgetExceeded` with the nodes of every
    probe.
    """
    if k == 2:
        return two_cluster(pointset)
    n = len(_checked(pointset, k))
    # at the overall diameter the graph is edgeless: one cluster when k < n,
    # as the kernel colors an edgeless graph
    top = list(range(n)) if k >= n else [0] * n
    stats = {}
    coloring, rank = least_colorable(
        pointset, k,
        lambda adj: find_coloring(adj, k, budget=budget, stats=stats), top)
    return _witnessed(pointset, coloring, k, rank)


def _checked(pointset, k):
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be between 1 and {MAX_K}")
    n = len(pointset)
    if n > MAX_POINTS:
        raise ValueError(f"pointset size {n} exceeds the cap {MAX_POINTS}")
    return pointset


def two_cluster(pointset):
    """Optimal 2-clustering in polynomial time: the threshold graph must be
    bipartite, checked by a layered BFS 2-coloring instead of backtracking.
    `exact_cluster(pointset, 2)` is this; both take at most MAX_POINTS."""
    _checked(pointset, 2)
    coloring, rank = least_colorable(pointset, 2, _bipartition,
                                     [0] * len(pointset))
    return _witnessed(pointset, coloring, 2, rank)


def _bipartition(adj):
    """BFS 2-coloring of the graph with neighbor bitsets `adj`, or None.

    One BFS layer at a time, as a bitset: each component is rooted at its
    lowest vertex, a layer's color is the parity of its depth, and the next
    layer is the layer's unvisited neighbors.  The graph is bipartite iff no
    edge joins two vertices of one layer (Kleinberg and Tardos, Algorithm
    Design, 3.4), so the first such edge answers None."""
    color = [0] * len(adj)
    unvisited = (1 << len(adj)) - 1
    while unvisited:
        layer = unvisited & -unvisited
        parity = 0
        while layer:
            unvisited ^= layer
            reach, rest = 0, layer
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                if adj[v] & layer:
                    return None
                reach |= adj[v]
                color[v] = parity
            layer = reach & unvisited
            parity ^= 1
    return color


def gonzalez_cluster(pointset, k):
    """Farthest-point seeding followed by nearest-seed assignment; the
    classic 2-approximation.  Deterministic: the first seed is point 0 and
    all ties break toward the lowest index."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return make_clustering(pointset, _farthest_first(pointset, k)[0], k)


def _farthest_first(pointset, k):
    """Gonzalez's traversal: `(assignment, far)`, the nearest-seed
    assignment to min(k, n) farthest-first seeds and the largest
    nearest-seed rank in the pair table among the other points, 0 when
    every point is a seed.  The seeds and a point at rank `far` are pairwise
    at least that rank apart, so no k-clustering has a lower-rank diameter.

    The traversal is kept with the pair table (`PairTable.traversal`) seed
    by seed, each seed's assignment as one array of cluster ids, and is
    extended only when a caller asks for more seeds: the traversal for k
    seeds is a prefix of the one for k + 1.  Each seed reads one row of
    ranks (`pair_rows` through `PairTable.rank_of`): each point keeps the
    rank of its nearest seed so far and that seed's cluster id, and the next
    seed, the lowest point at rank `far` (point 0 first), takes over the
    points strictly nearer to it.  Once `far` is 0 every point is at rank 0
    from a seed and no seed would take any over: stop.  The caller gets a
    copy of the assignment."""
    table = distinct_distances(pointset)
    if table.traversal is None:
        # (assignment, far) after each seed, and each point's rank from its
        # nearest seed, above every rank before the first seed
        table.traversal = [], [len(table.keys)] * table.n
    steps, near = table.traversal
    far = max(near)
    while len(steps) < k and far:
        assignment = steps[-1][0][:] if steps else array("I", [0]) * table.n
        for i, value in enumerate(next(pair_rows(pointset, [near.index(far)]))):
            r = table.rank_of[value]
            if r < near[i]:
                near[i], assignment[i] = r, len(steps)
        far = max(near)
        steps.append((assignment, far))
    assignment, far = steps[min(k, len(steps)) - 1]
    return list(assignment), far


# ---------------------------------------------------------------------------
# exact smallest enclosing ball and the Jung diagnostic


@dataclass
class BallCertificate:
    center: tuple       # Fractions
    radius_sq: Fraction
    support: tuple      # indices of boundary points defining the ball


def min_enclosing_ball(points):
    """Exact smallest enclosing ball of points with int or Fraction
    coordinates, by Welzl's recursion over one fixed shuffled order.

    Only integers enter the recursion: the points are scaled by the lcm of
    their coordinate denominators, each support set's ball is an integer
    center over one positive denominator (`_circumcenter`), and containment
    compares integer squared distances.  Fractions are built once, for the
    certificate."""
    pts = [tuple(p) for p in points]
    for c in (c for p in pts for c in p):
        if type(c) is not int and not isinstance(c, Fraction):
            raise ValueError(f"a coordinate must be an int or a Fraction, not {c!r}")
    if not pts:
        raise ValueError("empty pointset")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points must share one dimension")
    scale = lcm(*(c.denominator for p in pts for c in p))
    pts = [tuple(c.numerator * (scale // c.denominator) for c in p) for p in pts]
    order = list(range(len(pts)))
    random.Random(2).shuffle(order)

    def welzl(upto, support):
        if upto == 0 or len(support) == dim + 1:
            return _circumcenter([pts[i] for i in support]) if support else None
        i = order[upto - 1]
        ball = welzl(upto - 1, support)
        if ball is not None and _sq_dist(ball, pts[i]) <= ball[2]:
            return ball
        return welzl(upto - 1, support + [i])

    ball = center, det, r_sq = welzl(len(order), [])
    dists = [_sq_dist(ball, p) for p in pts]
    assert max(dists) <= r_sq
    den = det * scale
    return BallCertificate(tuple(Fraction(c, den) for c in center),
                           Fraction(r_sq, den * den),
                           tuple(i for i, d in enumerate(dists) if d == r_sq))


def _sq_dist(ball, p):
    """|det*p - center|^2, det^2 times the squared distance of p to the center."""
    return sum((ball[1] * x - c) ** 2 for x, c in zip(p, ball[0]))


def _circumcenter(support):
    """The ball (center, det, r_sq) through integer points: center/det is
    the point of their affine hull equidistant from all, at `_sq_dist` r_sq.

    center = det*p0 + sum x_i d_i for d_i = p_i - p0, where 2G(x/det) = b,
    G the Gram matrix of the d_i and b_i = |d_i|^2.  Bareiss's fraction-free
    elimination of [2G | b] keeps every entry an integer and ends on det =
    det(2G); G is positive definite, so every pivot is positive unless the
    support is affinely dependent.  By Cramer's rule x is integral, so
    back-substitution divides exactly."""
    p0 = support[0]
    diffs = [[c - d for c, d in zip(p, p0)] for p in support[1:]]
    m = len(diffs)
    rows = [[2 * sum(x * y for x, y in zip(a, b)) for b in diffs]
            + [sum(x * x for x in a)] for a in diffs]
    det = 1
    for k in range(m):
        pivot = rows[k][k]
        if not pivot:
            raise ValueError("degenerate support set (affinely dependent)")
        for r in range(k + 1, m):
            rows[r] = [(pivot * x - rows[r][k] * y) // det
                       for x, y in zip(rows[r], rows[k])]
        det = pivot
    x = []   # x[i:] once row i is solved
    for i, row in reversed(list(enumerate(rows))):
        x.insert(0, (det * row[m] - sum(map(mul, row[i + 1:m], x))) // row[i])
    center = [det * c + sum(xi * d[axis] for xi, d in zip(x, diffs))
              for axis, c in enumerate(p0)]
    return center, det, _sq_dist((center, det), p0)


def jung_bound_holds(ball, diam_sq, dim):
    """Exact check of radius^2 <= diam^2 * n / (2(n+1)) in n = dim dimensions."""
    return ball.radius_sq <= Fraction(diam_sq) * Fraction(dim, 2 * (dim + 1))
