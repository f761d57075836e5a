"""Independent correctness checks for the benchmark's answers.

Nothing here imports `kdiameter`: every check recomputes what it needs from
plain integers (bit words, integer vectors, edge lists) with its own code,
so a fault in the program cannot hide itself by also being in the checker.
The only outside code is scipy's HiGHS solver, used for the LP cross-check.

Every check raises `CheckFailed` with a one-line reason on a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class CheckFailed(AssertionError):
    """An answer contradicted an independent computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# small graph search


def three_edge_colorable(n, edges):
    """Decide 3-edge-colorability by plain backtracking over the edge list."""
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    used = [0] * n

    def rec(i):
        if i == len(edges):
            return True
        u, v = edges[i]
        free = ~(used[u] | used[v]) & 0b111
        if i == 0:
            free &= 1  # colour names are interchangeable
        while free:
            bit = free & -free
            free ^= bit
            used[u] |= bit
            used[v] |= bit
            if rec(i + 1):
                return True
            used[u] ^= bit
            used[v] ^= bit
        return False

    return rec(0)


def extend_coloring(adj, k, fixed):
    """A proper k-colouring of the graph given by neighbour bitsets `adj`
    that agrees with `fixed` (vertex -> colour), or None when none exists.

    Backtracking that always branches on the uncoloured vertex with the
    fewest colours left, with forward checking on colour domains.
    """
    n = len(adj)
    full = (1 << k) - 1
    domain = [full] * n
    color = [-1] * n
    trail = []

    def assign(v, c):
        """Colour v with c; returns False on a wiped-out domain.  Every
        domain change is pushed to `trail` so it can be undone."""
        color[v] = c
        bit = 1 << c
        nb = adj[v]
        ok = True
        while nb:
            low = nb & -nb
            nb ^= low
            w = low.bit_length() - 1
            if color[w] == c:
                ok = False
            elif color[w] < 0 and domain[w] & bit:
                trail.append(w)
                domain[w] ^= bit
                if not domain[w]:
                    ok = False
        return ok

    def undo(v, c, mark):
        color[v] = -1
        bit = 1 << c
        while len(trail) > mark:
            domain[trail.pop()] |= bit

    for v, c in fixed.items():
        if not (domain[v] >> c) & 1 or not assign(v, c):
            return None

    degree = [a.bit_count() for a in adj]

    def rec():
        best, best_key = -1, None
        for v in range(n):
            if color[v] < 0:
                key = (domain[v].bit_count(), -degree[v])
                if best_key is None or key < best_key:
                    best, best_key = v, key
        if best < 0:
            return True
        options = domain[best]
        while options:
            low = options & -options
            options ^= low
            c = low.bit_length() - 1
            mark = len(trail)
            if assign(best, c) and rec():
                return True
            undo(best, c, mark)
        return False

    return list(color) if rec() else None


def require_proper(adj, coloring, k, what):
    require(coloring is not None and len(coloring) == len(adj),
            f"{what}: colouring missing or of the wrong length")
    for v, c in enumerate(coloring):
        require(0 <= c < k, f"{what}: colour {c} out of range at vertex {v}")
        nb = adj[v]
        while nb:
            low = nb & -nb
            nb ^= low
            w = low.bit_length() - 1
            require(coloring[w] != c, f"{what}: edge ({v}, {w}) is monochromatic")


# ---------------------------------------------------------------------------
# composite workload: stitched Hamming embeddings of gadget composites


def check_composite(j_n, j_edges, comp_n, comp_edges, originals, words, q,
                    long, achieved_ratio, assignment, diameter, edge_colors):
    """Check one composite-pipeline answer.

    words -- the embedding image as integers (bit i = coordinate i)
    q, long -- the embedding's non-edge and edge thresholds: every edge
               must be at distance >= long = 3q/2, every non-edge <= q
    edge_colors -- dict edge -> colour from the program's 3-edge-colouring
                   of J, or None when it says none exists
    """
    require(comp_n == len(j_edges) + 12 * j_n,
            f"composite has {comp_n} vertices, expected |E(J)| + 12|V(J)|")
    require(len(comp_edges) == 30 * j_n,
            f"composite has {len(comp_edges)} edges, expected 30 per gadget")
    require(len(words) == comp_n, "embedding does not cover the composite")
    require(2 * long == 3 * q, f"edge threshold {long} is not 3q/2 for q={q}")
    edge_set = {(min(u, v), max(u, v)) for u, v in comp_edges}
    for u in range(comp_n):
        wu = words[u]
        for v in range(u + 1, comp_n):
            d = (wu ^ words[v]).bit_count()
            if (u, v) in edge_set:
                require(d >= long, f"composite edge ({u}, {v}) at distance "
                                   f"{d} < 3q/2={long}")
            else:
                require(d <= q, f"non-edge ({u}, {v}) at distance {d} > q={q}")
    require(achieved_ratio == Fraction(3, 2),
            f"reported embedding ratio {achieved_ratio}, expected 3/2")
    require(_hamming_diameter(words, assignment, 3) == diameter,
            f"reported diameter {diameter} differs from the assignment's")
    # four original vertices pairwise at distance q: any 3-clustering puts
    # two of them together, so the optimum is at least q
    four = originals[:4]
    require(len(four) == 4 and all((words[a] ^ words[b]).bit_count() == q
                                   for i, a in enumerate(four) for b in four[i + 1:]),
            "original vertices are not pairwise at distance q")
    colorable = three_edge_colorable(j_n, j_edges)
    expected = q if colorable else long
    require(diameter == expected,
            f"optimal 3-clustering diameter {diameter}, expected {expected} "
            f"(J {'is' if colorable else 'is not'} 3-edge-colourable)")
    if colorable:
        require(edge_colors is not None,
                "program found no 3-edge-colouring of a colourable J")
        _require_proper_edge_coloring(j_n, j_edges, edge_colors)
    else:
        require(edge_colors is None,
                "program 3-edge-coloured a J that has no 3-edge-colouring")


def _require_proper_edge_coloring(n, edges, colors):
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    got = {(min(u, v), max(u, v)): c for (u, v), c in colors.items()}
    require(set(got) == edges, "edge colouring does not cover exactly E(J)")
    seen = [set() for _ in range(n)]
    for (u, v), c in got.items():
        require(c in (0, 1, 2), f"edge colour {c} out of range")
        require(c not in seen[u] and c not in seen[v],
                f"edge colouring is improper at edge ({u}, {v})")
        seen[u].add(c)
        seen[v].add(c)


def _hamming_diameter(words, assignment, k):
    require(len(assignment) == len(words), "assignment length mismatch")
    groups = [[] for _ in range(k)]
    for i, c in enumerate(assignment):
        require(0 <= c < k, f"cluster id {c} out of range")
        groups[c].append(words[i])
    best = 0
    for g in groups:
        for i, a in enumerate(g):
            for b in g[i + 1:]:
                best = max(best, (a ^ b).bit_count())
    return best


# ---------------------------------------------------------------------------
# sphere workload: exact squared distances 1 - m/sqrt(N) on a sphere region
#
# A region point is the integer vector x with +alpha at its positive axis and
# -alpha at the other two, scaled to radius sqrt(2)/2, so two points x, y are
# at squared distance 1 - m/sqrt(N) with m = <x, y>, N = |x|^2 |y|^2.  The
# map r -> r|r| is increasing, so m/sqrt(N) orders like the exact rational
# m|m|/N; every comparison below is on that integer pair.


def region_vector(axes, positive_axis, coeffs):
    """Integer vector (over axes 0..max) of a region point, gcd-reduced."""
    dim = max(axes) + 1
    x = [0] * dim
    for axis, alpha in zip(axes, coeffs):
        x[axis] = alpha if axis == positive_axis else -alpha
    g = 0
    for e in x:
        g = gcd(g, e)
    require(g > 0, "region point is the zero vector")
    return tuple(e // g for e in x)


def region_directions(axes, kappa):
    """All distinct point directions of the kappa-region over `axes`."""
    out = set()
    for pos in axes:
        for i in range(kappa + 1):
            for j in range(kappa + 1 - i):
                out.add(region_vector(axes, pos, (i, j, kappa - i - j)))
    return out


class SphereRegion:
    """Pairwise exact distance data of one region, in the program's order."""

    def __init__(self, axes, kappa, vectors):
        self.axes = tuple(axes)
        self.kappa = kappa
        self.vectors = [tuple(v) for v in vectors]
        n = len(self.vectors)
        require(n == 3 * (kappa + 1) * (kappa + 2) // 2 - 3,
                f"region has {n} points, expected 3(k+1)(k+2)/2 - 3")
        require(set(self.vectors) == region_directions(self.axes, kappa)
                and len(set(self.vectors)) == n,
                "region points differ from the region's lattice directions")
        norms = [sum(e * e for e in v) for v in self.vectors]
        # key[i][j] = (m|m|, N) for i < j, stored flat per row
        self.mm = []
        self.big_n = []
        for i, x in enumerate(self.vectors):
            row_m, row_n = [], []
            for j in range(i + 1, n):
                m = sum(a * b for a, b in zip(x, self.vectors[j]))
                row_m.append(m * abs(m))
                row_n.append(norms[i] * norms[j])
            self.mm.append(row_m)
            self.big_n.append(row_n)
        index = {v: i for i, v in enumerate(self.vectors)}
        dim = len(self.vectors[0])
        unit = [tuple(int(d == a) for d in range(dim)) for a in self.axes]
        self.anchors = [index[u] for u in unit]
        self.negative_first = index[tuple(-e for e in unit[0])]

    def __len__(self):
        return len(self.vectors)

    def threshold_adjacency(self, t):
        """Neighbour bitsets joining pairs at squared distance > t^2.

        With 1 - t^2 = a/b (b > 0): 1 - m/sqrt(N) > t^2 iff
        m|m| * b^2 < a|a| * N."""
        c = 1 - Fraction(t) ** 2
        a, b = c.numerator, c.denominator
        lhs_b2, rhs_a = b * b, a * abs(a)
        n = len(self)
        adj = [0] * n
        for i in range(n):
            mm, nn = self.mm[i], self.big_n[i]
            for off in range(len(mm)):
                if mm[off] * lhs_b2 < rhs_a * nn[off]:
                    j = i + 1 + off
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return adj

    def pair_key(self, i, j):
        """Exact order key of m/sqrt(N); squared distance falls as it grows."""
        if i > j:
            i, j = j, i
        off = j - i - 1
        return Fraction(self.mm[i][off], self.big_n[i][off])

    def family_partition(self):
        """Each point joins the first region family holding it: family X
        holds the points with a nonnegative X-coordinate and nonpositive
        other coordinates, so every intra-family inner product is >= 0."""
        out = []
        for v in self.vectors:
            for cluster, axis in enumerate(self.axes):
                others = [a for a in self.axes if a != axis]
                if v[axis] >= 0 and all(v[o] <= 0 for o in others):
                    out.append(cluster)
                    break
            else:
                raise CheckFailed(f"point {v} lies in no region family")
        return out

    def diameter_key(self, assignment, k):
        """Least pair key within a cluster (the squared diameter's key), or
        None when every cluster is a singleton."""
        require(len(assignment) == len(self), "assignment length mismatch")
        groups = [[] for _ in range(k)]
        for i, c in enumerate(assignment):
            require(0 <= c < k, f"cluster id {c} out of range")
            groups[c].append(i)
        best = None
        for g in groups:
            for x, i in enumerate(g):
                for j in g[x + 1:]:
                    key = self.pair_key(i, j)
                    if best is None or key < best:
                        best = key
        return best


def surd_key(m, big_n):
    """Order key of m/sqrt(N) for a reported squared distance 1 - m/sqrt(N)."""
    require(big_n > 0, "squared distance with a nonpositive norm product")
    return Fraction(m * abs(m), big_n)


ANCHOR_MERGING_PATTERNS = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))


def check_separation(region, t, holds, witness):
    """Check one anchor-separation verdict at threshold t >= 1."""
    adj = region.threshold_adjacency(t)
    anchors = region.anchors
    family = region.family_partition()
    require(Fraction(t) >= 1, "family-partition evidence needs t >= 1")
    require_proper(adj, family, 3, f"family partition at t={t}")
    require(len({family[a] for a in anchors}) == 3,
            "family partition does not separate the anchors")
    if holds:
        for pattern in ANCHOR_MERGING_PATTERNS:
            found = extend_coloring(adj, 3, dict(zip(anchors, pattern)))
            require(found is None,
                    f"verdict 'separation holds' at kappa={region.kappa} t={t}, "
                    f"but anchor pattern {pattern} extends to a proper colouring")
    else:
        require_proper(adj, witness, 3, f"refuting witness at t={t}")
        require(len({witness[a] for a in anchors}) < 3,
                "refuting witness keeps the anchors apart")


def check_sphere_exact(region, assignment, diameter_key):
    """Optimal squared 3-clustering diameter of a region is exactly 1."""
    require(region.diameter_key(assignment, 3) == diameter_key,
            "reported diameter differs from the assignment's")
    # upper bound 1: the family partition has every inner product >= 0
    require(region.diameter_key(region.family_partition(), 3) >= 0,
            "family partition has a pair above squared distance 1")
    # lower bound 1: e_a, e_b, e_c, -e_a are pairwise at squared distance
    # >= 1, and two of the four share a cluster
    four = region.anchors + [region.negative_first]
    require(all(region.pair_key(a, b) <= 0
                for x, a in enumerate(four) for b in four[x + 1:]),
            "lower-bound points are not pairwise at squared distance >= 1")
    require(diameter_key == 0,
            f"optimal squared 3-clustering diameter is not 1 (key {diameter_key})")


def two_cluster_optimum_key(region):
    """Key of the optimal squared 2-clustering diameter, by a union-find
    parity oracle: add pairs farthest first until one closes an odd cycle."""
    n = len(region)
    pairs = sorted(((region.pair_key(i, j), i, j)
                    for i in range(n) for j in range(i + 1, n)))
    parent = list(range(n))
    parity = [0] * n

    def find(v):
        """Root of v and the parity of v relative to it."""
        found = 0
        root = v
        while parent[root] != root:
            found ^= parity[root]
            root = parent[root]
        p = found
        while parent[v] != root:  # path compression
            nxt, pv = parent[v], parity[v]
            parent[v], parity[v] = root, p
            p ^= pv
            v = nxt
        return root, found

    for key, i, j in pairs:
        ri, pi = find(i)
        rj, pj = find(j)
        if ri == rj:
            if pi == pj:
                return key
        else:
            parent[ri] = rj
            parity[ri] = pi ^ pj ^ 1
    return None


def check_sphere_two(region, assignment, diameter_key):
    require(region.diameter_key(assignment, 2) == diameter_key,
            "reported 2-clustering diameter differs from the assignment's")
    require(diameter_key == two_cluster_optimum_key(region),
            "2-clustering diameter is not the parity-oracle optimum")


def check_sphere_gonzalez(region, assignment, diameter_key):
    """Within twice the optimal diameter 1: squared diameter at most 4."""
    require(region.diameter_key(assignment, 3) == diameter_key,
            "reported Gonzalez diameter differs from the assignment's")
    # 1 - m/sqrt(N) <= 4 iff m/sqrt(N) >= -3 iff key >= -9
    require(diameter_key >= -9, "Gonzalez clustering above twice the optimum")


# ---------------------------------------------------------------------------
# lp workload: best Hamming-embedding ratio


def cut_lp_optimum(n, edges):
    """scipy HiGHS solution of the cut LP: maximise r subject to every edge
    cut sum >= r and every non-edge cut sum <= 1 over the 2^(n-1)-1 cuts.
    Returns ("unbounded", None) or ("optimal", float ratio)."""
    import numpy as np
    from scipy.optimize import linprog

    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    cuts = range(2, 1 << n, 2)  # bit 0 clear, not empty
    cols = list(cuts)
    rows, rhs = [], []
    for a in range(n):
        for b in range(a + 1, n):
            cut = [((w >> a) ^ (w >> b)) & 1 for w in cols]
            if (a, b) in edge_set:
                rows.append([1.0] + [-float(c) for c in cut])
                rhs.append(0.0)
            else:
                rows.append([0.0] + [float(c) for c in cut])
                rhs.append(1.0)
    objective = np.zeros(1 + len(cols))
    objective[0] = -1.0
    res = linprog(objective, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=(0, None), method="highs")
    if res.status == 3:
        return "unbounded", None
    require(res.status == 0, f"HiGHS could not solve the cut LP: {res.message}")
    return "optimal", -res.fun


def check_lp(n, edges, unbounded, ratio, certified, words, short, long):
    """Check one max-embeddability answer against HiGHS and re-verify the
    returned embedding exactly."""
    status, reference = cut_lp_optimum(n, edges)
    require((status == "unbounded") == bool(unbounded),
            f"boundedness disagrees with HiGHS ({status})")
    if unbounded:
        require(ratio is None and words is None,
                "unbounded answer carries a ratio or embedding")
        return
    require(isinstance(ratio, Fraction), "bounded answer has no exact ratio")
    require(abs(float(ratio) - reference) <= 1e-7 * max(1.0, reference),
            f"ratio {ratio} disagrees with HiGHS optimum {reference!r}")
    require(certified and words is not None, "bounded answer is not certified")
    require(len(words) == n, "embedding does not cover the graph")
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    min_edge, max_nonedge = None, None
    for u in range(n):
        for v in range(u + 1, n):
            d = (words[u] ^ words[v]).bit_count()
            if (u, v) in edge_set:
                require(d >= long, f"edge ({u}, {v}) at {d} < long={long}")
                min_edge = d if min_edge is None else min(min_edge, d)
            else:
                require(d <= short, f"non-edge ({u}, {v}) at {d} > short={short}")
                max_nonedge = d if max_nonedge is None else max(max_nonedge, d)
    require(Fraction(long) / Fraction(short) == ratio,
            f"embedding thresholds give {Fraction(long) / Fraction(short)}, "
            f"not the reported ratio {ratio}")
    require(min_edge is not None and max_nonedge
            and Fraction(min_edge, max_nonedge) == ratio,
            "embedding does not achieve the reported ratio")


# ---------------------------------------------------------------------------
# repro workload: the acceptance criteria's own verdicts plus paper facts

CRITERION_FACTS = {
    4: {"total_colorings": 6},
    6: {"points": 270},
    9: {"ratio": "5/3"},
    10: {"pointsets": 100},
}


def check_criterion(num, result):
    require(isinstance(result, dict) and result.get("ok") is True,
            f"acceptance criterion {num} failed: {result!r}")
    for key, value in CRITERION_FACTS.get(num, {}).items():
        require(result.get(key) == value,
                f"criterion {num}: {key}={result.get(key)!r}, expected {value!r}")
    if num == 5:
        require(result.get("ratio") == "3/2"
                and result.get("clustering_diameter") == result.get("q"),
                f"criterion 5: composite optimum is not q at ratio 3/2: {result!r}")
