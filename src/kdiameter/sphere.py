"""Sphere-lattice pointsets and their threshold-graph verification.

A region over axes (a, b, c) discretizes three orthant patches of the
radius sqrt(2)/2 sphere: family a holds points with a positive a-coordinate
and nonpositive b, c coordinates, given by nonnegative integer coefficient
triples summing to kappa (and cyclically for b and c).  The three pure
negative axis points are shared between two families each.  All distance
comparisons go through the exact order keys of `geometry`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from kdiameter.clustering import (
    distinct_distances,
    make_clustering,
    threshold_graph_at,
)
from kdiameter.coloring import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    find_coloring,
    forall_colorings,
)
from kdiameter.geometry import Pointset, SphereLatticePoint

SEPARATION_THRESHOLD = Fraction(163, 125)  # the 1.304 separation ratio


def region_points(axes, kappa):
    """All lattice points of the three families over `axes`, deduplicated.

    Count is 3(kappa+1)(kappa+2)/2 - 3: each family contributes the
    coefficient simplex and the three shared pure-negative axis points are
    stored once.
    """
    if kappa < 1:
        raise ValueError("kappa must be positive")
    a, b, c = axes
    seen = {}
    for pos in (a, b, c):
        for i in range(kappa + 1):
            for j in range(kappa + 1 - i):
                p = SphereLatticePoint((a, b, c), pos, (i, j, kappa - i - j), kappa)
                seen.setdefault(p.key, p)
    points = list(seen.values())
    expected = 3 * (kappa + 1) * (kappa + 2) // 2 - 3
    assert len(points) == expected
    return points


def _family_keys(axes, pos, kappa):
    a, b, c = axes
    keys = set()
    for i in range(kappa + 1):
        for j in range(kappa + 1 - i):
            keys.add(SphereLatticePoint((a, b, c), pos, (i, j, kappa - i - j),
                                        kappa).key)
    return keys


def axis_key(axis, negative=False):
    return ((axis, -1 if negative else 1),)


@dataclass
class SphereInstance:
    """Deduplicated union of per-hyperedge regions plus anchor bookkeeping."""

    kappa: int
    regions: list            # (a, b, c) axis triples
    points: list             # SphereLatticePoints, deduplicated
    anchor_index: dict       # axis v -> index of the point e_v
    index_of: dict = field(repr=False, default=None)

    def __post_init__(self):
        if self.index_of is None:
            self.index_of = {p.key: i for i, p in enumerate(self.points)}

    def pointset(self):
        return Pointset("l2_sphere_lattice", self.points)

    def family_indices(self, axes, pos):
        """Indices of this instance's points lying in one family of a region."""
        return [self.index_of[k] for k in sorted(_family_keys(axes, pos, self.kappa))
                if k in self.index_of]


def build_region_instance(axes, kappa):
    points = region_points(axes, kappa)
    index = {p.key: i for i, p in enumerate(points)}
    anchors = {}
    for axis in axes:
        key = axis_key(axis)
        if key in index:
            anchors[axis] = index[key]
    return SphereInstance(kappa, [tuple(axes)], points, anchors)


def build_P_G(hypergraph, kappa=12):
    """Union of one kappa-region per hyperedge over the shared axis universe."""
    seen = {}
    regions = []
    for e in hypergraph.hyperedges:
        if len(e) != 3:
            raise ValueError(f"hyperedge {e} is not a triple")
        regions.append(tuple(e))
        for p in region_points(tuple(e), kappa):
            seen.setdefault(p.key, p)
    points = list(seen.values())
    index = {p.key: i for i, p in enumerate(points)}
    anchors = {}
    for e in regions:
        for axis in e:
            anchors[axis] = index[axis_key(axis)]
    return SphereInstance(kappa, regions, points, anchors)


# ---------------------------------------------------------------------------
# threshold graphs and the separation check


def build_threshold_graph(table, threshold_sq):
    """Graph of a sphere pair table joining the pairs at squared distance
    strictly above `threshold_sq`."""
    return threshold_graph_at(table, table.rank_above(threshold_sq))


def verify_anchor_separation(instance, threshold=SEPARATION_THRESHOLD,
                             budget=DEFAULT_BUDGET, stats=None):
    """Check that the threshold graph is 3-colorable and that every proper
    3-coloring gives the three anchors pairwise distinct colors.

    Returns (True, None) or (False, witness) where the witness is either
    None (not 3-colorable at all) or a proper coloring merging two anchors.
    The forall direction runs on the anchor support: each of the anchor
    color patterns violating distinctness is tested for extendability.
    """
    if len(instance.regions) != 1:
        raise ValueError("separation check applies to single-region instances")
    return _separation(instance, distinct_distances(instance.pointset()),
                       threshold, budget, stats)


def _separation(instance, table, threshold, budget, stats):
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    graph = build_threshold_graph(table, threshold ** 2)
    anchors = [instance.anchor_index[axis] for axis in instance.regions[0]]
    base = find_coloring(graph, 3, budget=budget, stats=stats)
    if base is None:
        return False, None
    predicate = _distinct_on(anchors)
    holds, witness = forall_colorings(graph, 3, predicate, support=anchors,
                                      budget=budget, stats=stats)
    return holds, witness


def _distinct_on(anchors):
    def predicate(coloring):
        seen = {coloring[a] for a in anchors}
        return len(seen) == len(anchors)
    return predicate


# ---------------------------------------------------------------------------
# explicit clusterings


def completeness_clustering(instance):
    """The explicit family partition of a single region: cluster X takes
    family X minus the one shared negative axis point handed to the next
    cluster (A drops the negative b axis point, B the negative c, C the
    negative a)."""
    if len(instance.regions) != 1:
        raise ValueError("explicit partition applies to single-region instances")
    a, b, c = instance.regions[0]
    drop = {0: axis_key(b, negative=True),
            1: axis_key(c, negative=True),
            2: axis_key(a, negative=True)}
    assignment = [None] * len(instance.points)
    for cluster, pos in enumerate((a, b, c)):
        for i in instance.family_indices((a, b, c), pos):
            if instance.points[i].key == drop[cluster]:
                continue
            assert assignment[i] is None or assignment[i] == cluster
            assignment[i] = cluster
    assert all(x is not None for x in assignment)
    return make_clustering(instance.pointset(), assignment, 3)


def remark_clustering(instance):
    """Min-coordinate rule partition of a single region: cluster A takes
    points whose a-coordinate is the (weak) minimum, then B by minimal b
    among the rest, then C.  Coordinate comparisons within one point reduce
    to its signed integer support."""
    if len(instance.regions) != 1:
        raise ValueError("coordinate rule applies to single-region instances")
    a, b, c = instance.regions[0]
    assignment = []
    for p in instance.points:
        coords = p.signed_entries()
        xa, xb, xc = coords.get(a, 0), coords.get(b, 0), coords.get(c, 0)
        if xa <= xb and xa <= xc:
            assignment.append(0)
        elif xb <= xa and xb <= xc:
            assignment.append(1)
        else:
            assignment.append(2)
    return make_clustering(instance.pointset(), assignment, 3)


def remark_diameter_within_bound(clustering):
    """Exact check that the squared diameter is at most 1 + sqrt(2)/2."""
    d = clustering.diameter
    return d == 0 or not d.exceeds_one_plus_half_sqrt2()


def coloring_to_clustering(instance, hypergraph, coloring):
    """Turn a proper rainbow 3-coloring of the hypergraph into the explicit
    3-clustering of the instance: for each region, family v joins the
    cluster of v's color; points claimed by several clusters go to the
    lowest-numbered one (the proof's set-difference tie-break)."""
    for e in hypergraph.hyperedges:
        if len({coloring[v] for v in e}) != len(e):
            raise ValueError(f"coloring is not rainbow on hyperedge {e}")
    claimed = [set() for _ in range(len(instance.points))]
    for region in instance.regions:
        for v in region:
            cluster = coloring[v]
            for i in instance.family_indices(region, v):
                claimed[i].add(cluster)
    assert all(claimed)
    assignment = [min(cl) for cl in claimed]
    clustering = make_clustering(instance.pointset(), assignment, 3)
    # orthant argument: intra-cluster pairs have nonnegative inner product,
    # so squared distances stay at most 1
    assert clustering.diameter <= 1
    return clustering


def clustering_to_coloring(instance, hypergraph, clustering):
    """Read a hypergraph coloring off a clustering via the anchor points."""
    return [clustering.assignment[instance.anchor_index[v]]
            for v in range(hypergraph.n)]


# ---------------------------------------------------------------------------
# conjecture frontier sweep


def kappa_sweep(kappas, thresholds, budget=DEFAULT_BUDGET, axes=(0, 1, 2)):
    """Probe anchor separation across (kappa, threshold) pairs.

    Returns rows of dicts with CSV-ready fields; budget-exceeded rows are
    kept and marked rather than dropped.
    """
    rows = []
    for kappa in kappas:
        instance = build_region_instance(axes, kappa)
        table = distinct_distances(instance.pointset())
        for t in thresholds:
            t = Fraction(t)
            stats = {"nodes": 0}
            start = time.perf_counter()
            try:
                holds, _ = _separation(instance, table, t, budget, stats)
                verdict = "yes" if holds else "no"
            except BudgetExceeded:
                verdict = "budget_exceeded"
            rows.append({
                "kappa": kappa,
                "t_num": t.numerator,
                "t_den": t.denominator,
                "separation_holds": verdict,
                "nodes_explored": stats["nodes"],
                "seconds": round(time.perf_counter() - start, 3),
            })
    return rows


def sweep_csv(rows):
    header = ["kappa", "t_num", "t_den", "separation_holds", "nodes_explored",
              "seconds"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[h]) for h in header))
    return "\n".join(lines) + "\n"
