"""Sphere-lattice pointsets and their threshold-graph verification.

A region over axes (a, b, c) discretizes three orthant patches of the
radius sqrt(2)/2 sphere: family a holds points with a positive a-coordinate
and nonpositive b, c coordinates, given by nonnegative integer coefficient
triples summing to kappa (and cyclically for b and c).  The three pure
negative axis points are shared between two families each.  All distance
comparisons go through the exact order keys of `geometry`.  An instance
holds one immutable `Pointset`, so the separation check at every threshold
and every exact clustering of it read one pair table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from kdiameter.clustering import (
    distinct_distances,
    least_colorable,
    make_clustering,
    threshold_graph_at,
)
from kdiameter.coloring import (
    DEFAULT_BUDGET,
    find_coloring,
    forall_colorings,
)
from kdiameter.geometry import Pointset, SphereLatticePoint

SEPARATION_THRESHOLD = Fraction(163, 125)  # the 1.304 separation ratio
MAX_INSTANCE_POINTS = 2 ** 18   # the most points an instance's regions hold


def region_size(kappa):
    """Points of one kappa-region, 3(kappa+1)(kappa+2)/2 - 3: each family
    contributes the coefficient simplex and the three shared pure-negative
    axis points are stored once."""
    return 3 * (kappa + 1) * (kappa + 2) // 2 - 3


def _family_points(axes, pos, kappa):
    """The points of family `pos` over `axes`: one per coefficient triple."""
    for i in range(kappa + 1):
        for j in range(kappa + 1 - i):
            yield SphereLatticePoint(axes, pos, (i, j, kappa - i - j), kappa)


def axis_key(axis):
    """The key of the anchor point e_axis."""
    return ((axis, 1),)


@dataclass
class SphereInstance:
    """Deduplicated union of per-hyperedge regions plus anchor bookkeeping.

    `families[i]` holds the axes v, in first-seen order, of the families v
    of the regions that point i lies in: one axis for most points, two for
    the shared negative axis points."""

    kappa: int
    regions: list            # (a, b, c) axis triples
    _pointset: Pointset = field(repr=False)   # the deduplicated points
    anchor_index: dict       # axis v -> index of the point e_v
    families: tuple = field(repr=False)   # per point, its families' axes

    @property
    def points(self):
        """The SphereLatticePoints, deduplicated, as a tuple."""
        return self._pointset.points

    def pointset(self):
        """The instance's one `Pointset`: the same object, and so the same
        pair table, on every call."""
        return self._pointset

    @cached_property
    def symmetric(self):
        """Whether this is one region over axes (a, b, c) whose point keys
        are closed under swapping axes a, b and axes b, c.  Those swaps
        generate every permutation of the axes, and each is an isometry
        permuting the anchors, so an automorphism of every threshold graph.
        Computed on first use, then kept."""
        if len(self.regions) != 1:
            return False
        a, b, c = self.regions[0]
        keys = {p.key for p in self.points}
        for swap in ({a: b, b: a}, {b: c, c: b}):
            for key in keys:
                if tuple(sorted((swap.get(x, x), v) for x, v in key)) not in keys:
                    return False
        return True


def build_region_instance(axes, kappa):
    return _union_instance([tuple(axes)], kappa)


def build_P_G(hypergraph, kappa=12):
    """Union of one kappa-region per hyperedge over the shared axis universe."""
    if not hypergraph.hyperedges:
        raise ValueError("hypergraph has no hyperedges")
    for e in hypergraph.hyperedges:
        if len(e) != 3:
            raise ValueError(f"hyperedge {e} is not a triple")
    return _union_instance([tuple(e) for e in hypergraph.hyperedges], kappa)


def _union_instance(regions, kappa):
    """The instance over the points of `regions`, deduplicated in first-seen
    order, whose anchors are the points e_v of the regions' axes v.  Each
    region is checked to hold `region_size(kappa)` points; more than
    `MAX_INSTANCE_POINTS` in all are refused before any point is built."""
    if kappa < 1:
        raise ValueError("kappa must be positive")
    size = len(regions) * region_size(kappa)
    if size > MAX_INSTANCE_POINTS:
        raise ValueError(f"{len(regions)} region(s) at kappa {kappa} hold "
                         f"{size} points, over the cap {MAX_INSTANCE_POINTS}")
    seen = {}   # point key -> (the point, its families' axes)
    for e in regions:
        region = set()
        for v in e:
            for p in _family_points(e, v, kappa):
                _, axes = seen.setdefault(p.key, (p, []))
                if v not in axes:
                    axes.append(v)
                region.add(p.key)
        assert len(region) == region_size(kappa)
    pointset = Pointset("l2_sphere_lattice", [p for p, _ in seen.values()])
    families = tuple(tuple(axes) for _, axes in seen.values())
    index = {key: i for i, key in enumerate(seen)}
    anchors = {axis: index[axis_key(axis)] for e in regions for axis in e}
    return SphereInstance(kappa, regions, pointset, anchors, families)


# ---------------------------------------------------------------------------
# threshold graphs and the separation check


def build_threshold_graph(table, threshold_sq):
    """Graph of a sphere pair table joining the pairs at squared distance
    strictly above `threshold_sq`: a `Graph` view of the bitsets that the
    separation check reads off the same table prefix."""
    return threshold_graph_at(table, table.rank_above(threshold_sq))


def check_threshold(threshold):
    """`threshold` as a Fraction, refused unless it is positive."""
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return threshold


def separation_answer(instance, threshold=SEPARATION_THRESHOLD,
                      budget=DEFAULT_BUDGET):
    """Whether the threshold graph is 3-colorable and every proper 3-coloring
    gives the three anchors pairwise distinct colors, as (holds, witness,
    nodes).

    `holds` is a bool.  The witness is a proper coloring merging two anchors
    when there is one, else None.  `nodes` is the question's total over all
    its searches.  When one coloring search runs out of `budget` nodes,
    `BudgetExceeded` propagates, its `.nodes` that same total, the exhausted
    search included.

    The threshold graph is read once from the instance's pair table as
    neighbor bitsets (`PairTable.bitsets_at`), which every search shares.
    The anchor patterns that repeat a color are searched first, one per
    orbit when the instance is `symmetric`; a witness shows colorability,
    so the free search runs only when none extends.
    """
    anchors = _anchors(instance)
    threshold = check_threshold(threshold)
    table = distinct_distances(instance.pointset())
    adj = table.bitsets_at(table.rank_above(threshold ** 2))
    stats = {"nodes": 0}
    witness = forall_colorings(adj, 3, anchors, budget=budget, stats=stats,
                               symmetric=instance.symmetric)
    holds = (witness is None
             and find_coloring(adj, 3, budget=budget, stats=stats) is not None)
    return holds, witness, stats["nodes"]


def _anchors(instance):
    if len(instance.regions) != 1:
        raise ValueError("separation check applies to single-region instances")
    return [instance.anchor_index[axis] for axis in instance.regions[0]]


def separation_frontier(instance, budget=DEFAULT_BUDGET):
    """The thresholds t at which separation holds, as (lower, upper,
    nodes): those with lower.diameter <= t^2 < upper.diameter.  `lower` is
    an optimal 3-clustering and `upper` a least-diameter one merging two
    anchors, each from `least_colorable`; `nodes`, like
    `BudgetExceeded.nodes`, totals both."""
    anchors, pointset = _anchors(instance), instance.pointset()
    stats = {"nodes": 0}
    searches = (lambda adj: find_coloring(adj, 3, budget=budget, stats=stats),
                lambda adj: forall_colorings(adj, 3, anchors, budget=budget,
                                             stats=stats,
                                             symmetric=instance.symmetric))
    lower, upper = (make_clustering(pointset, least_colorable(
        pointset, 3, search, [0] * len(pointset))[0], 3) for search in searches)
    return lower, upper, stats["nodes"]


def verify_anchor_separation(instance, threshold=SEPARATION_THRESHOLD,
                             budget=DEFAULT_BUDGET):
    """`separation_answer` without its node total, as (holds, witness)."""
    return separation_answer(instance, threshold, budget)[:2]


# ---------------------------------------------------------------------------
# explicit clusterings


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


def coloring_to_clustering(instance, coloring):
    """Turn a 3-coloring of the axes, rainbow on every region, into the
    explicit 3-clustering of the instance: family v of each region joins the
    cluster of v's color, and a point in several families goes to the least
    of their colors (the proof's set-difference tie-break).  On the region
    over axes (0, 1, 2), the coloring [0, 1, 2] puts -e_1, in families 0
    and 2, in cluster 0."""
    for e in instance.regions:
        if len({coloring[v] for v in e}) != len(e):
            raise ValueError(f"coloring is not rainbow on region {e}")
    assignment = [min(coloring[v] for v in axes) for axes in instance.families]
    clustering = make_clustering(instance.pointset(), assignment, 3)
    # orthant argument: intra-cluster pairs have nonnegative inner product,
    # so squared distances stay at most 1
    assert clustering.diameter <= 1
    return clustering
