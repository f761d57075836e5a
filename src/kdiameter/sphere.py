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
    seen = {}
    for pos in axes:
        for p in _family_points(axes, pos, kappa):
            seen.setdefault(p.key, p)
    points = list(seen.values())
    expected = 3 * (kappa + 1) * (kappa + 2) // 2 - 3
    assert len(points) == expected
    return points


def _family_points(axes, pos, kappa):
    """The points of family `pos` over `axes`: one per coefficient triple."""
    for i in range(kappa + 1):
        for j in range(kappa + 1 - i):
            yield SphereLatticePoint(axes, pos, (i, j, kappa - i - j), kappa)


def axis_key(axis, negative=False):
    return ((axis, -1 if negative else 1),)


@dataclass
class SphereInstance:
    """Deduplicated union of per-hyperedge regions plus anchor bookkeeping."""

    kappa: int
    regions: list            # (a, b, c) axis triples
    _pointset: Pointset = field(repr=False)   # the deduplicated points
    anchor_index: dict       # axis v -> index of the point e_v
    index_of: dict = field(repr=False)   # point key -> index

    @property
    def points(self):
        """The SphereLatticePoints, deduplicated, as a tuple."""
        return self._pointset.points

    def pointset(self):
        """The instance's one `Pointset`: the same object, and so the same
        pair table, on every call."""
        return self._pointset

    def family_indices(self, axes, pos):
        """Indices of this instance's points lying in one family of a region."""
        keys = {p.key for p in _family_points(axes, pos, self.kappa)}
        return [self.index_of[k] for k in sorted(keys) if k in self.index_of]


def build_region_instance(axes, kappa):
    return _union_instance([tuple(axes)], kappa)


def build_P_G(hypergraph, kappa=12):
    """Union of one kappa-region per hyperedge over the shared axis universe."""
    for e in hypergraph.hyperedges:
        if len(e) != 3:
            raise ValueError(f"hyperedge {e} is not a triple")
    return _union_instance([tuple(e) for e in hypergraph.hyperedges], kappa)


def _union_instance(regions, kappa):
    """The instance over the points of `regions`, deduplicated in first-seen
    order, whose anchors are the points e_v of the regions' axes v."""
    seen = {}
    for e in regions:
        for p in region_points(e, kappa):
            seen.setdefault(p.key, p)
    pointset = Pointset("l2_sphere_lattice", seen.values())
    index_of = {key: i for i, key in enumerate(seen)}
    anchors = {axis: index_of[axis_key(axis)] for e in regions for axis in e}
    return SphereInstance(kappa, regions, pointset, anchors, index_of)


# ---------------------------------------------------------------------------
# threshold graphs and the separation check


def build_threshold_graph(table, threshold_sq):
    """Graph of a sphere pair table joining the pairs at squared distance
    strictly above `threshold_sq`: a `Graph` view of the bitsets that the
    separation check reads off the same table prefix."""
    return threshold_graph_at(table, table.rank_above(threshold_sq))


def separation_answer(instance, threshold=SEPARATION_THRESHOLD,
                      budget=DEFAULT_BUDGET):
    """Whether the threshold graph is 3-colorable and every proper 3-coloring
    gives the three anchors pairwise distinct colors, as (holds, witness,
    nodes).

    `holds` is True, False, or "budget_exceeded" when one coloring search
    ran out of `budget` nodes.  The witness is a proper coloring merging two
    anchors when there is one, else None.  `nodes` is the question's total
    over all its searches, the exhausted one included.

    The threshold graph is read once from the instance's pair table as
    neighbor bitsets (`PairTable.bitsets_at`), which the first coloring and
    every anchor pattern of the forall check share.  The forall direction
    runs on the anchor support: each of the anchor color patterns that
    repeats a color is tested for extendability.
    """
    if len(instance.regions) != 1:
        raise ValueError("separation check applies to single-region instances")
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    table = distinct_distances(instance.pointset())
    adj = table.bitsets_at(table.rank_above(threshold ** 2))
    anchors = [instance.anchor_index[axis] for axis in instance.regions[0]]
    stats = {"nodes": 0}
    try:
        if find_coloring(adj, 3, budget=budget, stats=stats) is None:
            return False, None, stats["nodes"]
        holds, witness = forall_colorings(adj, 3, anchors, budget=budget,
                                          stats=stats)
    except BudgetExceeded:
        return "budget_exceeded", None, stats["nodes"]
    return holds, witness, stats["nodes"]


def verify_anchor_separation(instance, threshold=SEPARATION_THRESHOLD,
                             budget=DEFAULT_BUDGET):
    """`separation_answer` as (holds, witness); an exhausted budget raises
    `BudgetExceeded` carrying the question's node total."""
    holds, witness, nodes = separation_answer(instance, threshold, budget)
    if holds == "budget_exceeded":
        raise BudgetExceeded(nodes)
    return holds, witness


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

