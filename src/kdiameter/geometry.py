"""Exact point representations for Hamming, integer l1/linf, and sphere-lattice l2 space.

Every comparison here is integer or rational arithmetic.  Squared Euclidean
distances between sphere-lattice points are kept in the surd form
1 - m/sqrt(n1*n2) and compared through a rational order key in lowest terms,
so equal distances have equal keys.  A `Pointset` is immutable and ranks its
pairs once, in its `PairTable` (`Pointset.table`, built on first use), with
one bucket of equal values per rank for every metric; every threshold graph
of that pointset is read off this one ranking, and so is every clustering's
diameter: its witness is the first pair of the ranking, by falling distance
and row-major (i, then j) among equal distances, that lies in one cluster.
`pair_rows` is the one stream of exact pair distances, one row of values per
point: the pair table is built from it, and every other all-pairs check (an
embedding's conditions, a Hadamard code's distances) reads it too.  The
table keeps the threshold graphs it gives out (`bitsets_at`), each an
immutable tuple of neighbor bitsets: a rank asked for again moves no pairs,
and a new one is the nearest kept graph, or the empty graph, with the pairs
between the two prefixes XORed in.
"""

from __future__ import annotations

import json
import operator
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, total_ordering
from math import gcd


class DimensionMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# points


class BitVector:
    """Fixed-length 0/1 word, stored as an integer with bit i = coordinate i."""

    __slots__ = ("length", "word")

    def __init__(self, length, word=0):
        if length <= 0:
            raise ValueError("length must be positive")
        if word < 0 or word >> length:
            raise ValueError("word out of range for length")
        self.length = length
        self.word = word

    @classmethod
    def from_bits(cls, bits):
        bits = list(bits)
        word = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError("bits must be 0/1")
            word |= b << i
        return cls(len(bits), word)

    @classmethod
    def from_string(cls, s):
        return cls.from_bits(int(c) for c in s)

    @property
    def bits(self):
        return tuple((self.word >> i) & 1 for i in range(self.length))

    def complement(self):
        mask = (1 << self.length) - 1
        return BitVector(self.length, self.word ^ mask)

    def concat(self, other):
        return BitVector(self.length + other.length,
                         self.word | (other.word << self.length))

    def to_string(self):
        return "".join(str(b) for b in self.bits)

    def __eq__(self, other):
        return (isinstance(other, BitVector)
                and self.length == other.length and self.word == other.word)

    def __hash__(self):
        return hash((self.length, self.word))

    def __repr__(self):
        return f"BitVector({self.to_string()!r})"


def hamming_distance(u, v):
    if u.length != v.length:
        raise DimensionMismatch(f"lengths differ: {u.length} != {v.length}")
    return (u.word ^ v.word).bit_count()


class IntVector:
    """Integer coordinate vector for the l1/linf constructions."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(int(e) for e in entries)
        if not self.entries:
            raise ValueError("dimension must be positive")

    @property
    def dimension(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, IntVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntVector({list(self.entries)!r})"


def l1_distance(u, v):
    if u.dimension != v.dimension:
        raise DimensionMismatch("dimension mismatch")
    return sum(abs(a - b) for a, b in zip(u.entries, v.entries))


def linf_distance(u, v):
    if u.dimension != v.dimension:
        raise DimensionMismatch("dimension mismatch")
    return max(abs(a - b) for a, b in zip(u.entries, v.entries))


class SphereLatticePoint:
    """Lattice point of a three-axis sphere region, kept symbolically.

    The represented real point is (x/|x|) * sqrt(2)/2 where x has entry
    +alpha at the positive axis and -alpha at the other two axes.  Two
    instances denote the same real point iff their sign-reduced integer
    supports coincide, which is what `key` captures.
    """

    __slots__ = ("axes", "positive_axis", "coeffs", "kappa", "key")

    def __init__(self, axes, positive_axis, coeffs, kappa):
        axes = tuple(axes)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != 3:
            raise ValueError("coefficients must be three integers, one per axis")
        if len(axes) != 3 or len(set(axes)) != 3 or min(axes) < 0:
            raise ValueError("axes must be three distinct non-negative indices")
        if positive_axis not in axes:
            raise ValueError("positive_axis must be one of the axes")
        if any(c < 0 for c in coeffs) or sum(coeffs) != kappa or kappa <= 0:
            raise ValueError("coefficients must be nonnegative and sum to kappa")
        self.axes = axes
        self.positive_axis = positive_axis
        self.coeffs = coeffs
        self.kappa = kappa
        entries = {}
        for axis, alpha in zip(axes, coeffs):
            if alpha:
                entries[axis] = alpha if axis == positive_axis else -alpha
        g = 0
        for val in entries.values():
            g = gcd(g, abs(val))
        self.key = tuple(sorted((a, v // g) for a, v in entries.items()))

    def signed_entries(self):
        return dict(self.key)

    def norm_sq_int(self):
        """Squared norm of the reduced integer support vector."""
        return sum(v * v for _, v in self.key)

    def __eq__(self, other):
        return isinstance(other, SphereLatticePoint) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"SphereLatticePoint(key={self.key!r})"


# ---------------------------------------------------------------------------
# exact squared distances


def sphere_key(d):
    """Order key (num, den) in lowest terms, den > 0, of an exact squared
    sphere distance.

    The key of 1 - m/sqrt(N) is -m|m|/N, strictly increasing in the distance;
    a rational s has the key -u|u| with u = 1 - s.  Equal distances have
    equal keys, and every sphere comparison is one integer
    cross-multiplication of two keys.
    """
    if isinstance(d, SqDistance):
        return _surd_key(d.m, d.big_n)
    u = 1 - Fraction(d)
    return -u.numerator * abs(u.numerator), u.denominator ** 2


def _surd_key(m, big_n):
    """The key -m|m|/N of 1 - m/sqrt(N), divided by gcd(m^2, N)."""
    g = gcd(m * m, big_n)
    return -m * abs(m) // g, big_n // g


@total_ordering
class SqDistance:
    """Exact squared Euclidean distance 1 - m/sqrt(n1*n2) between sphere points."""

    __slots__ = ("m", "n1", "n2", "big_n")

    def __init__(self, m, n1, n2):
        if n1 <= 0 or n2 <= 0:
            raise ValueError("norms must be positive")
        self.m = m
        self.n1 = n1
        self.n2 = n2
        self.big_n = n1 * n2

    def _cmp(self, other, op):
        """`op` on the order keys of self and `other`, which must be exact:
        a float gives NotImplemented, so == is False and < raises TypeError."""
        if not isinstance(other, (SqDistance, int, Fraction)):
            return NotImplemented
        a, b = sphere_key(self)
        c, d = sphere_key(other)
        return op(a * d, c * b)

    def __eq__(self, other):
        return self._cmp(other, operator.eq)

    def __lt__(self, other):
        return self._cmp(other, operator.lt)

    def __repr__(self):
        return f"SqDistance(m={self.m}, n1={self.n1}, n2={self.n2})"


def sphere_point_sq_distance(p, s):
    """Exact squared distance between two sphere-lattice points."""
    pe = dict(p.key)
    m = sum(v * pe.get(a, 0) for a, v in s.key)
    return SqDistance(m, p.norm_sq_int(), s.norm_sq_int())


def sq_distance_exceeds(p, s, threshold_sq):
    """Decide ||p-s||^2 > t^2 with no floating point; threshold_sq is t^2."""
    threshold_sq = Fraction(threshold_sq)
    if threshold_sq <= 0:
        raise ValueError("threshold must be positive")
    return sphere_point_sq_distance(p, s) > threshold_sq


# ---------------------------------------------------------------------------
# pointsets

METRICS = ("hamming", "l1_int", "linf_int", "l2_sphere_lattice")

DISTANCE = {
    "hamming": hamming_distance,
    "l1_int": l1_distance,
    "linf_int": linf_distance,
    "l2_sphere_lattice": sphere_point_sq_distance,
}


@dataclass(frozen=True)
class Pointset:
    """Immutable, non-empty tuple of points of one dimension under one metric.

    For `l2_sphere_lattice` all distances are *squared* (SqDistance values);
    for the other metrics they are plain integers.  `table` ranks every pair
    once, on first use, and every solver asking about this pointset shares it.
    """

    metric: str
    points: tuple

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("empty pointset")
        if self.metric != "l2_sphere_lattice":
            size = "length" if self.metric == "hamming" else "dimension"
            dims = {getattr(p, size) for p in self.points}
            if len(dims) > 1:
                raise DimensionMismatch(
                    f"point {size}s differ: {sorted(dims)}")

    @cached_property
    def table(self):
        """The pair table ranking every pair of this pointset."""
        return PairTable(self)

    def distance(self, i, j):
        return DISTANCE[self.metric](self.points[i], self.points[j])

    def __len__(self):
        return len(self.points)

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        return {"metric": self.metric,
                "points": [point_to_json(self.metric, p) for p in self.points]}

    @classmethod
    def from_dict(cls, d):
        """The pointset of `to_dict`'s form; other keys are ignored."""
        metric, points = d["metric"], d["points"]
        if not isinstance(points, list):  # "0110" is not four points
            raise ValueError("points must be a list")
        return cls(metric, [point_from_json(metric, p) for p in points])


def point_to_json(metric, p):
    """JSON form of a point: a bit string, an entry list or a region dict."""
    if metric == "hamming":
        return p.to_string()
    if metric in ("l1_int", "linf_int"):
        return list(p.entries)
    return {"axes": list(p.axes), "pos": p.positive_axis,
            "coeffs": list(p.coeffs), "kappa": p.kappa}


def point_from_json(metric, obj):
    """The point of `metric` whose JSON form is `obj`; every number in it
    must be a JSON integer."""
    if metric == "hamming":
        if type(obj) is not str:
            raise ValueError(f"a hamming point must be a bit string, not {obj!r}")
        return BitVector.from_string(obj)
    if metric in ("l1_int", "linf_int"):
        return IntVector([json_int(e, "an entry") for e in obj])
    if metric != "l2_sphere_lattice":
        raise ValueError(f"unknown metric {metric!r}")
    return SphereLatticePoint([json_int(a, "an axis") for a in obj["axes"]],
                              json_int(obj["pos"], "pos"),
                              [json_int(c, "a coefficient") for c in obj["coeffs"]],
                              json_int(obj["kappa"], "kappa"))


def json_loads(text):
    """The value of JSON `text`, with a key repeated in one object refused
    rather than read as its last value."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is repeated")
        obj[key] = value
    return obj


def json_int(value, what):
    """`value` if it is a JSON integer; a fraction, a string or a boolean
    is refused rather than converted."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


# ---------------------------------------------------------------------------
# the pair table


# sort key of sphere values (num, den), den > 0: one cross-multiplication
_CROSS = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])

# how many threshold graphs a pair table keeps (`bitsets_at`)
_KEPT = 32

# the most points a pair table ranks: 8,386,560 pairs
MAX_TABLE_POINTS = 4096


def check_table_size(n):
    """Refuse a pair table over `n` > MAX_TABLE_POINTS points."""
    if n > MAX_TABLE_POINTS:
        raise ValueError(f"pointset size {n} exceeds the pair table's cap "
                         f"{MAX_TABLE_POINTS}")


class PairTable:
    """Every pair of a pointset, ranked once by exact distance.

    `keys` are the sorted distinct order keys of the pairwise distances, led
    by the key of distance 0: the distances themselves for the integer
    metrics, `sphere_key` values as Fractions for the sphere metric.  A
    pair's rank is the index of its key; since sphere keys are in lowest
    terms, each rank is one bucket of `pair_rows` values.  `pairs` holds the
    pair ids i*n + j (i < j) by falling rank, and `above[r]` counts the
    pairs of rank >= r, so the pairs farther than keys[r - 1] are exactly
    pairs[:above[r]].  `rank_of` maps a `pair_rows` value to its rank.
    A pointset over `MAX_TABLE_POINTS` is refused before any pair is read.
    """

    def __init__(self, pointset):
        check_table_size(len(pointset))
        self.metric = pointset.metric
        self.n = n = len(pointset)
        buckets = defaultdict(lambda: array("q"))  # value -> ascending pair ids
        for i, row in enumerate(pair_rows(pointset)):
            for p, value in enumerate(row, i * n + i + 1):
                buckets[value].append(p)
        sphere = self.metric == "l2_sphere_lattice"
        # a Fraction is built only for each distinct sphere value
        values = sorted(set(buckets) | {sphere_key(0) if sphere else 0},
                        key=_CROSS if sphere else None)
        self.keys = [Fraction(*v) for v in values] if sphere else values
        self.above = above = [0] * (len(values) + 1)
        self.pairs = pairs = array("q")
        for r in reversed(range(len(values))):
            pairs.extend(buckets.pop(values[r], ()))
            above[r] = len(pairs)
        # built once the buckets are freed, which keeps the peak down
        self.rank_of = dict(zip(values, range(len(values))))
        self._graphs = {}   # m -> the graph of pairs[:m], oldest first
        self.moved = 0   # pairs XORed since the table was built
        self.traversal = None   # kept by clustering._farthest_first

    def bitsets_at(self, rank):
        """The threshold graph at `rank`, of the pairs pairs[:above[rank]], as
        a tuple of n neighbor bitsets (bit j of the i-th joins i and j).

        The table keeps each graph it gives out, at most `_KEPT` of them with
        the oldest dropped first, so a prefix asked for again moves no pairs.
        Each pair is its own inverse, so a new graph is the nearest kept one,
        or the empty graph, with the pairs between the two prefixes XORed in.
        `moved` counts the pairs XORed: on the kappa = 12 region a warm pass
        of the `sphere` benchmark workload asks only for kept graphs and
        moves none."""
        stop, graphs = self.above[rank], self._graphs
        if stop not in graphs:
            n = self.n
            start = min([0, *graphs], key=lambda m: abs(stop - m))
            adj = list(graphs.get(start, (0,) * n))
            self.moved += abs(stop - start)
            bit = [1 << v for v in range(n)]
            for p in self.pairs[min(start, stop):max(start, stop)]:
                i, j = divmod(p, n)
                adj[i] ^= bit[j]
                adj[j] ^= bit[i]
            if len(graphs) == _KEPT:
                del graphs[next(iter(graphs))]
            graphs[stop] = tuple(adj)
        return graphs[stop]

    def key(self, value):
        """Order key of an exact distance (squared for the sphere metric)."""
        if self.metric == "l2_sphere_lattice":
            return Fraction(*sphere_key(value))
        return value

    def rank_above(self, value):
        """Least rank whose pairs are all farther than `value`."""
        return bisect_right(self.keys, self.key(value))


def pair_rows(pointset, rows=None):
    """Each pair's exact distance in a hashable integer form, one fresh list
    per row i holding the values for j = i+1..n-1, or for every j when i is
    one of `rows`, given: the distance itself, or its `sphere_key`, in
    lowest terms, for the sphere metric."""
    pts = pointset.points
    spans = (zip(range(len(pts)), range(1, len(pts) + 1)) if rows is None
             else ((i, 0) for i in rows))   # (row, its first column)
    if pointset.metric == "hamming":
        words = [p.word for p in pts]
        for i, start in spans:
            wi = words[i]
            yield [(wi ^ w).bit_count() for w in words[start:]]
    elif pointset.metric != "l2_sphere_lattice":
        fold = sum if pointset.metric == "l1_int" else max
        entries = [p.entries for p in pts]
        for i, start in spans:
            ei = entries[i]
            yield [fold(map(abs, map(operator.sub, ei, ej)))
                   for ej in entries[start:]]
    else:
        norms = [p.norm_sq_int() for p in pts]
        keys = [p.key for p in pts]
        for i, start in spans:
            pe, ni = dict(keys[i]), norms[i]
            yield [_surd_key(sum(v * pe.get(a, 0) for a, v in key), ni * nj)
                   for key, nj in zip(keys[start:], norms[start:])]

