"""Exact point representations for Hamming, integer l1/linf, and sphere-lattice l2 space.

Every accept/reject comparison here is integer or rational arithmetic; floats
only ever appear in diagnostic renderings.  Squared Euclidean distances between
sphere-lattice points are kept in the surd form 1 - m/sqrt(n1*n2) and compared
through a rational order key.  `PairTable` ranks every pair of a pointset once,
and every threshold graph is read off that ranking.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isqrt


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
        if len(axes) != 3 or len(set(axes)) != 3:
            raise ValueError("axes must be three distinct indices")
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

    def float_coords(self, dim):
        """Float rendering in R^dim; diagnostics only."""
        from math import sqrt
        scale = sqrt(0.5 / self.norm_sq_int())
        out = [0.0] * dim
        for a, v in self.key:
            out[a] = v * scale
        return out

    def __eq__(self, other):
        return isinstance(other, SphereLatticePoint) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"SphereLatticePoint(key={self.key!r})"


def axis_point(axis, other_axes, kappa=1, negative=False):
    """The pure axis point e_axis (or its antipode) as a lattice point."""
    a, b = other_axes
    if negative:
        # all weight on `axis` as a negative coordinate: pick a region where
        # `axis` is a negative axis
        return SphereLatticePoint((a, axis, b), a, (0, kappa, 0), kappa)
    return SphereLatticePoint((axis, a, b), axis, (kappa, 0, 0), kappa)


# ---------------------------------------------------------------------------
# exact squared distances


def sphere_key(d):
    """Order key (num, den), den > 0, of an exact squared sphere distance.

    The key of 1 - m/sqrt(N) is -m|m|/N, strictly increasing in the distance;
    a rational s has the key -u|u| with u = 1 - s.  Every sphere comparison
    is one integer cross-multiplication of two keys.
    """
    if isinstance(d, SqDistance):
        return -d.m * abs(d.m), d.big_n
    u = 1 - Fraction(d)
    return -u.numerator * abs(u.numerator), u.denominator ** 2


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

    def cmp_fraction(self, t_sq):
        """Sign of (self - t_sq) for a rational t_sq."""
        return self._cmp(Fraction(t_sq))

    def exceeds(self, t_sq):
        return self.cmp_fraction(t_sq) > 0

    def exceeds_one_plus_half_sqrt2(self):
        """Decide self > 1 + sqrt(2)/2 exactly (the coordinate-rule diameter
        bound, whose order key is 1/2)."""
        num, den = sphere_key(self)
        return 2 * num > den

    def as_fraction(self):
        """Rational value when the surd collapses; None otherwise."""
        if self.m == 0:
            return Fraction(1)
        r = isqrt(self.big_n)
        if r * r == self.big_n:
            return 1 - Fraction(self.m, r)
        return None

    def _cmp(self, other):
        a, b = sphere_key(self)
        c, d = sphere_key(other)
        lhs, rhs = a * d, c * b
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        if not isinstance(other, (SqDistance, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        # rational values hash like the equal int or Fraction
        f = self.as_fraction()
        return hash(f if f is not None else Fraction(*sphere_key(self)))

    def __float__(self):
        return 1.0 - self.m / (self.big_n ** 0.5)

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
    return sphere_point_sq_distance(p, s).exceeds(threshold_sq)


# ---------------------------------------------------------------------------
# pointsets

METRICS = ("hamming", "l1_int", "linf_int", "l2_sphere_lattice")

DISTANCE = {
    "hamming": hamming_distance,
    "l1_int": l1_distance,
    "linf_int": linf_distance,
    "l2_sphere_lattice": sphere_point_sq_distance,
}


@dataclass
class Pointset:
    """Homogeneous list of points under one metric.

    For `l2_sphere_lattice` all distances are *squared* (SqDistance values);
    for the other metrics they are plain integers.
    """

    metric: str
    points: list
    labels: list | None = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.labels is not None:
            if len(self.labels) != len(self.points):
                raise ValueError("labels must match points")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("labels must be unique")

    def distance(self, i, j):
        return DISTANCE[self.metric](self.points[i], self.points[j])

    def __len__(self):
        return len(self.points)

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        dim = self._dimension()
        return {
            "metric": self.metric,
            "dim": dim,
            "points": [_point_to_json(self.metric, p) for p in self.points],
            "labels": self.labels,
        }

    def _dimension(self):
        if not self.points:
            return 0
        p = self.points[0]
        if self.metric == "hamming":
            return p.length
        if self.metric in ("l1_int", "linf_int"):
            return p.dimension
        return 1 + max(a for q in self.points for a, _ in q.key)

    @classmethod
    def from_dict(cls, d):
        metric = d["metric"]
        points = [_point_from_json(metric, p) for p in d["points"]]
        return cls(metric, points, d.get("labels"))

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json.loads(s))

    def canonical_order(self):
        """Indices sorted lexicographically by serialized form (stable file diffs)."""
        serialized = [json.dumps(_point_to_json(self.metric, p), sort_keys=True)
                      for p in self.points]
        return sorted(range(len(self.points)), key=serialized.__getitem__)


def _point_to_json(metric, p):
    if metric == "hamming":
        return p.to_string()
    if metric in ("l1_int", "linf_int"):
        return list(p.entries)
    return {"axes": list(p.axes), "pos": p.positive_axis,
            "coeffs": list(p.coeffs), "kappa": p.kappa}


def _point_from_json(metric, obj):
    if metric == "hamming":
        return BitVector.from_string(obj)
    if metric in ("l1_int", "linf_int"):
        return IntVector(obj)
    return SphereLatticePoint(obj["axes"], obj["pos"], obj["coeffs"], obj["kappa"])


def pointset_diameter(pointset):
    """Maximum pairwise distance; 0 for a singleton; error on empty input."""
    n = len(pointset)
    if n == 0:
        raise ValueError("empty pointset has no diameter")
    if n == 1:
        return 0
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            d = pointset.distance(i, j)
            if best is None or d > best:
                best = d
    return best


# ---------------------------------------------------------------------------
# the pair table


class PairTable:
    """Every pair of a pointset, ranked once by exact distance.

    `keys` are the sorted distinct order keys of the pairwise distances, led
    by the key of distance 0: the distances themselves for the integer
    metrics, `sphere_key` values as Fractions for the sphere metric.  A
    pair's rank is the index of its key.  `pairs` holds the pair ids i*n + j
    (i < j) by falling rank, and `above[r]` counts the pairs of rank >= r, so
    the pairs farther than keys[r - 1] are exactly pairs[:above[r]].
    """

    def __init__(self, pointset):
        self.pointset = pointset
        self.n = n = len(pointset)
        distinct = {}       # distinct pair value -> id, in first-seen order
        ids = array("l")    # per pair, row-major
        for value in _pair_values(pointset):
            ids.append(distinct.setdefault(value, len(distinct)))
        if pointset.metric == "l2_sphere_lattice":
            self.keys, rank = _rank_sphere_keys(list(distinct))
        else:
            self.keys = sorted(set(distinct) | {0})
            index = {key: r for r, key in enumerate(self.keys)}
            rank = [index[v] for v in distinct]
        # counting sort by falling rank
        self.above = above = [0] * (len(self.keys) + 1)
        for c in ids:
            above[rank[c]] += 1
        for r in reversed(range(len(self.keys))):
            above[r] += above[r + 1]
        fill = above[1:]
        self.pairs = pairs = array("q", [0]) * len(ids)
        ranks = (rank[c] for c in ids)
        for i in range(n):
            for j in range(i + 1, n):
                r = next(ranks)
                pairs[fill[r]] = i * n + j
                fill[r] += 1

    def key(self, value):
        """Order key of an exact distance (squared for the sphere metric)."""
        if self.pointset.metric == "l2_sphere_lattice":
            return Fraction(*sphere_key(value))
        return value

    def rank_above(self, value):
        """Least rank whose pairs are all farther than `value`."""
        return bisect_right(self.keys, self.key(value))


def _rank_sphere_keys(values):
    """Sorted distinct Fraction keys of the (num, den) sphere keys `values`,
    led by the key of distance 0, and the rank of each value.

    The values are sorted by integer cross-multiplication (den > 0), and
    equal ones merged, so a Fraction is built only for each distinct key.
    """
    ordered = sorted(values + [sphere_key(0)],
                     key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
    keys, rank_of, last = [], {}, None
    for value in ordered:
        if last is None or value[0] * last[1] != last[0] * value[1]:
            keys.append(Fraction(*value))
            last = value
        rank_of[value] = len(keys) - 1
    return keys, [rank_of[v] for v in values]


def _pair_values(pointset):
    """Each pair's exact distance in a hashable integer form, row-major over
    i < j: the distance itself, or its `sphere_key` for the sphere metric."""
    pts = pointset.points
    n = len(pts)
    if pointset.metric != "l2_sphere_lattice":
        yield from (pointset.distance(i, j)
                    for i in range(n) for j in range(i + 1, n))
        return
    entries = [dict(p.key) for p in pts]
    norms = [p.norm_sq_int() for p in pts]
    for i in range(n):
        pe, ni = entries[i], norms[i]
        for j in range(i + 1, n):
            m = sum(v * pe.get(a, 0) for a, v in pts[j].key)
            yield -m * abs(m), ni * norms[j]


def key_at_least_scaled(key, ratio, base):
    """Decide d(key) >= ratio * d(base) exactly for sphere order keys and a
    rational `ratio`, where d(k) = 1 + sgn(k) sqrt(|k|) is the squared
    distance with order key k.

    The question is L >= R for L = 1 - ratio - ratio sgn(base) sqrt(|base|)
    and R = -sgn(key) sqrt(|key|): decided by signs, else by squares.
    """
    q, u, t = 1 - ratio, -ratio * _sign(base), abs(base)
    left, right = _sign_surd(q, u, t), -_sign(key)
    if left != right:
        return left > right
    return left * _sign_surd(q * q + u * u * t - abs(key), 2 * q * u, t) >= 0


def _sign(x):
    return (x > 0) - (x < 0)


def _sign_surd(q, r, s):
    """Sign of q + r sqrt(s) for rationals q, r and s >= 0."""
    a, b = _sign(q), _sign(r * s)
    if not a or not b or a == b:
        return a or b
    return a * _sign(q * q - r * r * s)
