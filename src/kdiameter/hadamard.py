"""Hadamard codes and the Hamming-space graph embeddings built from them.

An r-embedding maps a graph into a metric space so that edges land at
distance at least `long` and non-edges at most `short`, with ratio
long/short = r.  Every all-pairs check here reads the pair rows of
`geometry.pair_rows`, the stream the pair tables are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import inf

from kdiameter.geometry import (
    BitVector,
    IntVector,
    Pointset,
    json_loads,
    pair_rows,
    point_from_json,
)
from kdiameter.graphs import Graph


class HadamardCode:
    """Sylvester-type code: q words of length q pairwise at distance q/2,
    plus their complements.  Each word's unique distance-q partner is its
    complement; every other pair sits at exactly q/2.  The word tuples are
    shared by every caller of `hadamard_code`."""

    __slots__ = ("q", "plus_words", "minus_words")

    def __init__(self, q, plus_words):
        self.q = q
        self.plus_words = tuple(plus_words)
        self.minus_words = tuple(w.complement() for w in self.plus_words)
        assert len(self.plus_words) == q
        assert all(d == q // 2 for row in
                   pair_rows(Pointset("hamming", self.plus_words)) for d in row)

    @property
    def words(self):
        return list(self.plus_words + self.minus_words)


@cache
def hadamard_code(q):
    """Code for any power-of-two q, by recursive doubling from the 1-bit base;
    built and checked once per q."""
    if q < 1 or q & (q - 1):
        raise ValueError(f"q must be a power of two, got {q}")
    words = [[0]]
    while len(words) < q:
        words = [w + w for w in words] + [w + [1 - b for b in w] for w in words]
    return HadamardCode(q, [BitVector.from_bits(w) for w in words])


# ---------------------------------------------------------------------------
# embeddings

TARGET_METRICS = ("hamming", "l1_int", "linf_int")


@dataclass(frozen=True)
class Embedding:
    """Vertex map into a target metric, held as one `Pointset` whose point v
    is vertex v's image, with the exact short/long thresholds it is supposed
    to achieve.  The image is checked here, once: its metric must be a
    target metric and it must hold one point per vertex."""

    source: Graph
    pointset: Pointset
    short: object
    long: object

    def __post_init__(self):
        if self.pointset.metric not in TARGET_METRICS:
            raise ValueError(f"unknown target metric {self.pointset.metric!r}")
        if len(self.pointset) != self.source.n:
            raise ValueError("image must cover every vertex")

    @property
    def image(self):
        return self.pointset.points

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, d):
        """Raises ValueError on an image that is not a JSON object or whose
        keys are not the vertices 0..n-1 in decimal, on points of mixed
        dimensions, and on a threshold not an integer or a [num, den] pair."""
        metric = d["metric"]
        graph = Graph.from_dict(d["graph"])
        if not isinstance(d["image"], dict):
            raise ValueError("image must be a JSON object from vertex to point")
        points = {}
        for key, val in d["image"].items():
            v = int(key)
            if str(v) != key or not 0 <= v < graph.n:
                raise ValueError(f"image vertex {key!r} is not one of 0..{graph.n - 1}")
            points[v] = point_from_json(metric, val)
        # distinct keys of 0..n-1: the constructor's size check decides coverage
        return cls(graph, Pointset(metric, [points[v] for v in sorted(points)]),
                   _exact_from_json(d["short"]), _exact_from_json(d["long"]))

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json_loads(s))


def _exact_from_json(x):
    if type(x) is int:
        return x
    if (isinstance(x, list) and len(x) == 2 and all(type(c) is int for c in x)
            and x[1] > 0):
        return Fraction(*x)
    raise ValueError(f"threshold {x!r} is not an integer or a [num, den] pair")


def verify_embedding(embedding):
    """Exhaustive check of both embedding conditions over all vertex pairs,
    read row by row from the image's pair rows (`geometry.pair_rows`).

    Returns {"ok", "worst_edge_pair", "worst_nonedge_pair", "achieved_ratio"}.
    Each witness is the first pair, row-major, at the extreme distance.  The
    ratio is (min edge distance)/(max non-edge distance) as an exact
    Fraction, or inf when either side has no pairs.
    """
    g = embedding.source
    min_edge, worst_edge = None, None
    max_nonedge, worst_nonedge = None, None
    for u, row in enumerate(pair_rows(embedding.pointset)):
        edges = [v - u - 1 for v in g.neighbors(u) if v > u]
        if edges:
            s = min(edges, key=row.__getitem__)
            if min_edge is None or row[s] < min_edge:
                min_edge, worst_edge = row[s], (u, u + 1 + s)
            # distances are never negative: -1 hides the edges from max
            for s in edges:
                row[s] = -1
        if len(edges) < len(row):
            d = max(row)
            if max_nonedge is None or d > max_nonedge:
                max_nonedge, worst_nonedge = d, (u, u + 1 + row.index(d))
    ok = ((min_edge is None or min_edge >= embedding.long)
          and (max_nonedge is None or max_nonedge <= embedding.short))
    if min_edge is None or max_nonedge is None or max_nonedge == 0:
        ratio = inf
    else:
        ratio = Fraction(min_edge) / Fraction(max_nonedge)
    return {
        "ok": ok,
        "worst_edge_pair": worst_edge,
        "worst_nonedge_pair": worst_nonedge,
        "achieved_ratio": ratio,
    }


def linf_embedding(graph):
    """2-embedding of an arbitrary graph into n-dimensional l-infinity space:
    coordinate u of vertex v's point is 2 when u = v, 0 across an edge, 1
    otherwise.  Edges land at distance 2, non-edges at 1."""
    image = []
    for v in range(graph.n):
        coords = []
        for u in range(graph.n):
            if u == v:
                coords.append(2)
            elif graph.has_edge(u, v):
                coords.append(0)
            else:
                coords.append(1)
        image.append(IntVector(coords))
    return Embedding(graph, Pointset("linf_int", image), short=1, long=2)


def next_power_of_two(n):
    p = 1
    while p < n:
        p *= 2
    return p


def five_fourths_embedding(graph, edge_coloring):
    """5/4-embedding of a 4-edge-colorable graph into {0,1}^{4q}.

    Each of the 4 matchings contributes one codeword block: matched pairs
    take a word and its complement (block distance q), everything else takes
    distinct fresh plus-words (block distance q/2).  Edges then differ by
    q + 3(q/2) = 5q/2 while non-edges total at most 4(q/2) = 2q.
    """
    if edge_coloring.num_colors != 4:
        raise ValueError("a 4-edge-coloring is required")
    q = next_power_of_two(max(2, graph.n))
    code = hadamard_code(q)
    blocks = []
    for color in range(4):
        matching = {}
        for (u, v), c in edge_coloring.colors.items():
            if c == color:
                matching[u] = v
                matching[v] = u
        block = [None] * graph.n
        fresh = iter(code.plus_words)
        for v in range(graph.n):
            if block[v] is not None:
                continue
            w = next(fresh)
            block[v] = w
            partner = matching.get(v)
            if partner is not None and partner > v:
                block[partner] = w.complement()
        blocks.append(block)
    image = []
    for v in range(graph.n):
        word = blocks[0][v]
        for b in blocks[1:]:
            word = word.concat(b[v])
        image.append(word)
    emb = Embedding(graph, Pointset("hamming", image), short=2 * q,
                    long=5 * q // 2)
    for u, v in graph.edges:
        assert emb.pointset.distance(u, v) * 2 == 5 * q
    return emb

