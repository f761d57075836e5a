"""Hadamard codes and the Hamming-space graph embeddings built from them.

An r-embedding maps a graph into a metric space so that edges land at
distance at least `long` and non-edges at most `short`, with ratio
long/short = r.  Squared distances stand in for Euclidean ones on binary
images, where ||x - y||_2^2 equals the Hamming distance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from kdiameter.geometry import DISTANCE, BitVector, IntVector, hamming_distance
from kdiameter.graphs import Graph


class HadamardCode:
    """Sylvester-type code: q words of length q pairwise at distance q/2,
    plus their complements.  Each word's unique distance-q partner is its
    complement; every other pair sits at exactly q/2."""

    __slots__ = ("q", "plus_words", "minus_words")

    def __init__(self, q, plus_words):
        self.q = q
        self.plus_words = list(plus_words)
        self.minus_words = [w.complement() for w in self.plus_words]
        assert len(self.plus_words) == q
        for i in range(q):
            for j in range(i + 1, q):
                assert hamming_distance(self.plus_words[i], self.plus_words[j]) == q // 2

    @property
    def words(self):
        return self.plus_words + self.minus_words


def hadamard_code(q):
    """Code for any power-of-two q, by recursive doubling from the 1-bit base."""
    if q < 1 or q & (q - 1):
        raise ValueError(f"q must be a power of two, got {q}")
    words = [[0]]
    while len(words) < q:
        words = [w + w for w in words] + [w + [1 - b for b in w] for w in words]
    return HadamardCode(q, [BitVector.from_bits(w) for w in words])


# ---------------------------------------------------------------------------
# embeddings

TARGET_METRICS = ("hamming", "l1_int", "linf_int", "l2_binary")


@dataclass
class Embedding:
    """Vertex map into a target metric with the exact short/long thresholds
    it is supposed to achieve.  For `l2_binary` the thresholds and all
    verifier arithmetic are squared distances."""

    source: Graph
    target_metric: str
    image: list
    short: object
    long: object

    def __post_init__(self):
        if self.target_metric not in TARGET_METRICS:
            raise ValueError(f"unknown target metric {self.target_metric!r}")

    def distance(self, u, v):
        metric = self.target_metric
        # squared Euclidean distance of binary points equals Hamming distance
        if metric == "l2_binary":
            metric = "hamming"
        return DISTANCE[metric](self.image[u], self.image[v])

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        if self.target_metric in ("hamming", "l2_binary"):
            img = [p.to_string() for p in self.image]
        else:
            img = [list(p.entries) for p in self.image]
        return {
            "graph": self.source.to_dict(),
            "metric": self.target_metric,
            "short": _exact_to_json(self.short),
            "long": _exact_to_json(self.long),
            "image": {str(v): img[v] for v in range(len(img))},
        }

    @classmethod
    def from_dict(cls, d):
        metric = d["metric"]
        graph = Graph.from_dict(d["graph"])
        image = [None] * graph.n
        for key, val in d["image"].items():
            if metric in ("hamming", "l2_binary"):
                image[int(key)] = BitVector.from_string(val)
            else:
                image[int(key)] = IntVector(val)
        return cls(graph, metric, image,
                   _exact_from_json(d["short"]), _exact_from_json(d["long"]))

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json.loads(s))


def _exact_to_json(x):
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    return x


def _exact_from_json(x):
    if isinstance(x, list):
        return Fraction(x[0], x[1])
    return x


def verify_embedding(embedding):
    """Exhaustive check of both embedding conditions over all vertex pairs.

    Returns {"ok", "worst_edge_pair", "worst_nonedge_pair", "achieved_ratio"}.
    The ratio is (min edge distance)/(max non-edge distance) as an exact
    Fraction, or inf when either side has no pairs; for `l2_binary` it is a
    ratio of squared distances.
    """
    g = embedding.source
    if len(embedding.image) != g.n or any(p is None for p in embedding.image):
        raise ValueError("image must cover every vertex")
    min_edge, worst_edge = None, None
    max_nonedge, worst_nonedge = None, None
    ok = True
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d = embedding.distance(u, v)
            if g.has_edge(u, v):
                if d < embedding.long:
                    ok = False
                if min_edge is None or d < min_edge:
                    min_edge, worst_edge = d, (u, v)
            else:
                if d > embedding.short:
                    ok = False
                if max_nonedge is None or d > max_nonedge:
                    max_nonedge, worst_nonedge = d, (u, v)
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
    return Embedding(graph, "linf_int", image, short=1, long=2)


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
    emb = Embedding(graph, "hamming", image, short=2 * q, long=5 * q // 2)
    for u, v in graph.edges:
        assert emb.distance(u, v) * 2 == 5 * q
    return emb


def l2_transfer(embedding):
    """Reinterpret a binary Hamming embedding as a Euclidean one: squared
    l2 distances equal the l1 distances, so short/long carry over as the
    squared thresholds and the achieved ratio becomes its square root."""
    if embedding.target_metric != "hamming":
        raise ValueError("transfer requires a binary Hamming-image embedding")
    return Embedding(embedding.source, "l2_binary", list(embedding.image),
                     short=embedding.short, long=embedding.long)
