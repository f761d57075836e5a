import json
import random
from fractions import Fraction
from math import inf

import pytest

from kdiameter.acceptance import random_graph
from kdiameter.edgecolor import edge_coloring
from kdiameter.gadgets import (
    build_composite,
    build_gadget_H,
    oriented_embedding_library,
    stitch_embedding,
    stitch_slot_maps,
)
from kdiameter.geometry import (
    BitVector,
    IntVector,
    Pointset,
    SphereLatticePoint,
    hamming_distance,
)
from kdiameter.graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    incidence_hypergraph,
    path_graph,
)
from kdiameter.hadamard import (
    Embedding,
    five_fourths_embedding,
    hadamard_code,
    linf_embedding,
    next_power_of_two,
    verify_embedding,
)
from kdiameter.lp import max_embeddability


def test_next_power_of_two():
    assert [next_power_of_two(x) for x in (1, 2, 3, 4, 5, 16, 17)] == \
        [1, 2, 4, 4, 8, 16, 32]


def test_hadamard_code_structure():
    for q in (1, 2, 4, 8, 16):
        code = hadamard_code(q)
        assert len(code.plus_words) == q
        assert len(code.words) == 2 * q
        for w, m in zip(code.plus_words, code.minus_words):
            assert m == w.complement()
        for i in range(q):
            for j in range(i + 1, q):
                assert hamming_distance(code.plus_words[i],
                                        code.plus_words[j]) == q // 2


def test_hadamard_code_rejects_non_powers():
    with pytest.raises(Exception):
        hadamard_code(6)


def test_linf_embedding_random_graphs():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        emb = linf_embedding(g)
        assert emb.short == 1 and emb.long == 2
        report = verify_embedding(emb)
        assert report["ok"]
        for u, v in g.edges:
            assert emb.pointset.distance(u, v) == 2


def test_five_fourths_embedding_k44():
    g = complete_bipartite_graph(4, 4)
    emb = five_fourths_embedding(g, edge_coloring(g, 4))
    report = verify_embedding(emb)
    assert report["ok"]
    assert Fraction(emb.long, emb.short) == Fraction(5, 4)


def test_verify_embedding_detects_violation():
    g = path_graph(3)
    code = hadamard_code(4)
    # vertices 0 and 2 are non-adjacent but land on complementary words
    image = [code.plus_words[0], code.plus_words[1], code.minus_words[0]]
    emb = Embedding(g, Pointset("hamming", image), short=2, long=2)
    report = verify_embedding(emb)
    assert not report["ok"]
    assert report["worst_nonedge_pair"] == (0, 2)


def test_verify_embedding_degenerate_ratio():
    g = cycle_graph(3)  # no non-edges
    emb = linf_embedding(g)
    assert verify_embedding(emb)["achieved_ratio"] == inf


def test_embedding_json_roundtrip():
    """`from_dict` inverts `to_dict`, whose JSON is an embedding file, for
    each construction: l-infinity, 5/4, stitched composite and LP."""
    k44 = complete_bipartite_graph(4, 4)
    J = complete_graph(4)
    gadget = build_gadget_H()
    composite = build_composite(incidence_hypergraph(J), gadget,
                                slot_maps=stitch_slot_maps(J))
    for emb in (linf_embedding(path_graph(4)),
                five_fourths_embedding(k44, edge_coloring(k44, 4)),
                stitch_embedding(composite, J,
                                 library=oriented_embedding_library(gadget)),
                max_embeddability(path_graph(7))["embedding"]):
        back = Embedding.from_json(json.dumps(emb.to_dict()))
        assert back.source == emb.source
        assert back.pointset == emb.pointset
        assert (back.short, back.long) == (emb.short, emb.long)
        assert verify_embedding(back) == verify_embedding(emb)


def test_embedding_refuses_non_target_metric():
    point = SphereLatticePoint([0, 1, 2], 0, [1, 0, 0], 1)
    with pytest.raises(ValueError, match="unknown target metric"):
        Embedding(path_graph(1), Pointset("l2_sphere_lattice", [point]),
                  short=1, long=2)


def test_embedding_refuses_pointset_short_of_vertices():
    emb = linf_embedding(path_graph(4))
    with pytest.raises(ValueError, match="image has 3 points for 4 vertices"):
        Embedding(emb.source, Pointset("linf_int", emb.image[:-1]),
                  short=1, long=2)


def verify_embedding_per_pair(embedding):
    """Reference oracle: both embedding conditions checked pair by pair
    with `Pointset.distance` and `Graph.has_edge`."""
    g = embedding.source
    min_edge, worst_edge = None, None
    max_nonedge, worst_nonedge = None, None
    ok = True
    for u in range(g.n):
        for v in range(u + 1, g.n):
            d = embedding.pointset.distance(u, v)
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
    return {"ok": ok, "worst_edge_pair": worst_edge,
            "worst_nonedge_pair": worst_nonedge, "achieved_ratio": ratio}


def random_point(metric, dim, rng):
    # coordinates from a small range, so distances tie often
    if metric == "hamming":
        return BitVector.from_bits(rng.randint(0, 1) for _ in range(dim))
    return IntVector([rng.randint(-2, 2) for _ in range(dim)])


def test_verify_embedding_matches_per_pair_oracle():
    rng = random.Random(29)
    checked = {"violated": 0, "holds": 0, "ratio_inf": 0, "ratio_finite": 0}
    for metric in ("hamming", "l1_int", "linf_int"):
        for trial in range(60):
            n = rng.randint(1, 9)
            # edge probability 0 and 1 give graphs with no edges and with
            # no non-edges
            g = random_graph(n, rng.choice((0, 1, rng.random())), rng)
            dim = rng.randint(1, 5)
            image = [random_point(metric, dim, rng) for _ in range(n)]
            short = rng.choice((rng.randint(0, 4), Fraction(rng.randint(1, 9), 2)))
            long = rng.choice((rng.randint(0, 6), Fraction(rng.randint(1, 13), 2)))
            emb = Embedding(g, Pointset(metric, image), short=short, long=long)
            report = verify_embedding(emb)
            assert report == verify_embedding_per_pair(emb), (metric, trial)
            checked["holds" if report["ok"] else "violated"] += 1
            checked["ratio_inf" if report["achieved_ratio"] == inf
                    else "ratio_finite"] += 1
    assert min(checked.values()) >= 10, checked
