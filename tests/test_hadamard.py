import json
import random
from fractions import Fraction
from math import inf

import pytest

from kdiameter.edgecolor import edge_coloring
from kdiameter.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    path_graph,
)
from kdiameter.hadamard import (
    Embedding,
    five_fourths_embedding,
    hadamard_code,
    hamming_distance,
    linf_embedding,
    next_power_of_two,
    verify_embedding,
)


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


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
            assert emb.distance(u, v) == 2


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
    emb = Embedding(g, "hamming", image, short=2, long=2)
    report = verify_embedding(emb)
    assert not report["ok"]
    assert report["worst_nonedge_pair"] == (0, 2)


def test_verify_embedding_degenerate_ratio():
    g = cycle_graph(3)  # no non-edges
    emb = linf_embedding(g)
    assert verify_embedding(emb)["achieved_ratio"] == inf


def test_embedding_json_roundtrip():
    emb = linf_embedding(path_graph(4))
    back = Embedding.from_json(json.dumps(emb.to_dict()))
    assert back.source == emb.source
    assert back.image == emb.image
    assert (back.short, back.long) == (emb.short, emb.long)
    assert verify_embedding(back)["ok"]

