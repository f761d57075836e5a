import random
from itertools import combinations
from math import inf

import pytest

from kdiameter.graphs import (
    Graph,
    Hypergraph,
    chvatal_graph,
    complete_bipartite_graph,
    complete_graph,
    cut_edges,
    cycle_graph,
    dfs_orientation,
    incidence_hypergraph,
    odd_girth,
    path_graph,
    petersen_graph,
)


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 0), (2, 3)])  # duplicates collapse
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 1
    assert g.sorted_edges() == [(0, 1), (2, 3)]
    h = g.remove_edge(0, 1)
    assert not h.has_edge(0, 1) and h.has_edge(2, 3)
    assert g.has_edge(0, 1)  # removal is non-destructive


def test_graph_rejects_bad_edges():
    with pytest.raises(Exception):
        Graph(3, [(0, 3)])
    with pytest.raises(Exception):
        Graph(3, [(1, 1)])


def test_graph_json_roundtrip():
    g = petersen_graph()
    back = Graph.from_json(__import__("json").dumps(g.to_dict()))
    assert back == g


def test_graph_from_edge_list_text():
    g = Graph.from_edge_list_text("# triangle\n0 1\n1 2\n2 0\n")
    assert g.n == 3
    assert sorted(g.sorted_edges()) == [(0, 1), (0, 2), (1, 2)]


def test_named_graphs():
    assert path_graph(7).sorted_edges() == [(i, i + 1) for i in range(6)]
    assert cycle_graph(5).degree(0) == 2
    assert complete_graph(5).is_regular(4)
    k44 = complete_bipartite_graph(4, 4)
    assert k44.is_regular(4) and odd_girth(k44) == inf
    p = petersen_graph()
    assert p.n == 10 and p.is_regular(3)
    c = chvatal_graph()
    assert c.n == 12 and c.is_regular(4)
    # triangle-free
    assert odd_girth(c) > 3


def brute_odd_girth(graph):
    best = inf
    for length in range(3, graph.n + 1, 2):
        for cyc in combinations(range(graph.n), length):
            for perm in _cycle_orders(cyc):
                if all(graph.has_edge(perm[i], perm[(i + 1) % length])
                       for i in range(length)):
                    return length
    return best


def _cycle_orders(vertices):
    from itertools import permutations

    first = vertices[0]
    for rest in permutations(vertices[1:]):
        yield (first,) + rest


def test_odd_girth_against_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng.randint(3, 8), rng.random(), rng)
        assert odd_girth(g) == brute_odd_girth(g)
    assert odd_girth(cycle_graph(9)) == 9
    assert odd_girth(petersen_graph()) == 5


def brute_cut_edges(graph):
    def components(g):
        seen, comps = set(), 0
        for s in range(g.n):
            if s in seen:
                continue
            comps += 1
            stack = [s]
            seen.add(s)
            while stack:
                v = stack.pop()
                for w in g.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return comps

    base = components(graph)
    return {e for e in graph.sorted_edges()
            if components(graph.remove_edge(*e)) > base}


def test_cut_edges_against_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng.randint(2, 9), 0.3, rng)
        assert set(cut_edges(g)) == brute_cut_edges(g)
    assert set(cut_edges(path_graph(5))) == set(path_graph(5).sorted_edges())
    assert not cut_edges(cycle_graph(6))


def test_dfs_orientation_degree_bounds():
    for g in (complete_graph(4), petersen_graph(),
              complete_bipartite_graph(3, 3)):
        o = dfs_orientation(g)
        for v in range(g.n):
            assert 1 <= o.indegree(v) <= 2
            assert 1 <= o.outdegree(v) <= 2
        for u, v in g.sorted_edges():
            assert ((u, v) in o.directed) != ((v, u) in o.directed)


def test_dfs_orientation_rejects_bad_input():
    with pytest.raises(ValueError):
        dfs_orientation(complete_graph(5))  # not cubic
    # cubic but bridged: two K4-minus-edge blocks joined by an edge
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
             (4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (0, 4), (3, 7)]
    g = Graph(8, edges)
    if cut_edges(g):
        with pytest.raises(ValueError):
            dfs_orientation(g)


def test_hypergraph_properties_and_constraint_graph():
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    assert h.is_3_uniform() and not h.is_2_regular()
    cg = h.constraint_graph()
    assert cg.has_edge(0, 1) and cg.has_edge(1, 3) and not cg.has_edge(0, 3)
    with pytest.raises(ValueError):
        Hypergraph(3, [(0,)])


def test_incidence_hypergraph_of_cubic_graphs():
    for g in (complete_graph(4), petersen_graph()):
        h = incidence_hypergraph(g)
        assert h.n == len(g.sorted_edges())
        assert len(h.hyperedges) == g.n
        assert h.is_3_uniform() and h.is_2_regular()
        # hyperedge for vertex v collects exactly v's incident edges
        edge_index = {e: i for i, e in enumerate(g.sorted_edges())}
        for v, e in enumerate(h.hyperedges):
            expected = sorted(edge_index[(min(v, u), max(v, u))]
                              for u in g.neighbors(v))
            assert list(e) == expected
