import random
from itertools import combinations
from math import inf

import pytest

from kdiameter.acceptance import random_graph
from kdiameter.graphs import (
    Graph,
    Hypergraph,
    chvatal_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dfs_orientation,
    incidence_hypergraph,
    odd_girth,
    path_graph,
    petersen_graph,
)


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


# cubic, with the bridge (4, 9): two K4s with one edge subdivided each, the
# subdivision vertices joined
BRIDGED_CUBIC = Graph(10, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                           (5, 9), (9, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8),
                           (4, 9)])

# cubic and bridgeless, with a two-edge cut: two K4-minus-edge blocks joined
# by (0, 4) and (3, 7)
TWO_EDGE_CUT_CUBIC = Graph(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                               (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
                               (0, 4), (3, 7)])


def random_cubic_graph(n, rng):
    """Simple cubic graph by the configuration model with rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                break
            edges.add((min(u, v), max(u, v)))
        else:
            return Graph(n, edges)


def random_bridged_cubic_graph(rng):
    """Two random cubic graphs, one edge of each subdivided, the two
    subdivision vertices joined by a bridge."""
    halves = []
    for _ in range(2):
        g = random_cubic_graph(2 * rng.randint(2, 5), rng)
        u, v = rng.choice(g.sorted_edges())
        halves.append((g, u, v))
    edges, offset, middles = [], 0, []
    for g, u, v in halves:
        mid = offset + g.n
        edges += [(offset + a, offset + b) for a, b in g.sorted_edges()
                  if (a, b) != (u, v)]
        edges += [(offset + u, mid), (mid, offset + v)]
        middles.append(mid)
        offset = mid + 1
    return Graph(offset, edges + [tuple(middles)])


def out_and_in_degrees(directed, n):
    outdegree, indegree = [0] * n, [0] * n
    for tail, head in directed:
        outdegree[tail] += 1
        indegree[head] += 1
    return outdegree, indegree


def test_dfs_orientation_refuses_exactly_the_bridged_graphs():
    rng = random.Random(9)
    graphs = [BRIDGED_CUBIC, TWO_EDGE_CUT_CUBIC]
    graphs += [random_cubic_graph(2 * rng.randint(3, 10), rng) for _ in range(200)]
    graphs += [random_bridged_cubic_graph(rng) for _ in range(20)]
    refused = 0
    for g in graphs:
        if brute_cut_edges(g):
            refused += 1
            with pytest.raises(ValueError, match="graph must be bridgeless"):
                dfs_orientation(g)
        else:
            assert len(dfs_orientation(g)) == len(g.edges)
    assert refused >= 21


def test_dfs_orientation_degree_bounds():
    for g in (complete_graph(4), petersen_graph(),
              complete_bipartite_graph(3, 3), TWO_EDGE_CUT_CUBIC):
        directed = dfs_orientation(g)
        outdegree, indegree = out_and_in_degrees(directed, g.n)
        for v in range(g.n):
            assert 1 <= indegree[v] <= 2
            assert 1 <= outdegree[v] <= 2
        for u, v in g.sorted_edges():
            assert ((u, v) in directed) != ((v, u) in directed)


def test_dfs_orientation_rejects_bad_input():
    with pytest.raises(ValueError, match="graph must be 3-regular"):
        dfs_orientation(complete_graph(5))
    with pytest.raises(ValueError, match="graph must be bridgeless"):
        dfs_orientation(BRIDGED_CUBIC)


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
