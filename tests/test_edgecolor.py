import random
from itertools import product

import pytest

from kdiameter.acceptance import random_graph
from kdiameter.edgecolor import (
    edge_coloring,
    three_edge_color_via_bridge_splitting,
)
from kdiameter.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    incidence_hypergraph,
    petersen_graph,
)


def assert_proper_edge_coloring(graph, coloring, c):
    for v in range(graph.n):
        incident = [coloring.colors[(min(u, v), max(u, v))]
                    for u in graph.neighbors(v)]
        assert len(set(incident)) == len(incident)
        assert all(0 <= x < c for x in incident)


def line_graph(graph):
    """(line graph, edge list): vertices of the line graph index sorted edges."""
    edges = graph.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    lg_edges = set()
    for v in range(graph.n):
        inc = sorted(index[(min(v, w), max(v, w))] for w in graph.neighbors(v))
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                lg_edges.add((inc[i], inc[j]))
    return Graph(len(edges), lg_edges), edges


def test_incidence_constraint_graph_is_the_line_graph():
    # `edge_coloring` searches the constraint graph of the incidence
    # hypergraph; it must be the line graph, vertex i the i-th sorted edge
    c4, edges = line_graph(cycle_graph(4))
    assert edges == cycle_graph(4).sorted_edges()
    assert c4.n == 4 and all(c4.degree(v) == 2 for v in range(4))
    rng = random.Random(26)
    graphs = [Graph(0), Graph(3), Graph(4, [(0, 1)]), Graph(5, [(0, 1), (2, 3)]),
              cycle_graph(4), petersen_graph(), complete_bipartite_graph(2, 3)]
    graphs += [random_graph(rng.randint(0, 12), rng.random() * 0.6, rng)
               for _ in range(300)]
    graphs += [random_subcubic_graph(rng.randint(1, 10), rng.randint(0, 12), rng)
               for _ in range(100)]
    degrees = set()
    for g in graphs:
        assert incidence_hypergraph(g).constraint_graph() == line_graph(g)[0]
        degrees |= {g.degree(v) for v in range(g.n)}
    assert {0, 1, 2, 3} <= degrees


def test_edge_coloring_delta_plus_one_always_succeeds():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng.randint(2, 12), rng.random(), rng)
        c = g.max_degree() + 1
        coloring = edge_coloring(g, c)
        assert coloring is not None
        assert_proper_edge_coloring(g, coloring, c)


def test_edge_coloring_exact_class_one_cases():
    for g, c in ((complete_bipartite_graph(4, 4), 4),
                 (cycle_graph(6), 2), (complete_graph(4), 3)):
        coloring = edge_coloring(g, c)
        assert coloring is not None
        assert_proper_edge_coloring(g, coloring, c)


def test_edge_coloring_infeasible():
    # odd cycles need 3 edge colors
    assert edge_coloring(cycle_graph(5), 2) is None
    # Petersen needs 4
    assert edge_coloring(petersen_graph(), 3) is None


def test_three_edge_coloring_of_cubic_graph_with_a_two_edge_cut():
    # two K4-minus-edge blocks joined by two edges: cubic and bridgeless
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
             (4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (0, 4)]
    g = Graph(8, edges + [(3, 7)])
    coloring = three_edge_color_via_bridge_splitting(g)
    assert coloring is not None
    assert_proper_edge_coloring(g, coloring, 3)


def test_three_edge_coloring_of_triangle_with_pendant_path():
    g = Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 3)])
    coloring = three_edge_color_via_bridge_splitting(g)
    assert coloring is not None
    assert_proper_edge_coloring(g, coloring, 3)


def test_cubic_graph_with_a_bridge_is_not_three_edge_colorable():
    # two K4s with one edge subdivided each, the subdivision vertices joined:
    # cubic, with the bridge (4, 9); a cubic graph with a bridge is class two
    g = Graph(10, [(0, 4), (4, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                   (5, 9), (9, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8),
                   (4, 9)])
    assert g.is_regular(3)
    assert three_edge_color_via_bridge_splitting(g) is None


def brute_three_edge_colorable(graph):
    edges = graph.sorted_edges()
    for colors in product(range(3), repeat=len(edges)):
        at = {}
        for (u, v), c in zip(edges, colors):
            if (u, c) in at or (v, c) in at:
                break
            at[u, c] = at[v, c] = True
        else:
            return True
    return False


def random_subcubic_graph(n, m, rng):
    """Up to m edges in random order, each kept while both ends have degree
    below 3."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    degree = [0] * n
    edges = []
    for u, v in pairs:
        if len(edges) < m and degree[u] < 3 and degree[v] < 3:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(n, edges)


def test_three_edge_coloring_matches_brute_force():
    rng = random.Random(31)
    verdicts = []
    for _ in range(80):
        g = random_subcubic_graph(rng.randint(4, 8), rng.randint(4, 10), rng)
        coloring = three_edge_color_via_bridge_splitting(g)
        verdicts.append(coloring is not None)
        assert verdicts[-1] == brute_three_edge_colorable(g)
        if coloring is not None:
            assert_proper_edge_coloring(g, coloring, 3)
    assert not all(verdicts)


def test_bridge_splitting_refuses_high_degree():
    with pytest.raises(ValueError):
        three_edge_color_via_bridge_splitting(complete_graph(5))


def test_petersen_not_three_edge_colorable_via_splitting():
    assert three_edge_color_via_bridge_splitting(petersen_graph()) is None
