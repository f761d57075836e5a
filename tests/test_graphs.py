import random
import tracemalloc
from itertools import combinations
from math import inf

import pytest

from kdiameter.acceptance import random_graph
from kdiameter.clustering import distinct_distances
from kdiameter.gadgets import build_composite, build_gadget_H, stitch_slot_maps
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
from kdiameter.sphere import (
    SEPARATION_THRESHOLD,
    build_region_instance,
    build_threshold_graph,
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
    for n, edges, message in ((-1, [], "vertex count must be nonnegative"),
                              (3, [(1, 1)], "self-loop at 1"),
                              (3, [(0, 3)], r"endpoint out of range: \(0, 3\)"),
                              (3, [(-1, 2)], r"endpoint out of range: \(-1, 2\)")):
        with pytest.raises(ValueError, match=message):
            Graph(n, edges)
    with pytest.raises(ValueError, match=r"no such edge \(0, 2\)"):
        path_graph(3).remove_edge(2, 0)


def test_graph_json_roundtrip():
    g = petersen_graph()
    back = Graph.from_json(__import__("json").dumps(g.to_dict()))
    assert back == g


def test_graph_from_edge_list_text():
    g = Graph.from_edge_list_text("# triangle\n0 1\n1 2\n2 0\n")
    assert g.n == 3
    assert sorted(g.sorted_edges()) == [(0, 1), (0, 2), (1, 2)]


def test_graph_matches_an_edge_set_oracle():
    """Every query against a plain set of (min, max) pairs, on seeded random
    edge lists that repeat edges and give some reversed."""
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(0, 12)
        given = [tuple(rng.sample(range(n), 2))
                 for _ in range(rng.randint(0, 3 * n) if n >= 2 else 0)]
        given += [(v, u) for u, v in given if rng.random() < 0.3]
        given += [e for e in given if rng.random() < 0.3]
        rng.shuffle(given)
        oracle = {(min(e), max(e)) for e in given}
        nbrs = {v: sorted({a + b - v for a, b in oracle if v in (a, b)})
                for v in range(-2, n + 2)}
        g = Graph(n, given)
        assert isinstance(g.edges, frozenset) and g.edges == oracle
        assert g.sorted_edges() == sorted(oracle)
        for v in range(-2, n + 2):
            assert g.neighbors(v) == tuple(nbrs[v])
            assert g.degree(v) == len(nbrs[v])
            for u in range(-2, n + 2):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in oracle)
        assert g.max_degree() == max((len(nbrs[v]) for v in range(n)), default=0)
        bitsets = g.adjacency_bitsets()
        assert bitsets == [sum(1 << w for w in nbrs[v]) for v in range(n)]
        if n:
            bitsets[0] ^= 1   # a fresh list each call
            assert g.adjacency_bitsets()[0] == sum(1 << w for w in nbrs[0])
        again = Graph(n, [(v, u) for u, v in reversed(given)])
        assert again == g and hash(again) == hash(g)
        assert g != Graph(n + 1, given) and g != oracle
        assert g.to_dict() == {"n": n, "edges": [list(e) for e in sorted(oracle)]}
        assert Graph.from_dict(g.to_dict()) == g
        assert repr(g) == f"Graph(n={n}, m={len(oracle)})"
        for u, v in sorted(oracle)[:3]:
            smaller = g.remove_edge(v, u)
            assert smaller == Graph(n, oracle - {(u, v)}) != g
            assert smaller.edges == oracle - {(u, v)} and g.edges == oracle


def _footprint(build):
    """(the graph `build` returns, the bytes it holds)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = build()
        return graph, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_graph_memory_follows_its_neighbor_tuples():
    """The Petersen composite's graph and the kappa = 12 threshold graph at
    the separation ratio (4,650 edges) hold 14 KiB and 101 KiB as neighbor
    tuples; the bounds fail an edge frozenset plus per-vertex frozensets,
    64 KiB and 940 KiB."""
    J = petersen_graph()
    composite = build_composite(incidence_hypergraph(J), build_gadget_H(),
                                stitch_slot_maps(J)).graph
    edges = composite.sorted_edges()
    graph, size = _footprint(lambda: Graph(composite.n, edges))
    assert graph == composite and size < 24 * 1024
    table = distinct_distances(build_region_instance((0, 1, 2), 12).pointset())
    view, size = _footprint(
        lambda: build_threshold_graph(table, SEPARATION_THRESHOLD ** 2))
    assert len(view.edges) == 4650 and size < 160 * 1024


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
