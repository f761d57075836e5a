"""Proper edge colorings, by one route: an exact backtracking search for a
rainbow coloring of the incidence hypergraph, whatever the number of colors."""

from __future__ import annotations

from kdiameter.coloring import DEFAULT_BUDGET, find_coloring
from kdiameter.graphs import incidence_hypergraph


class EdgeColoring:
    """Proper edge coloring: a color per edge, incident edges distinct."""

    __slots__ = ("graph", "colors", "num_colors")

    def __init__(self, graph, colors, num_colors):
        self.graph = graph
        self.colors = {(min(u, v), max(u, v)): c for (u, v), c in colors.items()}
        self.num_colors = num_colors
        if set(self.colors) != set(graph.edges):
            raise ValueError("coloring must cover exactly the edge set")
        for v in range(graph.n):
            seen = set()
            for w in graph.neighbors(v):
                c = self.colors[(min(v, w), max(v, w))]
                if c in seen or not (0 <= c < num_colors):
                    raise ValueError(f"improper coloring at vertex {v}")
                seen.add(c)


def edge_coloring(graph, c, budget=DEFAULT_BUDGET):
    """A proper c-edge-coloring, or None when none exists.

    None at once when c < Delta; otherwise an exact search for a rainbow
    c-coloring of `incidence_hypergraph(graph)`, whose vertex i is the i-th
    sorted edge.  At c = Delta this is the NP-hard question (Holyer 1981).
    For c > Delta a coloring always exists (Vizing), but the search has no
    polynomial bound there: `budget` caps it, as it caps every search, and
    an exhausted budget raises `BudgetExceeded`.
    """
    if c < graph.max_degree():
        return None
    constraints = incidence_hypergraph(graph).constraint_graph()
    coloring = find_coloring(constraints.adjacency_bitsets(), c, budget=budget)
    if coloring is None:
        return None
    return EdgeColoring(graph, dict(zip(graph.sorted_edges(), coloring)), c)


def three_edge_color_via_bridge_splitting(graph, budget=DEFAULT_BUDGET):
    """Proper 3-edge-coloring of a graph with max degree <= 3, or None.

    The exact search of `edge_coloring(graph, 3)`; only the degree check is
    added.  The name is kept for the callers that import it.
    """
    if graph.max_degree() > 3:
        raise ValueError("max degree must be at most 3")
    return edge_coloring(graph, 3, budget=budget)
