"""Proper edge colorings, by one route: an exact backtracking search for a
vertex coloring of the line graph, whatever the number of colors."""

from __future__ import annotations

from kdiameter.coloring import DEFAULT_BUDGET, find_coloring
from kdiameter.graphs import Graph


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


def edge_coloring(graph, c, budget=DEFAULT_BUDGET):
    """A proper c-edge-coloring, or None when none exists.

    None at once when c < Delta; otherwise an exact search for a proper
    c-coloring of the line graph.  At c = Delta this is the NP-hard question
    (Holyer 1981).  For c > Delta a coloring always exists (Vizing), but the
    search has no polynomial bound there: `budget` caps it, as it caps every
    search, and an exhausted budget raises `BudgetExceeded`.
    """
    if c < graph.max_degree():
        return None
    lg, edges = line_graph(graph)
    coloring = find_coloring(lg.adjacency_bitsets(), c, budget=budget)
    if coloring is None:
        return None
    return EdgeColoring(graph, dict(zip(edges, coloring)), c)


def three_edge_color_via_bridge_splitting(graph, budget=DEFAULT_BUDGET):
    """Proper 3-edge-coloring of a graph with max degree <= 3, or None.

    The exact search of `edge_coloring(graph, 3)`; only the degree check is
    added.  The name is kept for the callers that import it.
    """
    if graph.max_degree() > 3:
        raise ValueError("max degree must be at most 3")
    return edge_coloring(graph, 3, budget=budget)
