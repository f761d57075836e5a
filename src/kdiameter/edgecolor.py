"""Proper edge colorings: Misra-Gries fan recoloring for Delta+1 colors and
exact backtracking on the line graph for Delta colors."""

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

    def color_of(self, u, v):
        return self.colors[(min(u, v), max(u, v))]


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
    """A proper c-edge-coloring, or None when c = Delta and none exists.

    c >= Delta+1 always succeeds via Misra-Gries fan recoloring; c = Delta
    falls back to exact backtracking on the line graph.
    """
    delta = graph.max_degree()
    if c < delta:
        return None
    if not graph.edges:
        return EdgeColoring(graph, {}, c)
    if c >= delta + 1:
        colors = _misra_gries(graph, delta + 1)
        return EdgeColoring(graph, colors, c)
    lg, edges = line_graph(graph)
    coloring = find_coloring(lg.adjacency_bitsets(), c, budget=budget)
    if coloring is None:
        return None
    return EdgeColoring(graph, dict(zip(edges, coloring)), c)


def _misra_gries(graph, num_colors):
    """Proper (Delta+1)-edge-coloring by fan rotation and cd-path inversion."""
    color = {}  # edge -> color
    # per-vertex incident color counts; path inversion passes through states
    # where a vertex briefly holds two edges of one color, so sets won't do
    used = [[0] * num_colors for _ in range(graph.n)]

    def is_free(v, c):
        return used[v][c] == 0

    def free(v):
        for c in range(num_colors):
            if used[v][c] == 0:
                return c
        raise AssertionError("no free color; Vizing bound violated")

    def set_color(u, v, c):
        e = (min(u, v), max(u, v))
        old = color.get(e)
        if old is not None:
            used[u][old] -= 1
            used[v][old] -= 1
        color[e] = c
        used[u][c] += 1
        used[v][c] += 1

    def get_color(u, v):
        return color.get((min(u, v), max(u, v)))

    def invert_cd_path(u, c, d):
        """Flip colors along the maximal path of c/d edges starting at u."""
        v, want = u, c
        prev = None
        while True:
            nxt = None
            for w in graph.neighbors(v):
                if w != prev and get_color(v, w) == want:
                    nxt = w
                    break
            if nxt is None:
                return
            set_color(v, nxt, d if want == c else c)
            prev, v, want = v, nxt, (d if want == c else c)

    for u, v in graph.sorted_edges():
        # maximal fan of u starting at v
        fan = [v]
        fan_set = {v}
        while True:
            grown = False
            for w in graph.neighbors(u):
                if w in fan_set or get_color(u, w) is None:
                    continue
                if is_free(fan[-1], get_color(u, w)):
                    fan.append(w)
                    fan_set.add(w)
                    grown = True
                    break
            if not grown:
                break
        c = free(u)
        d = free(fan[-1])
        if c != d:
            invert_cd_path(u, d, c)

        # after inversion d is free at u; rotate a fan prefix ending at a
        # vertex where d is free, provided the prefix is still a valid fan
        # (the inversion can recolor one fan edge)
        def fan_prefix_ok(i):
            for j in range(1, i + 1):
                cj = get_color(u, fan[j])
                if cj is None or not is_free(fan[j - 1], cj):
                    return False
            return True

        w_idx = next(i for i, x in enumerate(fan)
                     if is_free(x, d) and fan_prefix_ok(i))
        for i in range(w_idx):
            set_color(u, fan[i], get_color(u, fan[i + 1]))
        set_color(u, fan[w_idx], d)
    return color


def three_edge_color_via_bridge_splitting(graph, budget=DEFAULT_BUDGET):
    """Proper 3-edge-coloring of a graph with max degree <= 3, or None.

    The exact search of `edge_coloring(graph, 3)`; only the degree check is
    added.  The name is kept for the callers that import it.
    """
    if graph.max_degree() > 3:
        raise ValueError("max degree must be at most 3")
    return edge_coloring(graph, 3, budget=budget)
