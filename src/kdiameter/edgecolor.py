"""Proper edge colorings: Misra-Gries fan recoloring for Delta+1 colors,
exact backtracking for Delta colors, matching decomposition, and the
bridge-splitting route to 3-edge-colorings of subcubic graphs."""

from __future__ import annotations

from kdiameter.coloring import DEFAULT_BUDGET, find_coloring
from kdiameter.graphs import Graph, cut_edges


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

    def permuted(self, relabel):
        return EdgeColoring(self.graph,
                            {e: relabel[c] for e, c in self.colors.items()},
                            self.num_colors)


def matching_decomposition(graph, coloring):
    """Color classes of a proper edge coloring, as edge sets M_1..M_c."""
    classes = [set() for _ in range(coloring.num_colors)]
    for e, c in coloring.colors.items():
        classes[c].add(e)
    for m in classes:
        endpoints = [v for e in m for v in e]
        if len(endpoints) != len(set(endpoints)):
            raise ValueError("color class is not a matching")
    covered = set().union(*classes) if classes else set()
    if covered != set(graph.edges):
        raise ValueError("classes do not partition the edge set")
    return classes


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
    coloring = find_coloring(lg, c, budget=budget)
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

    Bridges are split off recursively; bridgeless pieces are solved exactly;
    pieces are merged by renaming one side's colors so the bridge can take
    the remaining color (bridge endpoints keep degree <= 2 inside pieces).
    """
    if graph.max_degree() > 3:
        raise ValueError("max degree must be at most 3")
    colors = _color_edge_set(set(graph.edges), budget)
    if colors is None:
        return None
    return EdgeColoring(graph, colors, 3)


def _components_of_edges(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack, comp_v = [start], set()
        seen.add(start)
        while stack:
            x = stack.pop()
            comp_v.add(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append({e for e in edges if e[0] in comp_v})
    return comps


def _color_edge_set(edges, budget):
    if not edges:
        return {}
    out = {}
    for comp in _components_of_edges(edges):
        part = _color_component(comp, budget)
        if part is None:
            return None
        out.update(part)
    return out


def _color_component(edges, budget):
    verts = sorted({v for e in edges for v in e})
    relabel = {v: i for i, v in enumerate(verts)}
    sub = Graph(len(verts), [(relabel[u], relabel[v]) for u, v in edges])
    if sub.max_degree() <= 2:
        return _color_paths_and_cycles(edges)
    bridges = {(verts[u], verts[v]) for u, v in cut_edges(sub)}
    if not bridges:
        coloring = edge_coloring(sub, 3, budget=budget)
        if coloring is None:
            return None
        return {(min(verts[u], verts[v]), max(verts[u], verts[v])): c
                for (u, v), c in coloring.colors.items()}
    bridge = min(bridges)
    parts = []
    for part in _components_of_edges(edges - {bridge}):
        sub_colors = _color_edge_set(part, budget)
        if sub_colors is None:
            return None
        parts.append((part, sub_colors))
    u, v = bridge
    out = {}
    for part, sub_colors in parts:
        part_verts = {x for e in part for x in e}
        if v in part_verts and u not in part_verts:
            # rename this part so its colors at v avoid forcing a third color
            at_v = {c for e, c in sub_colors.items() if v in e}
            perm = _merge_permutation(at_u_global(out, u), at_v)
            sub_colors = {e: perm[c] for e, c in sub_colors.items()}
        out.update(sub_colors)
    both = at_u_global(out, u) | at_u_global(out, v)
    free = [c for c in range(3) if c not in both]
    if not free:
        raise AssertionError("bridge endpoints exhausted all colors")
    out[bridge] = free[0]
    return out


def at_u_global(colors, v):
    return {c for e, c in colors.items() if v in e}


def _merge_permutation(avoid_with, at_v):
    """Permutation of {0,1,2} mapping at_v into a set that together with
    avoid_with still leaves a color free."""
    from itertools import permutations

    for perm in permutations(range(3)):
        mapped = {perm[c] for c in at_v}
        if len(avoid_with | mapped) <= 2:
            return perm
    raise AssertionError("no merge permutation; endpoint degrees exceed 2")


def _color_paths_and_cycles(edges):
    """3-edge-coloring of a degree <= 2 edge set (paths and cycles)."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    out = {}
    visited = set()

    def walk(start, first):
        """Follow the path/cycle from start, alternating colors 0/1."""
        seq = [start]
        prev, cur = start, first
        while True:
            seq.append(cur)
            nxts = [w for w in adj[cur] if w != prev]
            if not nxts or nxts[0] == start and len(seq) > 2:
                if nxts and nxts[0] == start:
                    seq.append(start)
                return seq
            prev, cur = cur, nxts[0]

    for v in sorted(adj):
        if v in visited or len(adj[v]) != 1:
            continue
        # path starting at a degree-1 endpoint
        seq = walk(v, adj[v][0])
        for i in range(len(seq) - 1):
            e = (min(seq[i], seq[i + 1]), max(seq[i], seq[i + 1]))
            out[e] = i % 2
        visited.update(seq)
    for v in sorted(adj):
        if v in visited:
            continue
        # cycle: alternate 0/1, last edge 2 when odd
        seq = walk(v, adj[v][0])
        visited.update(seq)
        m = len(seq) - 1
        for i in range(m):
            e = (min(seq[i], seq[i + 1]), max(seq[i], seq[i + 1]))
            if i == m - 1 and m % 2 == 1:
                out[e] = 2
            elif i == m - 1:
                out[e] = 1
            else:
                out[e] = i % 2
    return out
