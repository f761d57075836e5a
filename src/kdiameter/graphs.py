"""Graph and hypergraph structures plus the non-coloring combinatorial tools:
a DFS orientation that refuses bridged graphs, odd girth, file formats.
A `Graph` is n plus each vertex's ascending neighbor tuple."""

from __future__ import annotations

from math import inf

from kdiameter.geometry import json_int, json_loads


class Graph:
    """Simple undirected graph on vertices 0..n-1: each vertex with an edge,
    in order, maps to its ascending neighbor tuple, and the rest is read off
    those, so memory follows m, not n."""

    __slots__ = ("n", "_adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        adj = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"endpoint out of range: {(u, v)}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self._adj = {v: tuple(sorted(adj[v])) for v in sorted(adj)}

    @property
    def edges(self):
        return frozenset(self.sorted_edges())

    def neighbors(self, v):
        return self._adj.get(v, ())

    def degree(self, v):
        return len(self.neighbors(v))

    def max_degree(self):
        return max(map(len, self._adj.values()), default=0)

    def is_regular(self, d):
        return all(self.degree(v) == d for v in range(self.n))

    def has_edge(self, u, v):
        return v in self.neighbors(u)

    def sorted_edges(self):
        return [(u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v]

    def remove_edge(self, u, v):
        e = (min(u, v), max(u, v))
        if not self.has_edge(u, v):
            raise ValueError(f"no such edge {e}")
        return Graph(self.n, (f for f in self.sorted_edges() if f != e))

    def adjacency_bitsets(self):
        out = [0] * self.n
        for v, nbrs in self._adj.items():
            out[v] = sum(1 << w for w in nbrs)
        return out

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, tuple(self._adj.items())))

    def __repr__(self):
        return f"Graph(n={self.n}, m={sum(map(len, self._adj.values())) // 2})"

    # -- io -----------------------------------------------------------------

    def to_dict(self):
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @classmethod
    def from_dict(cls, d):
        return cls(json_int(d["n"], "n"),
                   [tuple(json_int(v, "an endpoint") for v in e) for e in d["edges"]])

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json_loads(s))

    @classmethod
    def from_edge_list_text(cls, text):
        """Plain one-"u v"-per-line, 0-indexed edge list."""
        edges = []
        maxv = -1
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = (int(t) for t in line.split())
            edges.append((u, v))
            maxv = max(maxv, u, v)
        return cls(maxv + 1, edges)


class Hypergraph:
    __slots__ = ("n", "hyperedges")

    def __init__(self, n, hyperedges):
        self.n = n
        norm = []
        for e in hyperedges:
            e = tuple(sorted(set(e)))
            if len(e) < 2:
                raise ValueError("hyperedges need at least 2 distinct vertices")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"hyperedge out of range: {e}")
            norm.append(e)
        self.hyperedges = tuple(norm)

    def is_3_uniform(self):
        return all(len(e) == 3 for e in self.hyperedges)

    def is_2_regular(self):
        count = [0] * self.n
        for e in self.hyperedges:
            for v in e:
                count[v] += 1
        return all(c == 2 for c in count)

    def constraint_graph(self):
        """Graph with an edge per same-hyperedge vertex pair (rainbow = proper)."""
        edges = set()
        for e in self.hyperedges:
            for i in range(len(e)):
                for j in range(i + 1, len(e)):
                    edges.add((e[i], e[j]))
        return Graph(self.n, edges)

    def to_dict(self):
        return {"n": self.n, "hyperedges": [list(e) for e in self.hyperedges]}

    @classmethod
    def from_dict(cls, d):
        return cls(json_int(d["n"], "n"),
                   [tuple(json_int(v, "a vertex") for v in e) for e in d["hyperedges"]])

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json_loads(s))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={len(self.hyperedges)})"


def incidence_hypergraph(graph):
    """Hypergraph whose vertices are the graph's edges; one hyperedge per
    graph vertex collecting its incident edges.  Cubic graphs give 3-uniform
    2-regular hypergraphs."""
    edge_index = {e: i for i, e in enumerate(graph.sorted_edges())}
    hyperedges = []
    for v in range(graph.n):
        inc = [edge_index[(min(v, u), max(v, u))] for u in graph.neighbors(v)]
        if len(inc) >= 2:
            hyperedges.append(tuple(sorted(inc)))
    return Hypergraph(len(edge_index), hyperedges)


# ---------------------------------------------------------------------------
# DFS orientation


def dfs_orientation(graph):
    """The edges of a bridgeless cubic graph, directed along one sorted DFS.

    Tree edges point away from the root and back edges toward it, so every
    vertex ends with indegree and outdegree in {1, 2}: a non-root vertex
    enters by its tree edge and leaves by a child's tree edge or a back
    edge, and the root has at most two children, since three would make its
    tree edges bridges.  The same DFS keeps Tarjan's low-links and refuses a
    tree edge (parent, v) with low[v] > pre[parent], which is a bridge.
    Returns the frozenset of directed edges (tail, head).
    """
    if not graph.is_regular(3):
        raise ValueError("graph must be 3-regular")
    n = graph.n
    pre = [-1] * n
    low = [0] * n
    directed = set()
    counter = 0
    for root in range(n):
        if pre[root] != -1:
            continue
        pre[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(graph.neighbors(root)))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if pre[w] == -1:
                    directed.add((v, w))
                    pre[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, iter(graph.neighbors(w))))
                    break
                # a visited neighbor other than the parent is an ancestor,
                # or a descendant whose back edge to v is already directed
                if w != parent and pre[w] < pre[v]:
                    directed.add((v, w))
                    low[v] = min(low[v], pre[w])
            else:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > pre[parent]:
                        raise ValueError("graph must be bridgeless")
    outdegree = [0] * n
    for tail, _ in directed:
        outdegree[tail] += 1
    for v in range(n):
        # indegree is 3 - outdegree
        if outdegree[v] in (0, 3):
            raise AssertionError(f"orientation degree bound violated at {v}")
    return frozenset(directed)


# ---------------------------------------------------------------------------
# odd girth


def odd_girth(graph):
    """Length of the shortest odd cycle via BFS on the bipartite double cover;
    inf iff bipartite."""
    from collections import deque

    best = inf
    for s in range(graph.n):
        dist = {(s, 0): 0}
        queue = deque([(s, 0)])
        while queue:
            v, parity = queue.popleft()
            d = dist[(v, parity)]
            if d * 2 >= best:
                continue
            for w in graph.neighbors(v):
                node = (w, parity ^ 1)
                if node not in dist:
                    dist[node] = d + 1
                    queue.append(node)
        if (s, 1) in dist:
            best = min(best, dist[(s, 1)])
    return best


# ---------------------------------------------------------------------------
# standard graphs used throughout


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def chvatal_graph():
    """The 12-vertex 4-regular 4-chromatic Chvatal graph."""
    edges = [
        (0, 1), (0, 4), (0, 6), (0, 9), (1, 2), (1, 5), (1, 7), (2, 3),
        (2, 6), (2, 8), (3, 4), (3, 7), (3, 9), (4, 5), (4, 8), (5, 10),
        (5, 11), (6, 10), (6, 11), (7, 8), (7, 11), (8, 10), (9, 10), (9, 11),
    ]
    g = Graph(12, edges)
    assert g.is_regular(4)
    return g
