"""Vertex-coloring search API on top of the backtracking kernel.

Every call takes a graph in the kernel's own input form: a sequence of
neighbor bitsets `adj`, one int per vertex, with bit j of adj[i] set when i
and j are adjacent.  The threshold-graph solvers read it off a pair table as
an immutable tuple (`geometry.PairTable.bitsets_at`); a caller holding a
`graphs.Graph` passes the list `graph.adjacency_bitsets()`, built from its
neighbor tuples on each call.  The search's node order depends only on the
bitsets.  A proper edge coloring is a rainbow coloring of the incidence
hypergraph, and a rainbow coloring of a hypergraph is a proper coloring of
its `Hypergraph.constraint_graph()`, so the same calls search it.

The kernel is the compiled `_colorcore` extension, hand-written C that
`setup.py` builds when a C compiler exists, else the pure-Python
`_colorcore_py` module.  Both expose the same `search` function and visit
the same nodes; `KERNEL_BACKEND` is "c" or "python".
"""

from __future__ import annotations

from math import perm

try:
    from kdiameter import _colorcore as _kernel
except ImportError:
    from kdiameter import _colorcore_py as _kernel

KERNEL_BACKEND = _kernel.BACKEND


DEFAULT_BUDGET = 10**9

ENUMERATION_GUARD_NODES = 2**30


class BudgetExceeded(RuntimeError):
    """The node budget ran out before the search concluded either way; no
    library call returns a verdict in its place.

    `.nodes` counts every node of the library call that ran out, over all
    the searches it made, the node that broke the budget included."""

    def __init__(self, nodes):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes


class EnumerationGuard(ValueError):
    """Enumeration refused: the instance is too large to enumerate."""


def find_coloring(adj, k, fixed=None, budget=DEFAULT_BUDGET, stats=None):
    """First proper k-coloring of the graph with neighbor bitsets `adj`
    respecting `fixed` (per-vertex color or -1), or None.

    `stats`, when given, is a dict whose "nodes" entry accumulates the
    number of search nodes explored; a caller running several searches
    passes them one `stats`, and an exhausted budget raises with its total.
    `budget` caps this search alone."""
    status, payload, nodes = _kernel.search(
        adj, k, fixed=fixed, mode=_kernel.MODE_FIRST, budget=budget)
    if stats is not None:
        nodes = stats["nodes"] = stats.get("nodes", 0) + nodes
    if status == _kernel.STATUS_BUDGET:
        raise BudgetExceeded(nodes)
    return payload


def enumerate_colorings(adj, k, budget=DEFAULT_BUDGET):
    """All proper k-colorings of the graph with neighbor bitsets `adj` up to
    color permutation (canonical representatives: color classes introduced
    in first-use order along the search)."""
    if k ** len(adj) >= ENUMERATION_GUARD_NODES:
        raise EnumerationGuard(
            f"estimated {k}^{len(adj)} search nodes exceeds the enumeration guard")
    status, payload, nodes = _kernel.search(
        adj, k, mode=_kernel.MODE_ENUMERATE, budget=budget)
    if status == _kernel.STATUS_BUDGET:
        raise BudgetExceeded(nodes)
    return payload


def count_colorings_total(adj, k, budget=DEFAULT_BUDGET):
    """Exact number of proper k-colorings of the graph with neighbor bitsets
    `adj` (not up to symmetry)."""
    total = 0
    for coloring in enumerate_colorings(adj, k, budget=budget):
        used = len(set(coloring))
        total += perm(k, used)
    return total


def forall_colorings(adj, k, support, budget=DEFAULT_BUDGET, stats=None,
                     symmetric=False):
    """Check that every proper k-coloring of the graph with neighbor bitsets
    `adj` is rainbow on `support`, a list of distinct vertices.

    Returns a counterexample, a proper coloring that repeats a color on
    `support`, or None; vacuously None when no proper coloring exists.

    Proper colorings are closed under renaming colors, so only the partition
    of the support into color classes matters.  The check walks those
    partitions once each, as first-use color patterns (a color appears only
    after every smaller one) in lexicographic order; each pattern that
    repeats a color is tested for extendability to a proper coloring by one
    search with the support pinned.  The witness of the first extendable one
    keeps the pattern's colors and renames the colors it leaves unused in
    reverse.  The pattern searches share one `stats` (the caller's, if
    given), so an exhausted budget raises with their total.

    `symmetric` states that every permutation of `support` extends to an
    automorphism of the graph.  Patterns with the same multiset of class
    sizes then extend together, so only the first of each is searched; it
    is the first extendable one whenever any is, so the witness is the same.
    """
    stats = {} if stats is None else stats
    patterns = [()]
    for _ in support:
        patterns = [p + (c,) for p in patterns
                    for c in range(min(max(p, default=-1) + 2, k))]
    orbits = set()
    for pattern in patterns:
        used = max(pattern, default=-1) + 1
        if used == len(pattern):
            continue
        if symmetric:
            sizes = tuple(sorted(map(pattern.count, range(used))))
            if sizes in orbits:
                continue
            orbits.add(sizes)
        fixed = [-1] * len(adj)
        for v, c in zip(support, pattern):
            fixed[v] = c
        base = find_coloring(adj, k, fixed=fixed, budget=budget, stats=stats)
        if base is not None:
            relabel = [*range(used), *range(k - 1, used - 1, -1)]
            return [relabel[c] for c in base]
    return None
