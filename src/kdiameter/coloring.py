"""Vertex-coloring search API on top of the backtracking kernel.

Every call takes a graph in the kernel's own input form: a list of neighbor
bitsets `adj`, one int per vertex, with bit j of adj[i] set when i and j are
adjacent.  The threshold-graph solvers read that list off a pair table
(`geometry.PairTable.bitsets_at`); a caller holding a `graphs.Graph` passes
`graph.adjacency_bitsets()`.  The search's node order depends only on the
bitsets.  A rainbow coloring of a hypergraph is a proper coloring of its
`Hypergraph.constraint_graph()`, so the same calls search it.

The kernel is the compiled `_colorcore` extension, hand-written C that
`setup.py` builds when a C compiler exists, else the pure-Python
`_colorcore_py` module.  Both expose the same `search` function and visit
the same nodes; `KERNEL_BACKEND` is "c" or "python".
"""

from __future__ import annotations

from itertools import permutations, product
from math import perm

try:
    from kdiameter import _colorcore as _kernel
except ImportError:
    from kdiameter import _colorcore_py as _kernel

KERNEL_BACKEND = _kernel.BACKEND


DEFAULT_BUDGET = 10**9

ENUMERATION_GUARD_NODES = 2**30


class BudgetExceeded(RuntimeError):
    """The node budget ran out before the search concluded either way."""

    def __init__(self, nodes):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes


class EnumerationGuard(ValueError):
    """Enumeration refused: the instance is too large to enumerate."""


def find_coloring(adj, k, fixed=None, budget=DEFAULT_BUDGET, stats=None):
    """First proper k-coloring of the graph with neighbor bitsets `adj`
    respecting `fixed` (per-vertex color or -1), or None.

    `stats`, when given, is a dict whose "nodes" entry accumulates the
    number of search nodes explored."""
    status, payload, nodes = _kernel.search(
        adj, k, fixed=fixed, mode=_kernel.MODE_FIRST, budget=budget)
    if stats is not None:
        stats["nodes"] = stats.get("nodes", 0) + nodes
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


def expand_coloring(coloring, k):
    """All concrete colorings equivalent to a canonical one under color renaming."""
    used = sorted(set(coloring))
    out = []
    for target in permutations(range(k), len(used)):
        relabel = dict(zip(used, target))
        out.append([relabel[c] for c in coloring])
    return out


def forall_colorings(adj, k, predicate, support=None, budget=DEFAULT_BUDGET,
                     stats=None):
    """Check that `predicate` holds for every proper k-coloring of the graph
    with neighbor bitsets `adj`.

    Returns (True, None) or (False, counterexample_coloring).  Vacuously true
    when no proper coloring exists.

    With `support` (a vertex list the predicate exclusively depends on), the
    check enumerates support assignments instead of whole colorings: each
    predicate-violating assignment is tested for extendability to a proper
    coloring, caching extendability per color-partition pattern of the
    support (colorings are closed under color renaming, so only the pattern
    matters for extendability).
    """
    if support is None:
        for canonical in enumerate_colorings(adj, k, budget=budget):
            for coloring in expand_coloring(canonical, k):
                if not predicate(coloring):
                    return False, coloring
        return True, None

    support = list(support)
    feasible_cache = {}
    for assignment in product(range(k), repeat=len(support)):
        trial = {v: c for v, c in zip(support, assignment)}
        if predicate(trial):
            continue
        pattern = _partition_pattern(assignment)
        if pattern not in feasible_cache:
            fixed = [-1] * len(adj)
            for v, c in zip(support, pattern):
                fixed[v] = c
            feasible_cache[pattern] = find_coloring(adj, k, fixed=fixed,
                                                    budget=budget, stats=stats)
        base = feasible_cache[pattern]
        if base is not None:
            # rename colors so the witness realizes the concrete assignment
            relabel = _pattern_relabel(pattern, assignment, k)
            return False, [relabel[c] for c in base]
    return True, None


def _partition_pattern(assignment):
    relabel = {}
    out = []
    for c in assignment:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return tuple(out)


def _pattern_relabel(pattern, assignment, k):
    """Color map sending `pattern`, the first-use relabelling of
    `assignment`, back to it; unused colors fill in the rest."""
    relabel = dict(zip(pattern, assignment))
    remaining = [c for c in range(k) if c not in relabel.values()]
    for c in range(k):
        if c not in relabel:
            relabel[c] = remaining.pop()
    return relabel

