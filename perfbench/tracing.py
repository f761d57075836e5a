"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces the public functions of each `kdiameter`
layer, in every loaded module that bound them, with wrappers that time the
call and count it; leaving the block puts the originals back.  Spans are not
kept one by one (a sphere pass makes about a million pair evaluations):
each layer accumulates its call count, its inclusive time and its self time,
the part of its time not covered by a nested traced call.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (defining module, attribute, layer, patch the defining module's own name
# too, optional (counter, amount of a result)).  Geometry functions call
# each other inside `geometry`; leaving those inner bindings alone makes
# each pair evaluation count once.
PATCHES = (
    ("kdiameter.coloring", "find_coloring", "coloring.search", True, None),
    ("kdiameter.coloring", "forall_colorings", "coloring.forall", True, None),
    ("kdiameter.coloring", "enumerate_colorings", "coloring.enumerate", True, None),
    ("kdiameter.geometry", "sq_distance_exceeds", "geometry.distance", False, None),
    ("kdiameter.geometry", "sphere_point_sq_distance", "geometry.distance", False,
     None),
    ("kdiameter.sphere", "build_threshold_graph", "sphere.threshold", True, None),
    ("kdiameter.clustering", "threshold_graph_at", "clustering.threshold", True,
     None),
    ("kdiameter.clustering", "distinct_distances", "clustering.distinct", True,
     None),
    ("kdiameter.clustering", "min_enclosing_ball", "clustering.ball", True, None),
    ("kdiameter.gadgets", "oriented_embedding_library", "gadgets.library", True,
     None),
    ("kdiameter.gadgets", "stitch_embedding", "gadgets.stitch", True, None),
    ("kdiameter.hadamard", "verify_embedding", "hadamard.verify", True, None),
    ("kdiameter.lp", "build_embeddability_lp", "lp.build", True,
     ("lp.columns", lambda lp: len(lp.words))),
    ("kdiameter.lp", "solve_lp", "lp.build", True, None),
    ("kdiameter.lp", "extract_integer_embedding", "lp.build", True, None),
    ("kdiameter.lp", "simplex_max", "lp.simplex", True, None),
    ("kdiameter.edgecolor", "edge_coloring", "edgecolor.color", True, None),
    ("kdiameter.edgecolor", "three_edge_color_via_bridge_splitting",
     "edgecolor.color", True, None),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)   # nodes, columns
        self._stack = []                 # per open span: time of traced children

    def wrap(self, fn, layer, count=None):
        """`fn` traced as a call into `layer`; `count` is an optional
        (counter, amount of the result) pair."""
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        counts = self.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                total_s[layer] += elapsed
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_kernel(self, search, first_mode):
        counts = self.counts

        def counted(adj, k, *args, **kwargs):
            result = search(adj, k, *args, **kwargs)
            if kwargs.get("mode", first_mode) == first_mode:
                counts["coloring.nodes"] += result[2]
            return result

        return counted

    @contextmanager
    def installed(self, callers=()):
        """Trace every layer while the block runs.  `callers` are modules
        outside the program that imported layer functions by name."""
        undo = []
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name.startswith("kdiameter") and m is not None]
        loaded += callers
        for home, attr, layer, patch_home, count in PATCHES:
            original = getattr(sys.modules[home], attr)
            replacement = self.wrap(original, layer, count)
            for module in loaded:
                if module.__name__ == home and not patch_home:
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, replacement)
                    undo.append((module, attr, original))
        from kdiameter import coloring
        from kdiameter.geometry import Pointset

        kernel = coloring._kernel
        undo.append((kernel, "search", kernel.search))
        kernel.search = self._counting_kernel(kernel.search, kernel.MODE_FIRST)
        undo.append((Pointset, "distance", Pointset.distance))
        Pointset.distance = self.wrap(Pointset.distance, "geometry.distance")
        try:
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

