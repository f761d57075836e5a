"""The repository's acceptance suite as callable criteria.

Each criterion function returns a dict with an "ok" flag plus details and
is exercised both by tests/test_acceptance.py and the repro-all CLI
command.  Randomized criteria take an explicit seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import inf, lcm

from kdiameter.clustering import (
    exact_cluster,
    gonzalez_cluster,
    jung_bound_holds,
    min_enclosing_ball,
)
from kdiameter.coloring import DEFAULT_BUDGET, count_colorings_total
from kdiameter.edgecolor import edge_coloring
from kdiameter.gadgets import (
    build_composite,
    build_gadget_H,
    oriented_embedding_library,
    stitch_embedding,
    stitch_slot_maps,
)
from kdiameter.geometry import (
    IntVector,
    Pointset,
    SqDistance,
    hamming_distance,
)
from kdiameter.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    incidence_hypergraph,
    odd_girth,
    path_graph,
    petersen_graph,
)
from kdiameter.hadamard import (
    five_fourths_embedding,
    hadamard_code,
    linf_embedding,
    verify_embedding,
)
from kdiameter.lp import max_embeddability
from kdiameter.sphere import (
    SEPARATION_THRESHOLD,
    build_region_instance,
    coloring_to_clustering,
    remark_clustering,
    separation_answer,
)


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_regular_graph(n, d, rng):
    """Random simple d-regular graph: the circulant graph joining each vertex
    to the d//2 next ones around a cycle (and to the opposite one for odd d),
    scrambled by random degree-preserving edge switches."""
    if not 0 <= d < n or n * d % 2:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    offsets = [*range(1, d // 2 + 1), *[n // 2] * (d % 2)]
    edges = sorted({(min(v, w), max(v, w))
                    for v in range(n) for w in ((v + s) % n for s in offsets)})
    for _ in range(10 * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, e) = edges[i], edges[j][::rng.choice((1, -1))]
        new = (min(a, c), max(a, c)), (min(b, e), max(b, e))
        if len({a, b, c, e}) == 4 and not set(new) & set(edges):
            edges[i], edges[j] = new
    return Graph(n, edges)


def brute_force_cluster_diameter(pointset, k):
    """Exact optimal k-clustering diameter by branch and bound: the points go
    in index order into an open cluster or the first empty one, and a branch
    is cut once its diameter reaches the best found so far."""
    n = len(pointset)
    dist = [[pointset.distance(i, j) for j in range(i)] for i in range(n)]
    best = max((d for row in dist for d in row), default=0)
    clusters = []

    def place(i, diameter):
        nonlocal best
        if i == n:
            best = diameter
            return
        for members in clusters:
            worst = max([diameter, *(dist[i][j] for j in members)])
            if worst < best:
                members.append(i)
                place(i + 1, worst)
                members.pop()
        if len(clusters) < k:
            clusters.append([i])
            place(i + 1, diameter)
            clusters.pop()

    place(0, 0)
    return best


def random_int_pointset(rng, max_points=12, span=10):
    n = rng.randint(3, max_points)
    dim = rng.randint(2, 4)
    pts = [IntVector([rng.randint(-span, span) for _ in range(dim)])
           for _ in range(n)]
    return Pointset("l1_int", pts)


# ---------------------------------------------------------------------------
# criteria


def criterion_1(budget=DEFAULT_BUDGET, seed=0):
    """Hadamard codes: pairwise distance q/2, unique q-partner = complement."""
    checked = 0
    for q in (4, 8, 16, 32, 64):
        code = hadamard_code(q)
        words = code.plus_words
        for i in range(q):
            for j in range(i + 1, q):
                if hamming_distance(words[i], words[j]) != q // 2:
                    return {"ok": False, "q": q, "pair": (i, j)}
                checked += 1
        everything = code.words
        for w in everything:
            partners = [x for x in everything
                        if x != w and hamming_distance(w, x) == q]
            if len(partners) != 1 or partners[0] != w.complement():
                return {"ok": False, "q": q, "word": w.to_string()}
    return {"ok": True, "pairs_checked": checked}


def criterion_2(budget=DEFAULT_BUDGET, seed=0):
    """2-embedding into l_inf for 50 random graphs."""
    rng = random.Random(seed)
    for trial in range(50):
        g = random_graph(rng.randint(2, 12), rng.random(), rng)
        emb = linf_embedding(g)
        report = verify_embedding(emb)
        if not (report["ok"] and emb.short == 1 and emb.long == 2):
            return {"ok": False, "trial": trial, "report": report}
    return {"ok": True, "graphs": 50}


def criterion_3(budget=DEFAULT_BUDGET, seed=0):
    """5/4-embedding of K44 and 20 random 4-edge-colorable 4-regular graphs."""
    rng = random.Random(seed)
    k44 = complete_bipartite_graph(4, 4)
    colored = [(k44, edge_coloring(k44, 4, budget=budget))]
    while len(colored) < 21:
        n = rng.choice((6, 8, 10, 12))
        g = random_regular_graph(n, 4, rng)
        coloring = edge_coloring(g, 4, budget=budget)
        if coloring is not None:
            colored.append((g, coloring))
    for idx, (g, coloring) in enumerate(colored):
        report = verify_embedding(five_fourths_embedding(g, coloring))
        if not (report["ok"] and report["achieved_ratio"] == Fraction(5, 4)):
            return {"ok": False, "graph": idx, "report": report}
    return {"ok": True, "graphs": len(colored)}


def criterion_4(budget=DEFAULT_BUDGET, seed=0):
    """Gadget: exactly 6 proper 3-colorings, auxiliaries always distinct."""
    gadget = build_gadget_H(budget=budget)
    total = count_colorings_total(gadget.verification_graph().adjacency_bitsets(),
                                  3, budget=budget)
    return {"ok": total == 6, "total_colorings": total,
            "removed_edge": gadget.removed_edge}


def criterion_5(budget=DEFAULT_BUDGET, seed=0):
    """Stitched K4 composite verifies at ratio 3/2; optimal 3-clustering
    diameter on the image equals q."""
    gadget = build_gadget_H(budget=budget)
    library = oriented_embedding_library(gadget)
    J = complete_graph(4)
    comp = build_composite(incidence_hypergraph(J), gadget,
                           slot_maps=stitch_slot_maps(J))
    emb = stitch_embedding(comp, J, library=library)
    report = verify_embedding(emb)
    ratio_ok = report["ok"] and report["achieved_ratio"] == Fraction(3, 2)
    clustering = exact_cluster(emb.pointset, 3, budget=budget)
    return {"ok": ratio_ok and clustering.diameter == emb.short,
            "q": emb.short, "clustering_diameter": clustering.diameter,
            "ratio": str(report["achieved_ratio"])}


@cache
def _kappa12_region():
    """The paper's kappa=12 region, shared by criteria 6-8 so that they read
    one pair table."""
    return build_region_instance((0, 1, 2), 12)


def criterion_6(budget=DEFAULT_BUDGET, seed=0):
    """Anchor separation on the kappa=12 region at threshold 163/125."""
    instance = _kappa12_region()
    holds, _, nodes = separation_answer(instance, SEPARATION_THRESHOLD, budget)
    return {"ok": holds and len(instance.points) == 270,
            "points": len(instance.points), "nodes": nodes}


def criterion_7(budget=DEFAULT_BUDGET, seed=0):
    """The family partition of the kappa=12 region has diameter <= 1: the
    rainbow coloring [0, 1, 2] of its axes turned into a clustering, family
    v in cluster v, a point of two families in the lesser."""
    instance = _kappa12_region()
    clustering = coloring_to_clustering(instance, [0, 1, 2])
    d = clustering.diameter
    within = d <= 1
    return {"ok": within, "diameter": str(d)}


def criterion_8(budget=DEFAULT_BUDGET, seed=0):
    """Coordinate-rule clustering: squared diameter <= 1 + sqrt(2)/2 and the
    anchors e_b and e_c, the region's axis points b and c, share a cluster."""
    instance = _kappa12_region()
    clustering = remark_clustering(instance)
    # 1 - (-1)/sqrt(1*2) = 1 + sqrt(2)/2, order key 1/2
    bound = clustering.diameter <= SqDistance(-1, 1, 2)
    eb = instance.anchor_index[1]
    ec = instance.anchor_index[2]
    together = clustering.assignment[eb] == clustering.assignment[ec]
    return {"ok": bound and together, "bound_holds": bound,
            "anchors_together": together}


def criterion_9(budget=DEFAULT_BUDGET, seed=0):
    """Max embeddability of the 7-vertex path is exactly 5/3, certified."""
    result = max_embeddability(path_graph(7))
    ok = (not result["unbounded"] and result["ratio"] == Fraction(5, 3)
          and result["certified"])
    return {"ok": ok, "ratio": str(result["ratio"])}


def criterion_10(budget=DEFAULT_BUDGET, seed=0):
    """exact_cluster, whose k = 2 is two_cluster, vs brute force on 100
    random pointsets; Gonzalez within 2x."""
    rng = random.Random(seed)
    for trial in range(100):
        ps = random_int_pointset(rng)
        optimum = {k: brute_force_cluster_diameter(ps, k) for k in (2, 3)}
        for k, opt in optimum.items():
            got = exact_cluster(ps, k, budget=budget).diameter
            if got != opt:
                return {"ok": False, "trial": trial, "k": k,
                        "expected": opt, "got": got}
            if gonzalez_cluster(ps, k).diameter > 2 * opt:
                return {"ok": False, "trial": trial, "k": k,
                        "reason": "gonzalez above 2x"}
    return {"ok": True, "pointsets": 100}


def criterion_11(budget=DEFAULT_BUDGET, seed=0):
    """Enclosing-ball radius obeys the dimension-based diameter bound."""
    rng = random.Random(seed)
    for trial in range(100):
        n = rng.randint(2, 8)
        dim = rng.randint(2, 4)
        pts = [tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                     for _ in range(dim)) for _ in range(n)]
        ball = min_enclosing_ball(pts)
        # the squared diameter in integers scaled by the denominators' lcm
        scale = lcm(*(c.denominator for p in pts for c in p))
        ints = [[c.numerator * (scale // c.denominator) for c in p] for p in pts]
        diam_sq = Fraction(max(sum((a - b) ** 2 for a, b in zip(p, q))
                               for i, p in enumerate(ints) for q in ints[i + 1:]),
                           scale * scale)
        if not jung_bound_holds(ball, diam_sq, dim):
            return {"ok": False, "trial": trial}
    return {"ok": True, "pointsets": 100}


def criterion_12(budget=DEFAULT_BUDGET, seed=0):
    """Odd girth: C5 and C7 exact, bipartite graphs infinite, Petersen 5."""
    rng = random.Random(seed)
    checks = [odd_girth(cycle_graph(5)) == 5,
              odd_girth(cycle_graph(7)) == 7,
              odd_girth(petersen_graph()) == 5]
    for _ in range(5):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        g = complete_bipartite_graph(a, b)
        checks.append(odd_girth(g) == inf)
    return {"ok": all(checks), "checks": len(checks)}


CRITERIA = {
    1: ("hadamard code distances", criterion_1),
    2: ("l_inf 2-embedding", criterion_2),
    3: ("5/4 embedding", criterion_3),
    4: ("gadget verification", criterion_4),
    5: ("3/2 embedding end-to-end", criterion_5),
    6: ("anchor separation machine check", criterion_6),
    7: ("region partition completeness", criterion_7),
    8: ("coordinate-rule clustering", criterion_8),
    9: ("LP embeddability of P7", criterion_9),
    10: ("clustering oracles", criterion_10),
    11: ("enclosing-ball diagnostic", criterion_11),
    12: ("odd girth", criterion_12),
}
