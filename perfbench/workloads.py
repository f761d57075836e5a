"""The benchmark's four workloads, driven through the public API of `kdiameter`.

Each workload builds its inputs from the seed (`setup`), lists its
operations (`operations`: one question a user would ask each, with the
independent check of its answer from `checks`) and reduces an answer to a
plain comparable value (`summary`, used to see that every pass gives the
same answers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Callable

import checks
from kdiameter.acceptance import CRITERIA
from kdiameter.clustering import exact_cluster, gonzalez_cluster, two_cluster
from kdiameter.edgecolor import three_edge_color_via_bridge_splitting
from kdiameter.gadgets import (
    build_composite,
    build_gadget_H,
    oriented_embedding_library,
    stitch_embedding,
    stitch_slot_maps,
)
from kdiameter.geometry import Pointset
from kdiameter.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    incidence_hypergraph,
    path_graph,
    petersen_graph,
)
from kdiameter.hadamard import verify_embedding
from kdiameter.lp import max_embeddability
from kdiameter.sphere import build_region_instance, verify_anchor_separation


@dataclass
class Op:
    kind: str                        # phase it belongs to, e.g. "sweep"
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises checks.CheckFailed on a wrong answer
    span: str | None = None          # traced as a layer of its own under this name


# ---------------------------------------------------------------------------
# composite: cubic J -> composite -> stitched 3/2-embedding -> exact 3-clustering

# Fixed cubic graphs in LCF notation (Hamiltonian cycle plus chords).  With
# this labelling each search is cheap and its cost does not depend on the
# seed, so they carry the 108-270 point sizes without adding seed-to-seed
# spread.
NAMED_CUBIC = (
    ("cube", 8, (3, -3)),
    ("franklin", 12, (5, -5)),
    ("heawood", 14, (5, -5)),
    ("moebius_kantor", 16, (5, -5)),
    ("pappus", 18, (5, 7, -7, 7, -7, -5)),
    ("desargues", 20, (5, -5, 9, -9)),
    ("dodecahedron", 20, (10, 7, 4, -4, -7, 10, -4, 7, -7, 4)),
)

# Seeded random cubic J on 6 vertices (81-point composites).  Their search
# cost varies with the labelling; 6-vertex graphs vary least per second of
# work, so many of them keep the pass time steady across seeds.
RANDOM_J_VERTICES = 6
RANDOM_J_COUNT = 60


def lcf_graph(n, pattern):
    edges = set()
    for i in range(n):
        edges.add((min(i, (i + 1) % n), max(i, (i + 1) % n)))
        j = (i + pattern[i % len(pattern)]) % n
        edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


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
            return n, sorted(edges)


class Composite:
    name = "composite"

    def setup(self, seed):
        rng = random.Random(seed)
        gadget = build_gadget_H()
        library = oriented_embedding_library(gadget)
        specs = [("petersen", 10, sorted(petersen_graph().edges))]
        specs += [(name,) + lcf_graph(n, pattern) for name, n, pattern in NAMED_CUBIC]
        specs += [(f"random{i}",) + random_cubic_graph(RANDOM_J_VERTICES, rng)
                  for i in range(RANDOM_J_COUNT)]
        instances = [(name, Graph(n, edges)) for name, n, edges in specs]
        return {"gadget": gadget, "library": library, "instances": instances}

    def operations(self, state):
        gadget, library = state["gadget"], state["library"]

        def pipeline(J):
            composite = build_composite(incidence_hypergraph(J), gadget,
                                        slot_maps=stitch_slot_maps(J))
            embedding = stitch_embedding(composite, J, library=library)
            report = verify_embedding(embedding)
            clustering = exact_cluster(Pointset("hamming", embedding.image), 3)
            edge_coloring = three_edge_color_via_bridge_splitting(J)
            return composite, embedding, report, clustering, edge_coloring

        return [Op("pipeline", name, lambda J=J: pipeline(J),
                   lambda answer, J=J: self._check(J, answer))
                for name, J in state["instances"]]

    def summary(self, answer):
        composite, embedding, report, clustering, edge_coloring = answer
        return (tuple(w.word for w in embedding.image), embedding.short,
                str(report["achieved_ratio"]), tuple(clustering.assignment),
                clustering.diameter,
                None if edge_coloring is None else sorted(edge_coloring.colors.items()))

    @staticmethod
    def _check(J, answer):
        composite, embedding, report, clustering, edge_coloring = answer
        originals = [v for v, p in enumerate(composite.provenance)
                     if p[0] == "original"]
        checks.check_composite(
            J.n, sorted(J.edges), composite.graph.n,
            sorted(composite.graph.edges), originals,
            [w.word for w in embedding.image], embedding.short,
            embedding.long, report["achieved_ratio"],
            list(clustering.assignment), clustering.diameter,
            None if edge_coloring is None else dict(edge_coloring.colors))


# ---------------------------------------------------------------------------
# sphere: anchor-separation verdicts and clusterings of a sphere region

SPHERE_AXES = (0, 1, 2)
# kappa=16 would add about 7 s to every pass; three passes of it do not fit
# the time one run gets, so the workload stays on the paper's kappa=12 region
SPHERE_KAPPA = 12
SPHERE_THRESHOLDS = (Fraction(1), Fraction(5, 4), Fraction(163, 125),
                     Fraction(4, 3), Fraction(3, 2))
PAPER_LEMMA_T = Fraction(163, 125)  # separation holds here at kappa=12


class Sphere:
    name = "sphere"

    def setup(self, seed):
        # a fixed paper instance: the seed does not enter
        region = build_region_instance(SPHERE_AXES, SPHERE_KAPPA)
        return {"region": region, "pointset": region.pointset()}

    def operations(self, state):
        region, ps = state["region"], state["pointset"]

        @cache
        def reference():
            """The checkers' own distance data, in the program's point order."""
            ours = checks.SphereRegion(
                SPHERE_AXES, SPHERE_KAPPA,
                [checks.region_vector(p.axes, p.positive_axis, p.coeffs)
                 for p in region.points])
            theirs = [region.anchor_index[a] for a in SPHERE_AXES]
            checks.require(ours.anchors == theirs, "anchor indices differ")
            return ours

        def check_verdict(answer, t):
            holds, witness = answer
            checks.check_separation(reference(), t, holds, witness)
            if t == PAPER_LEMMA_T:
                checks.require(holds, f"separation fails at t={t}")

        def check_clustering(answer, check):
            d = answer.diameter
            check(reference(), list(answer.assignment),
                  checks.surd_key(d.m, d.big_n))

        ops = [Op("sweep", f"separation t={t}",
                  lambda t=t: verify_anchor_separation(region, threshold=t),
                  lambda answer, t=t: check_verdict(answer, t))
               for t in SPHERE_THRESHOLDS]
        for name, run, check in (
                ("exact_cluster", lambda: exact_cluster(ps, 3), checks.check_sphere_exact),
                ("two_cluster", lambda: two_cluster(ps), checks.check_sphere_two),
                ("gonzalez_cluster", lambda: gonzalez_cluster(ps, 3),
                 checks.check_sphere_gonzalez)):
            ops.append(Op("cluster", name, run,
                          lambda answer, check=check: check_clustering(answer, check)))
        return ops

    def summary(self, answer):
        if isinstance(answer, tuple):
            holds, witness = answer
            return holds, None if witness is None else tuple(witness)
        d = answer.diameter
        return tuple(answer.assignment), d.m, d.big_n


# ---------------------------------------------------------------------------
# lp: exact best Hamming-embedding ratio

LP_GRAPHS = (
    ("P7", path_graph(7)),
    ("C7", cycle_graph(7)),
    ("P8", path_graph(8)),
    ("C8", cycle_graph(8)),
    ("K4,4", complete_bipartite_graph(4, 4)),
)


class LP:
    name = "lp"

    def setup(self, seed):
        # fixed paper instances: the seed does not enter
        return {"graphs": list(LP_GRAPHS)}

    def operations(self, state):
        return [Op("lp", name, lambda g=g: max_embeddability(g),
                   lambda answer, g=g: self._check(g, answer))
                for name, g in state["graphs"]]

    def summary(self, answer):
        emb = answer["embedding"]
        return (answer["unbounded"], answer["ratio"], answer["certified"],
                None if emb is None else (tuple(w.word for w in emb.image),
                                          emb.short, emb.long))

    @staticmethod
    def _check(g, answer):
        emb = answer["embedding"]
        checks.check_lp(g.n, sorted(g.edges), answer["unbounded"],
                        answer["ratio"], answer["certified"],
                        None if emb is None else [w.word for w in emb.image],
                        None if emb is None else emb.short,
                        None if emb is None else emb.long)


# ---------------------------------------------------------------------------
# repro: the acceptance criteria as `kdiameter repro-all --seed <seed>` runs them

# Criterion 3 draws random 4-regular graphs and raises on most seeds
# (RuntimeError from acceptance.random_regular_graph), so it is left out.
REPRO_CRITERIA = tuple(num for num in sorted(CRITERIA) if num != 3)


class Repro:
    name = "repro"

    def setup(self, seed):
        return {"seed": seed}

    def operations(self, state):
        seed = state["seed"]
        return [Op("criterion", f"criterion_{num:02d}",
                   lambda fn=CRITERIA[num][1]: fn(seed=seed),
                   lambda answer, num=num: checks.check_criterion(num, answer),
                   span=f"acceptance.criterion_{num:02d}")
                for num in REPRO_CRITERIA]

    def summary(self, answer):
        return repr(sorted(answer.items()))


WORKLOADS = {w.name: w for w in (Composite(), Sphere(), LP(), Repro())}
