import json
import random
from fractions import Fraction

import pytest

from kdiameter.coloring import enumerate_colorings, find_coloring
from kdiameter.gadgets import (
    AUX,
    DESIGNATED_ATTACHMENTS,
    DESIGNATED_REMOVED_EDGE,
    ORIENTATIONS,
    GadgetH,
    build_composite,
    build_gadget_H,
    edge_orientations,
    find_oriented_embedding,
    oriented_embedding_library,
    stitch_embedding,
    stitch_slot_maps,
    verify_gadget,
)
from kdiameter.graphs import (
    chvatal_graph,
    complete_graph,
    incidence_hypergraph,
    petersen_graph,
)
from kdiameter.hadamard import Embedding, hadamard_code, verify_embedding
from test_graphs import brute_cut_edges, random_cubic_graph


@pytest.fixture(scope="module")
def gadget():
    return build_gadget_H()


@pytest.fixture(scope="module")
def library(gadget):
    return oriented_embedding_library(gadget)


def test_designated_gadget_is_first_candidate(gadget):
    assert gadget.removed_edge == DESIGNATED_REMOVED_EDGE
    assert gadget.attachments == DESIGNATED_ATTACHMENTS
    assert verify_gadget(gadget)


def test_gadget_base_uniquely_3_colorable(gadget):
    assert find_coloring(chvatal_graph().adjacency_bitsets(), 3) is None
    assert len(enumerate_colorings(gadget.base.adjacency_bitsets(), 3)) == 1


def test_gadget_forces_distinct_auxiliaries(gadget):
    graph = gadget.verification_graph()
    assert graph.n == 15
    canonical = enumerate_colorings(graph.adjacency_bitsets(), 3)
    assert len(canonical) == 1
    assert len({canonical[0][a] for a in AUX}) == 3


def test_every_attachment_is_load_bearing(gadget):
    def dropped(role, gone):
        att = [tuple(x for x in targets if x not in gone)
               for targets in gadget.attachments]
        att[role] = tuple(x for x in gadget.attachments[role] if x not in gone)
        return GadgetH(gadget.base, gadget.removed_edge, tuple(att))

    redundant = []
    for role in range(3):
        for t in gadget.attachments[role]:
            if verify_gadget(dropped(role, {t})):
                redundant.append((role, t))
    # two attachments of the middle role back each other up for the coloring
    # property; everything else is individually necessary
    assert redundant == [(1, 5), (1, 7)]
    assert not verify_gadget(dropped(1, {5, 7}))
    # and the backup pair is still needed for embeddability
    assert oriented_embedding_library(dropped(1, {5, 7})) == {}


def test_gadget_json_roundtrip(gadget):
    back = GadgetH.from_dict(json.loads(json.dumps(gadget.to_dict())))
    assert back.removed_edge == gadget.removed_edge
    assert back.attachments == gadget.attachments
    assert back.base == gadget.base


# ---------------------------------------------------------------------------
# oriented embeddings


def test_library_orientations(gadget, library):
    assert set(library) == {(2, 2, 1), (1, 1, 2)}
    # role letters 0, 1, 2 and two fresh letters fit a code of length 8
    code = hadamard_code(8)

    def word(letter, sign):
        return (code.plus_words if sign > 0 else code.minus_words)[letter]

    for orientation, emb in library.items():
        assert emb.orientation == orientation
        assert emb.fresh_count == 2
        # each role letter appears among body pairs only at its oriented
        # block position
        for l1, _, l2, _ in emb.pairs[:12]:
            assert l1 >= 3 or orientation[l1] == 1
            assert l2 >= 3 or orientation[l2] == 2
        image = [word(l1, s1).concat(word(l2, s2))
                 for l1, s1, l2, s2 in emb.pairs]
        report = verify_embedding(Embedding(gadget.verification_graph(),
                                            "hamming", image, short=8, long=12))
        assert report["ok"]
        assert report["achieved_ratio"] == Fraction(3, 2)


def test_find_oriented_embedding_rejects_bad_orientation(gadget):
    with pytest.raises(ValueError):
        find_oriented_embedding(gadget, (1, 1, 1))


def test_orientations_are_the_stitched_slot_patterns():
    rng = random.Random(4)
    graphs = [complete_graph(4), petersen_graph()]
    while len(graphs) < 42:
        J = random_cubic_graph(2 * rng.randint(3, 8), rng)
        if not brute_cut_edges(J):
            graphs.append(J)
    patterns = set()
    for J in graphs:
        sigma = edge_orientations(J)
        for e_idx, slots in enumerate(stitch_slot_maps(J)):
            patterns.add(tuple(sigma[e_idx][v] for v in slots))
    assert patterns == set(ORIENTATIONS)


# ---------------------------------------------------------------------------
# composites


def test_composite_rainbow_equivalence_k4(gadget):
    J = complete_graph(4)
    h = incidence_hypergraph(J)
    comp = build_composite(h, gadget, slot_maps=stitch_slot_maps(J))
    assert comp.graph.n == h.n + 12 * len(h.hyperedges)
    coloring = find_coloring(comp.graph.adjacency_bitsets(), 3)
    assert coloring is not None
    # the restriction to original vertices is a rainbow coloring
    for e in h.hyperedges:
        assert len({coloring[v] for v in e}) == 3


def test_composite_rainbow_equivalence_petersen(gadget):
    J = petersen_graph()
    comp = build_composite(incidence_hypergraph(J), gadget,
                           slot_maps=stitch_slot_maps(J))
    # Petersen needs 4 edge colors, so no rainbow 3-coloring and hence no
    # proper 3-coloring of the composite
    assert find_coloring(comp.graph.adjacency_bitsets(), 3) is None


def test_composite_slot_map_validation(gadget):
    h = incidence_hypergraph(complete_graph(4))
    bad = [tuple(h.hyperedges[0])] * len(h.hyperedges)
    with pytest.raises(ValueError):
        build_composite(h, gadget, slot_maps=bad)


def test_composite_rejects_wrong_hypergraph(gadget):
    from kdiameter.graphs import Hypergraph

    with pytest.raises(ValueError):
        build_composite(Hypergraph(4, [(0, 1, 2)]), gadget,
                        slot_maps=[(0, 1, 2)])


# ---------------------------------------------------------------------------
# stitching


def test_edge_orientations_nonconstant():
    for J in (complete_graph(4), petersen_graph()):
        sigma = edge_orientations(J)
        for entries in sigma:
            assert len(entries) == 3
            assert set(entries.values()) == {1, 2}


def test_stitch_slot_maps_cover_hyperedges():
    J = complete_graph(4)
    h = incidence_hypergraph(J)
    maps = stitch_slot_maps(J)
    sigma = edge_orientations(J)
    for e_idx, e in enumerate(h.hyperedges):
        assert sorted(maps[e_idx]) == list(e)
        pattern = tuple(sigma[e_idx][v] for v in maps[e_idx])
        assert pattern in ((2, 2, 1), (1, 1, 2))


@pytest.mark.parametrize("J_name", ["k4", "petersen"])
def test_stitched_embedding_verifies(gadget, library, J_name):
    J = complete_graph(4) if J_name == "k4" else petersen_graph()
    h = incidence_hypergraph(J)
    comp = build_composite(h, gadget, slot_maps=stitch_slot_maps(J))
    emb = stitch_embedding(comp, J, library=library)
    report = verify_embedding(emb)
    assert report["ok"]
    assert report["achieved_ratio"] == Fraction(3, 2)
    assert emb.long * 2 == emb.short * 3


def test_stitched_k4_q_and_clustering(gadget, library):
    from kdiameter.clustering import exact_cluster
    from kdiameter.geometry import Pointset

    J = complete_graph(4)
    comp = build_composite(incidence_hypergraph(J), gadget,
                           slot_maps=stitch_slot_maps(J))
    emb = stitch_embedding(comp, J, library=library)
    assert emb.short == 16  # 6 vertex letters + 2 fresh per copy, rounded up
    clustering = exact_cluster(Pointset("hamming", emb.image), 3)
    assert clustering.diameter == emb.short


def test_stitch_requires_matching_library(gadget):
    J = complete_graph(4)
    comp = build_composite(incidence_hypergraph(J), gadget,
                           slot_maps=stitch_slot_maps(J))
    with pytest.raises(ValueError):
        stitch_embedding(comp, J, library={})


def test_stitch_requires_incidence_hypergraph(gadget, library):
    J = complete_graph(4)
    comp = build_composite(incidence_hypergraph(J), gadget,
                           slot_maps=stitch_slot_maps(J))
    with pytest.raises(ValueError):
        stitch_embedding(comp, petersen_graph(), library=library)
