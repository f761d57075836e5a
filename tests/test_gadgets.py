import json
import random
from fractions import Fraction

import pytest

from kdiameter import gadgets as gadgets_module
from kdiameter.clustering import exact_cluster
from kdiameter.coloring import enumerate_colorings, find_coloring
from kdiameter.gadgets import (
    AUX,
    DESIGNATED_ATTACHMENTS,
    DESIGNATED_REMOVED_EDGE,
    ORIENTED_BODIES,
    ROLE_LETTERS,
    GadgetH,
    OrientedGadgetEmbedding,
    build_composite,
    build_gadget_H,
    edge_orientations,
    oriented_embedding_library,
    stitch_embedding,
    stitch_slot_maps,
    verify_gadget,
)
from kdiameter.geometry import Pointset
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


def test_designated_gadget_verifies(gadget):
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
                                            Pointset("hamming", image),
                                            short=8, long=12))
        assert report["ok"]
        assert report["achieved_ratio"] == Fraction(3, 2)


# the oracle: a backtracking search over signed letters that re-derives the
# stored library


def _pair_distance_units(p, r):
    """Distance of two letter pairs in units of q/2: per block 0 for the
    same signed letter, 2 for opposite signs of one letter, 1 otherwise."""
    total = 0
    for (la, sa), (lb, sb) in (((p[0], p[1]), (r[0], r[1])),
                               ((p[2], p[3]), (r[2], r[3]))):
        if la == lb:
            total += 0 if sa == sb else 2
        else:
            total += 1
    return total


def search_oriented_embedding(gadget, orientation, max_fresh=6):
    """The first oriented 3/2-embedding of the gadget in search order, or
    None if there is none within max_fresh fresh letters.

    Auxiliary role r maps to (letter_r+, letter_r-); body vertices may use
    letter_r (either sign) only at block position orientation[r], plus
    gadget-local fresh letters anywhere.  Fresh letters are introduced in
    canonical order with a positive first occurrence, and the fresh cap
    grows until a solution appears.
    """
    graph = gadget.verification_graph()
    adjacency = [[graph.has_edge(u, v) for v in range(15)] for u in range(15)]
    pairs = [None] * 15
    for role in range(3):
        pairs[AUX[role]] = (role, 1, role, -1)
    # most-constrained-first static order: body vertices by number of
    # auxiliary neighbors, then degree
    order = sorted(range(12),
                   key=lambda v: (-sum(adjacency[v][a] for a in AUX),
                                  -graph.degree(v), v))

    def options(position, fresh_used, fresh_cap):
        out = [(r, s) for r in range(3) if orientation[r] == position
               for s in (1, -1)]
        out += [(ROLE_LETTERS + t, s) for t in range(fresh_used)
                for s in (1, -1)]
        if fresh_used < fresh_cap:
            out.append((ROLE_LETTERS + fresh_used, 1))
        return out

    def consistent(v, pair, assigned):
        for u in assigned:
            d = _pair_distance_units(pair, pairs[u])
            if adjacency[v][u]:
                if d < 3:
                    return False
            elif d > 2:
                return False
        return True

    def rec(idx, fresh_used, assigned, fresh_cap):
        if idx == 12:
            return True
        v = order[idx]
        for l1, s1 in options(1, fresh_used, fresh_cap):
            # options offer the used fresh letters and at most the next one
            used1 = fresh_used + (l1 == ROLE_LETTERS + fresh_used)
            for l2, s2 in options(2, used1, fresh_cap):
                pair = (l1, s1, l2, s2)
                if not consistent(v, pair, assigned):
                    continue
                used2 = used1 + (l2 == ROLE_LETTERS + used1)
                pairs[v] = pair
                assigned.append(v)
                if rec(idx + 1, used2, assigned, fresh_cap):
                    return True
                assigned.pop()
                pairs[v] = None
        return False

    for fresh_cap in range(max_fresh + 1):
        if rec(0, 0, list(AUX), fresh_cap):
            fresh = {p[i] for p in pairs for i in (0, 2) if p[i] >= ROLE_LETTERS}
            return OrientedGadgetEmbedding(tuple(orientation), list(pairs),
                                           len(fresh))
    return None


def search_library(gadget):
    found = {o: search_oriented_embedding(gadget, o) for o in ORIENTED_BODIES}
    return {o: emb for o, emb in found.items() if emb is not None}


def without(gadget, gone):
    """The gadget with the attachments to the body vertices in `gone` cut."""
    return GadgetH(gadget.base, gadget.removed_edge,
                   tuple(tuple(t for t in targets if t not in gone)
                         for targets in gadget.attachments))


def test_search_rederives_the_stored_library(gadget, library):
    assert search_library(gadget) == library


@pytest.mark.parametrize("gone", [{t} for targets in DESIGNATED_ATTACHMENTS
                                  for t in targets] + [{5, 7}],
                         ids=lambda gone: "-".join(map(str, sorted(gone))))
def test_dropped_attachments_have_no_embedding(gadget, gone):
    cut = without(gadget, gone)
    assert search_library(cut) == {}
    assert oriented_embedding_library(cut) == {}


def _flip_sign(body):
    l1, s1, l2, s2 = body[0]
    return ((l1, -s1, l2, s2),) + body[1:]


def _role_letter_at_wrong_block(body):
    # the first body pair holds a role letter in each block; swapping its
    # blocks puts each at the other block
    l1, s1, l2, s2 = body[0]
    assert l1 < ROLE_LETTERS and l2 < ROLE_LETTERS
    return ((l2, s2, l1, s1),) + body[1:]


def _swap_body_pairs(body):
    return (body[1], body[0]) + body[2:]


@pytest.mark.parametrize("corrupt", [_flip_sign, _role_letter_at_wrong_block,
                                     _swap_body_pairs])
@pytest.mark.parametrize("orientation", sorted(ORIENTED_BODIES),
                         ids=lambda o: "".join(map(str, o)))
def test_corrupted_stored_pair_is_refused(gadget, monkeypatch, corrupt,
                                          orientation):
    monkeypatch.setitem(ORIENTED_BODIES, orientation,
                        corrupt(ORIENTED_BODIES[orientation]))
    library = oriented_embedding_library(gadget)
    assert set(library) == set(ORIENTED_BODIES) - {orientation}
    J = complete_graph(4)
    comp = build_composite(incidence_hypergraph(J), gadget,
                           slot_maps=stitch_slot_maps(J))
    with pytest.raises(ValueError, match="library has no embedding"):
        stitch_embedding(comp, J, library=library)


def test_role_rule_alone_refuses_the_other_orientation(gadget, monkeypatch):
    # each stored body 3/2-embeds the gadget, but under the other
    # orientation its role letters sit at the wrong blocks
    swapped = dict(zip(ORIENTED_BODIES, reversed(ORIENTED_BODIES.values())))
    code = hadamard_code(8)
    for body in swapped.values():
        pairs = list(body) + [(r, 1, r, -1) for r in range(ROLE_LETTERS)]
        image = [gadgets_module._pair_word(code, *p) for p in pairs]
        assert verify_embedding(Embedding(gadget.verification_graph(),
                                          Pointset("hamming", image),
                                          short=8, long=12))["ok"]
    monkeypatch.setattr(gadgets_module, "ORIENTED_BODIES", swapped)
    assert oriented_embedding_library(gadget) == {}


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
    assert patterns == set(ORIENTED_BODIES)


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


# K4 is 3-edge-colorable, so its composite's image 3-clusters at diameter q
# (the YES side); Petersen is not, so every 3-clustering of its image puts
# an edge inside a cluster, at 3q/2 (the NO side).  q covers 6 vertex
# letters + 2 fresh per copy for K4, 15 + 2 * 10 for Petersen, rounded up.
@pytest.mark.parametrize("J_name, q, diameter",
                         [("k4", 16, 16), ("petersen", 64, 96)],
                         ids=["k4", "petersen"])
def test_stitched_q_and_clustering(gadget, library, J_name, q, diameter):
    J = complete_graph(4) if J_name == "k4" else petersen_graph()
    comp = build_composite(incidence_hypergraph(J), gadget,
                           slot_maps=stitch_slot_maps(J))
    emb = stitch_embedding(comp, J, library=library)
    assert emb.short == q
    assert exact_cluster(emb.pointset, 3).diameter == diameter


def test_stitch_requires_matching_library(gadget):
    J = complete_graph(4)
    comp = build_composite(incidence_hypergraph(J), gadget,
                           slot_maps=stitch_slot_maps(J))
    with pytest.raises(ValueError, match="library has no embedding"):
        stitch_embedding(comp, J, library={})


def test_stitch_refuses_ascending_slot_maps(gadget, library):
    # slot maps in hyperedge order leave some copy's minority vertex out of
    # the last slot: a pattern no stored orientation covers
    J = complete_graph(4)
    h = incidence_hypergraph(J)
    comp = build_composite(h, gadget, slot_maps=h.hyperedges)
    with pytest.raises(ValueError, match="rebuild the composite with "
                                         "stitch_slot_maps"):
        stitch_embedding(comp, J, library=library)


def test_stitch_requires_incidence_hypergraph(gadget, library):
    J = complete_graph(4)
    comp = build_composite(incidence_hypergraph(J), gadget,
                           slot_maps=stitch_slot_maps(J))
    with pytest.raises(ValueError):
        stitch_embedding(comp, petersen_graph(), library=library)
