"""Uniquely 3-colorable gadget graphs and their stitched 3/2-embeddings.

The gadget is the Chvatal graph minus one edge together with three auxiliary
vertices attached so that every proper 3-coloring forces the auxiliaries
into three distinct colors.  Composites replace each hyperedge of a
3-uniform 2-regular hypergraph by a gadget copy whose auxiliary roles are
played by the hyperedge's vertices; a rainbow 3-coloring of the hypergraph
then corresponds exactly to a proper 3-coloring of the composite.

Embeddings assign each vertex a pair of Hadamard codewords, written as
abstract signed letters (a letter stands for a codeword, its negation for
the complement), where block distances in units of q/2 are 0 (same letter
and sign), 2 (opposite signs of one letter) or 1 (different letters); an
edge needs pair distance >= 3 units and a non-edge <= 2.

Each auxiliary role owns a single letter and maps to the pair
(letter+, letter-).  An orientation entry per role fixes the block position
at which that role's letter may appear among body vertices: the sign
matching the auxiliary's entry at that position is harmless filler, the
opposite sign forces the attachment edge.  Keeping each role letter inside
one block position is what makes disjoint gadget copies stitchable: the two
copies sharing a role use opposite positions for its letter, so no pair of
body vertices can ever disagree by a full codeword complement.

Stitching (`stitch_slot_maps`) gives each copy's minority-block vertex the
last auxiliary slot, so a copy's slot pattern is always (2, 2, 1) or
(1, 1, 2).  The designated gadget's embedding in each of these two
orientations is stored as literal letter pairs (`ORIENTED_BODIES`) and
checked against the gadget it is used for (`oriented_embedding_library`);
nothing is searched.
"""

from __future__ import annotations

from dataclasses import dataclass

from kdiameter.coloring import DEFAULT_BUDGET, enumerate_colorings
from kdiameter.geometry import Pointset
from kdiameter.graphs import Graph, chvatal_graph, dfs_orientation
from kdiameter.hadamard import (Embedding, hadamard_code, next_power_of_two,
                                verify_embedding)

AUX = (12, 13, 14)

# role letters are 0, 1, 2; letters >= ROLE_LETTERS are gadget-local fresh
ROLE_LETTERS = 3

# the designated gadget: removing edge (6, 10) leaves the base uniquely
# 3-colorable, and these attachment sets both force distinct auxiliary
# colors and admit oriented embeddings with two fresh letters
DESIGNATED_REMOVED_EDGE = (6, 10)
DESIGNATED_ATTACHMENTS = ((3, 10), (0, 5, 7), (6, 9))


@dataclass
class GadgetH:
    """Chvatal-minus-one-edge base plus per-role auxiliary attachment sets."""

    base: Graph              # 12 vertices
    removed_edge: tuple
    attachments: tuple       # three sorted tuples of base vertices

    def verification_graph(self):
        """The 15-vertex graph: base plus the three attached auxiliaries."""
        edges = set(self.base.edges)
        for role, targets in enumerate(self.attachments):
            for t in targets:
                edges.add((t, AUX[role]))
        return Graph(15, edges)

    def to_dict(self):
        return {"removed_edge": list(self.removed_edge),
                "attachments": [list(t) for t in self.attachments]}

    @classmethod
    def from_dict(cls, d):
        """The gadget of `to_dict`'s form; `removed_edge` must be two ints
        and `attachments` three lists of ints in 0..11."""
        removed, attachments = d["removed_edge"], d["attachments"]
        if not (_int_list(removed) and len(removed) == 2):
            raise ValueError(f"removed_edge must be two integers, not {removed!r}")
        if not (isinstance(attachments, list) and len(attachments) == 3
                and all(_int_list(t) and all(0 <= x < 12 for x in t)
                        for t in attachments)):
            raise ValueError("attachments must be three lists of integers "
                             f"in 0..11, not {attachments!r}")
        base = chvatal_graph().remove_edge(*removed)
        return cls(base, tuple(removed), tuple(tuple(t) for t in attachments))


def _int_list(value):
    """Whether `value` is a list of JSON integers (booleans excluded)."""
    return isinstance(value, list) and all(type(x) is int for x in value)


def build_gadget_H(budget=DEFAULT_BUDGET):
    """The designated gadget, certified by exhaustive coloring: exactly one
    proper 3-coloring up to color permutation, auxiliaries pairwise
    distinct."""
    gadget = GadgetH(chvatal_graph().remove_edge(*DESIGNATED_REMOVED_EDGE),
                     DESIGNATED_REMOVED_EDGE, DESIGNATED_ATTACHMENTS)
    if not verify_gadget(gadget, budget=budget):
        raise RuntimeError("the designated gadget does not verify")
    return gadget


def verify_gadget(gadget, budget=DEFAULT_BUDGET):
    """Exactly 6 proper 3-colorings, each giving the auxiliaries 3 colors."""
    graph = gadget.verification_graph()
    canonical = enumerate_colorings(graph.adjacency_bitsets(), 3, budget=budget)
    if len(canonical) != 1:
        return False
    coloring = canonical[0]
    return len({coloring[a] for a in AUX}) == 3


# ---------------------------------------------------------------------------
# oriented embeddings: stored letter pairs, checked on use


# the designated gadget's oriented embeddings, one per slot pattern that
# stitch_slot_maps produces (minority block last): body vertex h's pair
# (letter1, sign1, letter2, sign2), with fresh letters 3 and 4; auxiliary
# role r is (r, 1, r, -1).  tests/test_gadgets.py re-derives both by a
# backtracking search over signed letters.
ORIENTED_BODIES = {
    (2, 2, 1): ((2, 1, 1, 1), (3, 1, 1, -1), (3, -1, 3, -1), (3, 1, 0, 1),
                (3, -1, 1, -1), (4, 1, 1, 1), (2, -1, 3, 1), (3, -1, 1, 1),
                (3, 1, 0, -1), (2, -1, 0, -1), (4, -1, 0, 1), (2, 1, 1, -1)),
    (1, 1, 2): ((1, -1, 2, -1), (1, 1, 3, 1), (3, -1, 3, -1), (0, -1, 3, 1),
                (1, 1, 3, -1), (1, -1, 4, 1), (3, 1, 2, 1), (1, -1, 3, -1),
                (0, 1, 3, 1), (0, 1, 2, 1), (0, -1, 4, -1), (1, 1, 2, -1)),
}


def _pair_word(code, l1, s1, l2, s2):
    """The word of two signed letters: per block, the letter's plus-word,
    or its complement for a negative sign."""
    first = code.plus_words[l1] if s1 > 0 else code.minus_words[l1]
    second = code.plus_words[l2] if s2 > 0 else code.minus_words[l2]
    return first.concat(second)


def oriented_embedding_library(gadget):
    """The stored orientations that embed this gadget, each mapped to its 12
    body pairs from `ORIENTED_BODIES`.

    An orientation is kept when each role letter appears among body pairs
    only at its oriented block, and its body pairs with the auxiliary pairs,
    written over `hadamard_code(8)`, 3/2-embed the verification graph: with
    distances in units of q/2, every edge at >= 3 and every non-edge at <= 2.
    """
    graph = gadget.verification_graph()
    code = hadamard_code(8)
    library = {}
    for orientation, body in ORIENTED_BODIES.items():
        if not all((l1 >= ROLE_LETTERS or orientation[l1] == 1)
                   and (l2 >= ROLE_LETTERS or orientation[l2] == 2)
                   for l1, _, l2, _ in body):
            continue
        pairs = list(body) + [(r, 1, r, -1) for r in range(ROLE_LETTERS)]
        image = [_pair_word(code, *pair) for pair in pairs]
        if verify_embedding(Embedding(graph, Pointset("hamming", image),
                                      short=8, long=12))["ok"]:
            library[orientation] = body
    return library


# ---------------------------------------------------------------------------
# composites and stitching


@dataclass
class CompositeGraph:
    source: object           # 3-uniform 2-regular hypergraph
    graph: Graph
    provenance: list         # per vertex: ("original", v) or ("gadget", e_idx, h)
    slot_maps: list          # per hyperedge: vertex owning each auxiliary slot

    def gadget_offset(self, edge_index):
        return self.source.n + 12 * edge_index


def build_composite(hypergraph, gadget, slot_maps):
    """One disjoint gadget copy per hyperedge.

    slot_maps assigns each copy's three auxiliary slots to the hyperedge's
    vertices, as stitch_slot_maps(J) does for the incidence hypergraph of a
    cubic J.  The rainbow-coloring equivalence holds for any slot order;
    stitching reads the minority-last order of stitch_slot_maps.
    """
    if not hypergraph.hyperedges:
        raise ValueError("hypergraph has no hyperedges")
    if not hypergraph.is_3_uniform() or not hypergraph.is_2_regular():
        raise ValueError("hypergraph must be 3-uniform and 2-regular")
    n = hypergraph.n
    edges = set()
    base_edges = gadget.base.edges
    provenance = [("original", v) for v in range(n)]
    for e_idx, e in enumerate(hypergraph.hyperedges):
        if sorted(slot_maps[e_idx]) != list(e):
            raise ValueError(f"slot map {slot_maps[e_idx]} does not cover "
                             f"hyperedge {e}")
        offset = n + 12 * e_idx
        for h in range(12):
            provenance.append(("gadget", e_idx, h))
        for u, v in base_edges:
            edges.add((offset + u, offset + v))
        for slot, targets in enumerate(gadget.attachments):
            for t in targets:
                edges.add((slot_maps[e_idx][slot], offset + t))
    total = n + 12 * len(hypergraph.hyperedges)
    return CompositeGraph(hypergraph, Graph(total, edges), provenance,
                          [tuple(m) for m in slot_maps])


def edge_orientations(J):
    """Per-J-vertex block assignment for each incident edge: the DFS tail
    sees block 1, the head block 2.  Bounded in/out degrees guarantee no
    vertex ends up all-1 or all-2 and that an edge's two endpoints disagree."""
    directed = dfs_orientation(J)
    sigma = [{} for _ in range(J.n)]
    for idx, (u, v) in enumerate(J.sorted_edges()):
        tail, head = (u, v) if (u, v) in directed else (v, u)
        sigma[tail][idx] = 1
        sigma[head][idx] = 2
    return sigma


def stitch_slot_maps(J):
    """Slot maps sending each hyperedge's minority-block vertex to the last
    auxiliary slot, with the majority pair in ascending order first."""
    maps = []
    # hyperedge v collects the edges at J-vertex v, the keys of sigma[v],
    # whose blocks are never all equal, so one block holds a single edge
    for blocks in edge_orientations(J):
        minority = 1 if list(blocks.values()).count(1) == 1 else 2
        maps.append(tuple(sorted(sorted(blocks),
                                 key=lambda x: blocks[x] == minority)))
    return maps


def stitch_embedding(composite, J, library):
    """3/2-embedding of the composite into {0,1}^{2q}.

    Original vertex v takes the pair (w_v, complement(w_v)) of its personal
    codeword; each gadget copy is written in the oriented embedding matching
    its slots' block pattern, with role letters replaced by the owning
    vertices' codewords and fresh letters by copy-local codewords.  q is the
    least power of two covering the letter budget (vertex count plus fresh
    letters per copy).  `library` is `oriented_embedding_library`'s map
    from orientation to body pairs.
    """
    hypergraph = composite.source
    sigma = edge_orientations(J)
    # hyperedge v of J's incidence hypergraph is the edges at J-vertex v
    if hypergraph.hyperedges != tuple(tuple(sorted(blocks)) for blocks in sigma):
        raise ValueError("composite source must be the incidence hypergraph of J")
    n = hypergraph.n
    per_edge = []
    for e_idx in range(len(hypergraph.hyperedges)):
        slots = composite.slot_maps[e_idx]
        pattern = tuple(sigma[e_idx][v] for v in slots)
        if pattern not in ORIENTED_BODIES:
            raise ValueError(f"no oriented embedding for slot pattern "
                             f"{pattern}; rebuild the composite with "
                             "stitch_slot_maps")
        if pattern not in library:
            raise ValueError(f"the library has no embedding for orientation "
                             f"{pattern}: the gadget is not the designated "
                             "one, or a stored pair failed the check")
        per_edge.append(library[pattern])
    # every stored body numbers its fresh letters from ROLE_LETTERS up
    fresh = 1 + max(max(l1, l2) for body in ORIENTED_BODIES.values()
                    for l1, _, l2, _ in body) - ROLE_LETTERS
    total_letters = n + fresh * len(per_edge)
    q = next_power_of_two(max(2, total_letters))
    code = hadamard_code(q)

    def global_letter(e_idx, letter):
        if letter < ROLE_LETTERS:
            return composite.slot_maps[e_idx][letter]
        return n + fresh * e_idx + (letter - ROLE_LETTERS)

    image = [None] * composite.graph.n
    for v in range(n):
        image[v] = _pair_word(code, v, 1, v, -1)
    for e_idx, body in enumerate(per_edge):
        offset = composite.gadget_offset(e_idx)
        for h, (l1, s1, l2, s2) in enumerate(body):
            image[offset + h] = _pair_word(code, global_letter(e_idx, l1), s1,
                                           global_letter(e_idx, l2), s2)
    return Embedding(composite.graph, Pointset("hamming", image),
                     short=q, long=3 * q // 2)
