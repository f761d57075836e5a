import random
from fractions import Fraction

import pytest

from kdiameter import lp
from kdiameter.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from kdiameter.hadamard import verify_embedding
from kdiameter.lp import (
    MAX_VERTICES,
    build_embeddability_lp,
    dual_certifies,
    max_embeddability,
    simplex_max,
)


def fraction_simplex(rows, rhs, objective):
    """Reference: the dense Fraction tableau with Bland's rule that
    `simplex_max` pivots fraction-free.  Returns its (status, value, x),
    at an optimum the dual read off the objective row, and the pivot
    count."""
    m, n = len(rows), len(objective)
    tab = [[Fraction(a) for a in rows[i]]
           + [Fraction(int(i == j)) for j in range(m)] + [Fraction(rhs[i])]
           for i in range(m)]
    obj = [-Fraction(c) for c in objective] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    width = n + m
    pivots = 0
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), -1)
        if enter == -1:
            break
        leave, best = -1, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][width] / a
                if best is None or ratio < best or (ratio == best
                                                   and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave == -1:
            return ("unbounded", None, None), None, pivots
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter
        pivots += 1
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][width]
    return ("optimal", obj[width], x), obj[n:width], pivots


def _random_program(rng):
    def coefficient():
        if rng.random() < 0.4:
            return 0
        return rng.randint(-5, 7)

    m, n = rng.randint(2, 6), rng.randint(2, 8)
    rows = [[coefficient() for _ in range(n)] for _ in range(m)]
    rhs = [0 if rng.random() < 0.35 else rng.randint(1, 9) for _ in range(m)]
    objective = [coefficient() for _ in range(n)]
    return rows, rhs, objective


def test_simplex_matches_fraction_tableau_on_random_programs():
    rng = random.Random(20231204)
    statuses = {"optimal": 0, "unbounded": 0}
    for _ in range(400):
        rows, rhs, objective = _random_program(rng)
        stats = {}
        got = simplex_max(rows, rhs, objective, stats=stats)
        expected, dual, pivots = fraction_simplex(rows, rhs, objective)
        assert got == expected, (rows, rhs, objective)
        assert (stats.get("dual"), stats["pivots"]) == (dual, pivots)
        statuses[got[0]] += 1
    assert min(statuses.values()) >= 50


@pytest.mark.parametrize("graph, status", [
    (path_graph(7), "optimal"), (cycle_graph(7), "optimal"),
    (complete_bipartite_graph(4, 4), "unbounded")], ids=["P7", "C7", "K4,4"])
def test_simplex_matches_fraction_tableau_on_embeddability(graph, status,
                                                           monkeypatch):
    solved = []

    def compared(rows, rhs, objective, stats=None):
        got = simplex_max(rows, rhs, objective, stats=stats)
        expected, dual, pivots = fraction_simplex(rows, rhs, objective)
        assert got == expected
        assert (stats.get("dual"), stats["pivots"]) == (dual, pivots)
        solved.append(got[0])
        return got

    monkeypatch.setattr(lp, "simplex_max", compared)
    max_embeddability(graph)
    assert solved == [status]


@pytest.mark.parametrize("graph", [path_graph(7), cycle_graph(5),
                                   cycle_graph(8)], ids=["P7", "C5", "C8"])
def test_dual_certifies_optimality(graph):
    result = max_embeddability(graph)
    program = build_embeddability_lp(graph)
    dual, ratio = result["dual"], result["ratio"]
    assert result["certified"] and dual_certifies(program, ratio, dual)
    assert not dual_certifies(program, ratio + Fraction(1, 97), dual)
    for i in range(len(dual)):
        lowered = list(dual)
        lowered[i] -= Fraction(1, 97)
        assert not dual_certifies(program, ratio, lowered)


def test_simplex_on_known_program():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4, x,y >= 0 -> 4
    rows = [[1, 0], [0, 1], [1, 1]]
    status, value, point = simplex_max(rows, [2, 3, 4], [1, 1])
    assert status == "optimal" and value == 4
    assert sum(point) == 4
    assert point[0] <= 2 and point[1] <= 3


def test_simplex_unbounded():
    status, value, point = simplex_max([[1, -1]], [1], [0, 1])
    assert status == "unbounded"
    assert value is None and point is None


@pytest.mark.parametrize("rows, rhs, objective", [
    ([[Fraction(1, 2)]], [1], [1]), ([[1]], [Fraction(3, 2)], [1]),
    ([[1]], [1], [Fraction(1, 3)])], ids=["row", "rhs", "objective"])
def test_simplex_refuses_fractions(rows, rhs, objective):
    # the tableau is pivoted in ints: a Fraction entry is refused, not
    # floor-divided into a wrong program
    with pytest.raises(TypeError):
        simplex_max(rows, rhs, objective)


def test_lp_size_guard():
    with pytest.raises(ValueError):
        build_embeddability_lp(path_graph(MAX_VERTICES + 1))


def test_path7_max_ratio_five_thirds():
    result = max_embeddability(path_graph(7))
    assert not result["unbounded"]
    assert result["ratio"] == Fraction(5, 3)
    assert result["certified"]
    emb = result["embedding"]
    assert verify_embedding(emb)["ok"]
    assert Fraction(emb.long, emb.short) == Fraction(5, 3)


def test_cycle5_max_ratio_two():
    result = max_embeddability(cycle_graph(5))
    assert not result["unbounded"]
    assert result["ratio"] == Fraction(2)
    assert result["certified"]
    assert verify_embedding(result["embedding"])["ok"]


def test_bipartite_cycle_unbounded():
    # C4 admits cut metrics separating both non-edges at zero distance,
    # so the edge/non-edge ratio is unbounded
    result = max_embeddability(cycle_graph(4))
    assert result["unbounded"]
    assert result["ratio"] is None


def test_complete_graph_unbounded():
    # no non-edges at all: nothing constrains the ratio
    result = max_embeddability(complete_graph(4))
    assert result["unbounded"]


def test_single_vertex_unbounded():
    # one vertex: no cut variables and no pairs at all
    assert build_embeddability_lp(Graph(1)).words == []
    result = max_embeddability(Graph(1))
    assert result["unbounded"] and result["certified"]
    assert result["ratio"] is None
