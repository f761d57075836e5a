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


def full_program(program):
    """The embeddability LP over every cut column, as `(rows, rhs,
    objective)`: column 0 is r, then one column per word of
    `program.words`."""
    def cut(w, a, b):
        return ((w >> a) ^ (w >> b)) & 1
    rows = [[1] + [-cut(w, a, b) for w in program.words]
            for a, b in program.edge_pairs]
    rows += [[0] + [cut(w, a, b) for w in program.words]
             for a, b in program.nonedge_pairs]
    rhs = [0] * len(program.edge_pairs) + [1] * len(program.nonedge_pairs)
    return rows, rhs, [1] + [0] * len(program.words)


def full_solve_lp(program):
    """`solve_lp` over every cut column at once, with no pricing."""
    stats = {}
    status, value, x = simplex_max(*full_program(program), stats=stats)
    if status == "unbounded":
        return lp.LPResult("unbounded", None, {})
    weights = {w: x[1 + i] for i, w in enumerate(program.words) if x[1 + i]}
    return lp.LPResult("optimal", value, weights, stats["dual"])


@pytest.mark.parametrize("graph, status", [
    (path_graph(7), "optimal"), (cycle_graph(7), "optimal"),
    (complete_bipartite_graph(4, 4), "unbounded")], ids=["P7", "C7", "K4,4"])
def test_simplex_matches_fraction_tableau_on_embeddability(graph, status):
    program = full_program(build_embeddability_lp(graph))
    stats = {}
    got = simplex_max(*program, stats=stats)
    expected, dual, pivots = fraction_simplex(*program)
    assert got == expected
    assert (stats.get("dual"), stats["pivots"]) == (dual, pivots)
    assert got[0] == status


def test_priced_columns_reach_the_full_solve():
    # random programs from the same generator with some columns held back:
    # a pricing callback feeds a random part of those that price in, and
    # the solve ends at the full program's status and value, with a dual
    # that prices out every column
    rng = random.Random(20261019)
    statuses = {"optimal": 0, "unbounded": 0}
    for _ in range(400):
        rows, rhs, objective = _random_program(rng)
        m, n = len(rows), len(objective)
        kept = sorted(rng.sample(range(n), rng.randint(0, n - 1)))
        held = [j for j in range(n) if j not in kept]
        order = list(kept)

        def price(dual, d):
            priced = [j for j in held
                      if sum(y * rows[i][j] for i, y in enumerate(dual))
                      < d * objective[j]]
            chosen = rng.sample(priced, rng.randint(min(1, len(priced)),
                                                    len(priced)))
            for j in chosen:
                held.remove(j)
            order.extend(chosen)
            return [(objective[j], [row[j] for row in rows]) for j in chosen]

        stats = {}
        status, value, x = simplex_max([[row[j] for j in kept] for row in rows],
                                       rhs, [objective[j] for j in kept],
                                       stats=stats, price=price)
        full_status, full_value, _ = simplex_max(rows, rhs, objective)
        assert (status, value) == (full_status, full_value), (rows, rhs, objective)
        assert stats["columns"] == len(order) - len(kept)
        statuses[status] += 1
        if status == "unbounded":
            continue
        point = [Fraction(0)] * n
        for j, v in zip(order, x):
            point[j] = v
        assert all(sum(a * v for a, v in zip(row, point)) <= b
                   for row, b in zip(rows, rhs))
        assert sum(c * v for c, v in zip(objective, point)) == value
        y = stats["dual"]
        assert min(y, default=0) >= 0
        assert sum(v * b for v, b in zip(y, rhs)) == value
        assert all(sum(y[i] * rows[i][j] for i in range(m)) >= objective[j]
                   for j in range(n))
    assert min(statuses.values()) >= 50


def test_price_that_does_not_price_in_is_refused():
    # a column whose reduced cost is not negative could be offered forever
    with pytest.raises(ValueError):
        simplex_max([[1]], [1], [1], price=lambda dual, d: [(0, [1])])


def _random_graph(rng):
    n = rng.randint(1, 8)
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < rng.choice((0.3, 0.5, 0.7))])


def _embeddability_graphs():
    rng = random.Random(20261020)
    yield from (path_graph(n) for n in range(2, 10))
    yield from (cycle_graph(n) for n in range(3, 10))
    yield from (complete_bipartite_graph(a, b)
                for a in range(1, 5) for b in range(a, 5))
    yield from (_random_graph(rng) for _ in range(150))


def test_column_generation_matches_the_full_solve(monkeypatch):
    for graph in _embeddability_graphs():
        got = max_embeddability(graph)
        with monkeypatch.context() as full:
            full.setattr(lp, "solve_lp", full_solve_lp)
            expected = max_embeddability(graph)
        key = ("unbounded", "ratio", "certified")
        assert [got[k] for k in key] == [expected[k] for k in key], graph.edges
        if got["ratio"] is not None:
            assert dual_certifies(build_embeddability_lp(graph), got["ratio"],
                                  got["dual"])
        if got["embedding"] is not None:
            report = verify_embedding(got["embedding"])
            assert report["ok"] and report["achieved_ratio"] == got["ratio"]


@pytest.mark.parametrize("n", [8, 9])
def test_cycle_master_holds_fewer_columns_than_cuts(n, monkeypatch):
    # the master prices cuts in one per round; a fall-back to the dense
    # program over every cut would hold them all
    solves = []

    def spied(rows, rhs, objective, stats=None, price=None):
        got = simplex_max(rows, rhs, objective, stats=stats, price=price)
        solves.append((got, dict(stats)))
        return got

    monkeypatch.setattr(lp, "simplex_max", spied)
    result = max_embeddability(cycle_graph(n))
    assert result["ratio"] == Fraction(5, 3) and result["certified"]
    [((status, _, x), stats)] = solves
    assert status == "optimal"
    assert len(x) - 1 == stats["columns"] < len(build_embeddability_lp(
        cycle_graph(n)).words)
    assert stats["rounds"] == stats["columns"] + 1


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
