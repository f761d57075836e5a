"""Maximum Hamming embeddability ratio via an exact rational LP.

A binary embedding of a graph is a multiset of cut words w in {0,1}^n; the
distance between vertices a, b is the total weight of words with w_a != w_b.
Maximizing the ratio r with non-edge distances normalized to 1 is the linear
program: maximize r subject to edge cut sums >= r, non-edge cut sums <= 1,
x_w >= 0, over the 2^(n-1) - 1 cuts.  Solved exactly by column generation
over the cut cone (Gilmore and Gomory): a restricted master holds r and the
cuts priced in so far, and its simplex, with Bland's rule, pivots
fraction-free over ints: the tableau is kept as int rows over one common
denominator, so no gcd is ever taken, and the pivots, the optimum and the
rational witness are those of the same tableau over Fractions.  Whenever
the master is optimal, every cut is priced against its dual and the most
negative one enters the live tableau; when none prices in, that dual is
feasible for the full program, which is the test `dual_certifies` makes in
ints against every cut word, so a certified ratio is proved optimal, not
only attained.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import index, mul

from kdiameter.geometry import BitVector, Pointset
from kdiameter.hadamard import Embedding, verify_embedding

# largest n whose cycle C_n certifies in under a minute on a 2-vCPU VM: by
# column generation C10 takes 0.3 s and C11 1.4 s, C14 29 s (7,091
# pivots, 159 cuts priced in), C15 111 s; over every cut column at once C10
# took 27 s and C11 did not finish in 150 s
MAX_VERTICES = 14


@dataclass
class EmbeddabilityLP:
    graph: object
    words: list        # canonical cut masks: bit0 = 0, not all-zero
    edge_pairs: list
    nonedge_pairs: list


@dataclass
class LPResult:
    status: str        # "optimal" | "unbounded"
    ratio: object      # Fraction when optimal
    weights: dict      # word mask -> positive Fraction
    dual: list | None = None   # one Fraction per LP row when optimal


def build_embeddability_lp(graph):
    """LP instance over canonical cut variables.

    A word and its complement induce the same cut, so only words with first
    bit 0 are kept; the all-zeros word cuts nothing and is dropped.
    """
    if graph.n > MAX_VERTICES:
        raise ValueError(f"vertex count {graph.n} exceeds the cap {MAX_VERTICES}")
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    words = [w for w in range(1, 1 << graph.n) if not (w & 1)]
    edge_pairs = graph.sorted_edges()
    nonedge_pairs = [(a, b) for a in range(graph.n) for b in range(a + 1, graph.n)
                     if not graph.has_edge(a, b)]
    return EmbeddabilityLP(graph, words, edge_pairs, nonedge_pairs)


def _cuts(word, a, b):
    return ((word >> a) ^ (word >> b)) & 1


def solve_lp(lp):
    """Exact simplex solve by column generation; maximize r.

    The restricted master starts from the column of r alone.  Whenever its
    tableau is optimal, `_price` prices every canonical cut against the
    dual and hands `simplex_max` the cut of most negative reduced cost,
    which enters the live tableau; once no cut prices in, the master's
    optimum is the full program's.  Always feasible (x = 0, r = 0).
    Unbounded exactly when the edge constraints can be scaled freely, e.g.
    graphs with no non-edges or no edges at all.  An optimal result
    carries the simplex's dual solution.
    """
    # columns: 0 = r, then one per word in `master`; rows: edges
    # (r - cut sum <= 0), then non-edges (cut sum <= 1)
    master = []

    def price(dual, d):
        word = _price(lp, dual)
        if word is None:
            return []
        master.append(word)
        return [(0, [-_cuts(word, a, b) for a, b in lp.edge_pairs]
                 + [_cuts(word, a, b) for a, b in lp.nonedge_pairs])]

    rows = [[1] for _ in lp.edge_pairs] + [[0] for _ in lp.nonedge_pairs]
    rhs = [0] * len(lp.edge_pairs) + [1] * len(lp.nonedge_pairs)
    stats = {}
    status, value, solution = simplex_max(rows, rhs, [1], stats=stats, price=price)
    if status == "unbounded":
        return LPResult("unbounded", None, {})
    weights = {w: solution[1 + i] for i, w in enumerate(master) if solution[1 + i]}
    return LPResult("optimal", value, weights, stats["dual"])


def _price(lp, dual):
    """The canonical cut word of most negative reduced cost against `dual`
    (the smallest such word on ties), or None when no cut prices in.

    `dual` is the objective row's slack block, D * y with D > 0, so the
    reduced cost of word w, scaled by D, is its non-edge multipliers over
    the pairs w cuts minus its edge multipliers over them.  Every cut is
    priced, as `dual_certifies` checks them: `cost[i]` is the cost of word
    2i, built one vertex at a time (vertex 0 on side 0; placing v on side
    1 cuts its pairs to the side-0 vertices before it, on side 0 those to
    the side-1 ones).
    """
    n = lp.graph.n
    weight = [[0] * n for _ in range(n)]
    edges = len(lp.edge_pairs)
    for i, ((a, b), y) in enumerate(zip(lp.edge_pairs + lp.nonedge_pairs, dual)):
        weight[a][b] = weight[b][a] = -y if i < edges else y
    cost = [0]
    for v in range(1, n):
        wv = weight[v]
        side1 = [0]   # weight from v to the side-1 vertices among 1..v-1
        for u in range(1, v):
            side1 += [x + wv[u] for x in side1]
        total = sum(wv[:v])
        cost = ([c + s for c, s in zip(cost, side1)]
                + [c + total - s for c, s in zip(cost, side1)])
    best = min(range(len(cost)), key=cost.__getitem__)
    return 2 * best if cost[best] < 0 else None


def simplex_max(rows, rhs, objective, stats=None, price=None):
    """Maximize objective . x subject to rows . x <= rhs, x >= 0, rhs >= 0.

    Dense tableau simplex with Bland's anti-cycling rule, pivoting
    fraction-free over ints (Edmonds; Bareiss): the tableau is T / D with
    one common denominator D, starting at 1.  A pivot on p = T[r][s] keeps
    row r, replaces every other row i (the objective too) by
    (T[i] * p - T[i][s] * T[r]) // D, an exact division, and sets D = p.
    Since D > 0, the entering column (the first negative objective entry)
    and the ratio test, compared by cross-multiplication with ties broken
    toward the smaller basic index, are those of the same tableau over
    Fractions, so the pivots and the returned x are too.  Every entry
    must be an int: a Fraction raises TypeError.

    `price`, when given, generates columns: whenever no objective entry is
    negative it is called with the objective row's slack block (D * y, y
    the current dual) and D, and returns (cost, column) pairs of int
    entries, each of which must price in (y . column < cost).  Each is
    inserted into the live tableau after the columns before it and ahead
    of the slacks: its rows are the slack block times the column (D B^-1 a)
    and its objective entry the slack-block dual times the column minus
    D * cost.  Bland's rule then goes on over that fixed variable order,
    so each round ends, and a column in the tableau never prices in again.
    The solve is optimal when `price` returns no column.  Without `price`
    this is the plain simplex, pivot for pivot.

    Returns ("optimal", value, x) with Fraction entries, one per column
    (given columns first, then priced ones in the order given), or
    ("unbounded", None, None).  `stats`, when given, is a dict whose
    "pivots", "columns" (columns priced in) and "rounds" (calls to
    `price`) entries accumulate; an optimal solve sets its "dual" entry to
    the optimal dual solution y (one Fraction per row, read from the final
    objective row's slack columns), with y >= 0, y . rows >= objective
    column by column, and y . rhs = value.
    """
    m = len(rows)
    n = len(objective)
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be nonnegative (slack basis start)")
    tab = []
    for i in range(m):
        row = [index(a) for a in rows[i]] + [0] * m + [index(rhs[i])]
        row[n + i] = 1
        tab.append(row)
    obj = [-index(c) for c in objective] + [0] * (m + 1)
    basis = [n + i for i in range(m)]
    d = 1
    pivots = columns = rounds = 0

    while True:
        width = n + m
        enter = -1
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter == -1:
            if price is None:
                break
            rounds += 1
            new = list(price(obj[n:width], d))
            if not new:
                break
            _insert_columns(tab, obj, n, m, d, new)
            basis = [bv + len(new) if bv >= n else bv for bv in basis]
            n += len(new)
            columns += len(new)
            continue
        leave, best_b, best_a = -1, 0, 1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][width]
                left, right = b * best_a, best_b * a
                if leave == -1 or left < right or (left == right
                                                   and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave == -1:
            break
        prow = tab[leave]
        p = prow[enter]
        for i in range(m):
            if i != leave:
                tab[i] = _pivot_row(tab[i], prow, p, d, enter)
        obj = _pivot_row(obj, prow, p, d, enter)
        basis[leave] = enter
        d = p
        pivots += 1

    if stats is not None:
        stats["pivots"] = stats.get("pivots", 0) + pivots
        stats["columns"] = stats.get("columns", 0) + columns
        stats["rounds"] = stats.get("rounds", 0) + rounds
    if enter != -1:  # no row bounds the entering column
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(tab[i][width], d)
    if stats is not None:
        stats["dual"] = [Fraction(obj[n + i], d) for i in range(m)]
    return "optimal", Fraction(obj[width], d), x


def _insert_columns(tab, obj, n, m, d, new):
    """Insert the (cost, column) pairs `new` into the tableau at column n,
    ahead of the slack block: row entries D B^-1 a are the row's slack
    block times the column, objective entries D (y . a - cost)."""
    columns = [[index(a) for a in column] for _, column in new]
    dual = obj[n:n + m]
    costs = [sum(map(mul, dual, a)) - d * index(cost)
             for (cost, _), a in zip(new, columns)]
    if any(c >= 0 for c in costs):
        raise ValueError("a priced column does not price in")
    for row in tab:
        row[n:n] = [sum(map(mul, row[n:n + m], a)) for a in columns]
    obj[n:n] = costs


def _pivot_row(row, prow, p, d, enter):
    """Row of the integer tableau after pivoting on prow[enter] = p."""
    f = row[enter]
    if f == 0:
        if p == d:
            return row
        return [a * p // d for a in row]
    return [(a * p - f * b) // d for a, b in zip(row, prow)]


def dual_certifies(lp, ratio, dual):
    """True when `dual` proves that no embedding beats `ratio`.

    `dual` holds one multiplier per LP row, edge rows first.  It is dual
    feasible when every multiplier is >= 0, the edge multipliers sum to at
    least 1 (the column of r) and, for every cut word, the non-edge
    multipliers over the pairs it cuts sum to at least the edge
    multipliers over the pairs it cuts (the word's column).  The non-edge
    multipliers then sum to an upper bound on every feasible r (weak
    duality), so equality with `ratio` makes `ratio` optimal.  Checked in
    ints, with every value scaled by one common denominator.
    """
    if dual is None or len(dual) != len(lp.edge_pairs) + len(lp.nonedge_pairs):
        return False
    scale = lcm(ratio.denominator, *(v.denominator for v in dual))
    y = [v.numerator * (scale // v.denominator) for v in dual]
    if any(v < 0 for v in y):
        return False
    edge_y = list(zip(lp.edge_pairs, y))
    nonedge_y = list(zip(lp.nonedge_pairs, y[len(lp.edge_pairs):]))
    if sum(v for _, v in edge_y) < scale:
        return False
    for w in lp.words:
        if (sum(v for (a, b), v in nonedge_y if _cuts(w, a, b))
                < sum(v for (a, b), v in edge_y if _cuts(w, a, b))):
            return False
    return (sum(v for _, v in nonedge_y)
            == ratio.numerator * (scale // ratio.denominator))


def extract_integer_embedding(graph, result):
    """Materialize the LP witness as a binary embedding.

    Weights are scaled by the LCM of their denominators; each word becomes
    that many coordinate columns, and vertex v reads its bits across all
    columns.  Distances are then the scaled cut sums, so the embedding
    verifies at the LP ratio with short = scale and long = ratio * scale.
    """
    if result.status != "optimal":
        raise ValueError("no bounded witness to extract")
    if not result.weights or result.ratio <= 0:
        raise ValueError("degenerate all-zero witness; nothing to embed")
    scale = lcm(*(w.denominator for w in result.weights.values()))
    columns = []
    for word in sorted(result.weights):
        count = result.weights[word] * scale
        columns.extend([word] * int(count))
    image = []
    for v in range(graph.n):
        image.append(BitVector.from_bits([(w >> v) & 1 for w in columns]))
    return Embedding(graph, Pointset("hamming", image),
                     short=scale, long=result.ratio * scale)


def max_embeddability(graph):
    """Largest r for which the graph embeds into binary Hamming space.

    Returns {"unbounded": bool, "ratio": Fraction | None,
             "certified": bool, "embedding": Embedding | None,
             "dual": list | None}.
    A bounded ratio is certified when the LP dual proves it optimal
    (`dual_certifies`) and the extracted embedding verifies at it.
    """
    lp = build_embeddability_lp(graph)
    result = solve_lp(lp)
    if result.status == "unbounded":
        return {"unbounded": True, "ratio": None, "certified": True,
                "embedding": None, "dual": None}
    optimal = dual_certifies(lp, result.ratio, result.dual)
    if not result.weights or result.ratio <= 0:
        return {"unbounded": False, "ratio": result.ratio, "certified": optimal,
                "embedding": None, "dual": result.dual}
    embedding = extract_integer_embedding(graph, result)
    report = verify_embedding(embedding)
    certified = (optimal and report["ok"]
                 and report["achieved_ratio"] == result.ratio)
    return {"unbounded": False, "ratio": result.ratio, "certified": certified,
            "embedding": embedding, "dual": result.dual}
