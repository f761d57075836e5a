import importlib.util
import random
import shutil
import subprocess
import sysconfig
from fractions import Fraction
from hashlib import sha256
from itertools import permutations, product
from pathlib import Path

import pytest

from kdiameter import _colorcore_py
from kdiameter._colorcore_py import MODE_FIRST, STATUS_BUDGET, STATUS_OK
from kdiameter.acceptance import random_graph
from kdiameter.clustering import distinct_distances, exact_cluster
from kdiameter.coloring import (
    BudgetExceeded,
    EnumerationGuard,
    count_colorings_total,
    enumerate_colorings,
    find_coloring,
    forall_colorings,
)
from kdiameter.edgecolor import edge_coloring
from kdiameter.gadgets import (
    build_composite,
    build_gadget_H,
    oriented_embedding_library,
    stitch_embedding,
    stitch_slot_maps,
    verify_gadget,
)
from kdiameter.geometry import Pointset
from kdiameter.graphs import (
    Graph,
    Hypergraph,
    chvatal_graph,
    complete_graph,
    cycle_graph,
    incidence_hypergraph,
    petersen_graph,
)
from kdiameter.sphere import (
    SEPARATION_THRESHOLD,
    build_region_instance,
    separation_answer,
    verify_anchor_separation,
)


def is_proper(graph, coloring, k):
    return (all(0 <= c < k for c in coloring)
            and all(coloring[u] != coloring[v] for u, v in graph.edges))


def brute_count(graph, k):
    return sum(1 for assignment in product(range(k), repeat=graph.n)
               if is_proper(graph, assignment, k))


def expand_coloring(coloring, k):
    """All concrete colorings equivalent to a canonical one under color renaming."""
    used = sorted(set(coloring))
    out = []
    for target in permutations(range(k), len(used)):
        relabel = dict(zip(used, target))
        out.append([relabel[c] for c in coloring])
    return out


def rainbow_on(coloring, support):
    return len({coloring[v] for v in support}) == len(support)


def forall_by_enumeration(adj, k, support):
    """Reference forall: every concrete proper coloring checked on `support`."""
    for canonical in enumerate_colorings(adj, k):
        for coloring in expand_coloring(canonical, k):
            if not rainbow_on(coloring, support):
                return coloring
    return None


def forall_by_products(adj, k, support, stats):
    """Reference forall on a support: every one of the k^m support
    assignments that repeats a color is tested for extendability through
    its first-use color pattern, searched once and cached, and the
    counterexample is renamed to realize the assignment itself."""
    cache = {}
    for assignment in product(range(k), repeat=len(support)):
        if rainbow_on(dict(zip(support, assignment)), support):
            continue
        first_use = {}
        for c in assignment:
            first_use.setdefault(c, len(first_use))
        pattern = tuple(first_use[c] for c in assignment)
        if pattern not in cache:
            fixed = [-1] * len(adj)
            for v, c in zip(support, pattern):
                fixed[v] = c
            cache[pattern] = find_coloring(adj, k, fixed=fixed, stats=stats)
        if cache[pattern] is not None:
            relabel = dict(zip(pattern, assignment))
            remaining = [c for c in range(k) if c not in relabel.values()]
            for c in range(k):
                if c not in relabel:
                    relabel[c] = remaining.pop()
            return [relabel[c] for c in cache[pattern]]
    return None


def test_chromatic_facts():
    for graph, k, colorable in ((cycle_graph(5), 2, False),
                                (cycle_graph(5), 3, True),
                                (cycle_graph(6), 2, True),
                                (complete_graph(4), 3, False),
                                (petersen_graph(), 3, True),
                                (chvatal_graph(), 3, False),
                                (chvatal_graph(), 4, True)):
        coloring = find_coloring(graph.adjacency_bitsets(), k)
        if colorable:
            assert is_proper(graph, coloring, k)
        else:
            assert coloring is None


def test_fixed_colors_respected():
    g = cycle_graph(4)
    fixed = [2, -1, -1, -1]
    coloring = find_coloring(g.adjacency_bitsets(), 3, fixed=fixed)
    assert coloring[0] == 2 and is_proper(g, coloring, 3)
    # adjacent vertices pinned to the same color: infeasible
    assert find_coloring(g.adjacency_bitsets(), 3, fixed=[0, 0, -1, -1]) is None


def test_count_against_brute_force():
    rng = random.Random(4)
    for _ in range(30):
        g = random_graph(rng.randint(1, 6), rng.random(), rng)
        for k in (2, 3):
            assert (count_colorings_total(g.adjacency_bitsets(), k)
                    == brute_count(g, k))


def test_enumerate_canonical_and_expand():
    g = cycle_graph(5)
    canonical = enumerate_colorings(g.adjacency_bitsets(), 3)
    for coloring in canonical:
        assert is_proper(g, coloring, 3)
        # first-use order: color c appears only after colors < c
        seen = []
        for c in coloring:
            if c not in seen:
                assert c == len(seen)
                seen.append(c)
    concrete = {tuple(x) for can in canonical for x in expand_coloring(can, 3)}
    assert len(concrete) == brute_count(g, 3)
    assert all(is_proper(g, x, 3) for x in concrete)


def test_enumeration_guard():
    with pytest.raises(EnumerationGuard):
        enumerate_colorings(
            random_graph(40, 0.1, random.Random(0)).adjacency_bitsets(), 4)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        find_coloring(chvatal_graph().adjacency_bitsets(), 4, budget=3)


# every library call that runs a coloring search, given the kappa = 2 region,
# its threshold graph at t = 1 and a budget
SEARCHES = {
    "find_coloring": lambda r, adj, b: find_coloring(adj, 3, budget=b),
    "forall_colorings": lambda r, adj, b: forall_colorings(
        adj, 3, list(r.anchor_index.values()), budget=b),
    "enumerate_colorings": lambda r, adj, b: enumerate_colorings(adj, 3,
                                                                 budget=b),
    "exact_cluster": lambda r, adj, b: exact_cluster(r.pointset(), 3, budget=b),
    "edge_coloring": lambda r, adj, b: edge_coloring(petersen_graph(), 3,
                                                     budget=b),
    "build_gadget_H": lambda r, adj, b: build_gadget_H(budget=b),
    "verify_gadget": lambda r, adj, b: verify_gadget(build_gadget_H(), budget=b),
    "separation_answer": lambda r, adj, b: separation_answer(r, budget=b),
    "verify_anchor_separation": lambda r, adj, b: verify_anchor_separation(
        r, budget=b),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_every_search_reports_exhaustion_by_raising(name):
    """An exhausted budget is only ever `BudgetExceeded`, never a returned
    verdict, and it counts the node that broke the budget."""
    region = build_region_instance((0, 1, 2), 2)
    table = distinct_distances(region.pointset())
    adj = table.bitsets_at(table.rank_above(1))
    with pytest.raises(BudgetExceeded) as exhausted:
        SEARCHES[name](region, adj, 0)
    assert exhausted.value.nodes >= 1


def test_stats_accumulate_nodes():
    stats = {}
    find_coloring(petersen_graph().adjacency_bitsets(), 3, stats=stats)
    assert stats["nodes"] > 0


def test_forall_with_and_without_support_agree():
    rng = random.Random(6)
    for _ in range(20):
        g = random_graph(rng.randint(3, 7), 0.4, rng)
        adj = g.adjacency_bitsets()
        support = rng.sample(range(g.n), min(3, g.n))
        plain = forall_by_enumeration(adj, 3, support)
        witness = forall_colorings(adj, 3, support)
        assert (plain is None) == (witness is None)
        if witness is not None:
            assert is_proper(g, witness, 3) and not rainbow_on(witness, support)


def test_forall_tries_each_failing_pattern_once():
    # the first-use patterns in lexicographic order are where the k^m
    # products first reach each partition, so the searches, their node
    # counts and the witnesses are the product loop's
    def agree(adj, k, support):
        stats, reference_stats = {}, {}
        got = forall_colorings(adj, k, support, stats=stats)
        want = forall_by_products(adj, k, support, reference_stats)
        assert got == want
        assert stats.get("nodes", 0) == reference_stats.get("nodes", 0)
        return got

    rng = random.Random(20)
    verdicts = set()
    for _ in range(200):
        g = random_graph(rng.randint(4, 12), rng.random(), rng)
        for k in (2, 3, 4):
            for m in (1, 2, 3, 4):
                # m > k leaves no rainbow pattern: every one is searched
                support = rng.sample(range(g.n), m)
                witness = agree(g.adjacency_bitsets(), k, support)
                if witness is not None:
                    assert is_proper(g, witness, k)
                    assert not rainbow_on(witness, support)
                verdicts.add((m > k, witness is None))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}
    for kappa in range(1, 9):
        region = build_region_instance((0, 1, 2), kappa)
        table = distinct_distances(region.pointset())
        anchors = list(region.anchor_index.values())
        for t in (1, Fraction(5, 4), SEPARATION_THRESHOLD, Fraction(3, 2)):
            adj = table.bitsets_at(table.rank_above(t ** 2))
            agree(adj, 3, anchors)


def test_forall_vacuous_on_uncolorable():
    # every pattern of four vertices in three colors repeats one, and none
    # extends to a proper coloring of K4
    assert forall_colorings(complete_graph(4).adjacency_bitsets(), 3,
                            [0, 1, 2, 3]) is None


def test_exhausted_forall_counts_every_pattern():
    """On the kappa = 12 region at the paper's t, the first anchor pattern
    searches 62 nodes and the second breaks a budget of 100 at its 101st:
    the check raises with both."""
    region = build_region_instance((0, 1, 2), 12)
    table = distinct_distances(region.pointset())
    adj = table.bitsets_at(table.rank_above(SEPARATION_THRESHOLD ** 2))
    anchors = [region.anchor_index[axis] for axis in (0, 1, 2)]
    with pytest.raises(BudgetExceeded) as exhausted:
        forall_colorings(adj, 3, anchors, budget=100)
    assert exhausted.value.nodes == 62 + 101


def test_rainbow_modes():
    # a rainbow coloring is a proper coloring of the constraint graph
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    g = h.constraint_graph()
    coloring = find_coloring(g.adjacency_bitsets(), 3)
    for e in h.hyperedges:
        assert len({coloring[v] for v in e}) == 3
    everything = enumerate_colorings(g.adjacency_bitsets(), 3)
    assert everything and all(len({c[v] for v in e}) == 3
                              for c in everything for e in h.hyperedges)
    # colors of 0 and 3 can coincide across hyperedges
    assert forall_colorings(g.adjacency_bitsets(), 3, [0, 3]) is not None
    assert forall_colorings(g.adjacency_bitsets(), 3, [0, 1, 2]) is None


def test_search_depth_is_not_limited_by_recursion():
    g = cycle_graph(3001)
    assert is_proper(g, find_coloring(g.adjacency_bitsets(), 3), 3)
    assert find_coloring(cycle_graph(1201).adjacency_bitsets(), 2) is None


def _digest(payload):
    return None if payload is None else sha256(repr(payload).encode()).hexdigest()[:16]


def _half_graph(n):
    """i ~ j when i + j >= n: the n vertices have n - 1 distinct degrees, one
    tier each in the kernel's pick."""
    return [sum(1 << j for j in range(n) if j != i and i + j >= n) for i in range(n)]


def test_python_kernel_node_counts_are_pinned():
    # (status, nodes, digest of the payload) of the pure-Python kernel, so a
    # change to its pick or its bookkeeping shows without a C compiler
    gadget = build_gadget_H()
    library = oriented_embedding_library(gadget)
    dodecahedron = [10, 7, 4, -4, -7, 10, -4, 7, -7, 4]
    composites = {
        "petersen": petersen_graph(),
        "dodecahedron": Graph(20, [(i, (i + 1) % 20) for i in range(20)]
                              + [(i, (i + dodecahedron[i % 10]) % 20) for i in range(20)]),
    }
    cases = []
    # exact_cluster(k=3)'s first probe: the pairs above Gonzalez's bound, rank 2
    for name, want in (("petersen", (0, 4562, None)),
                       ("dodecahedron", (0, 4535, "52d9521bf9af9c30"))):
        J = composites[name]
        composite = build_composite(incidence_hypergraph(J), gadget,
                                    slot_maps=stitch_slot_maps(J))
        image = stitch_embedding(composite, J, library=library).image
        table = distinct_distances(Pointset("hamming", image))
        cases.append((table.bitsets_at(3), 3, {}, want))
    # the kappa = 12 region at the paper's t: the free search and each anchor
    # pattern forall_colorings refutes.  On this symmetric region separation
    # searches only (0,0,0) and (0,0,1); the (0,1,0) and (0,1,1) pins record
    # that the patterns it skips are refuted too
    region = build_region_instance((0, 1, 2), 12)
    table = distinct_distances(region.pointset())
    adj = table.bitsets_at(table.rank_above(SEPARATION_THRESHOLD ** 2))
    cases.append((adj, 3, {}, (0, 270, "d4af551a995254bc")))
    anchors = [region.anchor_index[axis] for axis in (0, 1, 2)]
    for pattern, nodes in (((0, 0, 0), 62), ((0, 0, 1), 277),
                           ((0, 1, 0), 187), ((0, 1, 1), 248)):
        fixed = [-1] * table.n
        for v, c in zip(anchors, pattern):
            fixed[v] = c
        cases.append((adj, 3, {"fixed": fixed}, (0, nodes, None)))
    fixed = [0, 0, 1] + [-1] * 37
    enumerate_mode = _colorcore_py.MODE_ENUMERATE
    cases += [
        (_half_graph(40), 19, {}, (0, 19, None)),
        (_half_graph(40), 20, {}, (0, 40, "e4d034d94769a796")),
        (_half_graph(40), 21, {"fixed": fixed}, (0, 37, "e5d28dbbbde4be91")),
        (_half_graph(10), 6, {"mode": enumerate_mode}, (0, 877, "21baf53359861899")),
        (_half_graph(12), 7, {"mode": enumerate_mode, "budget": 5000},
         (1, 5001, "e8bb08a1f3b0e4a5")),
        (cycle_graph(3001).adjacency_bitsets(), 3, {}, (0, 3001, "9d687fd9b6a1b97d")),
    ]
    for adj, k, kwargs, want in cases:
        status, payload, nodes = _colorcore_py.search(adj, k, **kwargs)
        assert (status, nodes, _digest(payload)) == want


def _frame_array_search(adj, k, fixed=None, mode=MODE_FIRST, budget=10**9):
    """The pure-Python kernel as it was before its pick step colored the
    vertex it picks: seven parallel frame arrays, a frame pushed for every
    picked vertex (a dead end of saturation k included, popped without a
    node) and re-read before its first color.  Valid input only."""
    n = len(adj)
    empty = None if mode == MODE_FIRST else []
    colors = [-1] * n
    seen = [0] * k
    classes = [0] * k
    symmetry = True
    if fixed is not None:
        for v, c in enumerate(fixed):
            if c is None or c < 0:
                continue
            if c >= k:
                return STATUS_OK, empty, 0
            symmetry = False
            colors[v] = c
            seen[c] |= adj[v]
            classes[c] |= 1 << v
    # a fixed vertex next to one of its own color: nothing to search
    if any(seen[c] & classes[c] for c in range(k)):
        return STATUS_OK, empty, 0

    by_degree = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    tiers = [by_degree[d] for d in sorted(by_degree, reverse=True)]

    free = (1 << n) - 1 - sum(classes)
    buckets = [free] + [0] * k
    for c in range(k):
        for s in reversed(range(c + 1)):
            m = buckets[s] & seen[c]
            buckets[s] ^= m
            buckets[s + 1] |= m

    full = (1 << k) - 1
    used = max(colors, default=-1) + 1
    depth, nfree = 0, free.bit_count()
    # one frame per colored free vertex: the vertex, its bucket, the colors
    # left to try, its color (-1 before the first), the vertices its color
    # moved up a bucket, the `seen` it replaced, and `used` before it
    f_vertex, f_level, f_avail, f_color, f_moved, f_seen, f_used = (
        [0] * nfree for _ in range(7))
    nodes = 0
    found = []
    while True:
        if depth == nfree:
            found.append(list(colors))
            if mode == MODE_FIRST:
                break
        else:
            s = k
            while not buckets[s]:
                s -= 1
            top = buckets[s]
            for t in tiers:
                m = top & t
                if m:
                    break
            bit = m & -m
            avail = full
            if s:
                for c in range(k):
                    if seen[c] & bit:
                        avail ^= 1 << c
            if symmetry:
                avail &= (1 << min(k, used + 1)) - 1
            buckets[s] ^= bit
            free ^= bit
            f_vertex[depth] = bit.bit_length() - 1
            f_level[depth], f_avail[depth] = s, avail
            f_color[depth], f_used[depth] = -1, used
            depth += 1
        while depth:
            d = depth - 1
            c = f_color[d]
            if c >= 0:
                seen[c] = f_seen[d]
                moved, s = f_moved[d], 1
                while moved:
                    m = buckets[s] & moved
                    if m:
                        buckets[s] ^= m
                        buckets[s - 1] |= m
                        moved ^= m
                    s += 1
            avail = f_avail[d]
            if not avail:
                bit = 1 << f_vertex[d]
                buckets[f_level[d]] |= bit
                free |= bit
                depth = d
                continue
            low = avail & -avail
            c = low.bit_length() - 1
            f_avail[d] = avail ^ low
            nodes += 1
            if nodes > budget:
                return STATUS_BUDGET, None if mode == MODE_FIRST else found, nodes
            v = f_vertex[d]
            f_color[d] = c
            colors[v] = c
            nb = adj[v]
            old = seen[c]
            f_seen[d] = old
            seen[c] = old | nb
            moved = nb & free & ~old
            f_moved[d], s = moved, k - 1
            while moved:
                m = buckets[s] & moved
                if m:
                    buckets[s] ^= m
                    buckets[s + 1] |= m
                    moved ^= m
                s -= 1
            used = f_used[d] if c < f_used[d] else c + 1
            break
        else:
            break

    if mode == MODE_FIRST:
        return STATUS_OK, (found[0] if found else None), nodes
    return STATUS_OK, found, nodes


def test_python_kernel_matches_the_frame_array_search():
    # equal (status, payload, nodes) on seeded random graphs, dense ones
    # full of dead ends included, in both modes, free and with fixed
    # colors, under budgets that stop the search early or not at all
    rng = random.Random(89)
    outcomes = set()
    for _ in range(3000):
        g = random_graph(rng.randint(0, 30), rng.random(), rng)
        adj = g.adjacency_bitsets()
        k = rng.randint(0, 5)
        fixed = [rng.choice([-1] * 8 + [None, k] + list(range(k)))
                 for _ in range(g.n)]
        for kwargs in ({}, {"fixed": fixed},
                       {"mode": _colorcore_py.MODE_ENUMERATE},
                       {"mode": _colorcore_py.MODE_ENUMERATE, "fixed": fixed}):
            kwargs["budget"] = rng.choice((rng.randint(0, 30), 300))
            got = _colorcore_py.search(adj, k, **kwargs)
            assert got == _frame_array_search(adj, k, **kwargs), (adj, k, kwargs)
            outcomes.add((got[0], "mode" in kwargs, bool(got[1])))
    # every status, mode and empty or non-empty answer: a first-mode search
    # stopped by its budget answers None
    assert outcomes == set(product((0, 1), (False, True), (False, True))) - {
        (1, False, True)}


def test_python_kernel_refuses_bits_outside_the_graph():
    for n in (1, 7, 8, 9, 17):
        for row in (1 << n, 1 << (n + 20), -1):
            with pytest.raises(ValueError, match="adjacency row 0 is not a bitset"):
                _colorcore_py.search([row] + [0] * (n - 1), 3)
    with pytest.raises(ValueError, match="k must be non-negative"):
        _colorcore_py.search([0, 0], -1)


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """`_colorcore.c` built with the system C compiler into a temporary
    directory, so the package's own backend stays as it is."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    include = Path(sysconfig.get_paths()["include"])
    if compiler is None or not (include / "Python.h").exists():
        pytest.skip("no C compiler or Python headers")
    source = Path(_colorcore_py.__file__).with_name("_colorcore.c")
    target = (tmp_path_factory.mktemp("colorcore")
              / ("_colorcore" + sysconfig.get_config_var("EXT_SUFFIX")))
    subprocess.run([compiler, "-O2", "-shared", "-fPIC", "-Wall", "-Wextra",
                    "-Werror", f"-I{include}", str(source), "-o", str(target)],
                   check=True, timeout=300)
    spec = importlib.util.spec_from_file_location("_colorcore", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compiled_kernel_refuses_bits_outside_the_graph(compiled_kernel):
    for n in (1, 7, 8, 9, 17):
        for row in (1 << n, 1 << (n + 20), -1):
            with pytest.raises(ValueError):
                compiled_kernel.search([row] + [0] * (n - 1), 3)


def test_backends_agree(compiled_kernel, monkeypatch):
    rng = random.Random(8)
    for _ in range(300):
        g = random_graph(rng.randint(0, 40), rng.random() * 0.5, rng)
        adj = g.adjacency_bitsets()
        k = rng.randint(0, 4)
        fixed = [rng.choice([-1] * 8 + [None, k] + list(range(k)))
                 for _ in range(g.n)]
        for kwargs in ({}, {"fixed": fixed},
                       {"fixed": fixed, "budget": rng.randint(0, 50)},
                       {"budget": rng.randint(0, 50)},
                       {"mode": _colorcore_py.MODE_ENUMERATE, "budget": 200}):
            assert (compiled_kernel.search(adj, k, **kwargs)
                    == _colorcore_py.search(adj, k, **kwargs))
    # the empty graph, the constraint graph `edge_coloring` searches for
    # an edgeless graph: colored by the empty coloring, at every k
    for k in range(4):
        assert compiled_kernel.search([], k)[1] == []
        for kwargs in ({}, {"mode": _colorcore_py.MODE_ENUMERATE}):
            assert (compiled_kernel.search([], k, **kwargs)
                    == _colorcore_py.search([], k, **kwargs))
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        adj = g.adjacency_bitsets()
        for k in (2, 3):
            assert (compiled_kernel.search(adj, k, mode=compiled_kernel.MODE_ENUMERATE)
                    == _colorcore_py.search(adj, k, mode=_colorcore_py.MODE_ENUMERATE))
    # threshold graphs as the solvers read them off a pair table, at every
    # rank of a kappa = 5 region, free and with two anchors pinned together
    region = build_region_instance((0, 1, 2), 5)
    table = distinct_distances(region.pointset())
    pinned = [-1] * table.n
    for anchor in list(region.anchor_index.values())[:2]:
        pinned[anchor] = 0
    for rank in range(len(table.keys) + 1):
        adj = table.bitsets_at(rank)
        for kwargs in ({}, {"fixed": pinned}):
            assert (compiled_kernel.search(adj, 3, **kwargs)
                    == _colorcore_py.search(adj, 3, **kwargs))
    # the deep searches of test_search_depth_is_not_limited_by_recursion
    for n, k in ((3001, 3), (1201, 2)):
        adj = cycle_graph(n).adjacency_bitsets()
        assert compiled_kernel.search(adj, k) == _colorcore_py.search(adj, k)
    # every search test_python_kernel_node_counts_are_pinned makes: the 13
    # whose node counts it pins (the composite probes, the kappa = 12
    # region's free search and anchor patterns, the half graphs and the long
    # cycle) and any its composite builds make
    search, searched = _colorcore_py.search, []

    def both(adj, k, **kwargs):
        got = search(adj, k, **kwargs)
        assert compiled_kernel.search(adj, k, **kwargs) == got
        searched.append(k)
        return got

    monkeypatch.setattr(_colorcore_py, "search", both)
    test_python_kernel_node_counts_are_pinned()
    assert len(searched) >= 13
