"""The benchmark's checkers must reject wrong answers.

    python3 -m pytest -q perfbench/test_checks.py

Each test takes a right answer from the program, confirms the checker
accepts it, then feeds a deliberately wrong variant and expects rejection.
"""

import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from kdiameter.clustering import exact_cluster  # noqa: E402
from kdiameter.graphs import (  # noqa: E402
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from kdiameter.lp import max_embeddability  # noqa: E402
from kdiameter.sphere import (  # noqa: E402
    build_region_instance,
    verify_anchor_separation,
)

AXES = (0, 1, 2)


def region(kappa):
    instance = build_region_instance(AXES, kappa)
    ours = checks.SphereRegion(
        AXES, kappa, [checks.region_vector(p.axes, p.positive_axis, p.coeffs)
                      for p in instance.points])
    return instance, ours


def test_search_helpers_on_known_graphs():
    assert not checks.three_edge_colorable(10, petersen_graph().edges)
    assert checks.three_edge_colorable(4, complete_graph(4).edges)
    c5 = [0] * 5
    for u, v in cycle_graph(5).edges:
        c5[u] |= 1 << v
        c5[v] |= 1 << u
    assert checks.extend_coloring(c5, 2, {}) is None
    checks.require_proper(c5, checks.extend_coloring(c5, 3, {0: 2}), 3, "C5")


def test_separation_rejects_non_proper_witness():
    instance, ours = region(4)
    t = Fraction(4, 3)
    holds, witness = verify_anchor_separation(instance, threshold=t)
    assert not holds
    checks.check_separation(ours, t, holds, witness)
    adj = ours.threshold_adjacency(t)
    u = next(v for v in range(len(adj)) if adj[v])
    v = (adj[u] & -adj[u]).bit_length() - 1
    bad = list(witness)
    bad[u] = bad[v]
    with pytest.raises(checks.CheckFailed, match="monochromatic"):
        checks.check_separation(ours, t, holds, bad)
    with pytest.raises(checks.CheckFailed, match="extends to a proper"):
        checks.check_separation(ours, t, True, None)


def test_separation_rejects_false_refutation():
    instance, ours = region(4)
    t = Fraction(1)
    holds, witness = verify_anchor_separation(instance, threshold=t)
    assert holds
    checks.check_separation(ours, t, holds, witness)
    with pytest.raises(checks.CheckFailed):
        checks.check_separation(ours, t, False, ours.family_partition())


def test_sphere_exact_rejects_understated_diameter():
    instance, ours = region(3)
    answer = exact_cluster(instance.pointset(), 3)
    key = checks.surd_key(answer.diameter.m, answer.diameter.big_n)
    checks.check_sphere_exact(ours, list(answer.assignment), key)
    # key 1/4 reads squared diameter 1 - 1/2, below the true optimum 1
    with pytest.raises(checks.CheckFailed, match="differs from the assignment"):
        checks.check_sphere_exact(ours, list(answer.assignment), Fraction(1, 4))


@pytest.mark.parametrize("kappa", [1, 2])
def test_two_cluster_oracle_matches_brute_force(kappa):
    _, ours = region(kappa)
    n = len(ours)
    best = None
    for bits in product((0, 1), repeat=n - 1):
        key = ours.diameter_key((0,) + bits, 2)
        if key is not None and (best is None or key > best):
            best = key
    assert checks.two_cluster_optimum_key(ours) == best


def test_composite_rejects_understated_diameter():
    wl = workloads.Composite()
    state = wl.setup(0)
    state["instances"] = [("K4", complete_graph(4))]
    (op,) = wl.operations(state)
    answer = op.run()
    op.check(answer)
    composite, embedding, report, clustering, edge_coloring = answer
    clustering.diameter = embedding.short - 1
    with pytest.raises(checks.CheckFailed, match="differs from the assignment"):
        op.check(answer)


def test_lp_rejects_ratio_off_by_one_over_q():
    g = path_graph(7)
    answer = max_embeddability(g)
    emb = answer["embedding"]
    words = [w.word for w in emb.image]
    checks.check_lp(g.n, sorted(g.edges), False, answer["ratio"], True, words,
                    emb.short, emb.long)
    off = answer["ratio"] + Fraction(1, emb.short)
    with pytest.raises(checks.CheckFailed, match="disagrees with HiGHS"):
        checks.check_lp(g.n, sorted(g.edges), False, off, True, words,
                        emb.short, emb.long)


def test_lp_rejects_wrong_boundedness():
    g = cycle_graph(4)  # C4 = K2,2: the bipartition cut is unbounded
    with pytest.raises(checks.CheckFailed, match="boundedness"):
        checks.check_lp(g.n, sorted(g.edges), False, Fraction(2), True,
                        None, None, None)


def test_criterion_check_rejects_failed_criterion():
    checks.check_criterion(9, {"ok": True, "ratio": "5/3"})
    with pytest.raises(checks.CheckFailed):
        checks.check_criterion(9, {"ok": True, "ratio": "3/2"})
    with pytest.raises(checks.CheckFailed):
        checks.check_criterion(1, {"ok": False})
