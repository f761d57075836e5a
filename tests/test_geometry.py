import json
import random
import weakref
from bisect import bisect_right
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, sqrt

import mpmath
import pytest

from kdiameter.clustering import exact_cluster, two_cluster
from kdiameter.geometry import (
    BitVector,
    DimensionMismatch,
    METRICS,
    MAX_TABLE_POINTS,
    IntVector,
    PairTable,
    Pointset,
    SphereLatticePoint,
    SqDistance,
    hamming_distance,
    l1_distance,
    linf_distance,
    pair_rows,
    point_from_json,
    sphere_key,
    sphere_point_sq_distance,
    sq_distance_exceeds,
)
from kdiameter.sphere import build_region_instance


def test_hamming_identity_and_complement():
    z = BitVector.from_string("0000")
    assert hamming_distance(z, z) == 0
    a = BitVector.from_string("0101")
    b = BitVector.from_string("1010")
    assert hamming_distance(a, b) == 4
    assert a.complement() == b
    assert a.complement().complement() == a


def test_hamming_dimension_mismatch():
    with pytest.raises(Exception):
        hamming_distance(BitVector.from_string("01"), BitVector.from_string("011"))


def test_metric_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 16)
        u = BitVector(n, rng.getrandbits(n))
        v = BitVector(n, rng.getrandbits(n))
        w = BitVector(n, rng.getrandbits(n))
        assert hamming_distance(u, v) == hamming_distance(v, u)
        assert (hamming_distance(u, v) == 0) == (u == v)
        assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)
    for dist in (l1_distance, linf_distance):
        for _ in range(200):
            d = rng.randint(1, 5)
            u = IntVector([rng.randint(-9, 9) for _ in range(d)])
            v = IntVector([rng.randint(-9, 9) for _ in range(d)])
            w = IntVector([rng.randint(-9, 9) for _ in range(d)])
            assert dist(u, v) == dist(v, u)
            assert dist(u, w) <= dist(u, v) + dist(v, w)


def test_sphere_point_invariants():
    p = SphereLatticePoint((0, 1, 2), 0, (6, 6, 0), 12)
    # the reduced support has squared norm > 0 and the real point's squared
    # norm is exactly 1/2 by construction (norm_sq_int cancels on normalization)
    assert p.norm_sq_int() == 2
    assert sphere_point_sq_distance(p, p) == 0


def test_sphere_point_needs_one_coefficient_per_axis():
    for coeffs, kappa in (((1, 2), 3), ((3, 0, 0, 0), 3), ((), 1)):
        with pytest.raises(ValueError, match="three integers"):
            SphereLatticePoint((0, 1, 2), 0, coeffs, kappa)


def test_json_points_need_integer_numbers():
    sphere = {"axes": [0, 1, 2], "pos": 0, "coeffs": [1, 1, 1], "kappa": 3}
    assert point_from_json("l2_sphere_lattice", sphere).coeffs == (1, 1, 1)
    assert point_from_json("l1_int", [0, -2]).entries == (0, -2)
    # a fraction, a numeric string and a boolean are refused, not converted
    for bad in (0.5, 1.0, "7", True):
        with pytest.raises(ValueError, match="must be an integer"):
            point_from_json("l1_int", [0, bad])
        with pytest.raises(ValueError, match="must be an integer"):
            point_from_json("linf_int", [bad])
        for field in ("axes", "coeffs"):
            with pytest.raises(ValueError, match="must be an integer"):
                point_from_json("l2_sphere_lattice",
                                {**sphere, field: [bad] + sphere[field][1:]})
        for field in ("pos", "kappa"):
            with pytest.raises(ValueError, match="must be an integer"):
                point_from_json("l2_sphere_lattice", {**sphere, field: bad})
    with pytest.raises(ValueError, match="bit string"):
        point_from_json("hamming", [0, 1])
    with pytest.raises(ValueError, match="unknown metric 'foo'"):
        point_from_json("foo", "01")


def test_sq_distance_refuses_inexact_operands():
    d = SqDistance(1, 2, 2)   # 1 - 1/2
    assert d == Fraction(1, 2) and d <= Fraction(1, 2) and d >= Fraction(1, 2)
    assert d != 0.5
    for compare in (d.__lt__, d.__le__, d.__gt__, d.__ge__):
        assert compare(0.5) is NotImplemented
    with pytest.raises(TypeError):
        d <= 0.5
    with pytest.raises(TypeError):
        0.5 < d


# the axis points e_a, e_b and the antipode of e_a, with all weight on one
# axis of a kappa = 1 region
E_A = SphereLatticePoint((0, 1, 2), 0, (1, 0, 0), 1)
E_B = SphereLatticePoint((1, 0, 2), 1, (1, 0, 0), 1)
EBAR_A = SphereLatticePoint((1, 0, 2), 1, (0, 1, 0), 1)


def test_axis_point_identities():
    assert E_A == SphereLatticePoint((0, 1, 2), 0, (12, 0, 0), 12)
    assert sphere_point_sq_distance(E_A, EBAR_A) == 2
    assert sphere_point_sq_distance(E_A, E_B) == 1


def test_sq_distance_exceeds_basic():
    e_a, ebar_a, e_b = E_A, EBAR_A, E_B
    assert sq_distance_exceeds(e_a, ebar_a, Fraction(169, 100))
    assert not sq_distance_exceeds(e_a, e_b, 1)  # boundary: not strictly greater


def _mpmath_sq_distance(p, q, dps=60):
    with mpmath.workdps(dps):
        pe, qe = dict(p.key), dict(q.key)
        axes = set(pe) | set(qe)
        sp = mpmath.sqrt(mpmath.mpf(1) / (2 * p.norm_sq_int()))
        sq = mpmath.sqrt(mpmath.mpf(1) / (2 * q.norm_sq_int()))
        return sum((pe.get(a, 0) * sp - qe.get(a, 0) * sq) ** 2 for a in axes)


def test_kappa12_point_vs_high_precision():
    e_a = E_A
    p = SphereLatticePoint((0, 1, 2), 0, (6, 6, 0), 12)
    t_sq = Fraction(163, 125) ** 2
    expected = _mpmath_sq_distance(e_a, p) > mpmath.mpf(t_sq.numerator) / t_sq.denominator
    assert sq_distance_exceeds(e_a, p, t_sq) == bool(expected)


def _random_lattice_point(rng):
    axes = tuple(rng.sample(range(6), 3))
    kappa = rng.randint(1, 12)
    cut = sorted(rng.randint(0, kappa) for _ in range(2))
    coeffs = (cut[0], cut[1] - cut[0], kappa - cut[1])
    if all(c == 0 for c in coeffs):
        coeffs = (kappa, 0, 0)
    return SphereLatticePoint(axes, axes[rng.randrange(3)], coeffs, kappa)


def test_predicate_agrees_with_high_precision_random():
    rng = random.Random(11)
    for _ in range(2000):
        p = _random_lattice_point(rng)
        q = _random_lattice_point(rng)
        t = Fraction(rng.randint(1, 299), 100)
        exact = sq_distance_exceeds(p, q, t)
        approx = _mpmath_sq_distance(p, q) > mpmath.mpf(t.numerator) / t.denominator
        # thresholds landing exactly on the value would make the float check
        # ambiguous; skip those
        if sphere_point_sq_distance(p, q) == t:
            continue
        assert exact == bool(approx)


def test_sq_distance_total_order():
    rng = random.Random(3)
    pts = [_random_lattice_point(rng) for _ in range(30)]
    dists = [sphere_point_sq_distance(a, b) for a in pts for b in pts]

    def approx(d):
        return 1 - d.m / sqrt(d.big_n)

    as_float = sorted(dists, key=approx)
    as_exact = sorted(dists)
    for x, y in zip(as_float, as_exact):
        assert abs(approx(x) - approx(y)) < 1e-9


def test_one_plus_half_sqrt2_bound_against_high_precision():
    # the coordinate-rule diameter bound 1 + sqrt(2)/2 = 1 - (-1)/sqrt(1*2)
    bound = SqDistance(-1, 1, 2)
    assert sphere_key(bound) == (1, 2)
    rng = random.Random(5)
    outcomes = set()
    for _ in range(600):
        p, q = _random_lattice_point(rng), _random_lattice_point(rng)
        exceeds = sphere_point_sq_distance(p, q) > bound
        with mpmath.workdps(60):
            gap = _mpmath_sq_distance(p, q) - (1 + mpmath.sqrt(2) / 2)
            tie = abs(gap) < mpmath.mpf(10) ** -40
        # an exact tie does not exceed the bound
        assert exceeds == (not tie and gap > 0)
        outcomes.add("tie" if tie else exceeds)
    assert outcomes == {True, False, "tie"}


def test_pointset_json_roundtrip():
    pts = [SphereLatticePoint((0, 1, 2), 0, (2, 1, 0), 3), E_B]
    ps = Pointset("l2_sphere_lattice", pts)
    assert set(ps.to_dict()) == {"metric", "points"}
    back = Pointset.from_dict(json.loads(json.dumps(ps.to_dict())))
    assert back.metric == ps.metric
    assert back.points == ps.points
    # the `dim` and `labels` of an older file are ignored like any other key
    older = {**ps.to_dict(), "dim": 3, "labels": ["p", "e_b"]}
    assert Pointset.from_dict(older) == ps


def test_pointset_is_immutable():
    ps = Pointset("l1_int", [IntVector([0]), IntVector([3])])
    assert ps.points == (IntVector([0]), IntVector([3]))
    with pytest.raises(FrozenInstanceError):
        ps.points = [IntVector([1])]
    with pytest.raises(FrozenInstanceError):
        ps.metric = "linf_int"


def test_pointset_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        Pointset("l1_int", [IntVector([0, 0]), IntVector([1, 2, 3])])
    with pytest.raises(DimensionMismatch):
        Pointset("hamming", [BitVector(2), BitVector(3)])


def test_pointset_rejects_no_points():
    for metric in METRICS:
        with pytest.raises(ValueError, match="empty pointset"):
            Pointset(metric, [])


def test_pair_table_refuses_more_than_its_cap(monkeypatch):
    """A pointset over MAX_TABLE_POINTS gets no table, and no pair row is
    read for it."""
    monkeypatch.setattr("kdiameter.geometry.pair_rows", None)
    ps = Pointset("l1_int",
                  [IntVector([i]) for i in range(MAX_TABLE_POINTS + 1)])
    with pytest.raises(ValueError, match="pointset size 4097 exceeds the pair "
                                         "table's cap 4096"):
        ps.table


def test_pair_table_dies_with_its_pointset():
    # no reference cycle: the table goes as soon as the pointset does,
    # without waiting for the cycle collector
    for make in (lambda: Pointset("hamming", [BitVector(4, w)
                                              for w in (0, 3, 5, 15)]),
                 lambda: build_region_instance((0, 1, 2), 3).pointset()):
        ps = make()
        exact_cluster(ps, 3)
        two_cluster(ps)
        table = weakref.ref(ps.table)
        assert table() is ps.table
        del ps
        assert table() is None


def _per_pair_table(ps, key):
    """(keys, above, pairs) of a pointset from one `key(distance)` per pair,
    sorted and located by comparing keys, and ordered by a stable sort."""
    n = len(ps)
    ids = [i * n + j for i in range(n) for j in range(i + 1, n)]
    values = [key(ps.distance(*divmod(p, n))) for p in ids]
    keys = sorted(set(values) | {key(0)})
    rank = [bisect_right(keys, v) - 1 for v in values]
    counts = Counter(rank)
    above = [0] * (len(keys) + 1)
    for r in reversed(range(len(keys))):
        above[r] = above[r + 1] + counts[r]
    pairs = [ids[p] for p in sorted(range(len(ids)), key=lambda p: -rank[p])]
    return keys, above, pairs


def _fraction_pair_table(ps):
    """The table of a sphere pointset from one Fraction key per pair."""
    return _per_pair_table(ps, lambda d: Fraction(*sphere_key(d)))


@pytest.mark.parametrize("kappa", range(3, 13))
def test_sphere_pair_table_matches_fraction_construction(kappa):
    ps = build_region_instance((0, 1, 2), kappa).pointset()
    table = PairTable(ps)
    assert (table.keys, table.above, list(table.pairs)) == _fraction_pair_table(ps)


@pytest.mark.parametrize("kappa", range(3, 13))
def test_sphere_pair_values_are_keys_in_lowest_terms(kappa):
    # one value per distinct distance: each rank of the table is one bucket
    values = {v for row in pair_rows(build_region_instance((0, 1, 2), kappa)
                                     .pointset()) for v in row}
    assert len(values) == len({Fraction(*v) for v in values})
    for num, den in values:
        assert den > 0 and gcd(num, den) == 1


def _int_pointsets():
    """Seeded hamming, l1_int and linf_int pointsets with duplicate points,
    and the one- and two-point pointsets of each metric."""
    rng = random.Random(13)
    make = {"hamming": lambda: BitVector(5, rng.getrandbits(5)),
            "l1_int": lambda: IntVector([rng.randint(-3, 3) for _ in range(3)]),
            "linf_int": lambda: IntVector([rng.randint(-3, 3) for _ in range(3)])}
    for metric, point in make.items():
        for n in (1, 2, 3, 9, 24):
            points = [point() for _ in range(n)]
            if n > 2:
                points[-1] = points[0]
            yield Pointset(metric, points)


def test_int_pair_table_matches_per_pair_construction():
    for ps in _int_pointsets():
        table = PairTable(ps)
        assert ((table.keys, table.above, list(table.pairs))
                == _per_pair_table(ps, lambda d: d))


def test_pair_rows_match_pointset_distance():
    sphere = build_region_instance((0, 1, 2), 4).pointset()
    for ps in [*_int_pointsets(), sphere, Pointset(sphere.metric, sphere.points[:1])]:
        n = len(ps)
        rows = list(pair_rows(ps))
        assert [len(row) for row in rows] == [n - 1 - i for i in range(n)]
        exact = ((lambda d: d) if ps.metric != "l2_sphere_lattice"
                 else sphere_key)
        for i, row in enumerate(rows):
            assert row == [exact(ps.distance(i, j)) for j in range(i + 1, n)]


def test_pair_table_makes_no_distance_call(monkeypatch):
    pointsets = [*_int_pointsets(), build_region_instance((0, 1, 2), 4).pointset()]

    def refuse(self, i, j):
        raise AssertionError("Pointset.distance was called")

    monkeypatch.setattr(Pointset, "distance", refuse)
    assert {ps.metric for ps in pointsets} == set(METRICS)
    for ps in pointsets:
        PairTable(ps)
