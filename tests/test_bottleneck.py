import inspect
import random
import sys
from fractions import Fraction

import pytest

from fcplx.barcodes import Bar, Barcode, bottleneck
from fcplx.rationals import POS_INF
from fcplx.verify import GenConfig, bottleneck_bruteforce, _random_barcode
from reference_bottleneck import (
    reference_bottleneck,
    reference_list_bottleneck,
)


def B(*bars):
    return Barcode([Bar(*b) for b in bars])


def test_distance_to_self_is_zero():
    b = B((0, Fraction(1), POS_INF), (1, Fraction(0), Fraction(3)))
    assert bottleneck(b, b)[0] == 0


def test_free_intervals_cost_their_offset():
    b1 = B((0, Fraction(0), POS_INF))
    b2 = B((0, Fraction(5, 2), POS_INF))
    assert bottleneck(b1, b2)[0] == Fraction(5, 2)


def test_single_bar_against_empty_uses_strict_short_rule():
    b = B((0, Fraction(0), Fraction(2)))
    assert bottleneck(b, Barcode())[0] == 4
    assert bottleneck(b, Barcode(), rule="double")[0] == 1


def test_unequal_infinite_counts_are_infinite():
    b1 = B((0, Fraction(0), POS_INF))
    assert bottleneck(b1, Barcode())[0] == POS_INF
    # degreewise: an infinite bar in another degree cannot absorb it
    b2 = B((1, Fraction(0), POS_INF))
    assert bottleneck(b1, b2)[0] == POS_INF


def test_matching_respects_degrees():
    b1 = B((0, 0, 2), (1, 0, 2))
    b2 = B((0, 0, 2))
    val, wit = bottleneck(b1, b2)
    assert val == 4
    assert all(x.degree == y.degree for x, y in wit.matched)


def test_witness_achieves_the_value():
    b1 = B((0, 0, 4), (0, 1, POS_INF))
    b2 = B((0, Fraction(1, 2), Fraction(7, 2)), (0, 2, POS_INF))
    val, wit = bottleneck(b1, b2)
    costs = []
    for x, y in wit.matched:
        if x.hi == POS_INF:
            costs.append(abs(x.lo - y.lo))
        else:
            costs.append(max(abs(x.lo - y.lo), abs(x.hi - y.hi)))
    for s in wit.short1 + wit.short2:
        costs.append(2 * s.length())
    assert max(costs) == val


def test_agrees_with_bruteforce_on_seeded_pairs():
    cfg = GenConfig(seed=4242)
    for off in range(60):
        rng = cfg.rng(off)
        b1 = _random_barcode(cfg, rng, 4)
        b2 = _random_barcode(cfg, rng, 4)
        assert bottleneck(b1, b2)[0] == bottleneck_bruteforce(b1, b2)


def test_symmetry_and_triangle_inequality_on_samples():
    cfg = GenConfig(seed=97)
    for off in range(30):
        rng = cfg.rng(off)
        b1 = _random_barcode(cfg, rng, 3)
        b2 = _random_barcode(cfg, rng, 3)
        b3 = _random_barcode(cfg, rng, 3)
        d12 = bottleneck(b1, b2)[0]
        d21 = bottleneck(b2, b1)[0]
        assert d12 == d21
        d13 = bottleneck(b1, b3)[0]
        d23 = bottleneck(b2, b3)[0]
        if d12 != POS_INF and d23 != POS_INF:
            assert d13 <= d12 + d23


def test_unknown_rule_is_rejected_before_any_work():
    inf_only = B((0, Fraction(1), POS_INF))
    for b1, b2 in [(Barcode(), Barcode()), (inf_only, inf_only),
                   (B((0, 0, 2)), Barcode())]:
        with pytest.raises(ValueError, match="unknown short rule"):
            bottleneck(b1, b2, rule="bogus")


def _seeded_pair(rng, n):
    """n bars over 1-3 degrees, up to a third infinite, and a jittered
    copy with some finite bars dropped and some added.  In a fifth of
    the pairs the copy keeps only the infinite bars, so some degrees
    have finite bars on one side alone."""
    grid = [Fraction(k, d) for k in range(13) for d in (1, 2, 3)]
    degrees = range(rng.randint(1, 3))
    n_inf = rng.randint(0, n // 3)
    bars = []
    for k in range(n):
        lo = rng.choice(grid)
        hi = POS_INF if k < n_inf else lo + rng.choice(grid)
        bars.append(Bar(rng.choice(degrees), lo, hi))
    keep_finite = rng.random() < 0.8
    other = []
    for b in bars:
        if b.is_finite() and (not keep_finite or rng.random() < 0.15):
            continue
        eps = rng.choice(grid[:9]) * rng.choice((-1, 1))
        hi = b.hi if not b.is_finite() else max(b.hi + eps, b.lo + eps)
        other.append(Bar(b.degree, b.lo + eps, hi))
    for _ in range(rng.randint(0, n // 5)):
        lo = rng.choice(grid)
        other.append(Bar(rng.choice(range(3)), lo, lo + rng.choice(grid)))
    return Barcode(bars), Barcode(other)


def test_value_and_witness_match_the_dense_reference():
    """Same value, same witness, same types as the extended-graph
    search it replaced, on 300 seeded pairs of 1-100 bars."""
    rng = random.Random(20261018)
    sizes = [1 + k % 20 for k in range(280)] + list(range(24, 101, 4))
    finite = 0
    for k, n in enumerate(sizes):
        b1, b2 = _seeded_pair(rng, n)
        rule = ("half", "double")[k % 2]
        got = bottleneck(b1, b2, rule=rule)
        assert repr(got) == repr(reference_bottleneck(b1, b2, rule=rule))
        finite += got[0] != POS_INF
    assert finite >= 250


def _jittered_pair(rng, n, degrees):
    """n bars in the given degrees on a grid of quarters, a tenth of
    them infinite, and a copy with every end moved by at most 2, a
    twentieth of the finite bars dropped and as many fresh ones added."""
    grid = [Fraction(k, 4) for k in range(400)]
    bars = []
    for k in range(n):
        lo = rng.choice(grid)
        hi = POS_INF if k % 10 == 0 else lo + rng.choice(grid[:80])
        bars.append(Bar(rng.choice(degrees), lo, hi))
    other = []
    for b in bars:
        if b.is_finite() and rng.random() < 0.05:
            lo = rng.choice(grid)
            other.append(Bar(b.degree, lo, lo + rng.choice(grid[:80])))
            continue
        lo = b.lo + rng.choice(grid[:9]) * rng.choice((-1, 1))
        hi = b.hi if not b.is_finite() else max(
            lo, b.hi + rng.choice(grid[:9]) * rng.choice((-1, 1)))
        other.append(Bar(b.degree, lo, hi))
    return Barcode(bars), Barcode(other)


def test_value_and_witness_match_the_list_search_at_hundreds_of_bars():
    """Same value, same witness as the search on cost matrices and
    neighbour lists it replaced, on pairs of 200-600 bars in one and in
    two degrees, under both rules."""
    rng = random.Random(20261020)
    for n, degrees, rule in [(200, (0,), "half"), (300, (0, 1), "double"),
                             (450, (0,), "double"), (600, (0, 1), "half")]:
        b1, b2 = _jittered_pair(rng, n, degrees)
        got = bottleneck(b1, b2, rule=rule)
        assert 0 < got[0] < POS_INF
        assert repr(got) == repr(reference_list_bottleneck(b1, b2, rule=rule))


def test_thousand_bars_a_side_without_recursion():
    """A staircase of overlapping bars makes augmenting paths as long as
    the barcode; the search must not recurse, so it runs under a
    recursion limit only a little above the current stack depth."""
    n = 1000
    b1 = Barcode(Bar(0, Fraction(i), Fraction(i + n)) for i in range(n))
    b2 = Barcode(Bar(0, Fraction(2 * i + 1, 2), Fraction(2 * i + 1, 2) + n)
                 for i in range(n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        val, wit = bottleneck(b1, b2)
    finally:
        sys.setrecursionlimit(limit)
    assert val == Fraction(1, 2)
    assert len(wit.matched) == n and not wit.short1 and not wit.short2
    assert sorted(a for a, _ in wit.matched) == list(b1)
    assert sorted(b for _, b in wit.matched) == list(b2)
    assert all(max(abs(a.lo - b.lo), abs(a.hi - b.hi)) <= val
               for a, b in wit.matched)
