"""The oracle's final move, `_iso_move_cost`, decides each candidate
weight by a matching test instead of enumerating every partial matching
of the finite bars; it must give the enumeration's value on every
pair."""

import random
from fractions import Fraction

from fcplx.barcodes import Bar, Barcode
from fcplx.fragmentation import _iso_move_cost
from fcplx.rationals import POS_INF

from reference_iso_move import (
    reference_iso_move_by_lists,
    reference_iso_move_cost,
)

LEVELS = tuple(Fraction(n, 4) for n in range(13))


def _pairs(count=2400, most=8):
    """Seeded barcode pairs of 0 to most - 1 bars a side in two
    degrees, a quarter of them infinite.  Every third target moves the
    source's bars down by small steps and drops or adds one, so legal
    matchings are common; the others are drawn independently."""
    rng = random.Random(9973)

    def bar():
        lo = rng.choice(LEVELS[:9])
        hi = POS_INF if rng.random() < 0.25 else lo + rng.choice(LEVELS[1:5])
        return Bar(rng.randrange(2), lo, hi)

    def lowered(b):
        lo = b.lo - rng.choice(LEVELS[:3])
        hi = b.hi if b.hi == POS_INF else max(b.hi - rng.choice(LEVELS[:3]),
                                              lo + LEVELS[1])
        return Bar(b.degree, lo, hi)

    out = []
    for i in range(count):
        src = [bar() for _ in range(rng.randrange(most))]
        if i % 3:
            tgt = [bar() for _ in range(rng.randrange(most))]
        else:
            tgt = [lowered(b) for b in src]
            if tgt and rng.random() < 0.5:
                tgt.pop(rng.randrange(len(tgt)))
            elif len(tgt) < most - 1:
                tgt.append(bar())
        out.append((Barcode(src), Barcode(tgt)))
    return out


def test_matching_decision_equals_the_enumeration():
    finite = matched = 0
    for BS, BT in _pairs():
        want = reference_iso_move_cost(BS, BT)
        assert _iso_move_cost(BS, BT) == want, (BS, BT)
        if want != POS_INF:
            finite += 1
            drop_all = max((b.length() for b in (*BS, *BT) if b.is_finite()),
                           default=Fraction(0))
            matched += want < drop_all
    # both outcomes are reached, and matching bars often beats
    # dropping every finite one
    assert 500 < finite < 2400 and matched > 200


def test_range_masks_equal_the_cost_lists_on_larger_pairs():
    """Against the decision on sorted cost lists it replaced, on pairs
    of up to 40 bars a side, too large for the enumeration."""
    finite = 0
    for BS, BT in _pairs(count=200, most=41):
        want = reference_iso_move_by_lists(BS, BT)
        assert _iso_move_cost(BS, BT) == want, (BS, BT)
        finite += want != POS_INF
    assert 40 < finite < 160
