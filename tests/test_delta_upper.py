"""`delta_upper` scores its raised-comparison shift grid from barcodes
(`_riso_cost`) and builds only the winning shift.  The score must equal
the weight of the built decomposition at every grid shift, and the
result must equal, byte for byte, that of the reference that builds
every shift."""

import random
from fractions import Fraction

from fcplx import barcodes, fragmentation, tpc
from fcplx.barcodes import Bar, Barcode, barcode, from_barcode
from fcplx.fragmentation import (
    _riso_cost,
    _riso_strategy,
    delta_exact_small,
    delta_upper,
)
from fcplx.rationals import POS_INF
from fcplx.verify import GenConfig, gen_complex, random_basis_change

from conftest import serialize
from reference_delta_upper import reference_delta_upper

CFG = GenConfig(seed=5150)
LEVELS = tuple(Fraction(n, 4) for n in range(9))


def _bars(rng, shapes):
    """One bar per (degree, infinite?) shape, with random levels.  Bars
    of length up to 1 on levels up to 2 leave room for a raised bar to
    start above the end of its match."""
    bars = []
    for degree, infinite in shapes:
        lo = rng.choice(LEVELS)
        hi = POS_INF if infinite else lo + rng.choice(LEVELS[1:5])
        bars.append(Bar(degree, lo, hi))
    return Barcode(bars)


def _shapes(rng, n):
    return [(rng.randrange(2), rng.random() < 0.3) for _ in range(n)]


def _scrambled(rng, B):
    return random_basis_change(from_barcode(B), rng)[0]


def _pairs():
    """Seeded (X, X') pairs: scrambled from_barcode objects of 1-6 bars,
    half with matching bar shapes (so the in-order comparison exists at
    some shifts) and half drawn independently, the empty complex against
    itself and against a few bars, and gen_complex pairs."""
    rng = random.Random(8128)
    pairs = []
    for i in range(48):
        shapes = _shapes(rng, 1 + i % 6)
        other = shapes if i % 2 == 0 else _shapes(rng, rng.randint(1, 6))
        pairs.append((_bars(rng, shapes), _bars(rng, other)))
    pairs.append((Barcode(), Barcode()))
    pairs.append((Barcode(), _bars(rng, [(0, False), (1, False)])))
    pairs.append((Barcode(), _bars(rng, [(0, True)])))
    out = [(_scrambled(rng, a), _scrambled(rng, b)) for a, b in pairs]
    for off in range(8):
        grng = CFG.rng(off)
        out.append((gen_complex(CFG, grng, max_generators=4),
                    gen_complex(CFG, grng, max_generators=4)))
    return out


def _both_ways():
    for X, Y in _pairs():
        yield X, Y
        yield Y, X


def _grid(X, Xp):
    levels = sorted({g.ell for Z in (X, Xp) for g in Z.gens})
    return sorted(
        {Fraction(0)} | {a - b for a in levels for b in levels if a - b > 0}
    )


def test_score_equals_the_built_weight_at_every_shift():
    seen = {"none": 0, "disjoint": 0}
    for X, Xp in _both_ways():
        BX, BXp = barcode(X), barcode(Xp)
        for k in _grid(X, Xp):
            D = _riso_strategy(BX, BXp, k)
            cost = _riso_cost(BX, BXp, k)
            if D is None:
                assert cost is None, (BX, BXp, k)
                seen["none"] += 1
                continue
            assert cost == D.total_weight(), (BX, BXp, k)
            pairs = fragmentation._in_order_pairs(BXp.shifted(k), BX)
            if any(s.hi != POS_INF and t.hi <= s.lo
                   for (s, _), (t, _) in pairs):
                seen["disjoint"] += 1
    # the inputs reach the refused and the disjoint-interval cases
    assert seen["none"] and seen["disjoint"]


def _via_triple():
    """X, mid, X' where the path through mid beats every direct strategy."""
    q = Fraction(1, 4)
    return (_scrambled(random.Random(7), Barcode([Bar(0, lo, hi)]))
            for lo, hi in ((8 * q, 10 * q), (3 * q, 5 * q), (2 * q, 5 * q)))


def test_result_is_byte_identical_to_building_every_shift():
    for X, Xp in _both_ways():
        assert (serialize(delta_upper(X, Xp))
                == serialize(reference_delta_upper(X, Xp)))
    X, mid, Xp = _via_triple()
    through = delta_upper(X, Xp, via=(mid,))
    assert through[0] < delta_upper(X, Xp)[0]
    assert serialize(through) == serialize(
        reference_delta_upper(X, Xp, via=(mid,)))


def test_at_most_two_witnessed_isos_per_call(monkeypatch):
    """The raised-comparison winner and the pipeline each attach one
    zero-apex step; building every grid shift would attach one per
    shift."""
    calls = []
    real = fragmentation.zero_apex_step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fragmentation, "zero_apex_step", counted)
    for X, Xp in _both_ways():
        calls.clear()
        delta_upper(X, Xp, via=())
        assert len(calls) <= 2


def test_no_pipeline_once_a_weight_zero_bound_is_held(monkeypatch):
    """Equal barcodes give the weight-0 slot first; consider's strict <
    means nothing can replace it, so the pipeline is not run."""
    calls = []
    real = fragmentation._pipeline

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fragmentation, "_pipeline", counted)
    rng = random.Random(2718)
    for n in range(7):
        B = _bars(rng, _shapes(rng, n))
        X, Xp = _scrambled(rng, B), _scrambled(rng, B)
        value, D = delta_upper(X, Xp)
        # checked before the reference runs: it calls the pipeline itself
        assert not calls
        assert value == 0 and D is not None
        assert serialize((value, D)) == serialize(reference_delta_upper(X, Xp))
        calls.clear()
    X, Xp = _pairs()[1]  # independent bars: a positive bound
    assert barcode(X) != barcode(Xp)
    assert delta_upper(X, Xp)[0] > 0 and calls


def _count_canonical_forms(monkeypatch):
    """The number of canonical forms computed of each complex, keyed by
    its id and counted from this call on."""
    counts = {}
    inner = barcodes.canonical_form

    def counted(Z):
        counts[id(Z)] = counts.get(id(Z), 0) + 1
        return inner(Z)

    for mod in (barcodes, fragmentation, tpc):
        monkeypatch.setattr(mod, "canonical_form", counted)
    return counts


def test_one_canonical_form_of_each_input_per_call(monkeypatch):
    """delta_upper names X and X' by their barcodes, computed once each,
    on equal, shifted and independent bars."""
    counts = _count_canonical_forms(monkeypatch)
    rng = random.Random(3141)
    pairs = []
    for n in range(1, 7):
        B = _bars(rng, _shapes(rng, n))
        pairs.append((_scrambled(rng, B), _scrambled(rng, B)))
        pairs.append((_scrambled(rng, B),
                      _scrambled(rng, B.shifted(rng.choice(LEVELS[1:])))))
    pairs += _pairs()
    for X, Xp in pairs:
        for a, b in ((X, Xp), (Xp, X)):
            counts.clear()
            delta_upper(a, b)
            assert counts[id(a)] == 1 and counts[id(b)] == 1


def test_one_canonical_form_of_each_object_per_call_via_mid(monkeypatch):
    """Each leg through a `via` object reuses the barcodes already
    held, so X, mid and X' are each put in canonical form once."""
    X, mid, Xp = _via_triple()
    counts = _count_canonical_forms(monkeypatch)
    delta_upper(X, Xp, via=(mid,))
    assert (counts[id(X)], counts[id(mid)], counts[id(Xp)]) == (1, 1, 1)


def test_one_canonical_form_of_each_input_per_oracle_call(monkeypatch):
    """delta_exact_small hands its barcodes of X and X' to the strategies
    it reconciles with, so it too computes each once."""
    counts = _count_canonical_forms(monkeypatch)
    rng = random.Random(1729)
    for n in (1, 1, 2, 2):
        B = _bars(rng, _shapes(rng, n))
        other = _bars(rng, _shapes(rng, n))
        for X, Xp in ((_scrambled(rng, B), _scrambled(rng, B)),
                      (_scrambled(rng, B), _scrambled(rng, other))):
            counts.clear()
            delta_exact_small(X, Xp, depth_budget=2)
            assert counts[id(X)] == 1 and counts[id(Xp)] == 1
