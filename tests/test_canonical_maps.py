"""The maps between a complex and its canonical object, read off one
canonical form, side by side with the id-lookup builders in
`reference_canonical`; so is the general summand map
(`reference_canonical.canonical_projection`) that the pipeline's
reference finds its down maps with."""

import random
from fractions import Fraction

import pytest

import reference_canonical
from fcplx import barcodes, fragmentation
from fcplx.barcodes import Bar, Barcode, barcode, from_barcode
from fcplx.fragmentation import (
    comparison_map,
    iso_to_canonical,
    zero_iso_between,
)
from fcplx.rationals import POS_INF
from fcplx.verify import random_basis_change
from reference_canonical import (
    canonical_projection,
    reference_canonical_projection,
    reference_comparison_map,
    reference_iso_to_canonical,
    reference_zero_iso_between,
)

from conftest import serialize

# few levels, so that equal bars, and so ties in the summand order, are
# common
HALVES = tuple(Fraction(n, 2) for n in range(6))


def _bars(rng, nbars):
    out = []
    for _ in range(nbars):
        lo, deg = rng.choice(HALVES), rng.randrange(2)
        hi = POS_INF if rng.random() < 0.3 else lo + rng.choice(HALVES[1:])
        out.append(Bar(deg, lo, hi))
    return out


def _zero_length(rng, nbars):
    return [Bar(rng.randrange(2), lo, lo)
            for lo in (rng.choice(HALVES) for _ in range(nbars))]


def _rebased(rng, bars):
    return random_basis_change(from_barcode(Barcode(bars)), rng)[0]


def _outcome(fn, *args):
    """The serialized result, each of its maps checked closed, or the
    ValueError message."""
    try:
        got = fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    for m in got if isinstance(got, tuple) else (got,):
        assert m.is_closed()
    return serialize(got)


def _cases(n):
    """Per seed: base bars, zero-length bars and X, a random basis of
    from_barcode of their union."""
    for seed in range(n):
        rng = random.Random(seed)
        base = _bars(rng, rng.randint(0, 7))
        zeros = _zero_length(rng, rng.randint(0, 3))
        yield rng, base, zeros, _rebased(rng, base + zeros)


def test_summands_index_the_from_barcode_layout():
    rng = random.Random(5)
    for _ in range(50):
        B = Barcode(_bars(rng, rng.randint(0, 9)) + _zero_length(rng, 2))
        X = from_barcode(B)
        ids = []
        for k, (b, idxs) in enumerate(zip(B, barcodes._summands(B))):
            names = [f"i{k}"] if b.hi == POS_INF else [f"x{k}", f"y{k}"]
            ids += names
            assert [X.gens[i].gid for i in idxs] == names
        assert [g.gid for g in X.gens] == ids


def test_maps_match_the_id_lookup_builders():
    zero_isos, projections, comparisons, dropped = set(), set(), set(), 0
    for rng, base, zeros, X in _cases(220):
        assert (_outcome(iso_to_canonical, X)
                == _outcome(reference_iso_to_canonical, X))
        # an equal barcode in another basis, and a different one
        for bars in (base + zeros, base + zeros + _bars(rng, 1)):
            Y = _rebased(rng, bars)
            got = _outcome(zero_iso_between, X, Y)
            assert got == _outcome(reference_zero_iso_between, X, Y)
            zero_isos.add(got if got.startswith("ValueError") else "map")
        # keep every bar, drop the zero-length ones (legal), drop a bar
        # of positive length, or ask for a bar X lacks
        targets = [base + zeros, base, base + zeros + _bars(rng, 1)]
        if base:
            targets.append(base[1:] + zeros)
        for bars in targets:
            T = from_barcode(Barcode(bars))
            got = _outcome(canonical_projection, X, Barcode(bars))
            assert got == _outcome(reference_canonical_projection, X, T)
            projections.add(got if got.startswith("ValueError") else "map")
            dropped += bool(zeros) and bars == base
        BS = Barcode(base + zeros).shifted(rng.choice(HALVES))
        BT = (Barcode(_bars(rng, len(base)) + zeros)
              if rng.random() < 0.5 else Barcode(base + zeros))
        got = comparison_map(BS, BT)
        assert got is None or got.is_closed()
        assert serialize(got) == serialize(reference_comparison_map(
            from_barcode(BS), from_barcode(BT)))
        comparisons.add(got is None)
    assert zero_isos == {"map", "ValueError: objects are not barcode-equal"}
    assert projections == {
        "map",
        "ValueError: dropped bars must have zero length",
        "ValueError: target bars are not a sub-multiset",
    }
    assert comparisons == {True, False}
    assert dropped >= 50


@pytest.fixture
def canonical_form_calls(monkeypatch):
    calls = [0]
    inner = barcodes.canonical_form

    def counted(X):
        calls[0] += 1
        return inner(X)

    for mod in (barcodes, fragmentation, reference_canonical):
        monkeypatch.setattr(mod, "canonical_form", counted)
    return calls


def test_one_canonical_form_per_complex(canonical_form_calls):
    calls = canonical_form_calls
    for rng, base, zeros, X in _cases(40):
        BT = Barcode(base)
        T = from_barcode(BT)
        Y = _rebased(rng, base + zeros)
        for fn, args, ref, ref_args, most, parent in (
            (canonical_projection, (X, BT),
             reference_canonical_projection, (X, T), 1, 5),
            (zero_iso_between, (X, Y),
             reference_zero_iso_between, (X, Y), 2, 4),
            (comparison_map, (BT, BT), reference_comparison_map, (T, T), 0, 2),
        ):
            calls[0] = 0
            fn(*args)
            assert calls[0] <= most
            calls[0] = 0
            ref(*ref_args)
            assert calls[0] == parent


def test_projection_onto_a_barcode_is_closed_in_any_basis():
    """X and T are one from_barcode object in two random bases.  Naming
    the target by barcode(T) gives a closed map every time; the
    reference, handed the object T, trusts it to be laid out as
    from_barcode lays it out and returns maps that are not closed."""
    unclosed = 0
    for seed in range(100):
        rng = random.Random(seed)
        base = from_barcode(Barcode(_bars(rng, 4)))
        X = random_basis_change(base, rng)[0]
        T = random_basis_change(base, rng)[0]
        assert canonical_projection(X, barcode(T)).is_closed()
        unclosed += not reference_canonical_projection(X, T).is_closed()
    assert unclosed == 59
