"""Every complex carries its levels scaled to one common denominator, and
the hot level comparisons run on those ints; derived complexes are
built from those ints, and `gens` only when read.  Each must give what
the `Fraction` code in `reference_levels` gives, on seeded complexes
whose levels mix the denominators 1, 3, 4, 7 and 10**12 and are often
negative, and on maps between complexes of different denominators."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import serialize
from fcplx.barcodes import (
    Bar,
    Barcode,
    CanonicalFormWitness,
    canonical_form,
    from_barcode,
)
from fcplx.complexes import (
    FilteredChainMap,
    FilteredComplex,
    Generator,
    _hom_pairs,
    _inclusion,
    _projection,
    _scaled,
    complex_to_text,
    cone,
    eta,
    shift_complex,
    shift_of_map,
    sum_complexes,
    translate,
    translate_inverse,
    zero_complex,
)
from fcplx.f2linalg import F2SparseMatrix
from fcplx.rationals import NEG_INF, POS_INF, is_finite
from fcplx.verify import random_basis_change

from reference_levels import (
    reference_canonical_order,
    reference_cone,
    reference_shift_complex,
    reference_sum_complexes,
    reference_translate,
    reference_translate_inverse,
    reference_hom_pairs,
    reference_random_basis_change,
    reference_shift_of_map,
    reference_validate,
    reference_witness_check,
    reference_witness_levels_ok,
)

DENOMINATORS = (1, 3, 4, 7, 10**12)


def _level(rng, dens, lo=-12, hi=13):
    return Fraction(rng.randrange(lo, hi), rng.choice(dens))


def _barcode(rng, dens):
    """0-7 bars in degrees -1..1, a quarter of them infinite, with levels
    over the denominators `dens`, many of them negative."""
    bars = []
    for _ in range(rng.randrange(8)):
        lo = _level(rng, dens)
        hi = (POS_INF if rng.random() < 0.25
              else lo + _level(rng, dens, 1, 9))
        bars.append(Bar(rng.randrange(-1, 2), lo, hi))
    return Barcode(bars)


def _complexes(count, seed):
    """Seeded scrambled complexes, each over its own set of 1-3
    denominators, so two of them seldom share a `_den`."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dens = rng.sample(DENOMINATORS, rng.randrange(1, 4))
        out.append(random_basis_change(from_barcode(_barcode(rng, dens)),
                                       rng)[0])
    return out


COMPLEXES = _complexes(200, 1009)


def _random_map(rng, X, Y):
    """A map X -> Y of random columns, of any degrees; about a third of
    its columns are zero."""
    cols = [rng.getrandbits(Y.n) if Y.n and rng.random() < 0.7 else 0
            for _ in X.gens]
    return FilteredChainMap(X, Y, cols, 0)


def test_the_cases_mix_denominators_and_signs():
    dens = {X._den for X in COMPLEXES}
    assert len(dens) > 10 and max(dens) >= 10**12
    assert any(g.ell < 0 for X in COMPLEXES for g in X.gens)
    for X in COMPLEXES:
        assert all(Fraction(v, X._den) == g.ell
                   for v, g in zip(X._lev, X.gens))


def test_derived_complexes_keep_the_least_common_denominator():
    """Translations, cones and sums take their scale from their parts;
    it must be the one their own levels give, or equal complexes would
    hash apart."""
    rng = random.Random(6007)
    for X in COMPLEXES:
        Y = rng.choice(COMPLEXES)
        r = _level(rng, DENOMINATORS)
        for Z in (translate(X), translate_inverse(X), shift_complex(X, r),
                  shift_complex(shift_complex(X, r), -r),
                  cone(FilteredChainMap.identity(X), 0),
                  sum_complexes([X, shift_complex(Y, r), X])[0]):
            assert (Z._den, Z._lev) == _scaled(Z.gens)


def _same_complex(new, old):
    """`new`, built from ints, is `old`, built from `Fraction`
    generators: equal, on the same scale and hash, and with the same
    generators once they are read."""
    assert new == old and hash(new) == hash(old)
    assert (new._den, new._lev) == (old._den, old._lev)
    assert new.gens == old.gens
    assert all(type(g.ell) is Fraction for g in new.gens)
    assert complex_to_text(new) == complex_to_text(old)


def _closed_maps(rng, X, Y):
    """Closed degree-0 maps into and out of X: its identity, an eta, and
    the inclusion and projection of a direct sum with Y."""
    Z = sum_complexes([X, Y])[0]
    return (FilteredChainMap.identity(X),
            eta(X, abs(_level(rng, DENOMINATORS))),
            _inclusion(X, Z, 0), _projection(Z, Y, X.n))


def test_derived_complexes_match_the_fraction_constructions():
    rng = random.Random(8311)
    for X in COMPLEXES:
        Y = rng.choice(COMPLEXES)
        r = _level(rng, DENOMINATORS)
        _same_complex(shift_complex(X, r), reference_shift_complex(X, r))
        _same_complex(translate(X), reference_translate(X))
        _same_complex(translate_inverse(X), reference_translate_inverse(X))
        # a repeated part primes its ids
        parts = [X, shift_complex(Y, r), zero_complex(), X]
        (new, offs), (old, ref_offs) = (sum_complexes(parts),
                                        reference_sum_complexes(parts))
        assert offs == ref_offs
        _same_complex(new, old)
        for f in _closed_maps(rng, X, Y):
            sh = shift_of_map(f)
            lam = (sh if is_finite(sh) else 0) + abs(_level(rng, (1, 3)))
            _same_complex(cone(f, lam), reference_cone(f, lam))


def test_a_shift_and_its_inverse_give_back_the_complex():
    """Shifting by r over the denominators 1, 3 and 97 and back must
    return to the least common denominator of levels that mix several
    denominators."""
    rng = random.Random(5381)
    mixed = [X for X in COMPLEXES
             if len({Fraction(v, X._den).denominator for v in X._lev}) > 1]
    assert len(mixed) > 50
    for X in mixed:
        for den in (1, 3, 97):
            r = Fraction(rng.randrange(-5 * den, 5 * den + 1), den)
            Y = shift_complex(X, r)
            _same_complex(Y, reference_shift_complex(X, r))
            Z = shift_complex(Y, -r)
            assert Z == X and hash(Z) == hash(X)
            assert (Z._den, Z._lev) == (X._den, X._lev)


def test_random_basis_change_draws_and_returns_what_the_reference_does():
    for k, X in enumerate(COMPLEXES):
        r1, r2 = random.Random(k), random.Random(k)
        assert (serialize(random_basis_change(X, r1))
                == serialize(reference_random_basis_change(X, r2)))
        assert r1.getstate() == r2.getstate()


def test_validate_matches_the_reference():
    """On complexes as built and with random differentials, which break
    the filtration, the degrees and the range."""
    rng = random.Random(2027)
    bad_levels = 0
    for X in COMPLEXES:
        bad = FilteredComplex(X.gens, [
            rng.getrandbits(X.n + 2) if X.n else 0 for _ in X.gens])
        for Y in (X, bad):
            assert Y.validate() == reference_validate(Y)
        bad_levels += any("filtration" in p for p in bad.validate())
    assert bad_levels > len(COMPLEXES) // 4


def test_shift_of_map_matches_the_reference_across_denominators():
    rng = random.Random(3571)
    dens = 0
    for X in COMPLEXES:
        Y = rng.choice(COMPLEXES)
        for Z in (Y, shift_complex(Y, _level(rng, DENOMINATORS))):
            f = _random_map(rng, X, Z)
            new, old = shift_of_map(f), reference_shift_of_map(f)
            assert new == old and type(new) is type(old)
            dens += X._den != Z._den
    assert dens > len(COMPLEXES)


def test_canonical_order_and_witness_check_match_the_reference():
    """On every canonical form, and on its witness with one matrix entry
    flipped, which often breaks the level test."""
    rng = random.Random(7919)
    levels_broken = 0
    for X in COMPLEXES:
        assert (sorted(range(X.n), key=X._lev.__getitem__)
                == reference_canonical_order(X))
        _, wit = canonical_form(X)
        assert wit.check() and reference_witness_check(wit)
        if not X.n:
            continue
        cols = list(wit.matrix.columns)
        j = rng.randrange(X.n)
        cols[j] = cols[j] ^ 1 << rng.randrange(X.n)
        bent = CanonicalFormWitness(X, F2SparseMatrix(cols, X.n),
                                    wit.pairs, wit.unpaired)
        assert bent.check() == reference_witness_check(bent)
        levels_broken += not reference_witness_levels_ok(bent)
    assert levels_broken > len(COMPLEXES) // 5


def test_hom_pairs_under_a_bound_match_the_reference():
    rng = random.Random(104729)
    bounds = (None, 0, 2, Fraction(-1, 3), Fraction(1, 10**12), POS_INF,
              NEG_INF)
    for X in COMPLEXES[:80]:
        Y = rng.choice(COMPLEXES)
        for degree in (None, -1, 0, 1):
            for bound in bounds + (_level(rng, DENOMINATORS),):
                assert (_hom_pairs(X, Y, degree, bound)
                        == reference_hom_pairs(X, Y, degree, bound))


def test_equal_complexes_written_differently_are_equal_and_hash_equal():
    a = FilteredComplex([Generator("a", 0, Fraction(2, 4)),
                         Generator("b", 1, 3)], [1 << 1, 0])
    b = FilteredComplex([Generator("a", 0, Fraction(1, 2)),
                         Generator("b", 1, Fraction(3))], [1 << 1, 0])
    assert a == b and hash(a) == hash(b)
    assert (a._den, a._lev) == (b._den, b._lev) == (2, (1, 6))
    for X in COMPLEXES[:50]:
        r = Fraction(1, 7)
        Y = shift_complex(shift_complex(X, r), -r)
        assert Y == X and hash(Y) == hash(X)
    c = FilteredComplex([Generator("a", 0, Fraction(1, 2)),
                         Generator("b", 1, Fraction(4))], [1 << 1, 0])
    assert c != a


def test_levels_that_are_not_rational_are_refused():
    """A float level used to validate clean, and a float infinity then
    came back as a bar endpoint that entered arithmetic."""
    with pytest.raises(ValueError, match="generator 'a'"):
        FilteredComplex([Generator("a", 0, 0.5),
                         Generator("b", 1, float("inf"))], [0, 0])
    with pytest.raises(ValueError, match="generator 'b'"):
        FilteredComplex([Generator("a", 0, Fraction(1, 2)),
                         Generator("b", 1, float("inf"))], [0, 0])
    with pytest.raises(ValueError, match="generator 'c'"):
        FilteredComplex([Generator("c", 0, Decimal(1))], [0])


def test_infinity_tests_give_the_old_answer_for_every_kind_of_value():
    values = (0, 3, -2, True, Fraction(-1, 3), Fraction(10**30, 7), 0.5,
              -0.0, POS_INF, NEG_INF, float("nan"), Decimal("Infinity"),
              Decimal("-Infinity"), Decimal(2))

    def outcome(length):
        try:
            v = length()
        except TypeError:  # a finite Decimal minus a Fraction
            return "TypeError"
        return "nan" if v != v else v

    for x in values:
        assert is_finite(x) == (x != NEG_INF and x != POS_INF), x
        b = Bar(0, Fraction(-1), x)
        assert b.is_finite() == (x != POS_INF), x
        assert outcome(b.length) == outcome(
            lambda: POS_INF if x == POS_INF else x - b.lo), x
