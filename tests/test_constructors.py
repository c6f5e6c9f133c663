"""`from_barcode` built from its parts and `_disambiguate` with its
search resumed per id give exactly what the bodies they replace gave
(`reference_constructors`)."""

import random
from fractions import Fraction

from fcplx.barcodes import Bar, Barcode, from_barcode
from fcplx.complexes import _disambiguate, sum_complexes
from fcplx.rationals import POS_INF

from reference_constructors import (
    reference_disambiguate,
    reference_from_barcode,
)


def _barcode(rng):
    """0-9 bars in degrees -1..2: int or Fraction ends over mixed
    denominators, many negative, some bars of length zero and some
    infinite."""
    ints = rng.random() < 0.3
    bars = []
    for _ in range(rng.randrange(10)):
        den = 1 if ints else rng.choice((1, 2, 3, 7, 10**9))
        lo = rng.randrange(-20, 20)
        lo = lo if ints else Fraction(lo, den)
        r = rng.random()
        hi = (POS_INF if r < 0.2 else lo if r < 0.4
              else lo + (rng.randrange(1, 9) if ints
                         else Fraction(rng.randrange(1, 30), den)))
        bars.append(Bar(rng.randrange(-1, 3), lo, hi))
    return Barcode(bars)


def _same(X, R):
    assert X == R and hash(X) == hash(R)
    assert X._ids == R._ids and X._deg == R._deg
    assert X._den == R._den and X._lev == R._lev
    assert X.diff == R.diff and X.gens == R.gens


def test_from_barcode_matches_the_reference():
    rng = random.Random(2207)
    kinds = set()
    for _ in range(400):
        B = _barcode(rng)
        _same(from_barcode(B), reference_from_barcode(B))
        # a plain list of bars is sorted into bar order first
        _same(from_barcode(list(B)), reference_from_barcode(list(B)))
        for b in B:
            kinds.add("infinite" if not b.is_finite()
                      else "zero length" if b.lo == b.hi else "finite")
            kinds.add(type(b.lo).__name__)
            kinds.add("negative" if b.lo < 0 else "nonnegative")
    assert kinds == {"infinite", "zero length", "finite", "int", "Fraction",
                     "negative", "nonnegative"}


def test_from_barcode_of_no_bars_and_of_float_ends_matches_the_reference():
    for B in (Barcode(), Barcode([(0, 0.5, 1.25), (1, -2.0, POS_INF)])):
        _same(from_barcode(B), reference_from_barcode(B))


def _ids(rng):
    """Ids off a small alphabet, some of them already primed."""
    return [rng.choice("xyt") + str(rng.randrange(3)) + "'" * (
        rng.randrange(4) if rng.random() < 0.3 else 0)
        for _ in range(rng.randrange(8))]


def test_disambiguate_matches_the_reference():
    rng = random.Random(4099)
    primed = 0
    for _ in range(500):
        lists = [_ids(rng) for _ in range(rng.randrange(1, 6))]
        new = _disambiguate(*lists)
        assert new == reference_disambiguate(*lists)
        assert len(set(new)) == len(new)
        primed += sum(gid.count("'") for gid in new)
    hand = (["a", "a'", "a"], ["a''", "a'", "a", "a"], ["a'''"])
    assert _disambiguate(*hand) == reference_disambiguate(*hand) == (
        "a", "a'", "a''", "a'''", "a''''", "a'''''", "a''''''",
        "a'''''''")
    assert primed > 1000


def test_a_sum_of_one_bar_parts_keeps_its_ids():
    parts = [from_barcode(Barcode([Bar(0, Fraction(k), Fraction(k + 1))]))
             for k in range(300)]
    Z, _ = sum_complexes(parts)
    assert Z._ids == reference_disambiguate(*(p._ids for p in parts))
    assert Z._ids[-1] == "y0" + "'" * 299


class _Counted(str):
    """An id that counts the primes added to it and its primed forms."""

    adds = 0

    def __add__(self, other):
        _Counted.adds += 1
        return _Counted(str(self) + other)


def test_disambiguate_resumes_its_search_per_id():
    """n copies of one id take n - 1 primes in all, not one walk from
    the base id per copy (n(n - 1)/2 primes)."""
    lists = [[_Counted("a")] for _ in range(300)]
    _Counted.adds = 0
    ids = _disambiguate(*lists)
    assert _Counted.adds == 299
    assert ids == reference_disambiguate(*lists)
    assert _Counted.adds == 299 + 299 * 300 // 2
