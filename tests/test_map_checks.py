"""The map checks decided in ints and masks (`FilteredChainMap.is_closed`,
`shift_of_map`, `tpc._closed_shift0`, `tpc._is_homotopy` and the
checks `cone` makes) give the verdicts, values and error texts of the
`Fraction` bodies they replace (`reference_checks`), on seeded maps
between scrambled complexes over mixed denominators."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from fcplx.barcodes import Bar, Barcode, from_barcode
from fcplx.complexes import (
    FilteredChainMap,
    cone,
    shift_complex,
    shift_of_map,
    zero_complex,
)
from fcplx.f2linalg import _apply, _bits
from fcplx.rationals import NEG_INF, POS_INF
from fcplx.tpc import _closed_shift0, _is_homotopy
from fcplx.verify import random_basis_change

from reference_checks import (
    reference_closed_shift0,
    reference_cone_error,
    reference_is_closed,
    reference_is_homotopy,
    reference_shift_of_map,
)

DENOMINATORS = (1, 3, 4, 7, 10**12)


def _level(rng, dens, lo=-12, hi=13):
    return Fraction(rng.randrange(lo, hi), rng.choice(dens))


def _complex(rng):
    """A scrambled complex of 0-6 bars in degrees -1..1 over 1-3 of the
    denominators, some bars infinite and some of length zero; one in
    eight is the zero complex."""
    if rng.random() < 0.125:
        return zero_complex()
    dens = rng.sample(DENOMINATORS, rng.randrange(1, 4))
    bars = []
    for _ in range(rng.randrange(1, 7)):
        lo = _level(rng, dens)
        hi = (POS_INF if rng.random() < 0.25
              else lo + _level(rng, dens, 0, 9))
        bars.append(Bar(rng.randrange(-1, 2), lo, hi))
    return random_basis_change(from_barcode(Barcode(bars)), rng)[0]


def _cols(rng, X, Y, degree, p, bounded=False):
    """Columns of a map X -> Y with each entry of the given degree (any
    degree for None) set with probability p; with `bounded`, only
    entries of level <= 0."""
    cols = []
    for s in range(X.n):
        m = 0
        for t in range(Y.n):
            if ((degree is None or Y._deg[t] == X._deg[s] + degree)
                    and (not bounded or Y.ell(t) <= X.ell(s))
                    and rng.random() < p):
                m |= 1 << t
        cols.append(m)
    return cols


def _boundary(X, Y, h):
    """The columns of dh + hd for the map X -> Y with columns h."""
    return [_apply(Y.diff, c) ^ _apply(h, d) for c, d in zip(h, X.diff)]


def _flipped(rng, cols, n):
    """cols with one entry flipped (unchanged when there is none)."""
    if not cols or not n:
        return list(cols)
    cols = list(cols)
    j = rng.randrange(len(cols))
    cols[j] ^= 1 << rng.randrange(n)
    return cols


def _maps(rng, X, Y):
    """(kind, map X -> Y) of every kind the checks meet."""
    closed0 = _boundary(X, Y, _cols(rng, X, Y, -1, 0.5, bounded=True))
    closed = _boundary(X, Y, _cols(rng, X, Y, -1, 0.5))
    out = [
        ("closed, shift <= 0", FilteredChainMap(X, Y, closed0, 0)),
        ("closed", FilteredChainMap(X, Y, closed, 0)),
        ("flipped", FilteredChainMap(X, Y, _flipped(rng, closed, Y.n), 0)),
        ("degree 0", FilteredChainMap(X, Y, _cols(rng, X, Y, 0, 0.4), 0)),
        ("any degree",
         FilteredChainMap(X, Y, _cols(rng, X, Y, None, 0.3), 0)),
        ("zero", FilteredChainMap.zero(X, Y)),
    ]
    if X.n == Y.n:
        out.append(("identity matrix",
                    FilteredChainMap.identity(X).viewed(X, Y, 0)))
    return out


def _pairs(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        X = _complex(rng)
        Y = X if rng.random() < 0.2 else _complex(rng)
        if rng.random() < 0.5:
            Y = shift_complex(Y, _level(rng, DENOMINATORS))
        out.append((X, Y))
    return rng, out


def test_closedness_shift_and_closed_shift0_match_the_reference():
    rng, pairs = _pairs(300, 4409)
    seen = Counter()
    for X, Y in pairs:
        for kind, f in _maps(rng, X, Y):
            closed = f.is_closed()
            assert closed == reference_is_closed(f)
            new, old = shift_of_map(f), reference_shift_of_map(f)
            assert new == old and type(new) is type(old)
            ok = _closed_shift0(f, X, Y)
            assert ok == reference_closed_shift0(f, X, Y)
            # the wrong anchors or degree settle it before any column
            other = shift_complex(Y, 1)
            assert (_closed_shift0(f, X, other)
                    == reference_closed_shift0(f, X, other))
            g = f.viewed(X, Y, 1)
            assert _closed_shift0(g, X, Y) == reference_closed_shift0(g, X, Y)
            seen[kind, closed, ok] += 1
            seen["shift", "-inf" if new == NEG_INF
                 else (new > 0) - (new < 0)] += 1
            seen["dens differ"] += X._den != Y._den
            seen["multi-bit"] += any(c & (c - 1) for c in f.cols)
            seen["zero source"] += X.is_zero()
            seen["wrong degree"] += any(
                Y._deg[t] != X._deg[s]
                for s, c in enumerate(f.cols) for t in _bits(c))
    for sign in (-1, 0, 1, "-inf"):
        assert seen["shift", sign] > 20
    assert seen["closed, shift <= 0", True, True] > 100
    assert seen["closed", True, False] > 20
    assert seen["flipped", False, False] > 100
    assert seen["degree 0", True, True] and seen["degree 0", False, False]
    for key in ("dens differ", "multi-bit", "zero source", "wrong degree"):
        assert seen[key] > 20


def test_homotopy_verdicts_match_the_reference():
    """h of degree -1 (sometimes with entries of other degrees or one
    out of range) against dh + hd and a flipped copy, under bounds at,
    just below and away from the shift of h."""
    rng, pairs = _pairs(200, 6007)
    seen = Counter()
    for S, T in pairs:
        h = _cols(rng, S, T, -1 if rng.random() < 0.7 else None, 0.4)
        f = _boundary(S, T, h)
        sh = reference_shift_of_map(FilteredChainMap(S, T, h, -1))
        bounds = [Fraction(0), _level(rng, DENOMINATORS)]
        if sh != NEG_INF:
            bounds += [sh, sh - Fraction(1, 7)]
        candidates = [(False, h)]
        if h:
            candidates.append((True, h[:-1] + [h[-1] | 1 << T.n]))
        for outside, cols in candidates:
            for rhs in (f, _flipped(rng, f, T.n)):
                for bound in bounds:
                    ok = _is_homotopy(S, T, cols, rhs, bound)
                    assert ok == reference_is_homotopy(S, T, cols, rhs,
                                                       bound)
                    seen[ok, outside] += 1
    assert seen[True, False] > 100 and seen[False, False] > 100
    assert seen[False, True] > 100 and not seen[True, True]


def test_cone_checks_and_error_text_match_the_reference():
    rng, pairs = _pairs(200, 7919)
    seen = Counter()
    for X, Y in pairs:
        for kind, f in _maps(rng, X, Y):
            sh = reference_shift_of_map(f)
            lams = [Fraction(0), _level(rng, DENOMINATORS)]
            if sh != NEG_INF:
                lams += [sh, sh - Fraction(1, 7)]
            for lam in lams:
                want = reference_cone_error(f, lam)
                if want is None:
                    assert cone(f, lam).n == X.n + Y.n or X.is_zero()
                else:
                    with pytest.raises(ValueError) as exc:
                        cone(f, lam)
                    assert str(exc.value) == want
                seen[want and want.split(":")[0]] += 1
    assert seen[None] > 300
    assert seen["cone requires a closed map"] > 100
    assert seen["cone level too small"] > 100
