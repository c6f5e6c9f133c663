"""Every map product and column check of `f2linalg` and `complexes` runs
on one int-mask kernel; each must give what the per-column code in
`reference_kernels` gives, on seeded scrambled complexes and on degree-0
maps between them, half of which are not closed."""

import random
from fractions import Fraction

import pytest

from fcplx.barcodes import Bar, Barcode, from_barcode
from fcplx.complexes import (
    FilteredChainMap,
    FilteredComplex,
    compose,
    shift_complex,
    shift_of_map,
)
from fcplx.f2linalg import F2SparseMatrix, _mask_from_indices
from fcplx.homsolve import random_closed_map
from fcplx.rationals import POS_INF
from fcplx.verify import random_basis_change

from reference_kernels import (
    reference_apply,
    reference_compose_columns,
    reference_is_closed,
    reference_map_columns,
    reference_matmul,
    reference_matrix_columns,
    reference_shift_of_map,
    reference_square_failures,
)

LEVELS = tuple(Fraction(n, 4) for n in range(13))


def _complex(rng):
    """A from_barcode object of 0-6 bars in degrees -1..1, a quarter of
    them infinite, in a random basis."""
    bars = []
    for _ in range(rng.randrange(7)):
        lo = rng.choice(LEVELS[:9])
        hi = POS_INF if rng.random() < 0.25 else lo + rng.choice(LEVELS[1:5])
        bars.append(Bar(rng.randrange(-1, 2), lo, hi))
    return random_basis_change(from_barcode(Barcode(bars)), rng)[0]


def _random_map(rng, X, Y):
    """A degree-0 map X -> Y; about a third of its columns are zero."""
    cols = []
    for g in X.gens:
        m = 0
        if rng.random() < 0.7:
            for t, h in enumerate(Y.gens):
                if h.degree == g.degree and rng.random() < 0.5:
                    m |= 1 << t
        cols.append(m)
    return FilteredChainMap(X, Y, cols, 0)


def _maps(count=300):
    """Seeded (f, g) with f: X -> Y and g: Y -> Z.  Even f are closed,
    of shift at most a random s >= 0; odd f are drawn until one is not
    closed."""
    rng = random.Random(4181)
    out = []
    for i in range(count):
        X, Y = _complex(rng), _complex(rng)
        if i % 2 == 0:
            s = rng.choice(LEVELS[:5])
            f = random_closed_map(X, shift_complex(Y, -s), rng).viewed(X, Y)
        else:
            f = _random_map(rng, X, Y)
            while reference_is_closed(f):
                X, Y = _complex(rng), _complex(rng)
                f = _random_map(rng, X, Y)
        out.append((f, _random_map(rng, Y, _complex(rng))))
    return out


MAPS = _maps()


def test_the_maps_are_half_open_and_some_have_zero_columns():
    closed = [reference_is_closed(f) for f, _ in MAPS]
    assert closed.count(False) == len(MAPS) // 2
    assert sum(any(not c for c in f.cols) for f, _ in MAPS) > len(MAPS) // 4
    assert sum(bool(f.cols) and f.is_zero() for f, _ in MAPS) > 0


def test_closedness_shift_and_compose_match_the_reference():
    for f, g in MAPS:
        assert f.is_closed() == reference_is_closed(f)
        new, old = shift_of_map(f), reference_shift_of_map(f)
        assert new == old and type(new) is type(old)
        h = compose(g, f)
        assert h.cols == reference_compose_columns(g, f)
        assert (h.source, h.target, h.degree) == (f.source, g.target, 0)


def test_apply_and_matmul_match_the_reference():
    rng = random.Random(2584)
    for f, g in MAPS:
        F, G = f.matrix(), g.matrix()
        assert G.matmul(F).columns == reference_matmul(G, F)
        x = rng.getrandbits(f.source.n) if f.source.n else 0
        assert f.apply(x) == F.apply(x) == reference_apply(f.cols, x)
        if F.nrows != F.ncols:
            with pytest.raises(ValueError, match="shape mismatch"):
                F.matmul(F)


def test_validate_square_records_match_the_reference():
    """On complexes as built and with random in-range differentials,
    whose d∘d is seldom zero."""
    rng = random.Random(1597)
    for f, _ in MAPS:
        for X in (f.source, f.target):
            bad = FilteredComplex(X.gens, [
                rng.getrandbits(X.n) if X.n else 0 for _ in X.gens])
            for Y in (X, bad):
                square = [p for p in Y.validate() if p.startswith("d(d(")]
                assert square == reference_square_failures(Y)


def _supports(rng, ncols, bound):
    """ncols sorted supports of 0-3 indices below bound."""
    return [sorted(rng.sample(range(bound), rng.randrange(min(3, bound) + 1)))
            for _ in range(ncols)]


def _message(build, *args):
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


def test_out_of_range_columns_raise_the_same_message():
    rng = random.Random(610)
    for f, _ in MAPS:
        X, Y = f.source, f.target
        if not X.n:
            continue
        sup = _supports(rng, X.n, Y.n + 3)
        if all(max(c, default=-1) < Y.n for c in sup):
            sup[rng.randrange(X.n)] = [Y.n + rng.randrange(3)]
        cols = [_mask_from_indices(c) for c in sup]
        assert (_message(F2SparseMatrix, cols, Y.n)
                == _message(reference_matrix_columns, cols, Y.n))
        assert (_message(FilteredChainMap, X, Y, cols)
                == _message(reference_map_columns, X, Y, cols))
    assert _message(_mask_from_indices, [1, -2]) == "negative index -2"
