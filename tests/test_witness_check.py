"""`CanonicalFormWitness.check` certifies a witness by products and one
rank test, and `canonical_form` reads each new basis vector off a
column that carries its image beside its combination.  Each must give
what the conjugating check in `reference_levels` and the remapping
reduction in `reference_canonical` give: the same verdict on seeded
barcodes-shaped witnesses and on corrupted copies of them, and the same
barcode, matrix, pairs and unpaired generators on seeded complexes."""

import random
from fractions import Fraction

import pytest

from fcplx import barcodes, f2linalg
from fcplx.barcodes import (
    Bar,
    Barcode,
    CanonicalFormWitness,
    canonical_form,
)
from fcplx.complexes import make_complex
from fcplx.f2linalg import F2SparseMatrix
from fcplx.rationals import POS_INF
from fcplx.verify import random_basis_change
from reference_canonical import reference_canonical_form
from reference_levels import reference_witness_check

# a coarse grid, so many generators share a level
GRID = tuple(Fraction(k, 2) for k in range(8))


def _barcode(rng, nbars, zero_share=0.0):
    """nbars bars on GRID, about a fifth infinite, degrees 0 to 2; a
    finite bar has length 0 with probability zero_share."""
    bars = []
    for _ in range(nbars):
        lo = rng.choice(GRID)
        if rng.random() < 0.2:
            hi = POS_INF
        elif rng.random() < zero_share:
            hi = lo
        else:
            hi = lo + rng.choice(GRID[1:])
        bars.append(Bar(rng.randrange(3), lo, hi))
    return Barcode(bars)


def _complex(rng, B):
    """B's summands with their generators in a random order, in a random
    level-legal basis."""
    triples, boundaries = [], {}
    for k, b in enumerate(B):
        if b.is_finite():
            triples += [(f"x{k}", b.degree, b.lo),
                        (f"y{k}", b.degree - 1, b.hi)]
            boundaries[f"y{k}"] = [f"x{k}"]
        else:
            triples.append((f"i{k}", b.degree, b.lo))
    rng.shuffle(triples)
    return random_basis_change(make_complex(triples, boundaries), rng)[0]


def _witnesses():
    """Witnesses of 20 to 180 generators, as the `barcodes` benchmark
    makes them."""
    rng = random.Random(24)
    out = []
    while len(out) < 24:
        X = _complex(rng, _barcode(rng, rng.randrange(12, 101)))
        if 20 <= X.n <= 180:
            out.append(canonical_form(X)[1])
    return out


WITNESSES = _witnesses()


def _with(wit, cols=None, pairs=None, unpaired=None):
    return CanonicalFormWitness(
        wit.complex,
        wit.matrix if cols is None else F2SparseMatrix(cols, wit.complex.n),
        wit.pairs if pairs is None else pairs,
        wit.unpaired if unpaired is None else unpaired)


def _flipped(rng, wit):
    cols = list(wit.matrix.columns)
    j = rng.randrange(len(cols))
    cols[j] ^= 1 << rng.randrange(len(cols))
    return _with(wit, cols=cols)


def _zeroed(rng, wit):
    cols = list(wit.matrix.columns)
    cols[rng.randrange(len(cols))] = 0
    return _with(wit, cols=cols)


def _swapped(rng, wit):
    """Two pairs exchange their y's."""
    pairs = list(wit.pairs)
    a, b = rng.sample(range(len(pairs)), 2)
    (xa, ya), (xb, yb) = pairs[a], pairs[b]
    pairs[a], pairs[b] = (xa, yb), (xb, ya)
    return _with(wit, pairs=pairs)


def _singular(rng, wit):
    """One unpaired column copied onto another unpaired generator of the
    same level: the levels and D*U = U*D' still hold, U is singular.
    None when no two unpaired generators share a level."""
    lev = wit.complex._lev
    by_level = {}
    for g in wit.unpaired:
        by_level.setdefault(lev[g], []).append(g)
    shared = [gs for gs in by_level.values() if len(gs) > 1]
    if not shared:
        return None
    src, dst = rng.sample(rng.choice(shared), 2)
    cols = list(wit.matrix.columns)
    cols[dst] = cols[src]
    return _with(wit, cols=cols)


def test_check_matches_the_conjugating_check():
    rng = random.Random(4243)
    outcomes = {}
    for wit in WITNESSES:
        assert wit.check() and reference_witness_check(wit)
        for corrupt in (_flipped, _zeroed, _swapped, _singular):
            for _ in range(4):
                bent = corrupt(rng, wit)
                if bent is None:
                    continue
                verdict = bent.check()
                assert verdict == reference_witness_check(bent), corrupt
                outcomes.setdefault(corrupt.__name__, set()).add(verdict)
    # a flipped entry is sometimes still a witness; every other
    # corruption always breaks one, the singular U only by its rank
    assert outcomes == {"_flipped": {True, False}, "_zeroed": {False},
                        "_swapped": {False}, "_singular": {False}}


def test_the_singular_copy_passes_every_test_but_the_rank():
    """The copied column keeps its level and its product with D, so only
    the rank test can turn it down."""
    rng = random.Random(4253)
    seen = 0
    for wit in WITNESSES:
        bent = _singular(rng, wit)
        if bent is None:
            continue
        seen += 1
        X, cols = wit.complex, bent.matrix.columns
        image = {y: x for x, y in wit.pairs}
        for j, c in enumerate(cols):
            assert X.level_of(c) == X.ell(j)
            want = cols[image[j]] if j in image else 0
            assert f2linalg._apply(X.diff, c) == want
        assert not bent.check()
    assert seen > len(WITNESSES) // 2


@pytest.mark.parametrize("bend", [
    # unpaired lists every generator, the pairs as well
    lambda w: _with(w, unpaired=range(w.complex.n)),
    lambda w: _with(w, pairs=w.pairs + ((0, 99),)),
    lambda w: _with(w, pairs=((-1, w.pairs[0][1]),) + w.pairs[1:],
                    unpaired=w.unpaired + (w.pairs[0][0],)),
    lambda w: _with(w, unpaired=w.unpaired + (w.complex.n,)),
    lambda w: _with(w, unpaired=w.unpaired[1:]),
    lambda w: _with(w, pairs=w.pairs[1:] + w.pairs[:1] + w.pairs[:1],
                    unpaired=w.unpaired + w.pairs[0]),
])
def test_generators_outside_one_partition_are_turned_down(bend):
    """The x's, the y's and `unpaired` must cover range(n) once each; an
    index outside it gives False, not an error."""
    for wit in WITNESSES[:6]:
        assert bend(wit).check() is False


def test_check_runs_no_inverse_and_no_column_reduction(monkeypatch):
    calls = {"invert": 0, "column_reduce": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in (f2linalg, barcodes):
        monkeypatch.setattr(mod, "invert",
                            counted("invert", f2linalg.invert))
    monkeypatch.setattr(f2linalg, "column_reduce",
                        counted("column_reduce", f2linalg.column_reduce))
    rng = random.Random(4261)
    for wit in WITNESSES:
        assert wit.check()
        _flipped(rng, wit).check()
    assert calls == {"invert": 0, "column_reduce": 0}


def test_canonical_form_matches_the_remapping_reduction():
    rng = random.Random(4271)
    sizes = zero_length = 0
    for nbars in [0, 1, 2] + [rng.randrange(3, 121) for _ in range(40)]:
        X = _complex(rng, _barcode(rng, nbars, zero_share=0.2))
        if X.n > 200:
            continue
        B, W = canonical_form(X)
        B0, W0 = reference_canonical_form(X)
        assert B.bars == B0.bars
        assert W.matrix == W0.matrix
        assert (W.pairs, W.unpaired) == (W0.pairs, W0.unpaired)
        assert W.check()
        sizes += X.n
        zero_length += sum(b.length() == 0 for b in B.finite())
    assert sizes > 2000 and zero_length > 20
