"""r-inverses read off the cone's contraction and nullhomotopies solved
on their degree slice, side by side with the general hom-complex
solvers in `reference_inverses`."""

import random
from fractions import Fraction

import pytest

from fcplx.barcodes import (
    Bar,
    Barcode,
    barcode,
    canonical_form,
    from_barcode,
    is_r_acyclic,
)
from fcplx.complexes import (
    FilteredChainMap,
    _inclusion,
    _projection,
    compose,
    eta,
    nullhomotopy,
    shift_of_map,
    sum_complexes,
)
from fcplx.f2linalg import F2SparseMatrix
from fcplx.fragmentation import zero_apex_step
from fcplx.homsolve import random_closed_map
from fcplx.rationals import NEG_INF, POS_INF
from fcplx.tpc import r_inverses
from fcplx.verify import (
    GenConfig,
    gen_acyclic,
    gen_complex,
    gen_r_iso,
    random_basis_change,
)
from reference_inverses import (
    eta_down,
    reference_nullhomotopy,
    reference_r_inverses,
)

from conftest import interval_free, interval_pair

QUARTERS = tuple(Fraction(n, 4) for n in range(32))


def _barcode(rng, nbars, max_len=None):
    """nbars bars on quarter levels; with max_len, all finite and at most
    that long, else about a quarter of them infinite."""
    bars = []
    for _ in range(nbars):
        lo, deg = rng.choice(QUARTERS), rng.randrange(2)
        if max_len is None and rng.random() < 0.25:
            bars.append(Bar(deg, lo, POS_INF))
        else:
            top = 16 if max_len is None else int(4 * max_len)
            bars.append(Bar(deg, lo, lo + Fraction(rng.randint(1, top), 4)))
    return Barcode(bars)


def _large_r_iso(rng, r, nbars):
    """An r-isomorphism between complexes of 40-150 generators: the
    inclusion of, or projection onto, a summand whose complement has
    bars of length <= r (one exactly r), in random bases."""
    A0 = from_barcode(_barcode(rng, nbars))
    f, A, B = FilteredChainMap.identity(A0), A0, A0
    if r > 0:
        K = _barcode(rng, rng.randint(0, 3), max_len=r)
        lo = rng.choice(QUARTERS)
        K = from_barcode(Barcode(K.bars + (Bar(0, lo, lo + r),)))
        S = sum_complexes([A0, K])[0]
        if rng.random() < 0.5:
            f, A, B = _projection(S, A0, 0), S, A0
        else:
            f, A, B = _inclusion(A0, S, 0), A0, S
    A2, fa, _ = random_basis_change(A, rng)
    B2, _, gb = random_basis_change(B, rng)
    return compose(gb, compose(f, fa)), A2, B2


def _random_map(rng, X, Y, degree, density=0.4):
    """Any GF(2) map of the given degree, closed or not."""
    cols = []
    for gs in X.gens:
        m = 0
        for t, gt in enumerate(Y.gens):
            if gt.degree == gs.degree + degree and rng.random() < density:
                m |= 1 << t
        cols.append(m)
    return FilteredChainMap(X, Y, cols, degree)


def _boundary(h):
    """dh + hd for a map h of any degree."""
    X, Y = h.source, h.target
    H = h.matrix()
    M = Y.diff_matrix().matmul(H)
    N = H.matmul(X.diff_matrix())
    cols = [a ^ b for a, b in zip(M.columns, N.columns)]
    return FilteredChainMap(X, Y, cols, h.degree + 1)


def _key(h):
    return None if h is None else (h.source, h.target, repr(h.cols),
                                   h.degree)


def _complex(rng, small):
    if small:
        return gen_complex(GenConfig(max_generators=8), rng)
    return random_basis_change(
        from_barcode(_barcode(rng, rng.randint(2, 8))), rng)[0]


def test_nullhomotopy_matches_the_full_hom_complex_solve():
    rng = random.Random(3101)
    bounds = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2),
              POS_INF)
    seen = {"none": 0, "found": 0, "nonzero-degree": 0}
    for case in range(600):
        X = _complex(rng, case % 3 != 0)
        Y = X if case % 5 == 0 else _complex(rng, case % 3 != 1)
        degree = rng.choice((-1, 0, 0, 1))
        kind = case % 3
        if kind == 0:
            f = _random_map(rng, X, Y, degree)
        elif kind == 1:
            f = _boundary(_random_map(rng, X, Y, degree - 1))
        else:
            f = random_closed_map(X, Y, rng)
        bound = rng.choice(bounds)
        got = nullhomotopy(f, bound)
        assert _key(got) == _key(reference_nullhomotopy(f, bound)), case
        seen["none" if got is None else "found"] += 1
        seen["nonzero-degree"] += f.degree != 0
    assert min(seen.values()) >= 100, seen


def _homotopic_at(f, g, bound):
    return reference_nullhomotopy(f + g, bound) is not None


def _check_inverses(f, r, phi, psi):
    A, B = f.source, f.target
    for m in (phi, psi):
        sh = shift_of_map(m)
        assert m.degree == 0 and m.is_closed() and m.validate() == []
        assert sh == NEG_INF or sh <= 0
    assert _homotopic_at(compose(phi, f), eta_down(A, r), 0)
    assert _homotopic_at(compose(f, psi), eta(B, r), 0)


def _pairs():
    cfg = GenConfig(seed=3201)
    grid = [q for q in cfg.filtration_grid if q <= 2]
    for off in range(300):
        rng = cfg.rng(off)
        r = rng.choice(grid)
        f, _, _ = gen_r_iso(cfg, r, rng)
        yield f, r
    rng = random.Random(3202)
    for _ in range(30):
        r = rng.choice((0, Fraction(1, 2), 1, Fraction(3, 2), 2))
        f, _, _ = _large_r_iso(rng, Fraction(r), rng.randint(12, 30))
        assert 40 <= f.source.n + f.target.n <= 150
        yield f, Fraction(r)


def test_contraction_inverses_agree_with_the_hom_complex_solve():
    for k, (f, r) in enumerate(_pairs()):
        phi, psi = r_inverses(f, r)
        _check_inverses(f, r, phi, psi)
        assert phi.cols == psi.cols
        ref_phi, ref_psi = reference_r_inverses(f, r)
        assert _homotopic_at(phi, ref_phi, r)
        assert _homotopic_at(psi, ref_psi, r)
        # two random draws: both inverses, and r-equivalent
        phi1, psi1 = r_inverses(f, r, rng=random.Random(2 * k))
        phi2, psi2 = r_inverses(f, r, rng=random.Random(2 * k + 1))
        _check_inverses(f, r, phi1, psi1)
        assert _homotopic_at(phi1, phi2, r)
        assert _homotopic_at(psi1, psi2, r)


def test_random_draws_give_varied_inverses():
    f, _, _ = _large_r_iso(random.Random(3301), Fraction(1), 12)
    drawn = {r_inverses(f, 1, rng=random.Random(k))[0].cols
             for k in range(8)}
    assert len(drawn) > 1


def test_inverse_error_contract():
    X = interval_free(0)
    with pytest.raises(ValueError,
                       match=r"^not an 1-isomorphism; cone carries bar "
                             r"Bar\(degree=0, lo=Fraction\(0, 1\), "
                             r"hi=Fraction\(2, 1\)\)$"):
        r_inverses(eta(X, 2), 1)
    with pytest.raises(ValueError, match="cone carries bar .*hi=inf"):
        r_inverses(FilteredChainMap.zero(X, X), 5)
    up = FilteredChainMap.identity(X).viewed(X, interval_free(1))
    with pytest.raises(ValueError,
                       match=r"^is_r_isomorphism requires a shift-<=0 map$"):
        r_inverses(up, 3)
    P = interval_pair(2, 0)
    d = FilteredChainMap(P, P, [1 << 0, 0], 0)  # x0 only
    with pytest.raises(ValueError, match=r"^is_r_isomorphism requires a "
                                         r"closed degree-0 map$"):
        r_inverses(d, 3)
    with pytest.raises(ValueError, match="threshold must be >= 0"):
        r_inverses(FilteredChainMap.identity(X), -1)
    with pytest.raises(ValueError, match="needs a W-isomorphism"):
        zero_apex_step(eta(X, 2), 1)


def test_acyclicity_witness_is_a_contraction_within_r():
    cfg = GenConfig(seed=3401)
    rng = random.Random(3402)
    cases = [gen_acyclic(cfg, cfg.rng(off), max_depth=2) for off in range(60)]
    for _ in range(15):
        cases.append(random_basis_change(from_barcode(
            _barcode(rng, rng.randint(5, 40), max_len=3)), rng)[0])
    for X in cases:
        B = X.diff_matrix()
        depth = max(b.length() for b in barcode(X))
        assert not is_r_acyclic(X, depth - Fraction(1, 8))
        assert is_r_acyclic(X, depth)
        h = FilteredChainMap(
            X, X, canonical_form(X)[1].contraction().columns, -1)
        assert h.validate() == []
        H = h.matrix()
        dh_hd = [a ^ b for a, b in zip(B.matmul(H).columns,
                                        H.matmul(B).columns)]
        assert F2SparseMatrix(dh_hd, X.n) == F2SparseMatrix.identity(X.n)
        assert shift_of_map(h) <= depth

