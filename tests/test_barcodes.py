import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcplx.barcodes import (
    Bar,
    Barcode,
    barcode,
    barcode_to_text,
    boundary_depth,
    canonical_form,
    from_barcode,
    is_r_acyclic,
    persistence_rank,
)
from fcplx.fragmentation import _scaled
from fcplx.complexes import (
    FilteredChainMap,
    is_nullhomotopic_within,
    make_complex,
    shift_of_map,
)
from fcplx.rationals import POS_INF
from fcplx.verify import (
    GenConfig,
    gen_complex,
    random_basis_change,
)

from conftest import interval_free, interval_pair
from reference_persistence import persistence_rank_bruteforce


def _old_barcode(bars):
    """`Barcode(bars)` as it was built before: every bar rewrapped and
    the whole tuple sorted."""
    return tuple(sorted(Bar(*b) for b in bars))


def _seeded_bars(rng):
    """Bars in degrees -1..2 on levels p/q for q in 1..3, some infinite,
    some of zero length, some repeated, in no order."""
    levels = [Fraction(v, q) for q in (1, 2, 3) for v in range(-6, 7)]
    bars = []
    for _ in range(rng.randrange(8)):
        d, lo = rng.randrange(-1, 3), rng.choice(levels)
        hi = rng.choice([POS_INF, lo] + [v for v in levels if v > lo])
        bars += [Bar(d, lo, hi)] * rng.choice((1, 1, 2, 3))
    rng.shuffle(bars)
    return bars


def test_order_kept_builders_equal_the_sorting_ones():
    rng = random.Random(610)
    for _ in range(200):
        bars = _seeded_bars(rng)
        B = Barcode(bars)
        assert B.bars == _old_barcode(bars)
        assert Barcode(tuple(b) for b in bars) == B
        assert all(type(b) is Bar for b in B)
        r = rng.choice([0, 2, Fraction(-5, 2), Fraction(1, 3)])
        assert B.shifted(r).bars == _old_barcode(
            Bar(b.degree, b.lo + r, b.hi + r if b.is_finite() else b.hi)
            for b in B)
        k = rng.randrange(-2, 3)
        assert B.degree_translated(k).bars == _old_barcode(
            Bar(b.degree - k, b.lo, b.hi) for b in B)
        assert B.without_zero_length().bars == _old_barcode(
            b for b in B if b.length() != 0)
        assert _scaled(B, 6).bars == _old_barcode(
            Bar(b.degree, int(b.lo * 6),
                int(b.hi * 6) if b.is_finite() else b.hi) for b in B)


def test_single_free_generator_is_one_infinite_bar():
    B, W = canonical_form(interval_free(Fraction(1, 2)))
    assert B == Barcode([Bar(0, Fraction(1, 2), POS_INF)])
    assert W.check()


def test_killed_generator_pairs_into_one_finite_bar(e2_31):
    B, W = canonical_form(e2_31)
    assert B == Barcode([Bar(1, 1, 3)])
    assert W.check()


def test_canonical_form_rejects_invalid_input():
    bad = make_complex([("y", 0, 3), ("x", 1, 5)], {"y": ["x"]})
    with pytest.raises(ValueError):
        canonical_form(bad)


def test_roundtrip_on_seeded_complexes():
    cfg = GenConfig(seed=101, max_generators=30)
    for off in range(40):
        X = gen_complex(cfg, cfg.rng(off))
        B, W = canonical_form(X)
        assert W.check()
        assert barcode(from_barcode(B)) == B
        counts = len(B.infinite()) + 2 * len(B.finite())
        assert counts == X.n


def test_from_barcode_of_empty_is_zero():
    assert from_barcode(Barcode()).is_zero()


def test_from_barcode_single_finite_bar_shape():
    X = from_barcode(Barcode([Bar(1, 1, 3)]))
    assert X.n == 2
    degs = sorted(g.degree for g in X.gens)
    assert degs == [0, 1]
    assert barcode(X) == Barcode([Bar(1, 1, 3)])


def test_barcode_invariant_under_level_preserving_base_change(rng):
    cfg = GenConfig(seed=55, max_generators=10)
    for off in range(25):
        X = gen_complex(cfg, cfg.rng(off))
        Xp, fwd, _ = random_basis_change(X, rng)
        assert Xp.validate() == []
        assert barcode(Xp) == barcode(X)
        assert fwd.is_closed()


def test_boundary_depth_rules(e2_31):
    assert boundary_depth(interval_free(3)) == 0
    assert boundary_depth(e2_31) == 2
    from fcplx.complexes import sum_complexes

    S = sum_complexes([e2_31, interval_pair(10, 9)])[0]
    assert boundary_depth(S) == 2


def test_acyclicity_thresholds(e2_31):
    assert is_r_acyclic(e2_31, 2) and not is_r_acyclic(e2_31, Fraction(15, 8))
    assert is_r_acyclic(make_complex([], {}), 0)
    for r in (0, 5, 50):
        assert not is_r_acyclic(interval_free(1), r)
    # the witness, read off the canonical form: a contraction of shift 2
    h = FilteredChainMap(
        e2_31, e2_31, canonical_form(e2_31)[1].contraction().columns, -1)
    assert h.validate() == [] and shift_of_map(h) == 2


def test_acyclicity_agrees_with_homotopy_criterion():
    cfg = GenConfig(seed=77, max_generators=8)
    for off in range(30):
        X = gen_complex(cfg, cfg.rng(off))
        B = barcode(X)
        if B.infinite():
            continue
        d = boundary_depth(B)
        assert is_r_acyclic(X, d)
        assert is_nullhomotopic_within(
            FilteredChainMap.identity(X), d
        ) is not None


def test_persistence_rank_on_intervals():
    X = interval_free(2)
    assert persistence_rank(X, 2, 5, 0) == 1
    assert persistence_rank(X, Fraction(3, 2), 5, 0) == 0
    Y = interval_pair(3, 1)
    assert persistence_rank(Y, 1, 2, 1) == 1
    assert persistence_rank(Y, 1, 3, 1) == 0
    assert persistence_rank(Y, 1, 1, 1) == 1
    with pytest.raises(ValueError):
        persistence_rank(Y, 2, 1, 1)


def test_persistence_rank_matches_direct_linear_algebra():
    cfg = GenConfig(seed=88, max_generators=10)
    for off in range(20):
        X = gen_complex(cfg, cfg.rng(off))
        levels = sorted({g.ell for g in X.gens})
        if not levels:
            continue
        rng = cfg.rng(off + 1000)
        r = rng.choice(levels)
        s = r + Fraction(rng.randint(0, 2))
        for deg in {g.degree for g in X.gens}:
            assert persistence_rank(X, r, s, deg) == \
                persistence_rank_bruteforce(X, r, s, deg)


def test_interval_structure_agrees_with_acyclicity():
    for lo, hi in ((0, 1), (1, 3), (2, 2)):
        X = interval_pair(hi, lo) if hi > lo else from_barcode(
            Barcode([Bar(0, lo, hi)]))
        for r in (0, 1, 2, 3):
            # one bar is r-torsion exactly when r reaches its length
            assert is_r_acyclic(X, r) == (r >= hi - lo)


def test_barcode_text_is_sorted_and_exact():
    B = Barcode([
        Bar(1, Fraction(1, 2), POS_INF),
        Bar(0, 2, 3),
        Bar(0, 1, 4),
    ])
    assert barcode_to_text(B) == (
        "bar 0 1 4\nbar 0 2 3\nbar 1 1/2 inf\n"
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 6), st.integers(0, 7)),
    max_size=5,
))
def test_roundtrip_property(bars):
    B = Barcode(
        Bar(d, Fraction(a), POS_INF if b == 7 else Fraction(max(a, b)))
        for d, a, b in bars
    )
    assert barcode(from_barcode(B)) == B
