from fractions import Fraction

import pytest

from fcplx.complexes import (
    FilteredChainMap,
    compose,
    cone,
    eta,
    homotopic,
    make_complex,
    shift_complex,
    shift_of_map,
    sum_complexes,
    translate,
    zero_complex,
)
from fcplx.rationals import NEG_INF, POS_INF
from fcplx.tpc import (
    is_r_isomorphism,
    r_equivalent,
    r_inverses,
    representative_at_level,
    spectral_invariant,
)
from fcplx.verify import GenConfig, gen_complex, gen_r_iso, random_closed_map

from conftest import interval_free, interval_pair
from reference_inverses import eta_down


def test_everything_is_zero_equivalent_to_itself(e2_31):
    f = FilteredChainMap.identity(e2_31)
    assert r_equivalent(f, f, 0)


def test_identity_equivalence_threshold_matches_depth():
    X = interval_pair(3, 1)
    idm = FilteredChainMap.identity(X)
    z = FilteredChainMap.zero(X, X)
    assert r_equivalent(idm, z, 2, level=Fraction(0))
    assert not r_equivalent(idm, z, Fraction(15, 8), level=Fraction(0))


def test_equivalence_survives_precomposition(rng):
    cfg = GenConfig(seed=61, max_generators=4)
    for off in range(10):
        X = gen_complex(cfg, cfg.rng(off))
        Y = gen_complex(cfg, cfg.rng(off + 40))
        f = random_closed_map(X, Y, rng)
        g = random_closed_map(X, Y, rng)
        for r in (Fraction(1, 2), Fraction(2)):
            if r_equivalent(f, g, r, level=Fraction(0)):
                e = eta(X, Fraction(1, 2))
                assert r_equivalent(
                    compose(f, e), compose(g, e), r, level=Fraction(0)
                )


def test_identity_is_zero_isomorphism(e2_31):
    assert is_r_isomorphism(FilteredChainMap.identity(e2_31), 0)


def test_comparison_map_is_r_isomorphism():
    X = sum_complexes([interval_free(0), interval_pair(2, 1)])[0]
    r = Fraction(3, 2)
    assert is_r_isomorphism(eta(X, r), r)
    assert not is_r_isomorphism(eta(X, r), r - Fraction(1, 8))


def test_positive_shift_maps_are_rejected():
    X = interval_free(0)
    up = FilteredChainMap.identity(X).viewed(X, shift_complex(X, 1))
    with pytest.raises(ValueError):
        is_r_isomorphism(up, 5)


def test_iso_composition_adds_levels():
    cfg = GenConfig(seed=71)
    for off in range(15):
        rng = cfg.rng(off)
        r = Fraction(rng.randint(0, 4), 2)
        s = Fraction(rng.randint(0, 4), 2)
        f, A, B = gen_r_iso(cfg, r, rng)
        g, _, C = gen_r_iso(cfg, s, rng, source=B)
        assert is_r_isomorphism(compose(g, f), r + s)


def test_inverses_of_identity_are_identities(e2_31):
    phi, psi = r_inverses(FilteredChainMap.identity(e2_31), 0)
    assert homotopic(phi, FilteredChainMap.identity(e2_31), 0) is not None
    assert homotopic(psi, FilteredChainMap.identity(e2_31), 0) is not None


def test_inverse_contracts_for_comparison_map():
    X = sum_complexes([interval_pair(2, 0), interval_free(1)])[0]
    r = Fraction(2)
    f = eta(X, r)
    phi, psi = r_inverses(f, r)
    assert homotopic(compose(phi, f), eta_down(X, r).viewed(
        f.source, phi.target), 0) is not None
    assert homotopic(compose(f, psi), eta(X, r).viewed(
        psi.source, X), 0) is not None
    # the two inverses agree after shifting, up to level r
    shifted_phi = phi.viewed(
        shift_complex(phi.source, r), shift_complex(phi.target, r)
    )
    assert homotopic(shifted_phi, psi, r) is not None
    assert is_r_isomorphism(psi, 2 * r)


def test_inverse_error_names_an_obstructing_bar():
    X = interval_free(0)
    up = eta(X, 2)
    with pytest.raises(ValueError, match="bar"):
        r_inverses(up, 1)


def test_one_sided_cancellation(rng):
    cfg = GenConfig(seed=81)
    for off in range(10):
        trng = cfg.rng(off)
        r = Fraction(trng.randint(1, 3), 2)
        f, A, B = gen_r_iso(cfg, r, trng)
        u = random_closed_map(B, A, trng)
        if homotopic(compose(u, f), FilteredChainMap.zero(A, A), 0):
            assert r_equivalent(
                u, FilteredChainMap.zero(B, A), r, level=Fraction(0)
            )


def test_spectral_invariant_basics():
    X = interval_free(0)
    assert spectral_invariant(FilteredChainMap.identity(X)) == 0
    assert spectral_invariant(FilteredChainMap.zero(X, X)) == NEG_INF
    r = Fraction(7, 4)
    up = FilteredChainMap.identity(X).viewed(shift_complex(X, -r), X)
    assert spectral_invariant(up) == r


def test_spectral_invariant_ignores_homotopic_noise():
    # a map plus a boundary has the same class, so the same invariant
    X = interval_pair(3, 0)
    idm = FilteredChainMap.identity(X)
    assert spectral_invariant(idm) <= 0
    z = FilteredChainMap.zero(X, X)
    assert spectral_invariant(z) == NEG_INF


def test_representative_at_level_moves_shift_down():
    X = interval_pair(3, 0)
    Y = interval_pair(3, 0)
    # x* (x) y has level 0-3 <= -3; the identity has shift 0
    f = FilteredChainMap.identity(X).viewed(X, Y)
    sig = spectral_invariant(f)
    g = representative_at_level(f, sig)
    assert shift_of_map(g) <= sig
    assert homotopic(f, g, 10) is not None


def test_every_map_has_a_representative_at_level_inf():
    # one generator, a map of shift 1: shift <= +inf, so f itself
    X = interval_free(0)
    f = FilteredChainMap.identity(X).viewed(X, shift_complex(X, 1))
    assert shift_of_map(f) == 1
    assert representative_at_level(f, POS_INF) is f
