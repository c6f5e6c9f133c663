from collections import Counter
from fractions import Fraction

import pytest

from fcplx import barcodes
from fcplx.barcodes import (
    Bar,
    Barcode,
    barcode,
    boundary_depth,
    bottleneck,
    from_barcode,
)
from fcplx.complexes import (
    FilteredChainMap,
    compose,
    make_complex,
    shift_complex,
    sum_complexes,
    translate,
    translate_inverse,
    zero_complex,
)
from fcplx.fragmentation import (
    EMPTY_FAMILY,
    ConeDecomposition,
    FamilySpec,
    comparison_map,
    compose_decompositions,
    d_frag_upper,
    delta_exact_small,
    delta_upper,
    eta_slot_triangle,
    merge_slot_decompositions,
    parse_family,
    prop51_pipeline,
    refine,
    singleton_decomposition,
    singleton_triangle,
    sum_decompositions,
    underline_delta_upper,
    validate_decomposition,
    zero_apex_step,
    zero_iso_between,
)
from fcplx.rationals import POS_INF
from fcplx.tpc import (
    identity_triangle,
    is_r_isomorphism,
    triangle_from_morphism,
    verify_triangle,
)
from fcplx.verify import GenConfig, _random_barcode

from conftest import interval_free, interval_pair
from test_step_builders import _count_calls


def chain_ok(D):
    prev = zero_complex()
    for tri, wit in D.steps:
        if tri.B != prev or not verify_triangle(tri, wit)[0]:
            return False
        prev = tri.C
    return True


def test_singleton_builds_its_object_at_no_cost():
    X = interval_pair(3, 1)
    D = singleton_decomposition(X)
    ok, w, probs = validate_decomposition(D, X, EMPTY_FAMILY, X)
    assert ok and w == 0, probs


def test_shift_slot_decomposition_validates_with_its_shift():
    # linearization (0, slot, 0) with the slot carrying the raised copy
    a, c = Fraction(4), Fraction(1)
    Ec = interval_free(c)
    tri, wit = eta_slot_triangle(Ec, a - c)
    pad1 = identity_triangle(zero_complex())
    end = zero_apex_step(FilteredChainMap.identity(Ec), 0)
    D = ConeDecomposition((pad1, (tri, wit), end))
    ok, w, probs = validate_decomposition(
        D, Ec, EMPTY_FAMILY, interval_free(a)
    )
    assert ok, probs
    assert w == a - c


def test_tampered_middle_object_breaks_the_chain():
    X = interval_pair(3, 1)
    tri, wit = singleton_triangle(X)
    other = interval_free(0)
    bad_tri, bad_wit = triangle_from_morphism(
        FilteredChainMap.identity(other))
    D = ConeDecomposition(((tri, wit), (bad_tri, bad_wit)))
    ok, _, probs = validate_decomposition(D, other, EMPTY_FAMILY, X)
    assert not ok
    assert any("chain" in p for p in probs)


def test_nested_refinement_adds_weights_exactly():
    X = interval_free(0)
    g = FilteredChainMap.identity(X).viewed(X, shift_complex(X, 2))
    t1, w1 = triangle_from_morphism(g)     # weight 2
    D = ConeDecomposition((singleton_triangle(t1.B), (t1, w1)))
    tri_in, wit_in = eta_slot_triangle(t1.A, Fraction(3, 2))
    Dp = ConeDecomposition(((tri_in, wit_in),))
    D2 = refine(D, 1, Dp)
    assert D2.total_weight() == D.total_weight() + Dp.total_weight()
    assert chain_ok(D2)
    lin = [barcode(A) for A in D2.linearization()]
    want = [
        barcode(translate_inverse(t1.B)),
        barcode(translate(tri_in.A)),
    ]
    assert lin == want
    assert barcode(D2.target()) == barcode(D.target())


def test_refining_one_step_by_two_adds_a_linearization_entry():
    # a single triangle refined by a two-step decomposition grows into
    # three steps whose apexes are translated inner apexes
    X = interval_free(0)
    g = FilteredChainMap.identity(X).viewed(X, shift_complex(X, 1))
    t1, w1 = triangle_from_morphism(g)
    D = ConeDecomposition((singleton_triangle(t1.B), (t1, w1)))
    inner_obj = t1.A
    Dp = ConeDecomposition((
        identity_triangle(zero_complex()),
        eta_slot_triangle(inner_obj, Fraction(1, 2)),
    ))
    assert Dp.target() == inner_obj
    D2 = refine(D, 1, Dp)
    assert len(D2.steps) == 3
    assert D2.total_weight() == D.total_weight() + Dp.total_weight()
    assert chain_ok(D2)


def test_refine_by_singleton_keeps_weight():
    X = interval_pair(2, 0)
    tri, wit = singleton_triangle(X)
    D = ConeDecomposition(((tri, wit),))
    Dp = singleton_decomposition(tri.A)
    D2 = refine(D, 0, Dp)
    assert D2.total_weight() == D.total_weight()
    assert chain_ok(D2)
    assert barcode(D2.target()) == barcode(X)


def test_sum_decompositions_adds_weights():
    A = interval_free(0)
    B = interval_free(1)
    DA = ConeDecomposition((eta_slot_triangle(A, 1),))
    DB = ConeDecomposition((eta_slot_triangle(B, 2),))
    DS = sum_decompositions(DA, DB)
    assert DS.total_weight() == 3
    assert chain_ok(DS)
    assert barcode(DS.target()) == barcode(sum_complexes([A, B])[0])


def test_merge_slot_decompositions_bounds_the_sum():
    A, Ap = interval_free(0), interval_free(1)
    B, Bp = interval_pair(2, 0), interval_pair(3, 1)
    va, Da = delta_upper(A, Ap)
    vb, Db = delta_upper(B, Bp)
    DM = merge_slot_decompositions(Da, Ap, Db, Bp)
    assert chain_ok(DM)
    assert DM.total_weight() <= va + vb
    tgt = sum_complexes([A, B])[0]
    slot = sum_complexes([from_barcode(barcode(Ap)),
                          from_barcode(barcode(Bp))])[0]
    ok, _, probs = validate_decomposition(DM, tgt, EMPTY_FAMILY, slot)
    assert ok, probs


def test_delta_upper_of_identical_objects_is_zero():
    X = interval_pair(3, 1)
    v, D = delta_upper(X, X)
    assert v == 0
    ok, _, probs = validate_decomposition(D, X, EMPTY_FAMILY, X)
    assert ok, probs


def test_delta_upper_free_interval_cases():
    a, c = Fraction(3), Fraction(1)
    hi, lo = interval_free(a), interval_free(c)
    v_up, D_up = delta_upper(hi, lo)    # build the higher through lower
    v_dn, D_dn = delta_upper(lo, hi)
    assert v_up <= a - c and v_dn <= a - c
    assert validate_decomposition(D_up, hi, EMPTY_FAMILY, lo)[0]
    assert validate_decomposition(D_dn, lo, EMPTY_FAMILY, hi)[0]


def test_delta_upper_finite_pair_within_four_tau():
    X = interval_pair(4, 0, degree=1)
    Y = interval_pair(Fraction(9, 2), Fraction(1, 2), degree=1)
    tau = bottleneck(barcode(X), barcode(Y))[0]
    v, D = delta_upper(X, Y)
    assert v <= 4 * tau
    assert validate_decomposition(D, X, EMPTY_FAMILY, Y)[0]


def test_d_frag_symmetry_and_reflexivity():
    X = interval_pair(3, 1)
    Y = interval_pair(Fraction(7, 2), Fraction(1, 2))
    assert d_frag_upper(X, X) == 0
    d1 = d_frag_upper(X, Y)
    d2 = d_frag_upper(Y, X)
    assert d1 == d2


def test_triangle_inequality_through_midpoint():
    A = interval_free(0)
    B = interval_free(1)
    C = interval_free(3)
    v_ab, D_ab = delta_upper(A, B)
    v_bc, D_bc = delta_upper(B, C)
    D = compose_decompositions(D_ab, B, D_bc)
    ok, w, probs = validate_decomposition(D, A, EMPTY_FAMILY, C)
    assert ok, probs
    assert w == v_ab + v_bc
    v_direct, _ = delta_upper(A, C, via=(B,))
    assert v_direct <= w


def test_underline_variant_dominates_and_feeds_back():
    X = interval_pair(2, 0)
    Y = interval_pair(3, 1)
    uv, chain = underline_delta_upper(Y, X)
    dv, _ = delta_upper(Y, X)
    if uv != POS_INF:
        assert uv >= dv or uv == dv
    assert underline_delta_upper(X, X)[0] == 0
    with pytest.raises(ValueError):
        underline_delta_upper(X, Y, FamilySpec((), with_zero=False))


def test_underline_variant_takes_zero_from_a_member_without_bars():
    """A member without bars puts zero in the family as the flag does."""
    X, Xp = interval_pair(2, 0, degree=0), interval_pair(2, 1, degree=0)
    assert underline_delta_upper(X, Xp)[0] == 1
    zfam = FamilySpec((zero_complex(),), with_zero=False)
    v, chain = underline_delta_upper(X, Xp, zfam)
    assert v == 1 and all(verify_triangle(*step)[0] for step in chain)


def test_pipeline_reflexive_and_infinite_cases():
    X = interval_pair(3, 1)
    bound, D, tau, cap = prop51_pipeline(X, X)
    assert bound == 0 and tau == 0
    Y = interval_free(0)
    bound, D, tau, cap = prop51_pipeline(X, Y)
    assert bound == POS_INF and D is None


def test_pipeline_single_free_interval():
    X, Y = interval_free(0), interval_free(1)
    bound, D, tau, cap = prop51_pipeline(X, Y)
    assert tau == 1 and cap == 5
    assert bound <= 5
    assert validate_decomposition(D, X, EMPTY_FAMILY, Y)[0]


def test_pipeline_on_seeded_pairs_respects_budget():
    cfg = GenConfig(seed=606)
    for off in range(40):
        rng = cfg.rng(off)
        BX = _random_barcode(cfg, rng, 5)
        BY = _random_barcode(cfg, rng, 5)
        X, Y = from_barcode(BX), from_barcode(BY)
        bound, D, tau, cap = prop51_pipeline(X, Y)
        if tau == POS_INF:
            continue
        assert bound <= cap * tau
        ok, _, probs = validate_decomposition(D, X, EMPTY_FAMILY, Y)
        assert ok, probs


def test_oracle_matches_free_interval_moves():
    lo, hi = interval_free(1), interval_free(2)
    assert delta_exact_small(lo, lo)[0] == 0
    v1, _ = delta_exact_small(hi, lo, depth_budget=3)
    v2, _ = delta_exact_small(lo, hi, depth_budget=3)
    assert v1 == 1 and v2 == 1
    u1, _ = delta_upper(hi, lo)
    u2, _ = delta_upper(lo, hi)
    assert v1 <= u1 and v2 <= u2


def test_oracle_never_exceeds_the_strategies():
    cfg = GenConfig(seed=4321)
    for off in range(6):
        rng = cfg.rng(off)
        BX = _random_barcode(cfg, rng, 2)
        BY = _random_barcode(cfg, rng, 2)
        X, Y = from_barcode(BX), from_barcode(BY)
        val, _ = delta_exact_small(X, Y, depth_budget=2,
                                   weight_budget=Fraction(50))
        up, _ = delta_upper(X, Y)
        assert val <= up


def test_family_membership_with_closures():
    M = interval_free(0)
    fam = FamilySpec((M,), closed_shift=True)
    assert fam.contains(interval_free(5))
    assert not fam.contains(interval_free(5, degree=1))
    famT = FamilySpec((M,), closed_T=True)
    assert famT.contains(interval_free(0, degree=3))
    assert not famT.contains(interval_free(1, degree=3))
    assert FamilySpec((), with_zero=True).contains(zero_complex())
    assert not FamilySpec((), with_zero=False).contains(zero_complex())


def test_validation_takes_each_barcode_once(monkeypatch):
    """validate_decomposition of an m-step decomposition over a family of
    k members makes m + k + 3 canonical forms: one per linearization
    entry (m + m(m - 1) when each candidate slot re-read the other
    entries), one per member for the family's life, and those of the
    final object, the target and X'.  Membership calls after the first
    make one each, for the object asked about."""
    parts = [interval_free(j, degree=j % 2) for j in range(4)]
    for m in range(1, 5):
        D = singleton_decomposition(parts[0])
        for Z in parts[1:m]:
            D = sum_decompositions(D, singleton_decomposition(Z))
        target = sum_complexes(parts[:m])[0]
        for k in (0, 1, 3):
            family = FamilySpec(tuple(translate_inverse(Z)
                                      for Z in parts[1:1 + k]),
                                with_zero=False)
            counts = Counter(canonical_form=0)
            with monkeypatch.context() as mp:
                _count_calls(mp, counts, barcodes.canonical_form)
                ok = validate_decomposition(D, target, family, parts[0])[0]
                assert counts["canonical_form"] == m + k + 3
                assert not family.has_zero()
                assert not family.contains(parts[0])
                assert counts["canonical_form"] == m + k + 4
            # the entries after the slot are exactly the first m - 1 members
            assert ok == (m - 1 <= k)


def test_family_text_format(tmp_path):
    member = tmp_path / "m.cplx"
    member.write_text("gen a 0 0\n")
    text = "family\nmember m.cplx\nclosed-shift\nwith-zero\n"
    fam = parse_family(
        text, lambda name: interval_free(0)
    )
    assert fam.closed_shift and fam.with_zero and not fam.closed_T
    assert len(fam.members) == 1
    with pytest.raises(ValueError):
        parse_family("member x\n", lambda n: None)


def test_a_family_without_zero_keeps_only_decompositions_it_validates():
    """Acyclic attachments and down-moves have apex zero, so a family
    without zero admits none of them: delta_upper returns only
    decompositions that validate against the family, and the oracle
    leaves those moves out."""
    X = make_complex([("x", 0, 0), ("y", -1, 2), ("i", 0, 1)], {"y": ["x"]})
    Y = make_complex([("x", 0, 1), ("y", -1, 2), ("i", 0, 0)], {"y": ["x"]})
    fam = FamilySpec((X,), with_zero=False)
    assert delta_upper(X, Y)[0] == 2
    assert delta_upper(X, Y, fam) == (POS_INF, None)
    assert delta_exact_small(X, Y, fam) == (POS_INF, "budget exceeded")
    # a member without bars puts zero back into the family
    zfam = FamilySpec((X, zero_complex()), with_zero=False)
    assert zfam.has_zero() and not fam.has_zero()
    assert delta_upper(X, Y, zfam)[0] == 2
    cfg = GenConfig(seed=2207)
    kept = 0
    for off in range(12):
        rng = cfg.rng(off)
        BX = _random_barcode(cfg, rng, 2)
        BY = BX.shifted(off % 3) if off % 2 else _random_barcode(cfg, rng, 2)
        A, B = from_barcode(BX), from_barcode(BY)
        for fam in (FamilySpec((A,), with_zero=False),
                    FamilySpec((), with_zero=False)):
            value, D = delta_upper(A, B, fam)
            if D is not None:
                kept += 1
                assert validate_decomposition(D, A, fam, B)[0]
            assert value >= delta_upper(A, B)[0]
    assert kept


def test_zero_iso_between_barcode_equal_objects(rng):
    X = make_complex(
        [("p", 0, 2), ("q", 1, 1), ("r", 1, 0)], {"p": ["q", "r"]}
    )
    Y = from_barcode(barcode(X))
    m = zero_iso_between(X, Y)
    assert is_r_isomorphism(m, 0)
    with pytest.raises(ValueError):
        zero_iso_between(X, interval_free(0))


def test_comparison_map_requires_legal_moves():
    S = barcode(interval_free(2))
    T = barcode(interval_free(1))
    m = comparison_map(S, T)
    assert m is not None and is_r_isomorphism(m, 1)
    assert comparison_map(T, S) is None  # would have to move up


def test_slot_bound_for_raised_copies_is_the_shift():
    # building X through the slot of its raised copy costs the shift
    X = sum_complexes([interval_free(0), interval_pair(2, 1)])[0]
    r = Fraction(5, 4)
    v, D = delta_upper(X, shift_complex(X, r))
    assert v == r
    ok, _, probs = validate_decomposition(
        D, X, EMPTY_FAMILY, shift_complex(X, r))
    assert ok, probs


def test_underline_collapse_onto_empty_slot():
    X = interval_pair(3, 1)
    v, chain = underline_delta_upper(X, zero_complex())
    assert v == 2
    tri, wit = chain[0]
    assert verify_triangle(tri, wit)[0]
    assert underline_delta_upper(interval_free(0), zero_complex())[0] \
        == POS_INF


def test_slot_characterization_on_interval_modules():
    # with the trivial family, the bound agrees with the cheapest
    # verified comparison from a raised copy of the slot object
    cases = [
        (interval_free(0), interval_free(1)),
        (interval_free(1), interval_free(0)),
        (interval_pair(3, 1), interval_pair(4, 2)),
        (interval_pair(4, 2), interval_pair(3, 1)),
    ]
    for X, Xp in cases:
        v, D = delta_upper(X, Xp)
        assert validate_decomposition(D, X, EMPTY_FAMILY, Xp)[0]
        levels = sorted({g.ell for Z in (X, Xp) for g in Z.gens})
        grid = sorted({Fraction(0)} | {
            a - b for a in levels for b in levels if a - b > 0})
        best = POS_INF
        for k in grid:
            m = comparison_map(barcode(Xp).shifted(k), barcode(X))
            if m is None:
                continue
            K = barcode(
                __import__("fcplx.complexes", fromlist=["cone"]).cone(
                    m, 0))
            if K.infinite():
                continue
            best = min(best, k + boundary_depth(K))
        assert v <= best
        # on single-interval instances the strategy meets the
        # characterization exactly
        if len(barcode(X)) == 1:
            assert v == best
