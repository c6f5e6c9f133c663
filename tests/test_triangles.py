from fractions import Fraction

import pytest

from fcplx.barcodes import barcode, boundary_depth, is_r_acyclic
from fcplx.complexes import (
    FilteredChainMap,
    _inclusion,
    _projection,
    compose,
    cone,
    eta,
    homotopic,
    make_complex,
    shift_complex,
    shift_of_map,
    sum_complexes,
    translate,
    translate_map,
    zero_complex,
)
from fcplx.tpc import (
    FLAT_WEIGHT,
    PERSISTENCE_WEIGHT,
    WeightedTriangle,
    TriangleWitness,
    check_triangular_weight,
    fill_morphism,
    identity_triangle,
    is_r_isomorphism,
    mixed_weight,
    octahedron,
    relax_weight,
    rotate,
    rotate_negative,
    stable_weight_upper,
    sum_triangles,
    triangle_from_morphism,
    unstable_weight_upper,
    verify_triangle,
)
from fcplx.verify import (
    GenConfig,
    gen_complex,
    gen_triangle,
    gen_triangle_over,
    random_basis_change,
    random_closed_map,
)

from conftest import interval_free, interval_pair

CFG = GenConfig(seed=2024, max_generators=4)


def up_shift_map(X, t):
    """Identity matrix viewed X -> S^t X: a map of shift +t."""
    return FilteredChainMap.identity(X).viewed(X, shift_complex(X, t))


def test_zero_source_morphism_gives_the_singleton_triangle():
    from fcplx.complexes import translate_inverse

    X = interval_free(1)
    f = FilteredChainMap.zero(translate_inverse(X), zero_complex())
    tri, wit = triangle_from_morphism(f)
    assert tri.weight == 0
    assert barcode(tri.C) == barcode(X)
    assert verify_triangle(tri, wit)[0]


def test_comparison_morphism_triangle_has_its_shift_as_weight():
    X = interval_pair(2, 0)
    t = Fraction(5, 4)
    tri, wit = triangle_from_morphism(up_shift_map(X, t))
    assert tri.weight == t
    ok, fails = verify_triangle(tri, wit)
    assert ok, fails


def test_verify_flags_tampered_connecting_map():
    # over a zero map the connecting projection is essential: killing it
    # breaks the witness clause in a way no homotopy can absorb
    X, Y = interval_free(0), interval_free(1)
    tri, wit = triangle_from_morphism(FilteredChainMap.zero(X, Y))
    assert verify_triangle(tri, wit)[0]
    bad = WeightedTriangle(
        tri.A, tri.B, tri.C, tri.u, tri.v,
        FilteredChainMap.zero(tri.C, tri.w.target), tri.weight,
    )
    ok, fails = verify_triangle(bad, wit)
    assert not ok and "w-through-psi" in fails


def test_verify_flags_wrong_weight():
    X = interval_pair(2, 0)
    tri, wit = triangle_from_morphism(up_shift_map(X, 1))
    bad = WeightedTriangle(tri.A, tri.B, tri.C, tri.u, tri.v, tri.w,
                           Fraction(-1))
    assert verify_triangle(bad, wit) == (False, ["weight-negative"])


def test_relax_weight_rules():
    tri, wit = gen_triangle(CFG, CFG.rng(3))
    r = tri.weight
    same = relax_weight(tri, wit, 0)
    assert same[0] == tri
    t1, w1 = relax_weight(tri, wit, Fraction(1, 2))
    assert t1.weight == r + Fraction(1, 2)
    assert verify_triangle(t1, w1)[0]
    t2a, w2a = relax_weight(t1, w1, Fraction(1, 2))
    t2b, w2b = relax_weight(tri, wit, 1)
    assert t2a.weight == t2b.weight
    assert t2a.w.cols == t2b.w.cols


def test_identity_triangle_is_weightless(e2_31):
    tri, wit = identity_triangle(e2_31)
    assert tri.weight == 0
    assert verify_triangle(tri, wit)[0]


def test_conjugating_by_strict_isos_preserves_verification(rng):
    for off in range(6):
        tri, wit = gen_triangle(CFG, CFG.rng(off))
        r = tri.weight
        A2, fa, fa_inv = random_basis_change(tri.A, rng)
        B2, fb, fb_inv = random_basis_change(tri.B, rng)
        C2, fc, fc_inv = random_basis_change(tri.C, rng)
        u2 = compose(fb_inv, compose(tri.u, fa))
        v2 = compose(fc_inv, compose(tri.v, fb))
        wt2 = shift_complex(translate(A2), -r)
        w_old = compose(tri.w, fc)  # A-side of the square stays the base
        tfa_inv = translate_map(fa_inv).viewed(
            shift_complex(translate(tri.A), -r), wt2
        )
        w2 = compose(tfa_inv, w_old)
        tri2 = WeightedTriangle(A2, B2, C2, u2, v2, w2, r)
        # transport the witness through the cone comparison
        K2 = cone(u2, 0)
        K1 = cone(tri.u, 0)
        # cone functoriality for the square (fa, fb): exact commutation
        sq = compose(fb, u2) + compose(tri.u, fa)
        h = homotopic(compose(fb, u2), compose(tri.u, fa), 0)
        assert h is not None
        cols = []
        for j in range(K2.n):
            if j < tri.B.n:
                vec = fb.cols[j]
                mapped = vec
                cols.append(mapped)
            else:
                a_idx = j - tri.B.n
                lift = h.cols[a_idx]
                ta = fa.cols[a_idx] << tri.B.n
                cols.append(lift ^ ta)
        kmap = FilteredChainMap(K2, K1, cols, 0)
        assert kmap.is_closed()
        phi2 = compose(fc_inv, compose(wit.phi, kmap))
        # choose the inverse comparison for psi
        h2 = homotopic(compose(fb_inv, tri.u), compose(u2, fa_inv), 0)
        cols2 = []
        for j in range(K1.n):
            if j < tri.B.n:
                cols2.append(fb_inv.cols[j])
            else:
                a_idx = j - tri.B.n
                lift = h2.cols[a_idx]
                ta = fa_inv.cols[a_idx] << tri.B.n
                cols2.append(lift ^ ta)
        kmap_inv = FilteredChainMap(K1, K2, cols2, 0)
        psi2 = compose(
            kmap_inv,
            compose(wit.psi, fc.viewed(
                shift_complex(C2, r), shift_complex(tri.C, r))),
        )
        ok, fails = verify_triangle(tri2, TriangleWitness(
            K2, phi2, psi2))
        assert ok, fails


def test_rotation_doubles_weight_and_verifies():
    for off in range(6):
        tri, wit = gen_triangle(CFG, CFG.rng(off + 50))
        rt, rw = rotate(tri, wit)
        assert rt.weight == 2 * tri.weight
        ok, fails = verify_triangle(rt, rw)
        assert ok, fails
        assert homotopic(rt.v, tri.w, tri.weight) is not None
        assert rt.u is tri.v


def test_rotation_of_weightless_triangle_is_classical(e2_31):
    tri, wit = triangle_from_morphism(FilteredChainMap.identity(e2_31))
    rt, rw = rotate(tri, wit)
    assert rt.weight == 0
    assert verify_triangle(rt, rw)[0]


def test_negative_rotation():
    for off in range(4):
        tri, wit = gen_triangle(CFG, CFG.rng(off + 80))
        nt, nw = rotate_negative(tri, wit)
        assert nt.weight == 2 * tri.weight
        ok, fails = verify_triangle(nt, nw)
        assert ok, fails
        assert nt.v == tri.u


def test_octahedron_weights_are_exact():
    for off in range(6):
        t1, w1 = gen_triangle(CFG, CFG.rng(off + 120))
        t2, w2 = gen_triangle_over(t1.C, CFG, CFG.rng(off + 150))
        res = octahedron(t1, w1, t2, w2)
        assert res.d3.weight == 0
        assert res.d4.weight == t1.weight + t2.weight
        assert verify_triangle(res.d3, res.wit3)[0]
        assert verify_triangle(res.d4, res.wit4)[0]
        assert res.d3.C == res.d4.B
        for name, lhs, rhs, slack in res.squares:
            assert homotopic(lhs, rhs, slack) is not None, name


def test_octahedron_requires_matching_middle(e2_31):
    t1, w1 = triangle_from_morphism(FilteredChainMap.identity(e2_31))
    t2, w2 = triangle_from_morphism(
        FilteredChainMap.identity(interval_free(0)))
    with pytest.raises(ValueError):
        octahedron(t1, w1, t2, w2)


def test_sum_weight_is_maximum():
    t1, w1 = gen_triangle(CFG, CFG.rng(200))
    t2, w2 = gen_triangle(CFG, CFG.rng(201))
    st, sw = sum_triangles(t1, w1, t2, w2)
    assert st.weight == max(t1.weight, t2.weight)
    assert verify_triangle(st, sw)[0]
    assert barcode(st.C) == barcode(t1.C).union(barcode(t2.C))


def test_sum_with_identity_keeps_weight(e2_31):
    t1, w1 = gen_triangle(CFG, CFG.rng(202))
    idt, idw = identity_triangle(e2_31)
    st, sw = sum_triangles(t1, w1, idt, idw)
    assert st.weight == t1.weight
    assert verify_triangle(st, sw)[0]


def test_sum_specific_weights():
    a, _ = relax_weight(*triangle_from_morphism(
        FilteredChainMap.identity(interval_free(0))), 1)
    b, _ = relax_weight(*triangle_from_morphism(
        FilteredChainMap.identity(interval_free(0))), 3)
    ta, wa = relax_weight(*triangle_from_morphism(
        FilteredChainMap.identity(interval_free(0))), 1)
    tb, wb = relax_weight(*triangle_from_morphism(
        FilteredChainMap.identity(interval_free(0))), 3)
    st, _ = sum_triangles(ta, wa, tb, wb)
    assert st.weight == 3


def test_fill_morphism_between_equal_triangles():
    tri, wit = gen_triangle(CFG, CFG.rng(300))
    r = tri.weight
    h = fill_morphism(tri, wit, tri, wit,
                      FilteredChainMap.identity(tri.A),
                      FilteredChainMap.identity(tri.B))
    assert h.is_closed() and h.degree == 0
    # middle square within r, right square within r (= s here)
    ev = compose(
        FilteredChainMap.identity(tri.C).viewed(
            tri.C, shift_complex(tri.C, -r)), tri.v)
    assert homotopic(compose(h, tri.v), ev, r) is not None


def test_fill_rejects_non_commuting_square():
    X = interval_free(0)
    t1, w1 = triangle_from_morphism(FilteredChainMap.identity(X))
    Y = interval_free(0)
    t2, w2 = triangle_from_morphism(FilteredChainMap.identity(Y))
    f = FilteredChainMap.zero(t1.A, t2.A)
    g = FilteredChainMap.identity(X)
    with pytest.raises(ValueError):
        fill_morphism(t1, w1, t2, w2, f, g)


def test_fill_rejects_maps_that_are_not_closed():
    """f = g: y -> y, x -> 0 on dy = x makes the square commute on the
    nose, yet f is no chain map, so there is no morphism to complete."""
    X = make_complex([("x", 1, 0), ("y", 0, 0)], {"y": ["x"]})
    t, w = triangle_from_morphism(FilteredChainMap.identity(X))
    f = FilteredChainMap(X, X, [0, 1 << 1], 0)
    with pytest.raises(ValueError, match="needs closed shift-0 maps"):
        fill_morphism(t, w, t, w, f, f)


def test_translation_preserves_triangles_and_weights():
    for off in range(4):
        tri, wit = gen_triangle(CFG, CFG.rng(off + 400))
        r = tri.weight
        A2, B2, C2 = (translate(Z) for Z in (tri.A, tri.B, tri.C))
        tri2 = WeightedTriangle(
            A2, B2, C2,
            tri.u.viewed(A2, B2),
            tri.v.viewed(B2, C2),
            tri.w.viewed(C2, shift_complex(translate(A2), -r)),
            r,
        )
        K2 = cone(tri2.u, 0)
        wit2 = TriangleWitness(
            K2,
            wit.phi.viewed(K2, C2),
            wit.psi.viewed(shift_complex(C2, r), K2),
        )
        ok, fails = verify_triangle(tri2, wit2)
        assert ok, fails


def test_comparison_roundtrip_reaches_triple_shift():
    # morphisms between a weighted triangle and its cone model compose
    # to the canonical comparison at three times the weight
    X = sum_complexes([interval_pair(2, 0), interval_free(1)])[0]
    r = Fraction(1)
    tri, wit = triangle_from_morphism(up_shift_map(X, r))
    K = cone(tri.u, 0)
    # h: S^2r(triangle) -> cone model, h': cone model -> S^-r(triangle)
    comp = compose(wit.phi, wit.psi)   # S^r C -> C
    target = eta(tri.C, r)
    assert homotopic(comp, target, 0) is not None
    # and the reverse composition lands at eta_{3r} on the nose
    psi3 = wit.psi.viewed(
        shift_complex(tri.C, 3 * r),
        shift_complex(K, 2 * r),
    )
    phi3 = wit.phi.viewed(
        shift_complex(K, 2 * r), shift_complex(tri.C, 2 * r)
    )
    both = compose(phi3, psi3)
    e3 = eta(tri.C, 3 * r).viewed(both.source, shift_complex(tri.C, 2 * r))
    assert homotopic(both, e3, 0) is not None


def test_cone_of_map_between_acyclics_is_sum_acyclic():
    cfg = GenConfig(seed=3000)
    from fcplx.verify import gen_acyclic

    for off in range(20):
        rng = cfg.rng(off)
        K1 = gen_acyclic(cfg, rng, max_depth=Fraction(2))
        K2 = gen_acyclic(cfg, rng, max_depth=Fraction(2))
        f = random_closed_map(K1, K2, rng)
        C = cone(f, 0)
        assert is_r_acyclic(C, boundary_depth(K1) + boundary_depth(K2))


def test_weight_axiom_report():
    t1, w1 = gen_triangle(CFG, CFG.rng(500))
    t2, w2 = gen_triangle_over(t1.C, CFG, CFG.rng(501))
    for wf in (FLAT_WEIGHT, PERSISTENCE_WEIGHT, mixed_weight(2, 1)):
        ok, recs = check_triangular_weight(wf, [(t1, w1, t2, w2)])
        assert ok, recs
        assert recs[0]["lhs"] <= recs[0]["rhs"]


def test_weight_axiom_degenerate_base():
    from fcplx.fragmentation import eta_slot_triangle

    X = interval_free(0)
    t1, w1 = eta_slot_triangle(X, Fraction(1, 2))
    t2, w2 = gen_triangle_over(t1.C, CFG, CFG.rng(502))
    ok, recs = check_triangular_weight(PERSISTENCE_WEIGHT,
                                       [(t1, w1, t2, w2)])
    assert ok
    assert recs[0]["degenerate-base"]


def test_limit_weight_bounds_on_model_triangles():
    r = Fraction(3, 2)
    A = make_complex([("a", 0, 0)])
    TA = translate(A)
    Z = zero_complex()
    u = FilteredChainMap.zero(A, Z)
    rigid = FilteredChainMap.identity(TA).viewed(shift_complex(TA, -r), TA)
    val, cert = unstable_weight_upper(u, FilteredChainMap.zero(
        Z, shift_complex(TA, -r)), rigid)
    assert val == r
    sval, _ = stable_weight_upper(u, FilteredChainMap.zero(
        Z, shift_complex(TA, -r)), rigid)
    assert sval == r

    soft = eta(TA, r)
    val2, _ = unstable_weight_upper(u, FilteredChainMap.zero(
        Z, shift_complex(TA, r)), soft)
    assert val2 == r
    sval2, _ = stable_weight_upper(u, FilteredChainMap.zero(
        Z, shift_complex(TA, r)), soft)
    assert sval2 == 0


def test_limit_weight_zero_for_weightless_triangles(e2_31):
    tri, wit = triangle_from_morphism(FilteredChainMap.identity(e2_31))
    w_lim = tri.w.viewed(tri.C, translate(tri.A))
    val, _ = unstable_weight_upper(tri.u, tri.v, w_lim)
    assert val == 0


def test_fill_between_iso_legs_is_an_isomorphism():
    # weightless cone triangles whose legs include acyclic summands:
    # the filled comparison inherits the summed isomorphism level
    from fcplx.verify import gen_acyclic

    cfg2 = GenConfig(seed=888, max_generators=3)
    rng = cfg2.rng(0)
    A1 = gen_complex(cfg2, cfg2.rng(1))
    B1 = gen_complex(cfg2, cfg2.rng(2))
    K1 = gen_acyclic(cfg2, rng, max_depth=Fraction(1, 2))
    K2 = gen_acyclic(cfg2, rng, max_depth=Fraction(1, 2))
    t = max(
        __import__("fcplx.barcodes", fromlist=["boundary_depth"])
        .boundary_depth(K1),
        __import__("fcplx.barcodes", fromlist=["boundary_depth"])
        .boundary_depth(K2),
    )
    SA = sum_complexes([A1, K1])[0]
    SB = sum_complexes([B1, K2])[0]
    f, g = _inclusion(A1, SA, 0), _inclusion(B1, SB, 0)
    u1 = random_closed_map(A1, B1, rng)
    u2 = compose(g, compose(u1, _projection(SA, A1, 0)))
    t1, w1 = triangle_from_morphism(u1)
    t2, w2 = triangle_from_morphism(u2)
    h = fill_morphism(t1, w1, t2, w2, f, g)
    assert is_r_isomorphism(h, 2 * t)


def test_rotation_improvement_search_is_verified_when_found():
    # a weightless triangle rotates to a weightless one, which the grid
    # search recognizes immediately
    X = interval_pair(2, 0)
    tri, wit = triangle_from_morphism(FilteredChainMap.identity(X))
    rt, rw, improved = rotate(tri, wit, try_improve=True)
    assert rt.weight == 0
    assert improved is None  # already minimal
    # a genuinely weighted triangle keeps its doubled certificate and
    # any improvement the search finds must itself verify
    tri2, wit2 = gen_triangle(CFG, CFG.rng(777), max_weight=Fraction(1))
    out = rotate(tri2, wit2, try_improve=True)
    rt2, rw2, improved2 = out
    assert verify_triangle(rt2, rw2)[0]
    if improved2 is not None:
        btri, bwit = improved2
        assert btri.weight < rt2.weight
        ok, fails = verify_triangle(btri, bwit)
        assert ok, fails


def test_cone_acyclicity_law_over_two_hundred_instances():
    cfg = GenConfig(seed=5150)
    from fcplx.verify import gen_acyclic

    for off in range(200):
        rng = cfg.rng(off)
        K1 = gen_acyclic(cfg, rng, max_depth=Fraction(3, 2), max_bars=2)
        K2 = gen_acyclic(cfg, rng, max_depth=Fraction(3, 2), max_bars=2)
        f = random_closed_map(K1, K2, rng)
        C = cone(f, 0)
        assert is_r_acyclic(C, boundary_depth(K1) + boundary_depth(K2))
