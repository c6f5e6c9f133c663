"""Acceptance criteria, one test per criterion.

Every criterion runs at its stated tolerance (exact rational equality
or inequality throughout; nothing is approximate) and prints one
pass/fail line with its runtime.
"""

import time
from fractions import Fraction

from fcplx.barcodes import (
    Bar,
    Barcode,
    barcode,
    boundary_depth,
    bottleneck,
    canonical_form,
    from_barcode,
    is_r_acyclic,
)
from fcplx.complexes import (
    FilteredChainMap,
    compose,
    cone,
    is_nullhomotopic_within,
    make_complex,
    shift_complex,
    sum_complexes,
    translate,
    zero_complex,
)
from fcplx.fragmentation import (
    EMPTY_FAMILY,
    ConeDecomposition,
    delta_exact_small,
    delta_upper,
    eta_slot_triangle,
    merge_slot_decompositions,
    prop51_pipeline,
    refine,
    singleton_decomposition,
    singleton_triangle,
    validate_decomposition,
)
from fcplx.rationals import POS_INF
from fcplx.tpc import (
    identity_triangle,
    is_r_isomorphism,
    octahedron,
    r_inverses,
    rotate,
    rotate_negative,
    spectral_invariant,
    stable_weight_upper,
    sum_triangles,
    triangle_from_morphism,
    unstable_weight_upper,
    verify_triangle,
)
from fcplx.complexes import homotopic
from fcplx.verify import (
    GenConfig,
    _random_barcode,
    bottleneck_bruteforce,
    gen_acyclic,
    gen_complex,
    gen_r_iso,
    gen_triangle,
    gen_triangle_over,
    random_conjugate,
)

from conftest import interval_free, interval_pair


def report(n, label, t0, budget):
    dt = time.time() - t0
    line = f"ACCEPTANCE {n:2d} PASS ({dt:6.2f}s / {budget}s budget): {label}"
    print(line)
    assert dt < budget, f"criterion {n} exceeded its runtime budget"


def test_criterion_01_canonical_form_roundtrip():
    t0 = time.time()
    big = GenConfig(seed=1001, max_generators=30, max_degree_span=2)
    deep = GenConfig(seed=1002, max_generators=15, max_degree_span=3)
    count = 0
    for cfg, trials in ((big, 400), (deep, 100)):
        for off in range(trials):
            X = gen_complex(cfg, cfg.rng(off))
            B, W = canonical_form(X)
            assert W.check()
            assert barcode(from_barcode(B)) == B
            count += 1
    assert count == 500
    report(1, "canonical form round trip on 500 seeded complexes", t0, 10)


def test_criterion_02_acyclicity_equivalence():
    t0 = time.time()
    cfg = GenConfig(seed=1101, max_generators=12)
    eighth = Fraction(1, 8)
    for off in range(200):
        rng = cfg.rng(off)
        if off % 2:
            X = gen_acyclic(cfg, rng, max_depth=Fraction(2), max_bars=4)
        else:
            X = gen_complex(cfg, rng)
        B = barcode(X)
        idm = FilteredChainMap.identity(X)
        if B.infinite():
            probe = boundary_depth(B) + 1
            assert not is_r_acyclic(X, probe)
            assert is_nullhomotopic_within(idm, probe) is None
            continue
        d = boundary_depth(B)
        assert is_r_acyclic(X, d)
        assert is_nullhomotopic_within(idm, d) is not None
        if d > 0:
            assert not is_r_acyclic(X, d - eighth)
            assert is_nullhomotopic_within(idm, d - eighth) is None
    report(2, "barcode acyclicity matches nullhomotopy at the exact "
           "threshold on 200 seeded complexes", t0, 10)


def test_criterion_03_bottleneck_vs_bruteforce():
    t0 = time.time()
    cfg = GenConfig(seed=1201)
    for off in range(200):
        rng = cfg.rng(off)
        B1 = _random_barcode(cfg, rng, 6)
        B2 = _random_barcode(cfg, rng, 6)
        assert bottleneck(B1, B2)[0] == bottleneck_bruteforce(B1, B2)
    report(3, "search bottleneck equals exhaustive matching on 200 "
           "barcode pairs under the strict short rule", t0, 20)


def test_criterion_04_iso_composition_and_inverses():
    t0 = time.time()
    cfg = GenConfig(seed=1301, max_generators=3)
    grid = [Fraction(n, 2) for n in range(5)]
    for off in range(200):
        rng = cfg.rng(off)
        r, s = rng.choice(grid), rng.choice(grid)
        f, A, B = gen_r_iso(cfg, r, rng)
        g, _, C = gen_r_iso(cfg, s, rng, source=B)
        gf = compose(g, f)
        K = cone(gf, 0)
        assert not barcode(K).infinite()
        assert boundary_depth(K) <= r + s
        _, psi = r_inverses(f, r)
        assert is_r_isomorphism(psi, 2 * r)
    report(4, "composite isomorphism levels add; right inverses hold at "
           "twice the level, over 200 seeded pairs", t0, 20)


def test_criterion_05_octahedron_weights():
    t0 = time.time()
    cfg = GenConfig(seed=1401, max_generators=3)
    for off in range(100):
        t1, w1 = gen_triangle(cfg, cfg.rng(off))
        t2, w2 = gen_triangle_over(t1.C, cfg, cfg.rng(off + 1000))
        res = octahedron(t1, w1, t2, w2)
        assert res.d3.weight == 0
        assert res.d4.weight == t1.weight + t2.weight
        ok3, f3 = verify_triangle(res.d3, res.wit3)
        ok4, f4 = verify_triangle(res.d4, res.wit4)
        assert ok3 and ok4, (f3, f4)
        # the weighted inequality holds with zero slack
        assert res.d3.weight + res.d4.weight == t1.weight + t2.weight
    report(5, "octahedron outputs verify at exactly 0 and r+s on 100 "
           "composable witnessed pairs", t0, 30)


def test_criterion_06_rotation_weights():
    t0 = time.time()
    cfg = GenConfig(seed=1501, max_generators=3)
    for off in range(100):
        tri, wit = gen_triangle(cfg, cfg.rng(off))
        r = tri.weight
        rt, rw = rotate(tri, wit)
        assert rt.weight == 2 * r
        ok, fails = verify_triangle(rt, rw)
        assert ok, fails
        assert homotopic(rt.v, tri.w, r) is not None
        if off % 5 == 0:
            nt, nw = rotate_negative(tri, wit)
            assert nt.weight == 2 * r and verify_triangle(nt, nw)[0]
    report(6, "rotations verify at twice the weight with the connecting "
           "map preserved up to level r, on 100 triangles", t0, 30)


def test_criterion_07_refinement_additivity():
    t0 = time.time()
    cfg = GenConfig(seed=1601, max_generators=3)
    from fcplx.verify import _random_decomposition

    for off in range(100):
        rng = cfg.rng(off)
        D = _random_decomposition(cfg, rng, steps=2)
        i = rng.randrange(len(D.steps))
        Xi = D.steps[i][0].A
        r = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
        if Xi.is_zero() or rng.random() < 0.3:
            Dp = singleton_decomposition(Xi)
        else:
            Dp = ConeDecomposition((eta_slot_triangle(Xi, r),))
        D2 = refine(D, i, Dp)
        assert D2.total_weight() == D.total_weight() + Dp.total_weight()
        lin = [barcode(a) for a in D2.linearization()]
        want = (
            [barcode(a) for a in D.linearization()[:i]]
            + [barcode(translate(a)) for a in Dp.linearization()]
            + [barcode(a) for a in D.linearization()[i + 1:]]
        )
        assert lin == want
        prev = zero_complex()
        for tri, wit in D2.steps:
            assert tri.B == prev
            assert verify_triangle(tri, wit)[0]
            prev = tri.C
        assert barcode(prev) == barcode(D.target())
    report(7, "refinement weight additivity is exact with the stated "
           "linearization, on 100 nested refinements", t0, 20)


def test_criterion_08_direct_sums():
    t0 = time.time()
    cfg = GenConfig(seed=1701, max_generators=3)
    for off in range(100):
        t1, w1 = gen_triangle(cfg, cfg.rng(off))
        t2, w2 = gen_triangle(cfg, cfg.rng(off + 500))
        st, sw = sum_triangles(t1, w1, t2, w2)
        assert st.weight == max(t1.weight, t2.weight)
        assert verify_triangle(st, sw)[0]
    small = GenConfig(seed=1702)
    for off in range(100):
        rng = small.rng(off)
        A = from_barcode(_random_barcode(small, rng, 2))
        B = from_barcode(_random_barcode(small, rng, 2))
        shift_pool = [Fraction(0), Fraction(1, 2), Fraction(1)]
        Ap = from_barcode(barcode(A).shifted(rng.choice(shift_pool)))
        Bp = from_barcode(barcode(B).shifted(rng.choice(shift_pool)))
        va, Da = delta_upper(A, Ap)
        vb, Db = delta_upper(B, Bp)
        DM = merge_slot_decompositions(Da, Ap, Db, Bp)
        assert DM.total_weight() <= va + vb
        tgt = sum_complexes([A, B])[0]
        slot = sum_complexes(
            [from_barcode(barcode(Ap)), from_barcode(barcode(Bp))])[0]
        ok, _, probs = validate_decomposition(DM, tgt, EMPTY_FAMILY, slot)
        assert ok, probs
    report(8, "triangle sums take the max weight; summed witnesses give "
           "the additive bound, 100 pairs and 100 quadruples", t0, 20)


def test_criterion_09_matched_pair_pipeline():
    t0 = time.time()
    cfg = GenConfig(seed=1801)
    finite_count = 0
    for off in range(500):
        rng = cfg.rng(off)
        BX = _random_barcode(cfg, rng, 10)
        # half the trials compare against a jittered copy, half are free
        if off % 2:
            bars = []
            for b in BX:
                eps = rng.choice([Fraction(0), Fraction(1, 4),
                                  Fraction(1, 2)])
                sign = rng.choice([-1, 1])
                lo = b.lo + sign * eps
                hi = b.hi if b.hi == POS_INF else max(b.hi + sign * eps, lo)
                bars.append(Bar(b.degree, lo, hi))
            BY = Barcode(bars)
        else:
            BY = _random_barcode(cfg, rng, 10)
        X, Y = from_barcode(BX), from_barcode(BY)
        bound, D, tau, cap = prop51_pipeline(X, Y)
        if tau == POS_INF:
            assert D is None
            continue
        finite_count += 1
        assert bound <= cap * tau
        ok, w, probs = validate_decomposition(D, X, EMPTY_FAMILY, Y)
        assert ok, probs
        assert w == bound
    assert finite_count >= 200
    report(9, "pipeline bound stays within (4*min+1)*d_bot and every "
           "emitted decomposition validates, 500 seeded pairs", t0, 60)


def test_criterion_10_limit_examples():
    t0 = time.time()
    for r in (Fraction(1), Fraction(3, 2), Fraction(1, 4)):
        A = make_complex([("a", 0, 0)])
        assert spectral_invariant(FilteredChainMap.identity(A)) == 0
        TA = translate(A)
        Z = zero_complex()
        u = FilteredChainMap.zero(A, Z)
        # rigid: last map the raised comparison class; both bounds = r
        rigidC = shift_complex(TA, -r)
        w_r = FilteredChainMap.identity(TA).viewed(rigidC, TA)
        val, cert = unstable_weight_upper(u, FilteredChainMap.zero(Z, rigidC),
                                          w_r)
        # candidates run in ascending total order, so the first verified
        # witness is the grid minimum: no smaller weight verifies
        assert val == r and sum(cert["levels"]) == r
        sval, _ = stable_weight_upper(u, FilteredChainMap.zero(Z, rigidC),
                                      w_r)
        assert sval == r
        # soft: the comparison shifted the other way collapses stably
        softC = shift_complex(TA, r)
        w_s = FilteredChainMap.identity(TA).viewed(softC, TA)
        val2, _ = unstable_weight_upper(u, FilteredChainMap.zero(Z, softC),
                                        w_s)
        sval2, _ = stable_weight_upper(u, FilteredChainMap.zero(Z, softC),
                                       w_s)
        assert val2 == r and sval2 == 0
        # sigma pins the one-sided lower bound for the rigid shape
        assert spectral_invariant(w_r) == r

    # self distance vanishes
    X = sum_complexes([interval_free(0), interval_pair(2, 1)])[0]
    v, D = delta_upper(X, X)
    assert v == 0 and validate_decomposition(D, X, EMPTY_FAMILY, X)[0]

    # distance to the raised copy: witness bound r both ways at the
    # stable level, with the lower bound reproduced by the rigid shape
    r = Fraction(1)
    sX = shift_complex(X, r)
    v1, D1 = delta_upper(X, sX)
    assert v1 == r
    v2, D2 = delta_upper(sX, X)
    assert v2 <= r  # the eta slot gives the cheap direction

    report(10, "limit-category examples reproduce their exact weights "
           "and self/shift distances", t0, 5)


def test_criterion_11_oracle_consistency():
    t0 = time.time()
    def free(a):
        return interval_free(Fraction(a))

    # single-bar instances: the oracle equals the matched-move cost
    for a, c in ((0, 1), (1, 0), (2, 2), (0, 3)):
        X, Y = free(a), free(c)
        val, _ = delta_exact_small(X, Y, depth_budget=3,
                                   weight_budget=Fraction(50))
        assert val == abs(Fraction(a) - Fraction(c))
        up, _ = delta_upper(X, Y)
        assert val <= up
    # finite single bars
    for (c1, d1), (c2, d2) in (((2, 0), (3, 1)), ((2, 1), (2, 0))):
        X, Y = interval_pair(c1, d1), interval_pair(c2, d2)
        val, _ = delta_exact_small(X, Y, depth_budget=3,
                                   weight_budget=Fraction(50))
        up, _ = delta_upper(X, Y)
        assert val <= up
    # two-bar sums stay consistent with every strategy upper bound
    cfg = GenConfig(seed=1901)
    for off in range(4):
        rng = cfg.rng(off)
        X = from_barcode(_random_barcode(cfg, rng, 2))
        Y = from_barcode(_random_barcode(cfg, rng, 2))
        val, _ = delta_exact_small(X, Y, depth_budget=3,
                                   weight_budget=Fraction(50))
        up, _ = delta_upper(X, Y)
        assert val <= up
    report(11, "oracle minima never exceed strategy bounds and match "
           "the one-bar moves exactly", t0, 120)
