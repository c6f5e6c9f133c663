"""Witness certificates: what `verify_triangle` checks by products in
place of its two solves.

A constructor that knows why its witness holds attaches a contraction
of cone(phi, 0) and the homotopy behind phi o psi ~ eta
(`tpc._certified`).  Side by side, every certified witness gets the
verdict the solves give on the same witness without its certificate; a
certificate with one bit flipped where that must break it fails
exactly its own clause; and on the benchmark's seed-1 decompositions
the verifier runs with the elimination kernel and the canonical form
disabled.  A bare witness gets the certificate `tpc._certificate`
derives, and the verdict the barcode and the solve gave it before
(`reference_verify`), good or broken."""

import importlib.util
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from fcplx import fragmentation
from fcplx.barcodes import Bar, Barcode, boundary_depth, from_barcode
from fcplx.complexes import (
    FilteredChainMap,
    compose,
    cone,
    shift_complex,
    translate,
)
from fcplx.fragmentation import (
    _riso_costs,
    acyclic_from_zero_step,
    collapse_acyclic_triangle,
    comparison_map,
    eta_slot_triangle,
    zero_apex_step,
)
from fcplx.homsolve import random_closed_map
from fcplx.rationals import POS_INF
from fcplx.tpc import (
    _certified,
    identity_triangle,
    octahedron,
    relax_weight,
    sum_triangles_many,
    triangle_from_morphism,
    verify_triangle,
)
from fcplx.verify import (
    GenConfig,
    gen_complex,
    gen_r_iso,
    gen_triangle,
    random_basis_change,
)

import reference_verify

CFG = GenConfig(seed=2718)
GRID = tuple(Fraction(n, 4) for n in range(24))
ROUNDS = 40
WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def _cert(wit):
    return getattr(wit, "_cert", None)


def _bare(wit):
    """The same witness without its certificate."""
    return replace(wit)


def _barcode(rng, nbars, finite_only=False):
    bars = []
    for k in range(nbars):
        lo = rng.choice(GRID)
        inf = not finite_only and rng.random() < 0.25
        hi = POS_INF if inf else lo + rng.choice(GRID[1:8])
        bars.append(Bar(k % 2, lo, hi))
    return Barcode(bars)


def _scrambled(rng, B):
    return random_basis_change(from_barcode(B), rng)


def _comparison(rng):
    """A W-isomorphism between scrambled objects: the in-order
    comparison of a barcode into a lowered copy of it, and its W."""
    BT = _barcode(rng, rng.randint(1, 5))
    BS = BT.shifted(rng.choice(GRID[:4]))
    S, fwd_s, _ = _scrambled(rng, BS)
    T, _, back_t = _scrambled(rng, BT)
    v = compose(back_t, compose(comparison_map(BS, BT), fwd_s))
    return v, next(_riso_costs(BT, BS, (0,)))[0]


def _morphism(rng):
    """A closed degree-0 map between generated complexes, lowered into
    its target by 0 or more so that its shift may be positive."""
    A = gen_complex(CFG, rng, max_generators=4)
    B = gen_complex(CFG, rng, max_generators=4)
    f = random_closed_map(A, B, rng)
    return f.viewed(A, shift_complex(B, -rng.choice(GRID[:3])))


def _acyclic(rng):
    return _scrambled(rng, _barcode(rng, rng.randint(1, 4), True))[0]


def _constructions(rng):
    """(constructor name, triangle, witness), one of each constructor
    that attaches a certificate."""
    f, _, _ = gen_r_iso(CFG, rng.choice(GRID[:5]), rng)
    W = rng.choice(GRID[:5])
    yield "zero_apex_step(gen_r_iso)", *zero_apex_step(f, _depth(f) + W)
    v, W = _comparison(rng)
    yield "zero_apex_step(comparison)", *zero_apex_step(v, W)
    yield "acyclic_from_zero_step", *acyclic_from_zero_step(_acyclic(rng))
    yield "collapse_acyclic_triangle", *collapse_acyclic_triangle(
        _acyclic(rng))
    yield "triangle_from_morphism", *triangle_from_morphism(_morphism(rng))
    X = gen_complex(CFG, rng, max_generators=5)
    yield "identity_triangle", *identity_triangle(X)
    yield "eta_slot_triangle", *eta_slot_triangle(X, rng.choice(GRID[:6]))
    t1, w1 = triangle_from_morphism(_morphism(rng))
    yield "relax_weight", *relax_weight(t1, w1, rng.choice(GRID[1:6]))
    B = gen_complex(CFG, rng, max_generators=4)
    t2, w2 = triangle_from_morphism(random_closed_map(t1.C, B, rng))
    res = octahedron(t1, w1, t2, w2)
    yield "octahedron.d3", res.d3, res.wit3
    parts = [zero_apex_step(*_comparison(rng)),
             acyclic_from_zero_step(_acyclic(rng)),
             collapse_acyclic_triangle(_acyclic(rng)),
             triangle_from_morphism(_morphism(rng)),
             eta_slot_triangle(X, rng.choice(GRID[:6]))]
    rng.shuffle(parts)
    yield "sum_triangles_many", *sum_triangles_many(
        parts[:rng.randint(2, len(parts))])


def _depth(f):
    """The least W at which the r-isomorphism f is a W-isomorphism."""
    return boundary_depth(cone(f, 0))


def _all_constructions():
    rng = random.Random(1414)
    return [c for _ in range(ROUNDS) for c in _constructions(rng)]


def test_certified_and_solved_verdicts_agree():
    names = set()
    for name, tri, wit in _all_constructions():
        assert _cert(wit) is not None, name
        got = verify_triangle(tri, wit)
        assert got == verify_triangle(tri, _bare(wit)), name
        assert got == (True, []), name
        names.add(name)
    assert len(names) == 10


def test_uncertified_inputs_keep_no_certificate():
    """A witness rebuilt by hand carries nothing over.  An octahedron on
    a bare input that verifies certifies its second output all the
    same; on a second input whose psi clause fails it does not."""
    rng = CFG.rng(0)
    tri, wit = gen_triangle(CFG, rng)
    assert _cert(replace(wit, psi=wit.psi)) is None
    t2, w2 = triangle_from_morphism(random_closed_map(tri.C, tri.C, rng))
    assert _cert(octahedron(tri, _bare(wit), t2, w2).wit4) is not None
    zero = replace(w2, psi=FilteredChainMap.zero(w2.psi.source,
                                                 w2.psi.target))
    assert "psi-right-inverse" in verify_triangle(t2, zero)[1]
    assert _cert(octahedron(tri, wit, t2, zero).wit4) is None


def _flips(S, T, cols, bound):
    """(j, i) of the entries of a map S -> T whose flip must break
    dh + hd = f or the shift bound: any entry in a row whose generator
    has a nonzero differential (the flip adds d of that generator to
    column j), or a new entry above the bound.  Other flips may leave a
    valid certificate."""
    for j, g in enumerate(S.gens):
        for i, h in enumerate(T.gens):
            if T.diff[i] or (h.ell > g.ell + bound
                             and not cols[j] >> i & 1):
                yield j, i


def _flipped(cols, j, i):
    cols = list(cols)
    cols[j] = cols[j] ^ (1 << i)
    return cols


def test_one_flipped_bit_fails_exactly_its_clause():
    rng = random.Random(1732)
    flipped = {"c": 0, "H": 0}
    for name, tri, wit in _all_constructions():
        c, H = _cert(wit)
        r = tri.weight
        Kphi = cone(wit.phi, 0)
        sC = shift_complex(tri.C, r)
        cands = list(_flips(Kphi, Kphi, c, r))
        for j, i in rng.sample(cands, min(4, len(cands))):
            bad = _certified(_bare(wit), (_flipped(c, j, i), H))
            assert verify_triangle(tri, bad) == (
                False, ["phi-r-isomorphism"]), (name, j, i)
            flipped["c"] += 1
        if H is None:
            continue
        cands = list(_flips(sC, tri.C, H, 0))
        for j, i in rng.sample(cands, min(4, len(cands))):
            bad = _certified(_bare(wit), (c, _flipped(H, j, i)))
            assert verify_triangle(tri, bad) == (
                False, ["psi-right-inverse"]), (name, j, i)
            flipped["H"] += 1
    assert flipped["c"] >= 300 and flipped["H"] >= 100, flipped


def test_a_claimed_equality_fails_when_the_maps_differ():
    """An identity triangle claims phi o psi = eta with no homotopy; with
    psi zeroed and the certificate kept, that clause alone fails (w is
    into T0, so the w clause still holds)."""
    rng = random.Random(99)
    for _ in range(20):
        X = gen_complex(CFG, rng, max_generators=5)
        tri, wit = identity_triangle(X)
        zero = FilteredChainMap.zero(wit.psi.source, wit.psi.target)
        bad = _certified(replace(wit, psi=zero), _cert(wit))
        assert verify_triangle(tri, bad) == (False, ["psi-right-inverse"])
        assert verify_triangle(tri, replace(bad)) == (
            False, ["psi-right-inverse"])


def test_a_weight_below_the_depth_fails_with_and_without_certificate():
    """An acyclic attachment re-labelled at a weight below the depth of
    its object: no contraction, the certified one included, is that
    short, so both clauses fail on either path."""
    rng = random.Random(7)
    for _ in range(20):
        tri, wit = acyclic_from_zero_step(_acyclic(rng))
        low = tri.weight - GRID[1]
        psi = wit.psi.viewed(shift_complex(tri.C, low), wit.psi.target)
        low_tri = replace(tri, weight=low)
        low_wit = _certified(replace(wit, psi=psi), _cert(wit))
        want = (False, ["phi-r-isomorphism", "psi-right-inverse"])
        assert verify_triangle(low_tri, low_wit) == want
        assert verify_triangle(low_tri, _bare(low_wit)) == want


def _broken(rng, tri, wit):
    """(name, triangle, bare witness): wit bare, then with one entry of
    phi or of psi flipped (between generators of one degree), with psi
    zeroed, and at a weight one grid
    step below its own (psi and w re-anchored) when that is >= 0."""
    wit = _bare(wit)
    yield "good", tri, wit
    for name in ("phi", "psi"):
        m = getattr(wit, name)
        cands = [(j, i) for j, g in enumerate(m.source.gens)
                 for i, h in enumerate(m.target.gens) if g.degree == h.degree]
        if cands:
            cols = _flipped(m.cols, *rng.choice(cands))
            yield f"flipped {name}", tri, replace(wit, **{
                name: FilteredChainMap(m.source, m.target, cols, 0)})
    yield "zero psi", tri, replace(wit, psi=FilteredChainMap.zero(
        wit.psi.source, wit.psi.target))
    low = tri.weight - GRID[1]
    if low >= 0:
        psi = wit.psi.viewed(shift_complex(tri.C, low), wit.psi.target)
        w = tri.w.viewed(tri.C, shift_complex(translate(tri.A), -low))
        yield "weight below", replace(tri, weight=low, w=w), replace(
            wit, psi=psi)


def test_bare_witnesses_get_the_solved_verdict():
    """On every bare witness, good or broken, the derived certificate
    gives the verdict of the barcode and the solve; the broken ones
    reach and fail each of the two clauses, alone and together."""
    rng = random.Random(4242)
    seen = {}
    for _, tri, wit in _all_constructions():
        for name, t, w in _broken(rng, tri, wit):
            got = verify_triangle(t, w)
            assert got == reference_verify.verify_triangle(t, w), name
            key = (name, "phi-r-isomorphism" in got[1],
                   "psi-right-inverse" in got[1])
            seen[key] = seen.get(key, 0) + 1
    assert seen[("good", False, False)] == 10 * ROUNDS
    for key in (("flipped phi", True, True), ("flipped phi", False, True),
                ("flipped psi", False, True), ("zero psi", False, True),
                ("weight below", True, False), ("weight below", True, True)):
        assert seen.get(key, 0) >= 10, (key, seen)


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _seed1_steps():
    """Every step of the seed-1 pipeline and frag decompositions,
    variant 0, built by the library as the benchmark builds them."""
    wl = _workloads()
    steps = []
    make, _, _, n = wl.WORKLOADS["pipeline"]
    for i in range(n):
        inp = make(1, i, 0)
        _, D, _, _ = fragmentation.prop51_pipeline(inp["X"], inp["Y"])
        steps += D.steps
    make, _, _, n = wl.WORKLOADS["frag"]
    for i in range(n):
        inp = make(1, i, 0)
        for X, Y in ((inp["X"], inp["Y"]), (inp["Y"], inp["X"])):
            _, D = fragmentation.delta_upper(X, Y)
            if D is not None:
                steps += D.steps
    return steps


def test_the_verifier_needs_no_elimination_on_certified_steps(monkeypatch):
    steps = _seed1_steps()
    assert len(steps) >= 1000
    assert all(_cert(wit) is not None for _, wit in steps)

    def disabled(*args, **kwargs):
        raise AssertionError("the verifier eliminated")

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("fcplx."):
            for name in ("_eliminate", "canonical_form"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, disabled)
    for tri, wit in steps:
        assert verify_triangle(tri, wit) == (True, [])
    # without its certificate the same step needs the kernel
    tri, wit = steps[0]
    with pytest.raises(AssertionError, match="eliminated"):
        verify_triangle(tri, _bare(wit))
