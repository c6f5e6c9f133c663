"""The closed-form witnesses of `rotate`, `rotate_negative` and
`octahedron`: side by side with the fill-built ones of
tests/reference_rotations.py, the negative rotation's w-through-psi
clause on its own, with no fill at all (seeded and at 64 bars), and
the certificate the octahedron's second output carries when both its
inputs verify.

The seeded rounds are `gen_triangle` / `gen_triangle_over` pairs, every
other one with its first witness moved by a boundary (uncertified,
phi o include != v or phi o psi != eta), and pairs of certified
triangles whose comparisons are random r-isomorphisms."""

import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from fcplx import f2linalg, fragmentation, tpc
from fcplx.barcodes import Bar, Barcode, boundary_depth, from_barcode
from fcplx.complexes import (
    FilteredChainMap,
    _inclusion,
    _projection,
    compose,
    cone,
    homotopic,
    shift_complex,
    translate,
)
from fcplx.f2linalg import _apply
from fcplx.fragmentation import (
    compose_decompositions,
    delta_upper,
    translate_inverse_decomposition,
    validate_decomposition,
)
from fcplx.homsolve import random_closed_map
from fcplx.rationals import POS_INF
from fcplx.tpc import (
    octahedron,
    rotate,
    rotate_negative,
    triangle_from_morphism,
    verify_triangle,
)
from fcplx.verify import (
    GenConfig,
    gen_complex,
    gen_r_iso,
    gen_triangle,
    gen_triangle_over,
    random_basis_change,
)

from conftest import boundary_move, serialize
from reference_rotations import (
    reference_octahedron,
    reference_rotate,
    reference_rotate_negative,
)

CFG = GenConfig(seed=6174)
ROUNDS = 200
TWISTED = 100
VERIFIED = (True, [])


def _cert(wit):
    return getattr(wit, "_cert", None)


def _moved(rng, tri, wit):
    """wit without its certificate and with phi moved by a boundary
    (`boundary_move`): it still witnesses tri, but v and phi o include,
    and phi o psi and eta, may now differ by a boundary."""
    return replace(wit, phi=boundary_move(rng, wit.phi)[0])


def _rounds():
    """(t1, w1, t2, w2) per seeded round; every other first witness is
    moved by a boundary (`_moved`)."""
    for off in range(ROUNDS):
        rng = CFG.rng(off)
        t1, w1 = gen_triangle(CFG, rng)
        if off % 2:
            w1 = _moved(rng, t1, w1)
        t2, w2 = gen_triangle_over(t1.C, CFG, rng)
        yield t1, w1, t2, w2


def _twisted(A, B, rng):
    """A certified triangle A -> B' -> C' whose comparison is no
    identity: the cone triangle of a map A -> B' carried along a random
    r-isomorphism v out of the cone (`gen_r_iso`), with phi = v, psi
    its inverse and the certificate zero_apex_step attaches."""
    u = triangle_from_morphism(random_closed_map(A, B, rng))[0].u
    K = cone(u, 0)
    v, _, C = gen_r_iso(CFG, rng.choice(CFG.filtration_grid[:5]), rng,
                        source=K)
    W = boundary_depth(cone(v, 0))
    g, cert, _ = tpc._contraction_inverse(v, W)
    tri, wit = tpc.exact_triangle(
        u, v, g.viewed(shift_complex(C, W), K, 0), W)
    return tri, tpc._certified(wit, cert)


def _twisted_rounds(n=TWISTED):
    """(t1, w1, t2, w2) of two `_twisted` triangles per round."""
    for off in range(n):
        rng = CFG.rng(ROUNDS + off)
        t1, w1 = _twisted(gen_complex(CFG, rng, max_generators=3),
                          gen_complex(CFG, rng, max_generators=3), rng)
        t2, w2 = _twisted(t1.C, gen_complex(CFG, rng, max_generators=3),
                          rng)
        yield t1, w1, t2, w2


def _all_rounds():
    yield from _rounds()
    yield from _twisted_rounds()


def _squares_hold(res):
    return all(homotopic(lhs, rhs, slack) is not None
               for _, lhs, rhs, slack in res.squares)


def test_closed_forms_and_fills_agree_side_by_side():
    moved = 0
    for t1, w1, t2, w2 in _all_rounds():
        assert verify_triangle(t1, w1) == VERIFIED
        moved += _cert(w1) is None
        rt, rw = rotate(t1, w1)
        ft, fw = reference_rotate(t1, w1)
        assert verify_triangle(rt, rw) == verify_triangle(ft, fw) == VERIFIED
        assert rt.weight == ft.weight == 2 * t1.weight
        assert serialize((rt.u, rt.w)) == serialize((ft.u, ft.w))

        nt, nw = rotate_negative(t1, w1)
        ft, fw = reference_rotate_negative(t1, w1)
        assert verify_triangle(nt, nw) == verify_triangle(ft, fw) == VERIFIED
        # no leg of the negative rotation depends on its witness
        assert serialize(nt) == serialize(ft)

        res = octahedron(t1, w1, t2, w2)
        ref = reference_octahedron(t1, w1, t2, w2)
        assert verify_triangle(res.d4, res.wit4) == VERIFIED
        assert verify_triangle(ref.d4, ref.wit4) == VERIFIED
        assert serialize((res.d3, res.wit3)) == serialize((ref.d3, ref.wit3))
        assert res.d4.weight == ref.d4.weight == t1.weight + t2.weight
        assert serialize((res.d4.u, res.d4.v)) == serialize(
            (ref.d4.u, ref.d4.v))
        assert [sq[0] for sq in res.squares] == [sq[0] for sq in ref.squares]
        assert _squares_hold(res) and _squares_hold(ref)
    assert moved == ROUNDS // 2


def _moved_apart(rng, tri, wit):
    """Certified variants of a certified (tri, wit): ("v moved", v moved
    by a boundary, so h_v != 0) and ("psi moved", psi moved by the
    boundary of k, so psi is not the certificate's g, with H + phi k),
    each when the move changes the map."""
    for _ in range(10):
        v = boundary_move(rng, tri.v)[0]
        if v != tri.v:
            yield "v moved", replace(tri, v=v), wit
            break
    c, H = _cert(wit)
    for _ in range(10):
        psi, k = boundary_move(rng, wit.psi)
        if psi != wit.psi:
            Hk = tpc._product(wit.phi.cols, k)
            yield "psi moved", tri, tpc._certified(
                replace(wit, psi=psi), (c, Hk if H is None else [
                    a ^ b for a, b in zip(H, Hk)]))
            break


def test_the_negative_rotation_meets_its_w_clause_exactly():
    """psi_N's S^r C part is v itself, so project o psi_N is w_N and the
    w-through-psi clause holds with the zero homotopy.  Checked on its
    own at positive weight, with theta written down from the witness's
    own certificate (with H = None; with H != None, on the octahedron's
    second outputs; after v or psi is moved by a boundary,
    `_moved_apart`) and from the one `tpc._certificate` derives for a
    bare witness."""
    kinds = ("H = None", "H", "v moved", "psi moved", "uncertified")
    positive = dict.fromkeys(kinds, 0)

    def kind(wit):
        if _cert(wit) is None:
            return "uncertified"
        return "H = None" if _cert(wit)[1] is None else "H"

    for off, (t1, w1, t2, w2) in enumerate(_all_rounds()):
        res = octahedron(t1, w1, t2, w2)
        cases = [(kind(w1), t1, w1), (kind(res.wit4), res.d4, res.wit4)]
        rng = random.Random(off)
        for tri, wit in ((t1, w1), (res.d4, res.wit4)):
            if _cert(wit) is not None:
                cases.extend(_moved_apart(rng, tri, wit))
        for name, tri, wit in cases:
            assert verify_triangle(tri, wit) == VERIFIED
            nt, nw = rotate_negative(tri, wit)
            assert verify_triangle(nt, nw) == VERIFIED
            KN = cone(nt.u, 0)
            through_psi = compose(
                _projection(KN, translate(nt.A), nt.B.n), nw.psi)
            assert through_psi.cols == nt.w.cols
            shifted_w = nt.w.viewed(nw.psi.source, translate(nt.A))
            assert homotopic(shifted_w, through_psi, 0) is not None
            positive[name] += tri.weight > 0
    assert min(positive.values()) >= 50, positive


def test_the_negative_rotation_refuses_a_witness_failing_its_inverse():
    """theta is written down from the witness's certificate, so a bare
    witness that fails phi-r-isomorphism (its weight lowered by 1/4) or
    psi-right-inverse (psi zeroed) has none and raises ValueError."""
    counts = dict.fromkeys(("phi-r-isomorphism", "psi-right-inverse"), 0)
    for t1, w1, _, _ in _all_rounds():
        cases = [(t1, replace(w1, psi=FilteredChainMap.zero(
            w1.psi.source, w1.psi.target)))]
        low = t1.weight - Fraction(1, 4)
        if low >= 0:
            cases.append((
                replace(t1, weight=low, w=t1.w.viewed(
                    t1.C, shift_complex(translate(t1.A), -low))),
                replace(w1, psi=w1.psi.viewed(shift_complex(t1.C, low),
                                              w1.psi.target))))
        for tri, wit in cases:
            hit = [c for c in counts if c in verify_triangle(tri, wit)[1]]
            for c in hit:
                counts[c] += 1
            if hit:
                with pytest.raises(ValueError, match="does not verify"):
                    rotate_negative(tri, wit)
    assert min(counts.values()) >= 20, counts


def test_the_moved_witnesses_take_both_solve_paths():
    """Among the moved witnesses, some have v != phi o include (rotate
    solves for h_v) and some phi o psi != eta (octahedron solves for
    H1)."""
    hv = h1 = 0
    for t1, w1, _, _ in _rounds():
        nB = t1.B.n
        hv += w1.phi.cols[:nB] != t1.v.cols
        h1 += any(_apply(w1.phi.cols, c) != 1 << j
                  for j, c in enumerate(w1.psi.cols))
    assert hv >= 5 and h1 >= 5


# ----------------------------------------------------------------------
# no fill solve, seeded and at 64 bars


GRID = tuple(Fraction(n, 4) for n in range(32))


def _object(rng, n):
    """n bars on the quarter grid of [0, 8), the first n/4 infinite,
    degrees alternating, under a random change of basis."""
    bars = []
    for k in range(n):
        lo = rng.choice(GRID)
        hi = POS_INF if k < n // 4 else lo + rng.choice(GRID[1:])
        bars.append(Bar(k % 2, lo, hi))
    return random_basis_change(from_barcode(Barcode(bars)), rng)[0]


def _large(n=64):
    """The size-ladder inputs: a triangle to rotate and a composable
    pair for the octahedron, each object of n bars."""
    rng = random.Random(f"rot/{n}")
    A, B = _object(rng, n), _object(rng, n)
    rot = triangle_from_morphism(random_closed_map(A, B, rng))
    rng = random.Random(f"oct/{n}")
    E, F = _object(rng, n), _object(rng, n)
    t1, w1 = triangle_from_morphism(random_closed_map(E, F, rng))
    t2, w2 = triangle_from_morphism(
        random_closed_map(t1.C, _object(rng, n), rng))
    return rot, (t1, w1, t2, w2)


@pytest.fixture
def no_fill(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("fill_map was called")

    monkeypatch.setattr(tpc, "fill_map", refused)


def _assert_constructions_verify(rot, pair):
    for tri, wit in (rotate(*rot), rotate_negative(*rot)):
        assert verify_triangle(tri, wit) == VERIFIED
    res = octahedron(*pair)
    assert verify_triangle(res.d3, res.wit3) == VERIFIED
    assert verify_triangle(res.d4, res.wit4) == VERIFIED


def test_no_fill_on_certified_seeded_inputs(no_fill):
    for off in range(60):
        rng = CFG.rng(10_000 + off)
        t1, w1 = gen_triangle(CFG, rng)
        t2, w2 = gen_triangle_over(t1.C, CFG, rng)
        assert _cert(w1) is not None and _cert(w2) is not None
        _assert_constructions_verify((t1, w1), (t1, w1, t2, w2))


def test_no_fill_at_64_bars(no_fill):
    rot, pair = _large(64)
    # 64 bars, 48 of them finite, per object
    assert rot[0].A.n == 112 and pair[0].C.n == 224
    _assert_constructions_verify(rot, pair)


def test_the_octahedron_builds_three_cones(monkeypatch):
    """cone(p) for the first output, B'' and cone(u4), plus cone(phi)
    for each bare input witness's certificate; B' = cone(t2.u) is the
    second witness's cprime."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return cone(*args)

    monkeypatch.setattr(tpc, "cone", counted)
    for t1, w1, t2, w2 in _all_rounds():
        calls[0] = 0
        octahedron(t1, w1, t2, w2)
        assert calls[0] == 3 + (_cert(w1) is None) + (_cert(w2) is None)


# ----------------------------------------------------------------------
# certificates


def test_the_second_output_is_certified_when_both_inputs_are():
    """Both inputs verify (certified or bare), so the second output
    carries a certificate; with the second witness's psi zeroed, so
    that its psi-right-inverse clause fails, it carries none."""
    n = broken = 0
    for t1, w1, t2, w2 in _all_rounds():
        for a, b in ((w1, w2), (w1, replace(w2))):
            res = octahedron(t1, a, t2, b)
            n += 1
            assert _cert(res.wit4) is not None
            assert verify_triangle(res.d4, res.wit4) == VERIFIED
            assert verify_triangle(res.d4, replace(res.wit4)) == VERIFIED
        zero = replace(w2, psi=FilteredChainMap.zero(w2.psi.source,
                                                     w2.psi.target))
        if "psi-right-inverse" in verify_triangle(t2, zero)[1]:
            broken += 1
            assert _cert(octahedron(t1, w1, t2, zero).wit4) is None
    assert n == 2 * (ROUNDS + TWISTED) and broken >= 100


def _disabled(*args, **kwargs):
    raise AssertionError("the verifier eliminated")


def _via_triples(count=12):
    """(X, mid, X') with two infinite bars each and up to four finite
    ones on the quarter grid, under random changes of basis."""
    rng = random.Random(3)
    for _ in range(count):
        objs = []
        for _ in range(3):
            bars = [Bar(k % 2, rng.choice(GRID[:24]), POS_INF)
                    for k in range(2)]
            for k in range(rng.randint(0, 4)):
                lo = rng.choice(GRID[:24])
                bars.append(Bar(k % 2, lo, lo + rng.choice(GRID[1:8])))
            objs.append(random_basis_change(from_barcode(Barcode(bars)),
                                            rng)[0])
        yield objs


def test_composed_decompositions_verify_without_elimination(monkeypatch):
    """translate_inverse_decomposition keeps each certificate, and
    refine's octahedra certify their outputs, so a composed
    decomposition validates with no solve (f2linalg's elimination
    raises; canonical forms, which validate_decomposition needs for its
    barcodes, keep their own), and every step verifies with no
    elimination anywhere."""
    composed = []
    for X, mid, Xp in _via_triples():
        v1, D1 = delta_upper(X, mid)
        v2, D2 = delta_upper(mid, Xp)
        for (_, a), (_, b) in zip(D2.steps,
                                  translate_inverse_decomposition(D2).steps):
            assert _cert(b) is _cert(a) is not None
        composed.append((compose_decompositions(D1, mid, D2), X, Xp,
                         v1 + v2))
    with monkeypatch.context() as m:
        m.setattr(f2linalg, "_eliminate", _disabled)
        for D, X, Xp, weight in composed:
            assert validate_decomposition(
                D, X, fragmentation.EMPTY_FAMILY, Xp) == (True, weight, [])
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("fcplx.") and hasattr(mod, "_eliminate"):
            monkeypatch.setattr(mod, "_eliminate", _disabled)
    steps = [step for D, _, _, _ in composed for step in D.steps]
    assert len(steps) >= 40
    for tri, wit in steps:
        assert verify_triangle(tri, wit) == VERIFIED
    with pytest.raises(AssertionError, match="eliminated"):
        verify_triangle(tri, replace(wit))
