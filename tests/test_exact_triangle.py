"""Every elementary weighted triangle is `tpc.exact_triangle` of its
witness (phi, psi): v = phi o include and w = project o psi.  Each
builder must give, byte for byte, the (triangle, witness) of the
hand-built body it replaced (`reference_triangles`), and that triangle
must verify.  Rotations and the octahedron's second output run on
certified witnesses and on bare ones moved by a boundary, so that
v != phi o include."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

from fcplx.barcodes import barcode, boundary_depth, from_barcode
from fcplx.complexes import FilteredChainMap, zero_complex
from fcplx.fragmentation import (
    FamilySpec,
    acyclic_from_zero_step,
    collapse_acyclic_triangle,
    eta_slot_triangle,
    underline_delta_upper,
    zero_apex_step,
)
from fcplx.homsolve import random_closed_map
from fcplx.tpc import (
    identity_triangle,
    octahedron,
    rotate,
    rotate_negative,
    triangle_from_morphism,
    verify_triangle,
)
from fcplx.verify import (
    GenConfig,
    gen_acyclic,
    gen_complex,
    gen_r_iso,
    gen_triangle,
    gen_triangle_over,
)

from conftest import boundary_move, serialize
import reference_triangles as ref

CFG = GenConfig(seed=1913)
TRIALS = 30


def _cases():
    """(builder, built, reference) on seeded inputs: identity triangles
    (the zero complex too), eta slots at r > 0, collapses of and
    attachments over multi-bar acyclics, zero-apex steps on r-isos,
    underline_delta_upper's one-move zero apex, octahedron d3s, and
    rotations and octahedron d4s (`_rotation_cases`)."""
    z = zero_complex()
    yield "identity", identity_triangle(z), ref.identity_triangle(z)
    for off in range(TRIALS):
        rng = CFG.rng(off)
        X = gen_complex(CFG, rng, max_generators=5)
        r = Fraction(rng.randint(1, 8), 4)
        yield "identity", identity_triangle(X), ref.identity_triangle(X)
        yield ("eta-slot", eta_slot_triangle(X, r),
               ref.eta_slot_triangle(X, r))
        H = gen_acyclic(CFG, rng, max_depth=2, max_bars=4)
        name = "multi-bar" if len(barcode(H)) > 1 else "one-bar"
        yield (f"collapse-{name}", collapse_acyclic_triangle(H),
               ref.collapse_acyclic_triangle(H))
        yield (f"attach-{name}", acyclic_from_zero_step(H),
               ref.acyclic_from_zero_step(H))
        Hc = from_barcode(barcode(H))
        _, chain = underline_delta_upper(Hc, z, FamilySpec(()))
        yield "underline", chain[0], ref.zero_apex_step(
            z, Hc, FilteredChainMap.zero(z, Hc), boundary_depth(barcode(H)))
        f, A, B = gen_r_iso(CFG, r, rng)
        yield "zero-apex", zero_apex_step(f, r), ref.zero_apex_step(A, B, f, r)
        t1, w1 = gen_triangle(CFG, rng)
        t2, w2 = gen_triangle_over(t1.C, CFG, rng)
        res = octahedron(t1, w1, t2, w2)
        yield "octahedron-d3", (res.d3, res.wit3), ref.octahedron_d3(t1, t2)
    yield from _rotation_cases()


def _rotation_cases():
    """rotate, rotate_negative and the octahedron's d4 on cone triangles
    of maps between complexes of up to 6 generators (certified), and on
    each with its witness bare and phi moved by a boundary, tried up to
    20 times for a move with v != phi o include (named "-hv")."""
    for off in range(TRIALS):
        rng = CFG.rng(5000 + off)
        A, B = (gen_complex(CFG, rng, max_generators=6) for _ in range(2))
        t1, w1 = triangle_from_morphism(random_closed_map(A, B, rng))
        t2, w2 = triangle_from_morphism(random_closed_map(
            t1.C, gen_complex(CFG, rng, max_generators=3), rng))
        nB = t1.B.n
        for _ in range(20):
            moved = replace(w1, phi=boundary_move(rng, w1.phi)[0])
            if moved.phi.cols[:nB] != t1.v.cols:
                break
        hv = moved.phi.cols[:nB] != t1.v.cols
        for tag, wit in (("", w1), ("-hv" if hv else "-moved", moved)):
            yield f"rotate{tag}", rotate(t1, wit), ref.rotate(t1, wit)
            yield (f"rotate-negative{tag}", rotate_negative(t1, wit),
                   ref.rotate_negative(t1, wit))
            res = octahedron(t1, wit, t2, w2)
            yield (f"octahedron-d4{tag}", (res.d4, res.wit4),
                   ref.octahedron_d4(t1, wit, t2, w2))


def test_builders_match_the_hand_built_bodies():
    seen = Counter()
    for name, built, reference in _cases():
        assert serialize(built) == serialize(reference), name
        seen[name] += 1
    # the inputs reach every builder, multi-bar acyclics, and moved
    # witnesses with v != phi o include
    assert seen["collapse-multi-bar"] and seen["attach-multi-bar"]
    assert min(seen[f"{name}-hv"] for name in (
        "rotate", "rotate-negative", "octahedron-d4")) >= 5, seen
    assert len(seen) >= 14, seen


def test_built_triangles_verify():
    for name, (tri, wit), _ in _cases():
        ok, fails = verify_triangle(tri, wit)
        assert ok, (name, fails)
