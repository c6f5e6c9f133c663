"""Every elementary weighted triangle is `tpc.exact_triangle` of its
witness (phi, psi): v = phi o include and w = project o psi.  Each
builder must give, byte for byte, the (triangle, witness) of the
hand-built body it replaced (`reference_triangles`), and that triangle
must verify."""

from collections import Counter
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
from fcplx.tpc import identity_triangle, octahedron, verify_triangle
from fcplx.verify import (
    GenConfig,
    gen_acyclic,
    gen_complex,
    gen_r_iso,
    gen_triangle,
    gen_triangle_over,
)

from conftest import serialize
import reference_triangles as ref

CFG = GenConfig(seed=1913)
TRIALS = 30


def _cases():
    """(builder, built, reference) on seeded inputs: identity triangles
    (the zero complex too), eta slots at r > 0, collapses of and
    attachments over multi-bar acyclics, zero-apex steps on r-isos,
    underline_delta_upper's one-move zero apex and octahedron d3s."""
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


def test_builders_match_the_hand_built_bodies():
    seen = Counter()
    for name, built, reference in _cases():
        assert serialize(built) == serialize(reference), name
        seen[name] += 1
    # the inputs reach every builder, and multi-bar acyclics
    assert seen["collapse-multi-bar"] and seen["attach-multi-bar"]
    assert len(seen) >= 8, seen


def test_built_triangles_verify():
    for name, (tri, wit), _ in _cases():
        ok, fails = verify_triangle(tri, wit)
        assert ok, (name, fails)
