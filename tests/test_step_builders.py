"""The elementary steps and their certificates, side by side with the
hand-assembled bodies of `reference_triangles` (the `certified_*`
functions): identity triangles, triangles of morphisms, eta slots, the
octahedron's first output, zero-apex steps, attachments and collapses
of acyclics, weight relaxations and inverse translations.  Each must
give the same serialized (triangle, witness) and the same certificate
columns, where a homotopy H with no columns counts as None (both say
phi o psi = eta on a zero C).  Run on seeded inputs and on the
decompositions `prop51_pipeline` builds for the seed-1 inputs of the
benchmark's `pipeline` workload."""

import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from fcplx import barcodes, complexes, fragmentation
from fcplx.complexes import (
    FilteredChainMap,
    Generator,
    shift_complex,
    zero_complex,
)
from fcplx.fragmentation import (
    EMPTY_FAMILY,
    acyclic_from_zero_step,
    collapse_acyclic_triangle,
    delta_upper,
    eta_slot_triangle,
    prop51_pipeline,
    translate_inverse_decomposition,
    validate_decomposition,
    zero_apex_step,
)
from fcplx.homsolve import random_closed_map
from fcplx.tpc import (
    identity_triangle,
    octahedron,
    relax_weight,
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

from conftest import serialize
import reference_triangles as ref

CFG = GenConfig(seed=2104)
TRIALS = 30
WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def _cert(wit):
    """The certificate's columns as masks; an H with no columns is
    None."""
    cert = getattr(wit, "_cert", None)
    if cert is None:
        return None
    c, H = cert
    return list(c), list(H) if H else None


def _same(built, reference):
    return (serialize(built) == serialize(reference)
            and _cert(built[1]) == _cert(reference[1]))


def _seeded():
    """(builder, built, reference) on seeded inputs."""
    z = zero_complex()
    yield "identity", identity_triangle(z), ref.certified_identity_triangle(z)
    yield ("collapse", collapse_acyclic_triangle(z),
           ref.certified_collapse_acyclic_triangle(z))
    yield ("attach", acyclic_from_zero_step(z),
           ref.certified_acyclic_from_zero_step(z))
    for off in range(TRIALS):
        rng = CFG.rng(off)
        X = gen_complex(CFG, rng, max_generators=5)
        r = Fraction(rng.randint(0, 8), 4)
        yield ("identity", identity_triangle(X),
               ref.certified_identity_triangle(X))
        yield ("eta-slot", eta_slot_triangle(X, r),
               ref.certified_eta_slot_triangle(X, r))
        f = random_closed_map(X, gen_complex(CFG, rng, max_generators=4),
                              rng)
        # the target raised by r gives f shift up to r
        f = f.viewed(X, shift_complex(f.target, r))
        yield ("morphism", triangle_from_morphism(f),
               ref.certified_triangle_from_morphism(f))
        H = gen_acyclic(CFG, rng, max_depth=2, max_bars=4)
        yield ("collapse", collapse_acyclic_triangle(H),
               ref.certified_collapse_acyclic_triangle(H))
        yield ("attach", acyclic_from_zero_step(H),
               ref.certified_acyclic_from_zero_step(H))
        g, _, _ = gen_r_iso(CFG, r, rng)
        yield "zero-apex", zero_apex_step(g, r), ref.certified_zero_apex_step(
            g, r)
        t1, w1 = gen_triangle(CFG, rng)
        t2, w2 = gen_triangle_over(t1.C, CFG, rng)
        res = octahedron(t1, w1, t2, w2)
        yield ("octahedron-d3", (res.d3, res.wit3),
               ref.certified_octahedron_d3(t1, t2))
        for tri, wit in ((t1, w1), (res.d4, res.wit4)):
            yield ("relax", relax_weight(tri, wit, r),
                   ref.certified_relax_weight(tri, wit, r))
        # two acyclics always have a decomposition
        for S, T in ((X, gen_complex(CFG, rng, max_generators=4)),
                     (H, gen_acyclic(CFG, rng, max_depth=2, max_bars=3))):
            _, D = delta_upper(S, T)
            if D is not None:
                yield from (("translate-inverse", *pair) for pair in zip(
                    translate_inverse_decomposition(D).steps,
                    ref.certified_translate_inverse_steps(D.steps)))


def test_builders_match_the_hand_assembled_bodies():
    seen = Counter()
    for name, built, reference in _seeded():
        assert _same(built, reference), name
        assert verify_triangle(*built) == (True, []), name
        seen[name] += 1
    assert len(seen) == 9 and seen["translate-inverse"] >= 30, seen


def _pipeline_inputs():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    make, _, _, n = wl.WORKLOADS["pipeline"]
    return [make(1, i, 0) for i in range(n)]


REFERENCE_STEPS = {
    "triangle_from_morphism": ref.certified_triangle_from_morphism,
    "identity_triangle": ref.certified_identity_triangle,
    "collapse_acyclic_triangle": ref.certified_collapse_acyclic_triangle,
    "acyclic_from_zero_step": ref.certified_acyclic_from_zero_step,
    "zero_apex_step": ref.certified_zero_apex_step,
}


def _count_calls(monkeypatch, counts, *functions):
    """Count in `counts`, by name, the calls of each of `functions`
    through every alias an fcplx module holds."""
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname == "fcplx" or modname.startswith("fcplx."):
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        monkeypatch.setattr(mod, attr, counted)


# compose, cone and canonical_form calls, FilteredChainMap constructions
# and Generator tuples built in one seed-1 pipeline pass: 156 builds,
# each validated.  v and w are read off the witness blocks, and a step's
# cone is its phi's source, so no step composes; a cone is a plain
# complex, so it builds no map.  Each pair block is a cone (2992 cones
# when it was written out by hand) and its down map a block projection
# off cone(u), found by no canonical form (3120 canonical forms when
# each pair's down map was read off one).  Complexes hold their levels
# as ints and nothing in the pass reads `gens`, so no Generator is built
# (159 240, one per generator of every complex made, when each complex
# held its gens).  Map checks decide shift bounds in ints, so only
# `triangle_from_morphism`, which needs the shift's value, calls
# `shift_of_map` (8424 calls when `cone`, `_closed_shift0`,
# `_is_homotopy` and `_require_iso_input` went through it).  All matched
# pairs make one pair cone and one triangle, and all short bars of Y one
# collapse (4336 cones, 1344 `shift_of_map` calls and 20 812 maps with a
# triangle per pair and a collapse per short bar), and validation takes
# each linearization entry's barcode once (1776 canonical forms before).
PIPELINE_WORK = {"compose": 0, "cone": 1918, "canonical_form": 1615,
                 "shift_of_map": 156, "FilteredChainMap": 8581,
                 "Generator": 0}


def test_pipeline_decompositions_match_the_hand_assembled_bodies(
        monkeypatch):
    """Every step of each seed-1 pipeline decomposition, the merged slot
    step (a sum of the parts' certificates) too, and the inverse
    translation of the decomposition.  The build and validation of the
    decompositions make PIPELINE_WORK calls."""
    inputs = _pipeline_inputs()
    counts = Counter(compose=0, cone=0, canonical_form=0, shift_of_map=0,
                     FilteredChainMap=0, Generator=0)
    _count_calls(monkeypatch, counts, complexes.compose, complexes.cone,
                 barcodes.canonical_form, complexes.shift_of_map)
    init = FilteredChainMap.__init__

    def counted_init(self, *args, **kwargs):
        counts["FilteredChainMap"] += 1
        init(self, *args, **kwargs)

    new = Generator.__new__

    def counted_new(cls, *args, **kwargs):
        counts["Generator"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(FilteredChainMap, "__init__", counted_init)
    monkeypatch.setattr(Generator, "__new__", counted_new)
    built = []
    for inp in inputs:
        D = prop51_pipeline(inp["X"], inp["Y"])[1]
        assert validate_decomposition(D, inp["X"], EMPTY_FAMILY,
                                      inp["Y"])[0]
        built.append(D)
    monkeypatch.undo()
    assert dict(counts) == PIPELINE_WORK
    for name, body in REFERENCE_STEPS.items():
        monkeypatch.setattr(fragmentation, name, body)
    steps = 0
    for inp, D in zip(inputs, built):
        R = prop51_pipeline(inp["X"], inp["Y"])[1]
        assert len(D.steps) == len(R.steps)
        for pair in (*zip(D.steps, R.steps), *zip(
                translate_inverse_decomposition(D).steps,
                ref.certified_translate_inverse_steps(R.steps))):
            assert _same(*pair)
            steps += 1
    assert steps >= 4 * len(inputs)
