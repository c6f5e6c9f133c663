"""`verify_triangle` names exactly the clauses a broken witness fails,
the list `fcplx verify-triangle` prints.  Each seeded `gen_triangle`
round is checked intact and then with one part mutated.  The seed is one
where a non-closed `u` of shift <= 0 exists on three rounds: on small
complexes with a sparse differential, every degree-0 map is often
closed."""

from dataclasses import replace

from fcplx.complexes import FilteredChainMap, shift_complex
from fcplx.f2linalg import ZERO, F2Vector
from fcplx.tpc import verify_triangle
from fcplx.verify import GenConfig, gen_triangle

CFG = GenConfig(seed=38)
# the round whose w is nullhomotopic at level 0: a zero psi keeps its
# w-through-psi clause
W_NULLHOMOTOPIC = {3}


def _elementary(S, T, keep):
    """The degree-0 maps x_s* (x) y_t: S -> T with keep(x_s, y_t)."""
    for s, gs in enumerate(S.gens):
        for t, gt in enumerate(T.gens):
            if gt.degree == gs.degree and keep(gs, gt):
                cols = [ZERO] * S.n
                cols[s] = F2Vector(mask=1 << t)
                yield FilteredChainMap(S, T, cols, 0)


def _mutations(tri, wit, w_null):
    """(name, triangle, witness, failed clauses) of each mutation."""
    K = wit.cprime
    for e in _elementary(tri.A, tri.B, lambda gs, gt: gt.ell <= gs.ell):
        if not e.is_closed():
            yield "u", replace(tri, u=tri.u + e), wit, ["u-closed-shift0"]
            break
    for e in _elementary(K, tri.C, lambda gs, gt: gt.ell > gs.ell):
        yield ("phi", tri, replace(wit, phi=wit.phi + e),
               ["phi-closed-shift0"])
        break
    if tri.weight > 0:
        yield ("psi-on-C", tri, replace(wit, psi=wit.psi.viewed(tri.C, K)),
               ["psi-closed-shift0"])
    yield ("cprime", tri, replace(wit, cprime=shift_complex(K, 1)),
           ["cprime-is-cone"])
    w = tri.w.viewed(tri.C, shift_complex(tri.w.target, -1))
    yield "w", replace(tri, w=w), wit, ["shape"]
    yield ("psi-zero", tri,
           replace(wit, psi=FilteredChainMap.zero(wit.psi.source, K)),
           ["psi-right-inverse"] + ([] if w_null else ["w-through-psi"]))


def test_each_mutation_fails_exactly_its_clauses():
    seen = {}
    for off in range(20):
        tri, wit = gen_triangle(CFG, CFG.rng(off))
        assert verify_triangle(tri, wit) == (True, [])
        for name, mtri, mwit, failed in _mutations(
                tri, wit, off in W_NULLHOMOTOPIC):
            assert verify_triangle(mtri, mwit) == (False, failed), (off, name)
            seen[name] = seen.get(name, 0) + 1
    assert seen == {"u": 3, "phi": 13, "psi-on-C": 12, "cprime": 20,
                    "w": 20, "psi-zero": 20}
