"""`verify_triangle` names exactly the clauses a broken witness fails,
the list `fcplx verify-triangle` prints.  Each seeded `gen_triangle`
round is checked intact and then with one part mutated.  The seed is one
where a non-closed `u` of shift <= 0 exists on three rounds: on small
complexes with a sparse differential, every degree-0 map is often
closed.  A second source, cone triangles between scrambled
`from_barcode` objects of 3-6 bars, reaches the `u` mutation on most
rounds."""

import random
from dataclasses import replace
from fractions import Fraction

from fcplx.barcodes import Bar, Barcode, from_barcode
from fcplx.complexes import FilteredChainMap, shift_complex
from fcplx.homsolve import random_closed_map
from fcplx.rationals import POS_INF
from fcplx.tpc import relax_weight, triangle_from_morphism, verify_triangle
from fcplx.verify import GenConfig, gen_triangle, random_basis_change

CFG = GenConfig(seed=38)
# Filtration levels of the scrambled objects: quarters in [0, 4).
GRID = tuple(Fraction(n, 4) for n in range(16))
# the round whose w is nullhomotopic at level 0: a zero psi keeps its
# w-through-psi clause
W_NULLHOMOTOPIC = {3}


def _elementary(S, T, keep):
    """The maps x_s* (x) y_t: S -> T, declared of degree 0, with
    keep(x_s, y_t)."""
    for s, gs in enumerate(S.gens):
        for t, gt in enumerate(T.gens):
            if keep(gs, gt):
                cols = [0] * S.n
                cols[s] = 1 << t
                yield FilteredChainMap(S, T, cols, 0)


def _u_mutation(tri, wit):
    """The u mutation: u plus the first non-closed elementary degree-0
    map A -> B of shift <= 0, when there is one."""
    for e in _elementary(tri.A, tri.B, lambda gs, gt: (
            gt.degree == gs.degree and gt.ell <= gs.ell)):
        if not e.is_closed():
            yield "u", replace(tri, u=tri.u + e), wit, ["u-closed-shift0"]
            break


def _mutations(tri, wit, w_null):
    """(name, triangle, witness, failed clauses) of each mutation."""
    K = wit.cprime
    yield from _u_mutation(tri, wit)
    for e in _elementary(K, tri.C, lambda gs, gt: (
            gt.degree == gs.degree and gt.ell > gs.ell)):
        yield ("phi", tri, replace(wit, phi=wit.phi + e),
               ["phi-closed-shift0"])
        break
    # an entry of the wrong degree that keeps phi closed and of shift
    # <= 0: only the degree test rejects it
    for e in _elementary(K, tri.C, lambda gs, gt: (
            gt.degree != gs.degree and gt.ell <= gs.ell)):
        if e.is_closed():
            yield ("phi-degree", tri, replace(wit, phi=wit.phi + e),
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
    assert seen == {"u": 3, "phi": 13, "phi-degree": 20, "psi-on-C": 12,
                    "cprime": 20, "w": 20, "psi-zero": 20}


def _scrambled(rng):
    """from_barcode of 3-6 random bars, a quarter of them infinite, in a
    random level-legal basis."""
    bars = []
    for k in range(rng.randint(3, 6)):
        lo = rng.choice(GRID)
        hi = POS_INF if rng.random() < 0.25 else lo + rng.choice(GRID[1:8])
        bars.append(Bar(k % 2, lo, hi))
    return random_basis_change(from_barcode(Barcode(bars)), rng)[0]


def test_the_u_mutation_fails_exactly_u_closed_shift0_on_larger_objects():
    rng = random.Random(20240817)
    reached = 0
    for _ in range(20):
        A, B = _scrambled(rng), _scrambled(rng)
        tri, wit = triangle_from_morphism(random_closed_map(A, B, rng))
        tri, wit = relax_weight(tri, wit, rng.choice(GRID[:5]))
        assert verify_triangle(tri, wit) == (True, [])
        for _, mtri, mwit, failed in _u_mutation(tri, wit):
            assert verify_triangle(mtri, mwit) == (False, failed)
            reached += 1
    assert reached >= 10, reached
