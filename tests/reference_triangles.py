"""The elementary weighted triangles as they were built before
`tpc.exact_triangle`: each body writes u, v, w, the anchor S^-W TA and
the witness out by hand.

The tests check every builder in `fcplx.tpc` and `fcplx.fragmentation`
that now goes through `exact_triangle` against these for a
byte-identical (triangle, witness).
"""

from fractions import Fraction

from fcplx.barcodes import barcode, boundary_depth
from fcplx.complexes import (
    FilteredChainMap,
    compose,
    cone,
    shift_complex,
    translate,
    translate_inverse,
    zero_complex,
)
from fcplx.tpc import TriangleWitness, WeightedTriangle, contraction_inverse


def identity_triangle(X):
    z = zero_complex()
    tri = WeightedTriangle(
        z, X, X,
        FilteredChainMap.zero(z, X),
        FilteredChainMap.identity(X),
        FilteredChainMap.zero(X, translate(z)),
        Fraction(0),
    )
    wit = TriangleWitness(
        X, FilteredChainMap.identity(X), FilteredChainMap.identity(X)
    )
    return tri, wit


def eta_slot_triangle(X, r):
    r = Fraction(r)
    sX = shift_complex(X, r)
    A = translate_inverse(sX)
    z = zero_complex()
    w = FilteredChainMap.identity(X).viewed(
        X, shift_complex(translate(A), -r)
    )
    tri = WeightedTriangle(
        A, z, X,
        FilteredChainMap.zero(A, z),
        FilteredChainMap.zero(z, X),
        w, r,
    )
    K = cone(tri.u, 0)
    phi = FilteredChainMap.identity(X).viewed(K.complex, X)
    psi = FilteredChainMap.identity(sX).viewed(sX, K.complex)
    return tri, TriangleWitness(K.complex, phi, psi)


def zero_apex_step(Y, Z, v, W):
    W = Fraction(W)
    g = contraction_inverse(v, W)
    if g is None:
        raise ValueError("zero_apex_step needs a W-isomorphism")
    psi = g.viewed(shift_complex(g.source, W), g.target, 0)
    z = zero_complex()
    tri = WeightedTriangle(
        z, Y, Z,
        FilteredChainMap.zero(z, Y),
        v,
        FilteredChainMap.zero(Z, z),
        W,
    )
    return tri, TriangleWitness(Y, v, psi)


def acyclic_from_zero_step(H):
    W = boundary_depth(barcode(H))
    z = zero_complex()
    tri = WeightedTriangle(
        z, z, H,
        FilteredChainMap.zero(z, z),
        FilteredChainMap.zero(z, H),
        FilteredChainMap.zero(H, z),
        W,
    )
    wit = TriangleWitness(
        z, FilteredChainMap.zero(z, H),
        FilteredChainMap.zero(shift_complex(H, W), z),
    )
    return tri, wit


def collapse_acyclic_triangle(Xp):
    W = boundary_depth(barcode(Xp))
    A = translate_inverse(Xp)
    z = zero_complex()
    tri = WeightedTriangle(
        A, z, z,
        FilteredChainMap.zero(A, z),
        FilteredChainMap.zero(z, z),
        FilteredChainMap.zero(z, shift_complex(translate(A), -W)),
        W,
    )
    K = cone(tri.u, 0)
    wit = TriangleWitness(
        K.complex, FilteredChainMap.zero(K.complex, z),
        FilteredChainMap.zero(z, K.complex),
    )
    return tri, wit


def octahedron_d3(t1, t2):
    """The first output of `octahedron(t1, w1, t2, w2)`: the cone
    triangle F -> A -> C -> TF of the composite, at weight 0."""
    p = compose(t2.u, t1.v)
    Cres = cone(p, 0)
    C = Cres.complex
    d3 = WeightedTriangle(
        t1.B, t2.B, C, p, Cres.include,
        Cres.project.viewed(C, translate(t1.B)), Fraction(0),
    )
    wit3 = TriangleWitness(
        C, FilteredChainMap.identity(C), FilteredChainMap.identity(C),
    )
    return d3, wit3
