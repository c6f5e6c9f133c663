"""The general hom-complex solvers that r-inverses and nullhomotopies
used before they were read off canonical forms and degree slices.

`reference_r_inverses` solves for each inverse and its homotopy as one
`MapSystem` over whole hom complexes; `reference_nullhomotopy` builds
all of Hom(X, Y) and solves on its allowed columns.  The tests check
`fcplx.tpc.r_inverses` against the first up to r-equivalence and
`fcplx.complexes.nullhomotopy` against the second exactly.  Each call
builds hom complexes of |X|·|Y| generators, so keep inputs small.
`eta_down` is the comparison X -> Sigma^{-r} X that a left r-inverse
undoes.
"""

from fractions import Fraction

from fcplx.complexes import (
    FilteredChainMap,
    HomComplex,
    eta,
    shift_complex,
)
from fcplx.f2linalg import solve_in_span
from fcplx.homsolve import MapSystem

from reference_fill import diff_op, postcompose_op, precompose_op


def eta_down(X, r):
    """The comparison of `eta` viewed X -> Sigma^{-r} X."""
    return FilteredChainMap.identity(X).viewed(X, shift_complex(X, -r))


def reference_nullhomotopy(f: FilteredChainMap, bound):
    if f.is_zero():
        return FilteredChainMap.zero(f.source, f.target, f.degree - 1)
    H = HomComplex(f.source, f.target)
    allowed = H.gens_with(degree=f.degree - 1, max_level=bound)
    A = H.complex.diff_matrix()
    x = solve_in_span(A, H.encode(f), allowed)
    if x is None:
        return None
    return H.decode(x, f.degree - 1)


def reference_r_inverses(f: FilteredChainMap, r):
    """(phi: B -> S^-r A, psi: S^r B -> A) for an r-isomorphism f."""
    r = Fraction(r)
    A, B = f.source, f.target
    sA = shift_complex(A, -r)

    sys1 = MapSystem()
    H_phi = HomComplex(B, sA)
    H_k = HomComplex(A, sA)
    sys1.unknown("phi", H_phi, 0, Fraction(0))
    sys1.unknown("k", H_k, -1, Fraction(0))
    sys1.equation(H_phi, [(diff_op(H_phi), "phi")], 0)
    sys1.equation(
        H_k,
        [(precompose_op(H_phi, f, H_k), "phi"), (diff_op(H_k), "k")],
        H_k.encode(eta_down(A, r)),
    )
    sol1 = sys1.solve()
    if sol1 is None:
        raise AssertionError("left inverse solve failed")

    sB = shift_complex(B, r)
    sys2 = MapSystem()
    H_psi = HomComplex(sB, A)
    H_k2 = HomComplex(sB, B)
    sys2.unknown("psi", H_psi, 0, Fraction(0))
    sys2.unknown("k", H_k2, -1, Fraction(0))
    sys2.equation(H_psi, [(diff_op(H_psi), "psi")], 0)
    sys2.equation(
        H_k2,
        [(postcompose_op(H_psi, f, H_k2), "psi"), (diff_op(H_k2), "k")],
        H_k2.encode(eta(B, r)),
    )
    sol2 = sys2.solve()
    if sol2 is None:
        raise AssertionError("right inverse solve failed")
    return sol1["phi"], sol2["psi"]
