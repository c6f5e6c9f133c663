"""`rotate`, `rotate_negative` and `octahedron` as they were before
their witness maps were written down in closed form: each solves for
the maps between mapping cones with `homsolve.fill_map`.

`reference_right_inverse` is the fill that found a right inverse with a
prescribed projection, which rotate_negative and octahedron used.  The
tests run these side by side with `fcplx.tpc` on seeded inputs: both
outputs verify, the weights agree, and so do the legs that do not
depend on the witness.  Each fill builds hom-complex slices of
|S|·|T| generators, so keep inputs small.
"""

from fractions import Fraction

from fcplx.barcodes import is_r_acyclic
from fcplx.complexes import (
    FilteredChainMap,
    _inclusion,
    _projection,
    compose,
    cone,
    eta,
    homotopic,
    shift_complex,
    shift_of_map,
    translate,
    translate_inverse,
    translate_map,
)
from fcplx.homsolve import fill_map
from fcplx.rationals import is_finite
from fcplx.tpc import (
    OctahedronResult,
    TriangleWitness,
    WeightedTriangle,
    _certified,
    _witness_candidate,
    exact_triangle,
    level_grid,
    r_inverses,
)


def reference_right_inverse(phi, W, project, w):
    """The psi: S^W C -> K of a witness whose comparison phi: K -> C is
    a W-isomorphism, with phi psi = eta and project psi = w read on
    S^W C; None when cone(phi) is not W-acyclic or no fill exists."""
    if not is_r_acyclic(cone(phi, 0), W):
        return None
    C = phi.target
    sC = shift_complex(C, W)
    return fill_map(sC, phi.source, post=[
        (phi, eta(C, W), 0), (project, w.viewed(sC, project.target), 0)])


def reference_rotate(tri, wit, try_improve=False):
    r = Fraction(tri.weight)
    A, B, C = tri.A, tri.B, tri.C
    TA, TB = translate(A), translate(B)
    K = cone(tri.u, 0)
    A2 = cone(tri.v, 0)
    Tu = translate_map(tri.u)

    phibar = fill_map(TA, A2,
                      pre=[(_projection(K, TA, B.n),
                            compose(_inclusion(C, A2, 0), wit.phi), 0)],
                      post=[(_projection(A2, TB, C.n), Tu, 0)])
    if phibar is None:
        raise AssertionError("rotation fill failed on a valid triangle")
    try:
        psibar, _ = r_inverses(phibar, r)
    except ValueError as exc:
        raise AssertionError("rotation fill is not an r-isomorphism") from exc

    CR = shift_complex(TA, -r)
    u_R = tri.v
    v_R = compose(psibar, _inclusion(C, A2, 0))
    w_R = Tu.viewed(CR, shift_complex(TB, -2 * r))
    rtri = WeightedTriangle(B, C, CR, u_R, v_R, w_R, 2 * r)
    psi_R = phibar.viewed(shift_complex(TA, r), A2)
    rwit = TriangleWitness(A2, psibar, psi_R)
    if not try_improve:
        return rtri, rwit
    improved = None
    for W in level_grid(B, C, TA):
        if W >= 2 * r:
            break
        wW = w_R.viewed(CR, shift_complex(TB, -W))
        sh = shift_of_map(wW)
        if is_finite(sh) and sh > 0:
            continue
        cand = _witness_candidate(u_R, v_R, wW, W)
        if cand is not None:
            improved = (WeightedTriangle(B, C, CR, u_R, v_R, wW, W), cand)
            break
    return rtri, rwit, improved


def reference_rotate_negative(tri, wit):
    r = Fraction(tri.weight)
    A, B, C = tri.A, tri.B, tri.C
    K = cone(tri.u, 0)
    src = translate_inverse(shift_complex(C, r))
    u_N = compose(_projection(K, translate(A), B.n), wit.psi).viewed(src, A)
    w_N = tri.v.viewed(B, shift_complex(C, -r))
    KN = cone(u_N, 0)

    pK = compose(wit.psi, _projection(KN, wit.psi.source, A.n))
    phi_N = fill_map(KN, B, pre=[(_inclusion(A, KN, 0), tri.u, 0)],
                     post=[(_inclusion(B, K, 0), pK, 0)])
    if phi_N is None:
        raise AssertionError("negative rotation fill failed")
    psi_N = reference_right_inverse(
        phi_N, 2 * r, _projection(KN, shift_complex(C, r), A.n),
        tri.v)
    if psi_N is None:
        raise AssertionError("negative rotation fill has no 2r right inverse")
    ntri = WeightedTriangle(src, A, B, u_N, tri.u, w_N, 2 * r)
    nwit = TriangleWitness(KN, phi_N, psi_N)
    return ntri, nwit


def reference_octahedron(t1, w1, t2, w2):
    if t1.C != t2.A:
        raise ValueError("octahedron needs t1.C == t2.A")
    r, s = Fraction(t1.weight), Fraction(t2.weight)
    E, F, X = t1.A, t1.B, t1.C
    A, B = t2.B, t2.C
    TE = translate(E)

    p = compose(t2.u, t1.v)
    C = cone(p, 0)
    idC = FilteredChainMap.identity(C)
    d3, wit3 = exact_triangle(p, idC, idC, 0)
    n = C.n
    wit3 = _certified(wit3, ([1 << (n + j) for j in range(n)] + [0] * n,
                             None))

    K1 = cone(t1.u, 0)
    g2 = compose(t2.u, w1.phi)
    B2 = cone(g2, 0)
    include1 = _inclusion(F, K1, 0)
    hv = homotopic(t1.v, compose(w1.phi, include1), 0)
    if hv is None:
        raise ValueError("octahedron: first witness v-clause fails")
    h = compose(t2.u, hv)
    alpha2 = compose(g2, include1)
    C_oct = cone(alpha2, 0)

    nA, nF, nE = A.n, F.n, E.n

    def cone_map(K, L, f, hom=None):
        hcols = [0] * len(f.cols) if hom is None else hom.cols
        cols = [1 << a for a in range(nA)] + [
            (c << nA) | hc for c, hc in zip(f.cols, hcols)]
        return FilteredChainMap(K, L, cols, 0)

    G = cone_map(C, C_oct, FilteredChainMap.identity(F), h)
    Ghat = G.viewed(C_oct, C, 0)

    u4_cols = []
    for i in range(nE):
        oct_mask = g2.cols[nF + i] | (t1.u.cols[i] << nA)
        u4_cols.append(Ghat.apply(oct_mask))
    u4 = FilteredChainMap(TE, C, u4_cols, 0)

    w_map = cone_map(C_oct, B2, include1)
    Bp = cone(t2.u, 0)
    phi_prime = cone_map(B2, Bp, w1.phi)
    try:
        _, psi2 = r_inverses(phi_prime, r)
    except ValueError as exc:
        raise AssertionError(
            "octahedron: cone comparison not an r-iso") from exc

    theta = _projection(B2, translate(K1), nA)
    t_map = compose(translate_map(_projection(K1, TE, nF)), theta)

    v4 = compose(w2.phi, compose(phi_prime, compose(w_map, G)))
    psi3v = w2.psi.viewed(
        shift_complex(B, r + s), shift_complex(Bp, r)
    )
    psi2v = psi2.viewed(shift_complex(Bp, r), B2)
    psi_pp = compose(psi2v, psi3v)
    TTE = translate(TE)
    w4 = compose(t_map, psi_pp).viewed(B, shift_complex(TTE, -(r + s)))

    K4 = cone(u4, 0)
    p4 = _projection(K4, TTE, C.n)
    lam = fill_map(K4, B2,
                   pre=[(_inclusion(C, K4, 0), compose(w_map, G), 0)],
                   post=[(t_map, p4, 0)])
    if lam is None:
        raise AssertionError("octahedron: comparison fill failed")
    phi4 = compose(w2.phi, compose(phi_prime, lam))
    psi4 = reference_right_inverse(phi4, r + s, p4, w4)
    if psi4 is None:
        raise AssertionError("octahedron: no (r+s) right inverse")
    d4 = WeightedTriangle(TE, C, B, u4, v4, w4, r + s)
    wit4 = TriangleWitness(K4, phi4, psi4)

    m4 = translate_map(t1.v).viewed(
        translate(F), shift_complex(translate(X), -s)
    )
    bottom_lhs = compose(
        translate_map(t1.w).viewed(
            shift_complex(translate(X), -s),
            shift_complex(TTE, -(r + s)),
        ),
        t2.w,
    )
    squares = (
        ("cone-over-composite", compose(p, t1.u),
         FilteredChainMap.zero(E, A), Fraction(0)),
        ("top-projection", compose(d3.w, u4),
         translate_map(t1.u), Fraction(0)),
        ("middle-inclusion", compose(v4, _inclusion(A, C, 0)), t2.v,
         Fraction(0)),
        ("middle-projection", compose(t2.w, v4),
         compose(m4, d3.w), Fraction(0)),
        ("bottom-right", w4, bottom_lhs, r),
    )
    return OctahedronResult(d3, wit3, d4, wit4, squares)
