"""The elementary weighted triangles as they were built before
`tpc.exact_triangle`: each body writes u, v, w, the anchor S^-W TA and
the witness out by hand.

The tests check every builder in `fcplx.tpc` and `fcplx.fragmentation`
that now goes through `exact_triangle` against these for a
byte-identical (triangle, witness).  `rotate`, `rotate_negative` and
`octahedron_d4` keep the closed-form witness maps of their builders and
write the legs and the anchor S^-W TA out: v as psibar o include, u
itself and phi2 o phi' o (cone(alpha2) -> cone(g2)) o G, and w as Tu,
v and T(project) o project o psi'' read on their anchors.
"""

from fractions import Fraction

from fcplx.barcodes import barcode, boundary_depth, canonical_form
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
    zero_complex,
)
from fcplx.f2linalg import _apply
from fcplx.rationals import NEG_INF
from fcplx.tpc import (
    TriangleWitness,
    WeightedTriangle,
    _certificate,
    _certified,
    _contraction_blocks,
    _over,
    _product,
    _require_iso_input,
    _sum,
    contraction_inverse,
    exact_triangle,
    r_inverses,
)


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
    phi = FilteredChainMap.identity(X).viewed(K, X)
    psi = FilteredChainMap.identity(sX).viewed(sX, K)
    return tri, TriangleWitness(K, phi, psi)


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
        K, FilteredChainMap.zero(K, z),
        FilteredChainMap.zero(z, K),
    )
    return tri, wit


def octahedron_d3(t1, t2):
    """The first output of `octahedron(t1, w1, t2, w2)`: the cone
    triangle F -> A -> C -> TF of the composite, at weight 0."""
    p = compose(t2.u, t1.v)
    C = cone(p, 0)
    d3 = WeightedTriangle(
        t1.B, t2.B, C, p, _inclusion(t2.B, C, 0),
        _projection(C, translate(t1.B), t2.B.n), Fraction(0),
    )
    wit3 = TriangleWitness(
        C, FilteredChainMap.identity(C), FilteredChainMap.identity(C),
    )
    return d3, wit3


def _v_homotopy(tri, wit):
    """The columns of a homotopy v ~ phi o include of level <= 0."""
    B = tri.B
    return homotopic(tri.v, FilteredChainMap(B, tri.C, wit.phi.cols[:B.n],
                                             0), 0).cols


def rotate(tri, wit):
    r = Fraction(tri.weight)
    A, B, C = tri.A, tri.B, tri.C
    TA, TB = translate(A), translate(B)
    A2 = cone(tri.v, 0)
    Tu = translate_map(tri.u)
    hv = _v_homotopy(tri, wit)
    phibar = FilteredChainMap(TA, A2, [
        (p ^ _apply(hv, c)) | c << C.n
        for p, c in zip(wit.phi.cols[B.n:], tri.u.cols)], 0)
    psibar, _ = r_inverses(phibar, r)
    CR = shift_complex(TA, -r)
    rtri = WeightedTriangle(B, C, CR, tri.v,
                            compose(psibar, _inclusion(C, A2, 0)),
                            Tu.viewed(CR, shift_complex(TB, -2 * r)), 2 * r)
    psi_R = phibar.viewed(shift_complex(TA, r), A2)
    return rtri, TriangleWitness(A2, psibar, psi_R)


def rotate_negative(tri, wit):
    """theta: psi o v ~ include written down from the witness's
    certificate (`tpc._certificate`), as the builder does."""
    r = Fraction(tri.weight)
    A, B, C = tri.A, tri.B, tri.C
    K = cone(tri.u, 0)
    src = translate_inverse(shift_complex(C, r))
    u_N = compose(_projection(K, translate(A), B.n), wit.psi).viewed(src, A)
    w_N = tri.v.viewed(B, shift_complex(C, -r))
    KN = cone(u_N, 0)
    nA, nB = A.n, B.n
    psi, phi = wit.psi.cols, wit.phi.cols
    low = (1 << nB) - 1
    phi_N = FilteredChainMap(KN, B, tri.u.cols + tuple(
        c & low for c in psi), 0)
    c, H = _certificate(tri, wit)
    g, _, b, _ = _contraction_blocks(c, C.n)
    M = _product(b, psi)
    if H is not None:
        M = _sum(M, _product(g, H))
    theta = _sum(_sum(b[:nB], _product(M, phi[:nB])),
                 _product(psi, _v_homotopy(tri, wit)))
    psi_N = FilteredChainMap(shift_complex(B, 2 * r), KN, [
        t >> nB | v << nA
        for t, v in zip(theta, tri.v.cols)], 0)
    ntri = WeightedTriangle(src, A, B, u_N, tri.u, w_N, 2 * r)
    return ntri, TriangleWitness(KN, phi_N, psi_N)


def octahedron_d4(t1, w1, t2, w2):
    """The second output of `octahedron(t1, w1, t2, w2)`: TE -> C -> B
    at weight r + s, with H1 the first witness's own or one solve."""
    r, s = Fraction(t1.weight), Fraction(t2.weight)
    E, F, X = t1.A, t1.B, t1.C
    A, B = t2.B, t2.C
    TE = translate(E)
    p = compose(t2.u, t1.v)
    C = cone(p, 0)
    K1 = cone(t1.u, 0)
    g2 = compose(t2.u, w1.phi)
    B2 = cone(g2, 0)
    include1 = _inclusion(F, K1, 0)
    h = compose(t2.u, homotopic(t1.v, compose(w1.phi, include1), 0))
    C_oct = cone(compose(g2, include1), 0)
    cert1 = getattr(w1, "_cert", None)
    if cert1 is None:
        H1 = homotopic(compose(w1.phi, w1.psi), eta(X, r), 0).cols
    else:
        H1 = cert1[1] or [0] * X.n
    nA, nF, nE = A.n, F.n, E.n
    u2 = t2.u.cols
    G = FilteredChainMap(C, C_oct,
                         _over(nA, FilteredChainMap.identity(F).cols, h.cols),
                         0)
    Ghat = G.viewed(C_oct, C, 0)
    u4 = FilteredChainMap(TE, C, [
        Ghat.apply(g2.cols[nF + i] | (t1.u.cols[i] << nA))
        for i in range(nE)], 0)
    w_map = FilteredChainMap(C_oct, B2,
                             _over(nA, include1.cols), 0)
    Bp = cone(t2.u, 0)
    phi_prime = FilteredChainMap(B2, Bp,
                                 _over(nA, w1.phi.cols), 0)
    psi2 = FilteredChainMap(shift_complex(Bp, r), B2,
                            _over(nA, w1.psi.cols, _product(u2, H1)), 0)
    theta = _projection(B2, translate(K1), nA)
    t_map = compose(translate_map(_projection(K1, TE, nF)), theta)
    v4 = compose(w2.phi, compose(phi_prime, compose(w_map, G)))
    psi3v = w2.psi.viewed(shift_complex(B, r + s),
                          shift_complex(Bp, r))
    psi_pp = compose(psi2, psi3v)
    w4 = compose(t_map, psi_pp).viewed(
        B, shift_complex(translate(TE), -(r + s)))
    K4 = cone(u4, 0)
    lam = FilteredChainMap(K4, B2, G.cols + tuple(
        1 << (nA + nF + e) for e in range(nE)), 0)
    phi4 = compose(w2.phi, compose(phi_prime, lam))
    psi4 = compose(lam.viewed(B2, K4, 0), psi_pp)
    d4 = WeightedTriangle(TE, C, B, u4, v4, w4, r + s)
    return d4, TriangleWitness(K4, phi4, psi4)


# ----------------------------------------------------------------------
# The builders as they were before `tpc._identity_step`,
# `tpc._inverse_step` and `tpc._reanchored`: each puts its witness and
# the witness's certificate together by hand, the identity cases with
# the contraction x -> t.x (`identity_contraction`) and the inverse
# cases with the blocks of the contraction of cone(phi, 0)
# (`contraction_inverse`).  The tests compare these with the library's
# builders for an identical (triangle, witness) and certificate.


def identity_contraction(n):
    """The contraction x -> t.x of cone(phi, 0) = C (+) TK for a phi
    whose matrix is the identity on n generators."""
    return [1 << (n + j) for j in range(n)] + [0] * n


def certified_contraction_inverse(f, r):
    """(g, cert): g the B -> A block of the contraction h of
    cone(f, 0), and cert all columns of h with its B -> B block; None
    when cone(f, 0) has no contraction of shift <= r."""
    r = Fraction(r)
    _require_iso_input(f)
    bars, cf = canonical_form(cone(f, 0))
    if bars.infinite() or boundary_depth(bars) > r:
        return None
    cols = cf.contraction().columns
    nB = f.target.n
    g = FilteredChainMap(f.target, f.source,
                         [c >> nB for c in cols[:nB]], 0)
    low = (1 << nB) - 1
    return g, (cols, [c & low for c in cols[:nB]])


def certified_identity_triangle(X):
    u = FilteredChainMap.zero(zero_complex(), X)
    idX = FilteredChainMap.identity(X)
    tri, wit = exact_triangle(u, idX, idX, 0)
    return tri, _certified(wit, (identity_contraction(X.n), None))


def certified_triangle_from_morphism(f):
    t = shift_of_map(f)
    t = Fraction(0) if t == NEG_INF or t < 0 else Fraction(t)
    A = f.source
    B1 = shift_complex(f.target, -t)
    u = f.viewed(A, B1)
    C = cone(u, 0)
    w = _projection(C, shift_complex(translate(A), -t), B1.n)
    tri = WeightedTriangle(A, B1, C, u, _inclusion(B1, C, 0), w, t)
    psi = FilteredChainMap.identity(C).viewed(shift_complex(C, t), C)
    wit = TriangleWitness(C, FilteredChainMap.identity(C), psi)
    return tri, _certified(wit, (identity_contraction(C.n), None))


def certified_eta_slot_triangle(X, r):
    r = Fraction(r)
    sX = shift_complex(X, r)
    u = FilteredChainMap.zero(translate_inverse(sX), zero_complex())
    K = cone(u, 0)
    phi = FilteredChainMap.identity(X).viewed(K, X)
    psi = FilteredChainMap.identity(sX).viewed(sX, K)
    tri, wit = exact_triangle(u, phi, psi, r)
    return tri, _certified(wit, (identity_contraction(X.n), None))


def certified_octahedron_d3(t1, t2):
    p = compose(t2.u, t1.v)
    C = cone(p, 0)
    idC = FilteredChainMap.identity(C)
    d3, wit3 = exact_triangle(p, idC, idC, 0)
    return d3, _certified(wit3, (identity_contraction(C.n), None))


def certified_zero_apex_step(v, W):
    W = Fraction(W)
    found = certified_contraction_inverse(v, W)
    if found is None:
        raise ValueError("zero_apex_step needs a W-isomorphism")
    g, cert = found
    u = FilteredChainMap.zero(zero_complex(), v.source)
    psi = g.viewed(shift_complex(v.target, W), v.source, 0)
    tri, wit = exact_triangle(u, v, psi, W)
    return tri, _certified(wit, cert)


def certified_acyclic_from_zero_step(H):
    B, cw = canonical_form(H)
    if B.infinite():
        raise ValueError("attached object must be acyclic")
    W = boundary_depth(B)
    z = zero_complex()
    u = FilteredChainMap.zero(z, z)
    tri, wit = exact_triangle(u, FilteredChainMap.zero(z, H),
                              FilteredChainMap.zero(shift_complex(H, W), z),
                              W)
    c = cw.contraction().columns
    return tri, _certified(wit, (c, c))


def certified_collapse_acyclic_triangle(Xp):
    B, cw = canonical_form(Xp)
    if B.infinite():
        raise ValueError("collapsed object must be acyclic")
    W = boundary_depth(B)
    z = zero_complex()
    u = FilteredChainMap.zero(translate_inverse(Xp), z)
    K = cone(u, 0)
    tri, wit = exact_triangle(u, FilteredChainMap.zero(K, z),
                              FilteredChainMap.zero(z, K), W)
    return tri, _certified(wit, (cw.contraction().columns, None))


def certified_relax_weight(tri, wit, s):
    s = Fraction(s)
    if s == 0:
        return tri, wit
    r = tri.weight
    new_w = tri.w.viewed(tri.C, shift_complex(tri.w.target, -s))
    new_psi = wit.psi.viewed(
        shift_complex(wit.psi.source, s), wit.psi.target
    )
    return (
        WeightedTriangle(tri.A, tri.B, tri.C, tri.u, tri.v, new_w, r + s),
        _certified(TriangleWitness(wit.cprime, wit.phi, new_psi),
                   getattr(wit, "_cert", None)),
    )


def certified_translate_inverse_steps(steps):
    """The steps of `translate_inverse_decomposition`."""
    out = []
    for tri, wit in steps:
        A2, B2, C2 = (translate_inverse(Z) for Z in (tri.A, tri.B, tri.C))
        u2 = tri.u.viewed(A2, B2)
        v2 = tri.v.viewed(B2, C2)
        w2 = tri.w.viewed(C2, shift_complex(translate(A2), -tri.weight))
        K2 = translate_inverse(wit.cprime)
        phi2 = wit.phi.viewed(K2, C2)
        psi2 = wit.psi.viewed(shift_complex(C2, tri.weight), K2)
        out.append(
            (WeightedTriangle(A2, B2, C2, u2, v2, w2, tri.weight),
             _certified(TriangleWitness(K2, phi2, psi2),
                        getattr(wit, "_cert", None)))
        )
    return tuple(out)
