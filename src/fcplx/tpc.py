"""Weighted exact triangles over filtered complexes.

A strict exact triangle of weight r is a triple A -> B -> C -> S^-r TA
of closed shift-<=0 maps together with a witness: the cone triangle of
the first map, a map phi from the cone to C whose own cone is r-acyclic
(an r-isomorphism), and a right r-inverse psi of phi, such that the
triangle maps factor through the cone maps up to shift-0 homotopy.
All verification clauses are decided exactly by linear solves over hom
complexes; acyclicity is decided by the barcode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import NEG_INF, POS_INF, fmt_scalar, is_finite
from .f2linalg import F2SparseMatrix, F2Vector, solve_in_span
from .complexes import (
    FilteredChainMap,
    FilteredComplex,
    HomComplex,
    compose,
    cone,
    direct_sum,
    eta,
    eta_down,
    homotopic,
    map_direct_sum,
    nullhomotopy,
    shift_complex,
    shift_of_map,
    translate,
    translate_inverse,
    translate_map,
    zero_complex,
)
from .barcodes import barcode, boundary_depth, canonical_form, is_r_acyclic
from .homsolve import MapSystem, diff_op, postcompose_op, precompose_op


# ----------------------------------------------------------------------
# morphism-level notions


@dataclass(frozen=True)
class MorphismClass:
    """A morphism seen at a declared filtration level."""

    representative: FilteredChainMap
    declared_level: Fraction

    def __post_init__(self):
        sh = shift_of_map(self.representative)
        if is_finite(sh) and sh > self.declared_level:
            raise ValueError("declared level below the actual shift")


def r_equivalent(f, g, r, level=None):
    """Do f and g agree after pushing the level up by r?

    Realized by a nullhomotopy of f + g whose level is bounded by
    level + r; `level` defaults to the larger of the two shifts.
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError("r-equivalence needs r >= 0")
    if f.cols == g.cols:
        return True
    if level is None:
        level = max(shift_of_map(f), shift_of_map(g))
    if level == NEG_INF:
        level = Fraction(0)
    return homotopic(f, g, level + r) is not None


def _require_iso_input(f: FilteredChainMap):
    sh = shift_of_map(f)
    if is_finite(sh) and sh > 0:
        raise ValueError("is_r_isomorphism requires a shift-<=0 map")
    if f.degree != 0 or not f.is_closed():
        raise ValueError("is_r_isomorphism requires a closed degree-0 map")


def is_r_isomorphism(f: FilteredChainMap, r) -> bool:
    """Shift-0 map whose cone has only finite bars of length <= r."""
    r = Fraction(r)
    _require_iso_input(f)
    return is_r_acyclic(cone(f, 0).complex, r)


def contraction_inverse(f: FilteredChainMap, r, rng=None):
    """g: B -> A, a closed map of shift <= r with g o f ~ id_A and
    f o g ~ id_B, or None when f: A -> B is not an r-isomorphism.

    g is the B -> A block of the contraction h of cone(f, 0) = B (+) TA
    read off its canonical form: the blocks of dh + hd = id say that g
    is closed and that the two diagonal blocks of h are the homotopies
    f o g ~ id_B and g o f ~ id_A, all of shift <= r.  An rng first
    conjugates the cone by a random basis change, which draws another
    contraction and so another inverse.
    """
    r = Fraction(r)
    _require_iso_input(f)
    if r < 0:
        raise ValueError("acyclicity threshold must be >= 0")
    K = cone(f, 0).complex
    if rng is not None:
        from .verify import random_basis_change  # verify imports tpc

        K, fwd, back = random_basis_change(K, rng)
    bars, wit = canonical_form(K)
    if bars.infinite() or boundary_depth(bars) > r:
        return None
    h = wit.contraction()
    nB = f.target.n
    if rng is None:
        cols = h.columns[:nB]
    else:
        U = fwd.matrix()
        cols = [U.apply(h.apply(c)) for c in back.cols[:nB]]
    return FilteredChainMap(
        f.target, f.source, [F2Vector(mask=c.mask >> nB) for c in cols], 0
    )


def r_inverses(f: FilteredChainMap, r, rng=None):
    """Left and right r-inverses of an r-isomorphism f: A -> B.

    Returns (phi_left: B -> S^-r A, psi_right: S^r B -> A) with
    phi o f ~ eta and f o psi ~ eta via shift-0 homotopies.  Both carry
    one matrix, `contraction_inverse(f, r, rng)`, anchored two ways.
    """
    r = Fraction(r)
    g = contraction_inverse(f, r, rng)
    if g is None:
        bad = next(b for b in barcode(cone(f, 0).complex)
                   if not b.is_finite() or b.length() > r)
        raise ValueError(
            f"not an {fmt_scalar(r)}-isomorphism; cone carries bar {bad}"
        )
    A, B = f.source, f.target
    return (g.viewed(B, shift_complex(A, -r), 0),
            g.viewed(shift_complex(B, r), A, 0))


def _boundary_above(f: FilteredChainMap):
    """Hom(X, Y) of f, its differential, f encoded, the degree-(deg f - 1)
    columns, and above(k): an x on those columns whose boundary equals
    f on every degree-(deg f) elementary map above level k, or None."""
    H = HomComplex(f.source, f.target)
    enc = H.encode(f)
    D = H.complex.diff_matrix()
    allowed = H.gens_with(degree=f.degree - 1)
    allowed_set = set(allowed)
    rows = H.gens_with(degree=f.degree)

    def above(k):
        rowmask = 0
        for i in rows:
            if H.complex.gens[i].ell > k:
                rowmask |= 1 << i
        cols = [
            F2Vector(mask=D.columns[j].mask & rowmask)
            if j in allowed_set else F2Vector()
            for j in range(D.ncols)
        ]
        return solve_in_span(F2SparseMatrix(cols, D.nrows),
                             F2Vector(mask=enc.mask & rowmask), allowed)

    return H, D, enc, allowed, above


def spectral_invariant(f: FilteredChainMap):
    """Least level at which the homotopy class of f has a representative.

    Returns -inf for the zero class.  Decided exactly: the class of f
    admits a representative of level <= k iff the part of f above level
    k is a boundary in the hom complex.
    """
    if not f.is_closed():
        raise ValueError("spectral invariant needs a closed map")
    H, D, enc, allowed, above = _boundary_above(f)
    if solve_in_span(D, enc, allowed) is not None:
        return NEG_INF
    levels = sorted(
        {H.complex.gens[i].ell for i in H.gens_with(degree=f.degree)}
    )
    lo, hi = 0, len(levels) - 1
    if above(levels[hi]) is None:
        raise AssertionError("spectral invariant grid incomplete")
    while lo < hi:
        mid = (lo + hi) // 2
        if above(levels[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return levels[lo]


def representative_at_level(f: FilteredChainMap, k):
    """A map homotopic to f (unbounded homotopy) of shift <= k."""
    sh = shift_of_map(f)
    if k == NEG_INF:
        if nullhomotopy(f, POS_INF) is None:
            raise ValueError("only the zero class lives at level -inf")
        return FilteredChainMap.zero(f.source, f.target, f.degree)
    k = Fraction(k)
    if not is_finite(sh) or sh <= k:
        return f
    H, D, enc, _, above = _boundary_above(f)
    x = above(k)
    if x is None:
        raise ValueError(
            f"class of the map has no representative at level {fmt_scalar(k)}"
        )
    corrected = F2Vector(mask=enc.mask ^ D.apply(x).mask)
    return H.decode(corrected, f.degree)


# ----------------------------------------------------------------------
# weighted triangles and witnesses


@dataclass(frozen=True)
class WeightedTriangle:
    A: FilteredComplex
    B: FilteredComplex
    C: FilteredComplex
    u: FilteredChainMap
    v: FilteredChainMap
    w: FilteredChainMap
    weight: Fraction

    def w_target(self):
        return shift_complex(translate(self.A), -self.weight)


@dataclass(frozen=True)
class TriangleWitness:
    """phi: cone(u, 0) -> C (an r-isomorphism) and a right r-inverse
    psi: S^r C -> cone(u, 0)."""

    cprime: FilteredComplex
    phi: FilteredChainMap
    psi: FilteredChainMap


def _check_clause(failures, name, ok):
    if not ok:
        failures.append(name)
    return ok


def verify_triangle(tri: WeightedTriangle, wit: TriangleWitness):
    """Check every witness clause; returns (ok, list of failed clauses)."""
    failures = []
    r = Fraction(tri.weight)
    if r < 0:
        return False, ["weight-negative"]
    structural = (
        tri.u.source == tri.A
        and tri.u.target == tri.B
        and tri.v.source == tri.B
        and tri.v.target == tri.C
        and tri.w.source == tri.C
        and tri.w.target == tri.w_target()
    )
    if not _check_clause(failures, "shape", structural):
        return False, failures
    for name, m in (("u", tri.u), ("v", tri.v), ("w", tri.w)):
        sh = shift_of_map(m)
        _check_clause(
            failures,
            f"{name}-closed-shift0",
            m.degree == 0 and m.is_closed() and (sh == NEG_INF or sh <= 0),
        )
    if failures:
        return False, failures
    K = cone(tri.u, 0)
    if not _check_clause(failures, "cprime-is-cone", wit.cprime == K.complex):
        return False, failures
    okphi = (
        wit.phi.source == K.complex
        and wit.phi.target == tri.C
        and wit.phi.degree == 0
        and wit.phi.is_closed()
    )
    sh = shift_of_map(wit.phi)
    okphi = okphi and (sh == NEG_INF or sh <= 0)
    if not _check_clause(failures, "phi-closed-shift0", okphi):
        return False, failures
    sC = shift_complex(tri.C, r)
    okpsi = (
        wit.psi.source == sC
        and wit.psi.target == K.complex
        and wit.psi.degree == 0
        and wit.psi.is_closed()
    )
    sh = shift_of_map(wit.psi)
    okpsi = okpsi and (sh == NEG_INF or sh <= 0)
    if not _check_clause(failures, "psi-closed-shift0", okpsi):
        return False, failures
    _check_clause(
        failures, "phi-r-isomorphism",
        is_r_acyclic(cone(wit.phi, 0).complex, r),
    )
    _check_clause(
        failures,
        "psi-right-inverse",
        homotopic(compose(wit.phi, wit.psi), eta(tri.C, r), 0) is not None,
    )
    _check_clause(
        failures,
        "v-through-phi",
        homotopic(tri.v, compose(wit.phi, K.include), 0) is not None,
    )
    shifted_w = tri.w.viewed(sC, translate(tri.A))
    _check_clause(
        failures,
        "w-through-psi",
        homotopic(shifted_w, compose(K.project, wit.psi), 0) is not None,
    )
    return not failures, failures


def identity_triangle(X: FilteredComplex):
    """0 -> X -> X -> 0, the normalization triangle of weight 0."""
    z = zero_complex()
    tri = WeightedTriangle(
        z,
        X,
        X,
        FilteredChainMap.zero(z, X),
        FilteredChainMap.identity(X),
        FilteredChainMap.zero(X, translate(z)),
        Fraction(0),
    )
    wit = TriangleWitness(
        X, FilteredChainMap.identity(X), FilteredChainMap.identity(X)
    )
    return tri, wit


def triangle_from_morphism(f: FilteredChainMap):
    """Embed a closed degree-0 map into a witnessed triangle.

    For shift <= 0 this is the cone triangle (weight 0); for shift
    t > 0 the middle object is relaxed to S^-t B and the triangle has
    weight t.
    """
    if f.degree != 0 or not f.is_closed():
        raise ValueError("triangle_from_morphism needs a closed degree-0 map")
    t = shift_of_map(f)
    t = Fraction(0) if t == NEG_INF or t < 0 else Fraction(t)
    A = f.source
    B1 = shift_complex(f.target, -t)
    u = f.viewed(A, B1)
    K = cone(u, 0)
    C = K.complex
    w = K.project.viewed(C, shift_complex(translate(A), -t))
    tri = WeightedTriangle(A, B1, C, u, K.include, w, t)
    psi = FilteredChainMap.identity(C).viewed(shift_complex(C, t), C)
    wit = TriangleWitness(C, FilteredChainMap.identity(C), psi)
    return tri, wit


def relax_weight(tri: WeightedTriangle, wit: TriangleWitness, s):
    """Post-compose the connecting map with the canonical comparison,
    raising the weight from r to r+s."""
    s = Fraction(s)
    if s < 0:
        raise ValueError("relax_weight needs s >= 0")
    if s == 0:
        return tri, wit
    r = tri.weight
    new_w = tri.w.viewed(tri.C, shift_complex(tri.w.target, -s))
    new_psi = wit.psi.viewed(
        shift_complex(wit.psi.source, s), wit.psi.target
    )
    return (
        WeightedTriangle(tri.A, tri.B, tri.C, tri.u, tri.v, new_w, r + s),
        TriangleWitness(wit.cprime, wit.phi, new_psi),
    )


# ----------------------------------------------------------------------
# rotation


def rotate(tri: WeightedTriangle, wit: TriangleWitness,
           try_improve=False):
    """First positive rotation; the certified weight doubles.

    Returns (triangle, witness) of shape
    B -> C -> S^-r TA -> S^-2r TB at weight 2r.  Whether 2r is tight is
    open; with try_improve the level grid is searched for a smaller
    verified weight and (triangle, witness, improved) is returned, the
    last entry None when no cheaper witness was found.
    """
    r = Fraction(tri.weight)
    A, B, C = tri.A, tri.B, tri.C
    TA, TB = translate(A), translate(B)
    K = cone(tri.u, 0)
    A2 = cone(tri.v, 0)
    Tu = translate_map(tri.u)

    sys = MapSystem()
    H_pb = HomComplex(TA, A2.complex)
    H_m = HomComplex(K.complex, A2.complex)
    H_r = HomComplex(TA, TB)
    sys.unknown("phibar", H_pb, 0, Fraction(0))
    sys.unknown("hm", H_m, -1, Fraction(0))
    sys.unknown("hr", H_r, -1, Fraction(0))
    sys.equation(H_pb, [(diff_op(H_pb), "phibar")], F2Vector())
    sys.equation(
        H_m,
        [(precompose_op(H_pb, K.project, H_m), "phibar"),
         (diff_op(H_m), "hm")],
        H_m.encode(compose(A2.include, wit.phi)),
    )
    sys.equation(
        H_r,
        [(postcompose_op(H_pb, A2.project, H_r), "phibar"),
         (diff_op(H_r), "hr")],
        H_r.encode(Tu),
    )
    sol = sys.solve()
    if sol is None:
        raise AssertionError("rotation fill failed on a valid triangle")
    phibar = sol["phibar"]
    try:
        psibar, _ = r_inverses(phibar, r)
    except ValueError as exc:
        raise AssertionError("rotation fill is not an r-isomorphism") from exc

    CR = shift_complex(TA, -r)
    u_R = tri.v
    v_R = compose(psibar, A2.include)
    w_R = Tu.viewed(CR, shift_complex(TB, -2 * r))
    rtri = WeightedTriangle(B, C, CR, u_R, v_R, w_R, 2 * r)
    psi_R = phibar.viewed(shift_complex(TA, r), A2.complex)
    rwit = TriangleWitness(A2.complex, psibar, psi_R)
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


def rotate_negative(tri: WeightedTriangle, wit: TriangleWitness):
    """First negative rotation T^-1 S^r C -> A -> B -> S^-r C at 2r."""
    r = Fraction(tri.weight)
    A, B, C = tri.A, tri.B, tri.C
    K = cone(tri.u, 0)
    src = translate_inverse(shift_complex(C, r))
    u_N = compose(K.project, wit.psi).viewed(src, A)
    w_N = tri.v.viewed(B, shift_complex(C, -r))
    KN = cone(u_N, 0)

    sys = MapSystem()
    H_phi = HomComplex(KN.complex, B)
    H_mid = HomComplex(A, B)
    H_right = HomComplex(KN.complex, K.complex)
    sys.unknown("phi", H_phi, 0, Fraction(0))
    sys.unknown("hm", H_mid, -1, Fraction(0))
    sys.unknown("hr", H_right, -1, Fraction(0))
    sys.equation(H_phi, [(diff_op(H_phi), "phi")], F2Vector())
    sys.equation(
        H_mid,
        [(precompose_op(H_phi, KN.include, H_mid), "phi"),
         (diff_op(H_mid), "hm")],
        H_mid.encode(tri.u),
    )
    sys.equation(
        H_right,
        [(postcompose_op(H_phi, K.include, H_right), "phi"),
         (diff_op(H_right), "hr")],
        H_right.encode(compose(wit.psi, KN.project.viewed(
            KN.complex, wit.psi.source))),
    )
    sol = sys.solve()
    if sol is None:
        raise AssertionError("negative rotation fill failed")
    phi_N = sol["phi"]
    if not is_r_acyclic(cone(phi_N, 0).complex, 2 * r):
        raise AssertionError("negative rotation fill is not a 2r-iso")

    sB = shift_complex(B, 2 * r)
    sys2 = MapSystem()
    H_psi = HomComplex(sB, KN.complex)
    H_1 = HomComplex(sB, B)
    H_2 = HomComplex(sB, shift_complex(C, r))
    sys2.unknown("psi", H_psi, 0, Fraction(0))
    sys2.unknown("h1", H_1, -1, Fraction(0))
    sys2.unknown("h2", H_2, -1, Fraction(0))
    sys2.equation(H_psi, [(diff_op(H_psi), "psi")], F2Vector())
    sys2.equation(
        H_1,
        [(postcompose_op(H_psi, phi_N, H_1), "psi"), (diff_op(H_1), "h1")],
        H_1.encode(eta(B, 2 * r)),
    )
    pN = KN.project.viewed(KN.complex, shift_complex(C, r))
    sys2.equation(
        H_2,
        [(postcompose_op(H_psi, pN, H_2), "psi"), (diff_op(H_2), "h2")],
        H_2.encode(tri.v.viewed(sB, shift_complex(C, r))),
    )
    sol2 = sys2.solve()
    if sol2 is None:
        raise AssertionError("negative rotation right-inverse solve failed")
    ntri = WeightedTriangle(src, A, B, u_N, tri.u, w_N, 2 * r)
    nwit = TriangleWitness(KN.complex, phi_N, sol2["psi"])
    return ntri, nwit


# ----------------------------------------------------------------------
# direct sums of triangles


def sum_triangles(t1, w1, t2, w2):
    """Componentwise direct sum; the weight is max of the two."""
    r, s = Fraction(t1.weight), Fraction(t2.weight)
    m = max(r, s)
    SA = direct_sum(t1.A, t2.A)
    SB = direct_sum(t1.B, t2.B)
    SC = direct_sum(t1.C, t2.C)
    u = map_direct_sum(t1.u, t2.u, SA, SB)
    v = map_direct_sum(t1.v, t2.v, SB, SC)
    TS = shift_complex(translate(SA.complex), -m)
    inc_l = translate_map(SA.include_left).viewed(
        shift_complex(translate(t1.A), -m), TS
    )
    inc_r = translate_map(SA.include_right).viewed(
        shift_complex(translate(t2.A), -m), TS
    )
    w1v = t1.w.viewed(t1.C, shift_complex(t1.w.target, r - m))
    w2v = t2.w.viewed(t2.C, shift_complex(t2.w.target, s - m))
    w = compose(inc_l, compose(w1v, SC.project_left)) + compose(
        inc_r, compose(w2v, SC.project_right)
    )
    tri = WeightedTriangle(SA.complex, SB.complex, SC.complex, u, v, w, m)

    K = cone(u, 0)
    K1 = cone(t1.u, 0)
    K2 = cone(t2.u, 0)
    n_b1, n_b2 = t1.B.n, t2.B.n
    n_a1 = t1.A.n

    def outer_index(which, inner_idx):
        # inner cone coordinates -> outer cone coordinates
        if which == 1:
            if inner_idx < n_b1:
                return inner_idx
            return SB.complex.n + (inner_idx - n_b1)
        if inner_idx < n_b2:
            return n_b1 + inner_idx
        return SB.complex.n + n_a1 + (inner_idx - n_b2)

    def embed_vec(which, vec):
        mask = 0
        for i in vec:
            mask |= 1 << outer_index(which, i)
        return F2Vector(mask=mask)

    # phi: K -> SC
    phi_cols = [None] * K.complex.n
    for j in range(K1.complex.n):
        col = w1.phi.cols[j]
        phi_cols[outer_index(1, j)] = SC.include_left.apply(col)
    for j in range(K2.complex.n):
        col = w2.phi.cols[j]
        phi_cols[outer_index(2, j)] = SC.include_right.apply(col)
    phi = FilteredChainMap(K.complex, SC.complex, phi_cols, 0)

    # psi: S^m SC -> K
    psi_cols = [None] * SC.complex.n
    for c in range(t1.C.n):
        psi_cols[c] = embed_vec(1, w1.psi.cols[c])
    for c in range(t2.C.n):
        psi_cols[t1.C.n + c] = embed_vec(2, w2.psi.cols[c])
    psi = FilteredChainMap(
        shift_complex(SC.complex, m), K.complex, psi_cols, 0
    )
    return tri, TriangleWitness(K.complex, phi, psi)


# ----------------------------------------------------------------------
# the weighted octahedron


@dataclass(frozen=True)
class OctahedronResult:
    d3: WeightedTriangle
    wit3: TriangleWitness
    d4: WeightedTriangle
    wit4: TriangleWitness
    squares: tuple  # (name, lhs map, rhs map, slack)


def octahedron(t1, w1, t2, w2):
    """Weighted octahedron on composable triangles.

    t1: E -> F -> X of weight r, t2: X -> A -> B of weight s (the apex
    of t1 must equal the base of t2).  Produces the weight-0 triangle
    F -> A -> C -> TF on the composite and the weight-(r+s) triangle
    TE -> C -> B -> S^-(r+s) T2 E, sharing the object C.
    """
    if t1.C != t2.A:
        raise ValueError("octahedron needs t1.C == t2.A")
    r, s = Fraction(t1.weight), Fraction(t2.weight)
    E, F, X = t1.A, t1.B, t1.C
    A, B = t2.B, t2.C
    TE = translate(E)

    p = compose(t2.u, t1.v)
    Cres = cone(p, 0)
    C = Cres.complex
    d3 = WeightedTriangle(
        F, A, C, p, Cres.include,
        Cres.project.viewed(C, translate(F)), Fraction(0),
    )
    wit3 = TriangleWitness(
        C, FilteredChainMap.identity(C),
        FilteredChainMap.identity(C),
    )

    K1 = cone(t1.u, 0)          # X'
    g2 = compose(t2.u, w1.phi)  # X' -> A
    B2 = cone(g2, 0)            # B''
    hv = homotopic(t1.v, compose(w1.phi, K1.include), 0)
    if hv is None:
        raise ValueError("octahedron: first witness v-clause fails")
    h = compose(t2.u, hv)       # homotopy between p and g2 o include
    alpha2 = compose(g2, K1.include)
    C_oct = cone(alpha2, 0)

    nA, nF, nE = A.n, F.n, E.n

    def g_matrix(source, target):
        cols = []
        for a in range(nA):
            cols.append(F2Vector(mask=1 << a))
        for j in range(nF):
            cols.append(F2Vector(mask=h.cols[j].mask | (1 << (nA + j))))
        return FilteredChainMap(source, target, cols, 0)

    G = g_matrix(C, C_oct.complex)       # cone(p) -> cone(alpha2)
    Ghat = g_matrix(C_oct.complex, C)    # the same involution backwards

    # u4: TE -> C, through the octahedron column map and G
    u4_cols = []
    for i in range(nE):
        oct_mask = g2.cols[nF + i].mask | (t1.u.cols[i].mask << nA)
        u4_cols.append(Ghat.apply(F2Vector(mask=oct_mask)))
    u4 = FilteredChainMap(TE, C, u4_cols, 0)

    # w_map: cone(alpha2) -> cone(g2): identity on A, T(include) on TF
    w_cols = [F2Vector(mask=1 << a) for a in range(nA)]
    for j in range(nF):
        w_cols.append(F2Vector(mask=K1.include.cols[j].mask << nA))
    w_map = FilteredChainMap(C_oct.complex, B2.complex, w_cols, 0)

    # phi': cone(g2) -> cone(t2.u): identity on A, T(phi1) on TX'
    Bp = cone(t2.u, 0)
    pp_cols = [F2Vector(mask=1 << a) for a in range(nA)]
    for k in range(K1.complex.n):
        pp_cols.append(F2Vector(mask=w1.phi.cols[k].mask << nA))
    phi_prime = FilteredChainMap(B2.complex, Bp.complex, pp_cols, 0)
    try:
        _, psi2 = r_inverses(phi_prime, r)
    except ValueError as exc:
        raise AssertionError(
            "octahedron: cone comparison not an r-iso") from exc

    theta = B2.project.viewed(B2.complex, translate(K1.complex))
    t_map = compose(translate_map(K1.project.viewed(
        K1.complex, translate(E))), theta)

    v4 = compose(w2.phi, compose(phi_prime, compose(w_map, G)))
    psi3v = w2.psi.viewed(
        shift_complex(B, r + s), shift_complex(Bp.complex, r)
    )
    psi2v = psi2.viewed(shift_complex(Bp.complex, r), B2.complex)
    psi_pp = compose(psi2v, psi3v)
    TTE = translate(TE)
    w4 = compose(t_map, psi_pp).viewed(B, shift_complex(TTE, -(r + s)))

    K4 = cone(u4, 0)
    sysL = MapSystem()
    H_L = HomComplex(K4.complex, B2.complex)
    H_a = HomComplex(C, B2.complex)
    H_b = HomComplex(K4.complex, TTE)
    sysL.unknown("L", H_L, 0, Fraction(0))
    sysL.unknown("ha", H_a, -1, Fraction(0))
    sysL.unknown("hb", H_b, -1, Fraction(0))
    sysL.equation(H_L, [(diff_op(H_L), "L")], F2Vector())
    sysL.equation(
        H_a,
        [(precompose_op(H_L, K4.include, H_a), "L"), (diff_op(H_a), "ha")],
        H_a.encode(compose(w_map, G)),
    )
    sysL.equation(
        H_b,
        [(postcompose_op(H_L, t_map, H_b), "L"), (diff_op(H_b), "hb")],
        H_b.encode(K4.project.viewed(K4.complex, TTE)),
    )
    solL = sysL.solve()
    if solL is None:
        raise AssertionError("octahedron: comparison fill failed")
    lam = solL["L"]
    phi4 = compose(w2.phi, compose(phi_prime, lam))
    if not is_r_acyclic(cone(phi4, 0).complex, r + s):
        raise AssertionError("octahedron: witness map is not an (r+s)-iso")

    sB4 = shift_complex(B, r + s)
    sys4 = MapSystem()
    H_psi = HomComplex(sB4, K4.complex)
    H_c = HomComplex(sB4, B)
    H_d = HomComplex(sB4, TTE)
    sys4.unknown("psi", H_psi, 0, Fraction(0))
    sys4.unknown("hc", H_c, -1, Fraction(0))
    sys4.unknown("hd", H_d, -1, Fraction(0))
    sys4.equation(H_psi, [(diff_op(H_psi), "psi")], F2Vector())
    sys4.equation(
        H_c,
        [(postcompose_op(H_psi, phi4, H_c), "psi"), (diff_op(H_c), "hc")],
        H_c.encode(eta(B, r + s)),
    )
    sys4.equation(
        H_d,
        [(postcompose_op(H_psi, K4.project.viewed(K4.complex, TTE), H_d),
          "psi"), (diff_op(H_d), "hd")],
        H_d.encode(w4.viewed(sB4, TTE)),
    )
    sol4 = sys4.solve()
    if sol4 is None:
        raise AssertionError("octahedron: right-inverse solve failed")
    d4 = WeightedTriangle(TE, C, B, u4, v4, w4, r + s)
    wit4 = TriangleWitness(K4.complex, phi4, sol4["psi"])

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
        ("middle-inclusion", compose(v4, Cres.include), t2.v, Fraction(0)),
        ("middle-projection", compose(t2.w, v4),
         compose(m4, d3.w), Fraction(0)),
        ("bottom-right", w4, bottom_lhs, r),
    )
    return OctahedronResult(d3, wit3, d4, wit4, squares)


# ----------------------------------------------------------------------
# triangle functoriality


def fill_morphism(t1, w1, t2, w2, f, g):
    """Complete a commuting square on the first two legs to a morphism
    of triangles h: C1 -> S^-r C2; the middle square closes up to the
    first weight and the right square up to the second."""
    r, s = Fraction(t1.weight), Fraction(t2.weight)
    if homotopic(compose(t2.u, f), compose(g, t1.u), 0) is None:
        raise ValueError("fill_morphism: the given square does not commute")
    C2r = shift_complex(t2.C, -r)
    TA1, TA2 = translate(t1.A), translate(t2.A)

    sys = MapSystem()
    H_h = HomComplex(t1.C, C2r)
    H_mid = HomComplex(t1.B, C2r)
    H_right = HomComplex(t1.C, shift_complex(TA2, -(r + s)))
    sys.unknown("h", H_h, 0, Fraction(0))
    sys.unknown("hm", H_mid, -1, r)
    sys.unknown("hr", H_right, -1, s)
    sys.equation(H_h, [(diff_op(H_h), "h")], F2Vector())
    rhs_mid = compose(t2.v, g).viewed(t1.B, C2r)
    sys.equation(
        H_mid,
        [(precompose_op(H_h, t1.v, H_mid), "h"), (diff_op(H_mid), "hm")],
        H_mid.encode(rhs_mid),
    )
    w2v = t2.w.viewed(C2r, shift_complex(TA2, -(r + s)))
    tfv = translate_map(f).viewed(
        shift_complex(TA1, -r), shift_complex(TA2, -r)
    )
    rhs_right = compose(tfv, t1.w).viewed(
        t1.C, shift_complex(TA2, -(r + s))
    )
    sys.equation(
        H_right,
        [(postcompose_op(H_h, w2v, H_right), "h"),
         (diff_op(H_right), "hr")],
        H_right.encode(rhs_right),
    )
    sol = sys.solve()
    if sol is None:
        raise AssertionError("fill_morphism solve failed on a valid square")
    return sol["h"]


# ----------------------------------------------------------------------
# limit-category weights (certified upper bounds over a finite grid)


def level_grid(*complexes):
    """Nonnegative pairwise level differences over the given objects."""
    levels = set()
    for X in complexes:
        for g in X.gens:
            levels.add(g.ell)
    grid = {Fraction(0)}
    for a in levels:
        for b in levels:
            if a - b > 0:
                grid.add(a - b)
    return sorted(grid)


def _witness_candidate(u, v, w, W):
    """Try to witness (u, v, w) as strict exact of weight W.

    Two-phase linear solve: the comparison map phi (with its clauses,
    the connecting one relaxed to slack W), certified by the barcode of
    its cone, then the right inverse psi.  Returns a witness or None;
    only verified candidates are ever reported.
    """
    W = Fraction(W)
    A = u.source
    C1 = v.target
    K = cone(u, 0)
    TA = translate(A)

    sys = MapSystem()
    H_phi = HomComplex(K.complex, C1)
    H_1 = HomComplex(u.target, C1)
    H_2 = HomComplex(K.complex, w.target)
    sys.unknown("phi", H_phi, 0, Fraction(0))
    sys.unknown("h1", H_1, -1, Fraction(0))
    sys.unknown("h2", H_2, -1, W)
    sys.equation(H_phi, [(diff_op(H_phi), "phi")], F2Vector())
    sys.equation(
        H_1,
        [(precompose_op(H_phi, K.include, H_1), "phi"),
         (diff_op(H_1), "h1")],
        H_1.encode(v),
    )
    sys.equation(
        H_2,
        [(postcompose_op(H_phi, w, H_2), "phi"), (diff_op(H_2), "h2")],
        H_2.encode(
            compose(eta_down(TA, W).viewed(TA, w.target), K.project)
        ),
    )
    sol = sys.solve()
    if sol is None:
        return None
    phi = sol["phi"]
    if not is_r_acyclic(cone(phi, 0).complex, W):
        return None

    sC = shift_complex(C1, W)
    sys2 = MapSystem()
    H_psi = HomComplex(sC, K.complex)
    H_3 = HomComplex(sC, C1)
    H_4 = HomComplex(sC, TA)
    sys2.unknown("psi", H_psi, 0, Fraction(0))
    sys2.unknown("h3", H_3, -1, Fraction(0))
    sys2.unknown("h4", H_4, -1, Fraction(0))
    sys2.equation(H_psi, [(diff_op(H_psi), "psi")], F2Vector())
    sys2.equation(
        H_3,
        [(postcompose_op(H_psi, phi, H_3), "psi"), (diff_op(H_3), "h3")],
        H_3.encode(eta(C1, W)),
    )
    sys2.equation(
        H_4,
        [(postcompose_op(H_psi, K.project, H_4), "psi"),
         (diff_op(H_4), "h4")],
        H_4.encode(w.viewed(sC, TA)),
    )
    sol2 = sys2.solve()
    if sol2 is None:
        return None
    return TriangleWitness(K.complex, phi, sol2["psi"])


def unstable_weight_upper(u, v, w, grid=None):
    """Certified upper bound for the unstable weight of the limit
    triangle (u, v, w): A -> B -> C -> TA.

    Minimizes the declared level sum a1+a2+a3 over a finite grid,
    pruned below each map's spectral invariant, accepting a candidate
    only when the shifted triangle acquires a verified witness.
    Returns (bound or +inf, certificate dict).
    """
    A, B, C = u.source, u.target, v.target
    if w.target != translate(A):
        raise ValueError("limit triangle must end at the translate of A")
    if grid is None:
        grid = level_grid(A, B, C)
    sigmas = [spectral_invariant(m) for m in (u, v, w)]
    lowers = [max(sg, Fraction(0)) if is_finite(sg) else Fraction(0)
              for sg in sigmas]
    choices = [[a for a in grid if a >= lo] for lo in lowers]
    cands = sorted(
        ((a1 + a2 + a3, a1, a2, a3)
         for a1 in choices[0] for a2 in choices[1] for a3 in choices[2]),
    )
    cert = {"sigmas": sigmas, "tried": [], "witness": None,
            "levels": None}
    for total, a1, a2, a3 in cands:
        try:
            ru = representative_at_level(u, a1)
            rv = representative_at_level(v, a2)
            rw = representative_at_level(w, a3)
        except ValueError:
            cert["tried"].append(((a1, a2, a3), "no-representative"))
            continue
        B1 = shift_complex(B, -a1)
        C1 = shift_complex(C, -a1 - a2)
        D1 = shift_complex(translate(A), -total)
        wit = _witness_candidate(
            ru.viewed(A, B1), rv.viewed(B1, C1), rw.viewed(C1, D1), total
        )
        if wit is None:
            cert["tried"].append(((a1, a2, a3), "unverified"))
            continue
        cert["witness"] = wit
        cert["levels"] = (a1, a2, a3)
        return total, cert
    return POS_INF, cert


def stable_weight_upper(u, v, w, s_grid=None, grid=None):
    """Upper bound for the stable weight: minimize the unstable bound
    over symmetric shifts of the outer objects."""
    A = u.source
    if s_grid is None:
        s_grid = level_grid(A, u.target, v.target)
    best = POS_INF
    best_cert = {"per_shift": []}
    for s0 in sorted(set(Fraction(x) for x in s_grid)):
        if s0 < 0:
            continue
        As = shift_complex(A, s0)
        us = u.viewed(As, u.target)
        ws = w.viewed(v.target, shift_complex(w.target, s0))
        val, cert = unstable_weight_upper(us, v, ws, grid=grid)
        best_cert["per_shift"].append((s0, val))
        if val < best:
            best = val
            best_cert["winner"] = (s0, cert)
    return best, best_cert


# ----------------------------------------------------------------------
# abstract triangular weights


@dataclass(frozen=True)
class TriangularWeight:
    name: str
    w0: Fraction

    def of(self, tri: WeightedTriangle):
        raise NotImplementedError


@dataclass(frozen=True)
class FlatWeight(TriangularWeight):
    def of(self, tri):
        return Fraction(1)


@dataclass(frozen=True)
class PersistenceWeight(TriangularWeight):
    def of(self, tri):
        return Fraction(tri.weight)


@dataclass(frozen=True)
class AffineWeight(TriangularWeight):
    alpha: Fraction = Fraction(1)
    beta: Fraction = Fraction(0)

    def of(self, tri):
        return self.alpha * Fraction(tri.weight) + self.beta


FLAT_WEIGHT = FlatWeight("flat", Fraction(1))
PERSISTENCE_WEIGHT = PersistenceWeight("persistence", Fraction(0))


def mixed_weight(alpha, beta):
    """alpha * persistence + beta * flat."""
    return AffineWeight(
        f"{alpha}*persistence+{beta}*flat",
        Fraction(beta), Fraction(alpha), Fraction(beta),
    )


def check_triangular_weight(weight: TriangularWeight, pairs):
    """Run the octahedron over composable witnessed pairs and check the
    weighted octahedral inequality, normalization, and the degenerate
    simplification when the middle base object is zero."""
    records = []
    ok = True
    for t1, w1, t2, w2 in pairs:
        oct_res = octahedron(t1, w1, t2, w2)
        lhs = weight.of(oct_res.d3) + weight.of(oct_res.d4)
        rhs = weight.of(t1) + weight.of(t2)
        rec = {
            "inputs": (t1.weight, t2.weight),
            "outputs": (oct_res.d3.weight, oct_res.d4.weight),
            "lhs": lhs,
            "rhs": rhs,
            "inequality": lhs <= rhs,
        }
        idt, _ = identity_triangle(t1.B)
        rec["normalization"] = weight.of(idt) == weight.w0
        if t1.B.is_zero():
            rec["degenerate-base"] = (
                oct_res.d3.A.is_zero()
                and barcode(oct_res.d3.B) == barcode(oct_res.d3.C)
            )
        rec["ok"] = rec["inequality"] and rec["normalization"] and rec.get(
            "degenerate-base", True
        )
        ok = ok and rec["ok"]
        records.append(rec)
    return ok, records
