"""Weighted exact triangles over filtered complexes.

A strict exact triangle of weight r is a triple A -> B -> C -> S^-r TA
of closed shift-<=0 maps together with a witness: the cone triangle of
the first map, a map phi from the cone to C whose own cone is r-acyclic
(an r-isomorphism), and a right r-inverse psi of phi, such that the
triangle maps factor through the cone maps up to shift-0 homotopy.

Those two clauses are decided on a certificate: a contraction c of
cone(phi, 0), and the homotopy H behind phi o psi ~ eta (none when the
two maps are equal).  `verify_triangle` checks it by products alone
(dc + cd = id with shift(c) <= r, since the least shift of a
contraction is the boundary depth; dH + Hd = phi o psi + eta with
shift(H) <= 0).  Only this module knows the certificate's layout.
Every elementary triangle is `exact_triangle` of its witness: the cone
of u is phi's source, v is read off phi's first |B| columns and w off
psi's columns shifted down by |B| (cone(u, 0) = B (+) TA; a column is
an int, so a block is a slice or a shift), and a triangle costs no
composition and no cone of its own; the v and w clauses of
`verify_triangle` read the same blocks.  The witness
carries the certificate it is given: `_identity_step` certifies
identity phi and psi by x -> t.x, `_inverse_step` a psi read off the
contraction of cone(phi, 0) by that contraction, and `_reanchored`
keeps a certificate on new anchors.  For any other witness (a
hand-made bundle, a rotation output) `_certificate` derives one, c
from the canonical form of cone(phi, 0) and H by one linear solve.

Inverses of r-isomorphisms are read off canonical forms.  The witness
maps of rotation and of the octahedron are written down from the input
witness and its certificate, as in the mapping-cone proofs of those
axioms.  The rest (triangle morphisms and weight candidates) are
closed shift-0 maps x with two squares that commute up to bounded
homotopy, found by `homsolve.fill_map(S, T, pre, post)`: x o a ~ b for
each (a, b, bound) in pre, a o x ~ b for each in post, each homotopy of
level <= its bound; None when there is no x.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .rationals import NEG_INF, POS_INF, fmt_scalar, is_finite
from .f2linalg import F2SparseMatrix, _apply, _bits, solve_in_span
from .complexes import (
    FilteredChainMap,
    FilteredComplex,
    _flat,
    _hom_pairs,
    _hom_slice,
    _inclusion,
    _joined,
    _map_at,
    _projection,
    compose,
    cone,
    eta,
    homotopic,
    nullhomotopy,
    shift_complex,
    shift_of_map,
    sum_complexes,
    translate,
    translate_inverse,
    translate_map,
    zero_complex,
)
from .barcodes import barcode, canonical_form, is_r_acyclic
from .homsolve import fill_map


# ----------------------------------------------------------------------
# morphism-level notions


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
    return is_r_acyclic(cone(f, 0), r)


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
    found = _contraction_inverse(f, Fraction(r), rng)
    return found and found[0]


def _contraction(K, r=None):
    """(columns, shift) of the contraction of K read off its canonical
    form, its shift the boundary depth of K; None when K has an
    infinite bar or, for an r given, a bar longer than r."""
    _, cf = canonical_form(K)
    depth = cf.depth()
    if cf.unpaired or r is not None and depth > r:
        return None
    return cf.contraction().columns, depth


def _contraction_inverse(f, r=None, rng=None):
    """(g, cert, W) for `contraction_inverse`, or None, where W is the
    shift of the contraction h of cone(f, 0) (at most r when r is
    given).  Without an rng, cert is the certificate of a witness whose
    phi is f and whose psi is g: all columns of h and its B -> B block,
    the homotopy f o g ~ id_B (None when B is zero).  With one, cert is
    None and only the B columns of the conjugated h are formed."""
    _require_iso_input(f)
    if r is not None and r < 0:
        raise ValueError("acyclicity threshold must be >= 0")
    K = cone(f, 0)
    if rng is not None:
        from .verify import random_basis_change  # verify imports tpc

        K, fwd, back = random_basis_change(K, rng)
    found = _contraction(K, r)
    if found is None:
        return None
    cols, W = found
    nB = f.target.n
    if rng is not None:
        U = fwd.matrix()
        cols = [U.apply(_apply(cols, c)) for c in back.cols[:nB]]
    g = FilteredChainMap(f.target, f.source, [c >> nB for c in cols[:nB]], 0)
    if rng is not None:
        return g, None, W
    low = (1 << nB) - 1
    return g, (cols, [c & low for c in cols[:nB]] or None), W


def r_inverses(f: FilteredChainMap, r, rng=None):
    """Left and right r-inverses of an r-isomorphism f: A -> B.

    Returns (phi_left: B -> S^-r A, psi_right: S^r B -> A) with
    phi o f ~ eta and f o psi ~ eta via shift-0 homotopies.  Both carry
    one matrix, `contraction_inverse(f, r, rng)`, anchored two ways.
    """
    r = Fraction(r)
    g = contraction_inverse(f, r, rng)
    if g is None:
        bad = next(b for b in barcode(cone(f, 0))
                   if not b.is_finite() or b.length() > r)
        raise ValueError(
            f"not an {fmt_scalar(r)}-isomorphism; cone carries bar {bad}"
        )
    A, B = f.source, f.target
    return (g.viewed(B, shift_complex(A, -r), 0),
            g.viewed(shift_complex(B, r), A, 0))


def _boundary_above(f: FilteredChainMap):
    """The columns of the degree-(deg f - 1) pairs of Hom(X, Y), the
    (level, flat bit) of each degree-(deg f) pair, f flattened, and
    above(k): an x on those columns whose boundary equals f on every
    degree-(deg f) pair above level k (all of f for k None), or None."""
    X, Y = f.source, f.target
    _, cols = _hom_slice(X, Y, f.degree - 1)
    rows = [(Y.gens[t].ell - X.gens[s].ell, 1 << (s * Y.n + t))
            for s, t in _hom_pairs(X, Y, f.degree)]
    enc = _flat(f)

    def above(k):
        rowmask = -1 if k is None else sum(b for ell, b in rows if ell > k)
        A = F2SparseMatrix([c & rowmask for c in cols], X.n * Y.n)
        return solve_in_span(A, enc & rowmask)

    return cols, rows, enc, above


def spectral_invariant(f: FilteredChainMap):
    """Least level at which the homotopy class of f has a representative.

    Returns -inf for the zero class.  Decided exactly: the class of f
    admits a representative of level <= k iff the part of f above level
    k is a boundary in the hom complex.
    """
    if not f.is_closed():
        raise ValueError("spectral invariant needs a closed map")
    _, rows, _, above = _boundary_above(f)
    if above(None) is not None:
        return NEG_INF
    levels = sorted({ell for ell, _ in rows})
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
    if is_finite(k):
        k = Fraction(k)
    if not is_finite(sh) or sh <= k:
        return f
    cols, _, corrected, above = _boundary_above(f)
    x = above(k)
    if x is None:
        raise ValueError(
            f"class of the map has no representative at level {fmt_scalar(k)}"
        )
    for j in _bits(x):
        corrected ^= cols[j]
    nY = f.target.n
    flat = [divmod(i, nY) for i in range(f.source.n * nY)]
    return _map_at(f.source, f.target, flat, corrected, f.degree)


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


def _closed_shift0(m, source, target):
    """Is m a closed degree-0 map source -> target of shift <= 0, with
    every entry of degree 0?"""
    if m.source != source or m.target != target or m.degree != 0:
        return False
    of_degree = {}
    for t, d in enumerate(target._deg):
        of_degree[d] = of_degree.get(d, 0) | 1 << t
    if any(c & ~of_degree.get(d, 0)
           for d, c in zip(source._deg, m.cols)) or not m.is_closed():
        return False
    sh = shift_of_map(m)
    return not is_finite(sh) or sh <= 0


def _through_phi(phi, B):
    """phi o include for phi: cone(u, 0) = B (+) TA -> C: the first |B|
    columns of phi, a map B -> C."""
    return FilteredChainMap(B, phi.target, phi.cols[:B.n], phi.degree)


def _through_psi(psi, nB, source, target):
    """project o psi for psi into cone(u, 0) = B (+) TA, |B| = nB: the
    columns of psi shifted down by nB, read as a map source -> target
    (complexes of the sizes of psi's source and of A)."""
    return FilteredChainMap(source, target, [c >> nB for c in psi.cols],
                            psi.degree)


def _certified(wit: TriangleWitness, cert):
    """wit carrying `cert` (None: nothing), the certificate that
    `verify_triangle` checks for the phi-r-isomorphism and
    psi-right-inverse clauses: the columns of a contraction of
    cone(phi, 0) and of the homotopy S^r C -> C behind phi o psi ~ eta
    (None when the two maps are equal).  It is not a field, so equal
    witnesses stay equal and `dataclasses.replace` drops it."""
    if cert is not None:
        object.__setattr__(wit, "_cert", cert)
    return wit


def _is_homotopy(S, T, cols, f, bound):
    """Do the columns `cols`, a map S -> T, give dh + hd = f (one mask
    per column of S) with shift <= bound?  Decided by products only.
    Entries of a degree other than -1 need no test of their own: the
    degree -1 part of h then meets the equation alone, within the same
    bound."""
    try:
        h = FilteredChainMap(S, T, cols, -1)
    except ValueError:
        return False
    dT = T.diff
    if not all(_apply(dT, c) ^ _apply(h.cols, d) == e
               for c, d, e in zip(h.cols, S.diff, f)):
        return False
    sh = shift_of_map(h)
    return not is_finite(sh) or sh <= bound


def _certificate(tri: WeightedTriangle, wit: TriangleWitness, Kphi=None):
    """The certificate (c, H) of wit: its own, or for a bare witness c
    read off the canonical form of Kphi = cone(phi, 0) (built when not
    given) and H from one `homotopic` solve for phi o psi ~ eta(C, r).
    c is None when cone(phi, 0) has no contraction of shift <= r, and H
    is False when phi o psi ~ eta has no homotopy of level <= 0."""
    cert = getattr(wit, "_cert", None)
    if cert is not None:
        return cert
    r = Fraction(tri.weight)
    c = _contraction(cone(wit.phi, 0) if Kphi is None else Kphi, r)
    H = homotopic(compose(wit.phi, wit.psi), eta(tri.C, r), 0)
    return c and c[0], False if H is None else H.cols


def verify_triangle(tri: WeightedTriangle, wit: TriangleWitness):
    """Check every witness clause; returns (ok, list of failed clauses).

    The phi-r-isomorphism and psi-right-inverse clauses are decided by
    `_is_homotopy` on the witness's certificate (`_certificate`).
    """
    failures = []
    r = Fraction(tri.weight)
    if r < 0:
        return False, ["weight-negative"]
    A, B, C = tri.A, tri.B, tri.C
    legs = (("u", tri.u, A, B), ("v", tri.v, B, C),
            ("w", tri.w, C, tri.w_target()))
    structural = all(m.source == source and m.target == target
                     for _, m, source, target in legs)
    if not _check_clause(failures, "shape", structural):
        return False, failures
    for name, m, source, target in legs:
        _check_clause(failures, f"{name}-closed-shift0",
                      _closed_shift0(m, source, target))
    if failures:
        return False, failures
    K = cone(tri.u, 0)
    if not _check_clause(failures, "cprime-is-cone", wit.cprime == K):
        return False, failures
    if not _check_clause(failures, "phi-closed-shift0",
                         _closed_shift0(wit.phi, K, C)):
        return False, failures
    sC = shift_complex(C, r)
    if not _check_clause(failures, "psi-closed-shift0",
                         _closed_shift0(wit.psi, sC, K)):
        return False, failures
    Kphi = cone(wit.phi, 0)
    c, H = _certificate(tri, wit, Kphi)
    iso = c is not None and _is_homotopy(
        Kphi, Kphi, c, [1 << j for j in range(Kphi.n)], r)
    # phi o psi + eta, column by column (eta is the identity matrix)
    f = [_apply(wit.phi.cols, p) ^ (1 << j)
         for j, p in enumerate(wit.psi.cols)]
    inverse = (not any(f) if H is None
               else H is not False and _is_homotopy(sC, C, H, f, 0))
    _check_clause(failures, "phi-r-isomorphism", iso)
    _check_clause(failures, "psi-right-inverse", inverse)
    _check_clause(failures, "v-through-phi",
                  homotopic(tri.v, _through_phi(wit.phi, B), 0) is not None)
    TA = translate(A)
    _check_clause(failures, "w-through-psi", homotopic(
        tri.w.viewed(sC, TA), _through_psi(wit.psi, B.n, sC, TA), 0)
        is not None)
    return not failures, failures


def exact_triangle(u, phi, psi, W, cert=None):
    """The strict exact triangle of weight W that (phi, psi) witness.

    phi: K -> C and psi: S^W C -> K, where K = phi.source is
    cone(u, 0) = B (+) TA; the triangle is A -> B -> C -> S^-W TA with
    v = phi o include and w = project o psi read on C, both read off
    the blocks of phi and psi (`_through_phi`, `_through_psi`).  The
    witness carries `cert` (`_certified`).  Checks nothing:
    `verify_triangle` decides whether phi is a W-isomorphism with right
    W-inverse psi and whether K is the cone of u.
    """
    W = Fraction(W)
    A, B, C = u.source, u.target, phi.target
    w = _through_psi(psi, B.n, C, shift_complex(translate(A), -W)).viewed()
    tri = WeightedTriangle(A, B, C, u, _through_phi(phi, B), w, W)
    return tri, _certified(TriangleWitness(phi.source, phi, psi), cert)


def _identity_step(u, W, C=None):
    """exact_triangle of weight W whose phi: K -> C and psi: S^W C -> K,
    K = cone(u, 0), are identity matrices; C is K unless given (K is
    then C raised by at most W).  x -> t.x is a contraction of
    cone(phi, 0) = C (+) TK of shift at most W, and phi o psi = eta."""
    K = cone(u, 0)
    C = K if C is None else C
    ident = FilteredChainMap.identity(K)
    c = [1 << (C.n + j) for j in range(C.n)] + [0] * C.n
    return exact_triangle(u, ident.viewed(K, C),
                          ident.viewed(shift_complex(C, W), K), W, (c, None))


def _inverse_step(u, phi, W=None):
    """exact_triangle of weight W of phi: cone(u, 0) -> C and the
    inverse psi of phi read off the contraction h of cone(phi, 0)
    (`_contraction_inverse`), W by default the shift of h; None when
    phi is not a W-isomorphism.  h certifies the step: its shift is at
    most W, and by dh + hd = id its C -> C block is a homotopy
    phi o psi ~ eta.  One canonical form decides, inverts and
    certifies."""
    found = _contraction_inverse(phi, W)
    if found is None:
        return None
    g, cert, depth = found
    W = depth if W is None else W
    return exact_triangle(u, phi, g.viewed(shift_complex(phi.target, W),
                                           phi.source, 0), W, cert)


def _reanchored(tri, wit, A, B, C, K, W):
    """tri and wit with the same matrices read on A, B, C, the cone K
    and the weight W.  The certificate is kept: no shift bound grows
    under a shift functor on every object, or with the weight raised."""
    tri = WeightedTriangle(A, B, C, tri.u.viewed(A, B), tri.v.viewed(B, C),
                           tri.w.viewed(C, shift_complex(translate(A), -W)),
                           W)
    return tri, _certified(TriangleWitness(
        K, wit.phi.viewed(K, C), wit.psi.viewed(shift_complex(C, W), K)),
        getattr(wit, "_cert", None))


def identity_triangle(X: FilteredComplex):
    """0 -> X -> X -> 0, the normalization triangle of weight 0."""
    return _identity_step(FilteredChainMap.zero(zero_complex(), X), 0)


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
    return _identity_step(f.viewed(f.source, shift_complex(f.target, -t)), t)


def relax_weight(tri: WeightedTriangle, wit: TriangleWitness, s):
    """Post-compose the connecting map with the canonical comparison,
    raising the weight from r to r+s."""
    s = Fraction(s)
    if s < 0:
        raise ValueError("relax_weight needs s >= 0")
    if s == 0:
        return tri, wit
    return _reanchored(tri, wit, tri.A, tri.B, tri.C, wit.cprime,
                       tri.weight + s)


# ----------------------------------------------------------------------
# rotation


def _product(P, Q):
    """The columns of P o Q, for the column lists P and Q."""
    return [_apply(P, q) for q in Q]


def _sum(P, Q):
    """The columns of P + Q."""
    return [p ^ q for p, q in zip(P, Q)]


def _contraction_blocks(c, nY):
    """The blocks (g, a, b, e) of a contraction c of cone(f, 0) =
    Y (+) TX for f: X -> Y of nY generators: c(y) = (a(y), t.g(y)) and
    c(t.x) = (e(x), t.b(x)).  dc + cd = id says that g is closed, that
    a and b are homotopies f g ~ id_Y and g f ~ id_X, and that
    de + ed = f b + a f."""
    low = (1 << nY) - 1
    return ([m >> nY for m in c[:nY]], [m & low for m in c[:nY]],
            [m >> nY for m in c[nY:]], [m & low for m in c[nY:]])


def _v_homotopy(tri, wit, error):
    """The columns of a homotopy h_v: v ~ phi o include of level <= 0,
    zero with no solve when the two maps are equal; ValueError(error)
    when the witness's v-clause fails."""
    hv = homotopic(tri.v, _through_phi(wit.phi, tri.B), 0)
    if hv is None:
        raise ValueError(error)
    return hv.cols


def rotate(tri: WeightedTriangle, wit: TriangleWitness,
           try_improve=False):
    """First positive rotation; the certified weight doubles.

    Returns (triangle, witness) of shape
    B -> C -> S^-r TA -> S^-2r TB at weight 2r.  The comparison
    phibar: TA -> cone(v) = C (+) TB is written down from the witness,
    t.a -> (phi(t.a) + h_v(u(a)), t.u(a)) with h_v the homotopy
    v ~ phi o include (zero when the two are equal), and the new
    triangle is `exact_triangle` of (psibar, phibar), psibar the
    inverse of phibar read off a canonical form.  Whether 2r is tight
    is open; with try_improve the level grid is searched for a smaller
    verified weight and (triangle, witness, improved) is returned, the
    last entry None when no cheaper witness was found.
    """
    r = Fraction(tri.weight)
    A, B, C = tri.A, tri.B, tri.C
    TA = translate(A)
    A2 = cone(tri.v, 0)
    hv = _v_homotopy(tri, wit, "rotate: the witness's v-clause fails")
    phibar = FilteredChainMap(TA, A2, [
        (p ^ _apply(hv, c)) | c << C.n
        for p, c in zip(wit.phi.cols[B.n:], tri.u.cols)], 0)
    try:
        psibar, _ = r_inverses(phibar, r)
    except ValueError as exc:
        raise AssertionError("rotation comparison is not an r-isomorphism"
                             ) from exc
    rtri, rwit = exact_triangle(
        tri.v, psibar, phibar.viewed(shift_complex(TA, r), A2), 2 * r)
    if not try_improve:
        return rtri, rwit
    improved = None
    for W in level_grid(B, C, TA):
        if W >= 2 * r:
            break
        wW = rtri.w.viewed(rtri.C, shift_complex(translate(B), -W))
        sh = shift_of_map(wW)
        if is_finite(sh) and sh > 0:
            continue
        cand = _witness_candidate(rtri.u, rtri.v, wW, W)
        if cand is not None:
            improved = (replace(rtri, w=wW, weight=W), cand)
            break
    return rtri, rwit, improved


def rotate_negative(tri: WeightedTriangle, wit: TriangleWitness):
    """First negative rotation T^-1 S^r C -> A -> B -> S^-r C at 2r.

    Both witness maps are written down.  The comparison
    phi_N: cone(u_N) = A (+) S^r C -> B is u on A and the B-block of
    psi on S^r C, closed because psi is.  Its right inverse is
    psi_N: S^2r B -> cone(u_N), b -> (theta_A(b), t.v(b)), for a
    homotopy theta: psi o v ~ include of level <= 2r into
    cone(u) = B (+) TA, so `exact_triangle` of (phi_N, psi_N) has v = u
    and w = v.  The A-part of d theta + theta d = psi o v + include
    makes psi_N closed, and its B-part reads
    phi_N psi_N + eta = d theta_B + theta_B d.

    theta comes from the witness's certificate (c, H) (`_certificate`):
    c's blocks g: C -> K and b: K -> K (`_contraction_blocks`) give
    psi = g + d M + M d with M = g H + b psi, so psi o phi ~ id_K by
    b + M phi, and with h_v: v ~ phi o include (`_v_homotopy`),
    theta = b o include + M o phi o include + psi o h_v.  Each term has
    level <= 2r since c and H have level <= r.  ValueError when the
    witness fails its phi-r-isomorphism or psi-right-inverse clause."""
    r = Fraction(tri.weight)
    A, B, C = tri.A, tri.B, tri.C
    nA, nB = A.n, B.n
    u_N = _through_psi(wit.psi, nB, translate_inverse(shift_complex(C, r)),
                       A).viewed()
    KN = cone(u_N, 0)
    psi, phi = wit.psi.cols, wit.phi.cols

    low = (1 << nB) - 1
    phi_N = FilteredChainMap(KN, B,
                             tri.u.cols + tuple(c & low for c in psi), 0)
    c, H = _certificate(tri, wit)
    if c is None or H is False:
        raise ValueError("rotate_negative: the witness does not verify")
    g, _, b, _ = _contraction_blocks(c, C.n)
    M = _product(b, psi)
    if H is not None:
        M = _sum(M, _product(g, H))
    theta = _sum(_sum(b[:nB], _product(M, phi[:nB])), _product(
        psi, _v_homotopy(tri, wit,
                         "rotate_negative: the witness's v-clause fails")))
    psi_N = FilteredChainMap(shift_complex(B, 2 * r), KN, [
        t >> nB | v << nA
        for t, v in zip(theta, tri.v.cols)], 0)
    return exact_triangle(u_N, phi_N, psi_N, 2 * r)


# ----------------------------------------------------------------------
# direct sums of triangles


def _block_diagonal(maps, source, target, tgt_off):
    """The sum of the parts' maps between the sums `source` and
    `target`: part i's columns, in order, shifted by its target offset.
    All parts must share one degree."""
    degrees = {f.degree for f in maps}
    if len(degrees) > 1:
        raise ValueError("cannot add maps of different degrees")
    cols = [c << to for f, to in zip(maps, tgt_off) for c in f.cols]
    return FilteredChainMap(source, target, cols, degrees.pop())


def sum_triangles_many(parts):
    """Direct sum of (triangle, witness) parts, built once; the weight
    is the max of the parts' weights.

    Objects are `sum_complexes` of the parts' objects, so the ids are
    those of the left fold of binary sums; u, v and w are
    block-diagonal by offset, each part's w keeping its own matrix into
    S^-m T SA.  The witness maps each part's cone coordinates (B block,
    then A block) into the one cone of the summed u.  One part is
    returned unchanged; parts whose u, v or w degrees differ raise
    ValueError.
    """
    if len(parts) == 1:
        return parts[0]
    tris = [t for t, _ in parts]
    m = max(Fraction(t.weight) for t in tris)
    SA, offA = sum_complexes([t.A for t in tris])
    SB, offB = sum_complexes([t.B for t in tris])
    SC, offC = sum_complexes([t.C for t in tris])
    u = _block_diagonal([t.u for t in tris], SA, SB, offB)
    v = _block_diagonal([t.v for t in tris], SB, SC, offC)
    w = _block_diagonal([t.w for t in tris], SC,
                        shift_complex(translate(SA), -m), offA)
    tri = WeightedTriangle(SA, SB, SC, u, v, w, m)

    K = cone(u, 0)
    phi_cols = [None] * K.n
    psi_cols = []
    for (t, wit), oa, ob, oc in zip(parts, offA, offB, offC):
        nb = t.B.n
        low = (1 << nb) - 1
        a_at = SB.n + oa  # outer index of the part's first A generator
        for j, col in enumerate(wit.phi.cols):
            phi_cols[ob + j if j < nb else a_at + j - nb] = col << oc
        for col in wit.psi.cols:
            psi_cols.append((col & low) << ob | (col >> nb) << a_at)
    phi = FilteredChainMap(K, SC, phi_cols, 0)
    psi = FilteredChainMap(shift_complex(SC, m), K, psi_cols, 0)
    cert = _summed_certificate(parts, offA, offB, offC, SC.n, SB.n, K.n)
    return tri, _certified(TriangleWitness(K, phi, psi), cert)


def _summed_certificate(parts, offA, offB, offC, nSC, nSB, nK):
    """The parts' certificates moved into the summed cone(phi, 0) =
    SC (+) T(SB (+) T SA), each part's C, B and A blocks to its offset
    in SC, SB and SA; None unless every part has one.  A part's shift
    bounds hold at the summed weight, which is at least its own."""
    certs = [getattr(w, "_cert", None) for _, w in parts]
    if None in certs:
        return None
    c_cols = [None] * (nSC + nK)
    H_cols = []
    for (t, _), (c, H), oa, ob, oc in zip(parts, certs, offA, offB, offC):
        nC, nB = t.C.n, t.B.n
        lowC, lowB = (1 << nC) - 1, (1 << nB) - 1
        ob, oa = nSC + ob, nSC + nSB + oa

        def place(m):
            return ((m & lowC) << oc | ((m >> nC) & lowB) << ob
                    | (m >> (nC + nB)) << oa)

        for j, col in enumerate(c):  # column j lands where e_j does
            c_cols[place(1 << j).bit_length() - 1] = place(col)
        H_cols += [0] * nC if H is None else [col << oc for col in H]
    if all(H is None for _, H in certs):
        H_cols = None
    return c_cols, H_cols


def sum_triangles(t1, w1, t2, w2):
    """Componentwise direct sum; the weight is max of the two."""
    return sum_triangles_many([(t1, w1), (t2, w2)])


# ----------------------------------------------------------------------
# the weighted octahedron


def _over(n, f, hom=None, ident=True):
    """The columns of a map between two cones over one object of n
    generators, A (+) T(.) -> A (+) T(.): the identity on A (zero
    unless ident), then t.x -> (hom(x), t.f(x)) for the column lists f
    and hom (no hom: zero)."""
    head = [1 << a for a in range(n)] if ident else [0] * n
    return head + [c << n | hc for c, hc in zip(f, hom or [0] * len(f))]


def _octahedron_certificate(cert1, cert2, nA, u2, lam, phi_prime, phi2,
                            psi3):
    """The certificate of the octahedron's second output, from those of
    its two input witnesses (column lists throughout), None unless both
    pass their phi-r-isomorphism and psi-right-inverse clauses.

    phi4 = phi2 o phi_prime o lam.  phi_prime lifts phi1 over A, so the
    blocks of a contraction of its cone lift those of phi1 (`_over`,
    with u2 a1 and u2 e1 as the A parts of g' and b'); lam, an
    involution of shift 0, conjugates them.  For a composite f2 f1 the
    blocks are g1 g2, a2 + f2 a1 g2, b1 + g1 b2 f1 and f2 e1 + e2 f1 +
    f2 a1 b2 f1, each of shift at most r + s.  phi_prime o psi2 =
    eta + dJ + Jd for J: t.x -> t.H1(x), so phi4 o psi4 ~ eta by
    H2 + phi2 J psi3."""
    (c1, H1), (c2, H2) = cert1, cert2
    if c1 is None or c2 is None or H2 is False:
        return None
    nX, nB = len(u2), len(psi3)
    g1, a1, b1, e1 = _contraction_blocks(c1, nX)
    f1 = _product(phi_prime, lam)
    gp = _product(lam, _over(nA, g1, _product(u2, a1)))
    ap = _over(nA, a1, ident=False)
    bp = _product(lam, _product(_over(nA, b1, _product(u2, e1), False),
                                lam))
    ep = _product(_over(nA, e1, ident=False), lam)
    g2, a2, b2, e2 = _contraction_blocks(c2, nB)
    b2f1 = _product(b2, f1)
    g = _product(gp, g2)
    a = _sum(a2, _product(phi2, _product(ap, g2)))
    b = _sum(bp, _product(gp, b2f1))
    e = _sum(_sum(_product(phi2, ep), _product(e2, f1)),
             _product(phi2, _product(ap, b2f1)))
    c = ([x | y << nB for x, y in zip(a, g)]
         + [x | y << nB for x, y in zip(e, b)])
    if H1 is None and H2 is None:
        return c, None
    J = _over(nA, H1 or [0] * nX, ident=False)
    H = _product(phi2, _product(J, psi3))
    return c, H if H2 is None else _sum(H2, H)


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
    TE -> C -> B -> S^-(r+s) T2 E, sharing the object C, each
    `exact_triangle` of its witness.

    Every witness map is written down from the two witnesses, as in the
    mapping-cone proof of the octahedral axiom.  Over A, a map between
    cones A (+) T(.) is the identity on A and t.x -> (hom(x), t.f(x));
    psi2 lifts w1.psi with hom = u2 o H1 (H1: phi1 psi1 ~ eta from the
    first witness's certificate, `_certificate`), lam is G and the
    identity on T^2 E, an involution, so psi4 = lam o psi2 o psi3.  When
    both input witnesses pass their phi-r-isomorphism and
    psi-right-inverse clauses, the second output carries a certificate
    too (`_octahedron_certificate`).  B' = cone(t2.u, 0) is w2.cprime,
    which `verify_triangle` checks; it is not built again.
    """
    if t1.C != t2.A:
        raise ValueError("octahedron needs t1.C == t2.A")
    r, s = Fraction(t1.weight), Fraction(t2.weight)
    E, F, X = t1.A, t1.B, t1.C
    A, B = t2.B, t2.C
    TE = translate(E)

    p = compose(t2.u, t1.v)
    d3, wit3 = _identity_step(p, 0)
    C = d3.C

    g2 = compose(t2.u, w1.phi)  # X' = cone(t1.u) -> A
    B2 = cone(g2, 0)            # B'' = A (+) TF (+) T^2 E
    hv = _v_homotopy(t1, w1, "octahedron: first witness v-clause fails")
    c1, H1 = _certificate(t1, w1)
    if H1 is False:
        raise ValueError("octahedron: first witness psi-clause fails")
    c2, H2 = _certificate(t2, w2)

    nA, nF, nE = A.n, F.n, E.n
    u2 = t2.u.cols

    # cone(p) -> A (+) TF, the head of B'', an involution; h = u2 o hv is
    # a homotopy between p and g2 o include
    G = _over(nA, FilteredChainMap.identity(F).cols, _product(u2, hv))
    # u4: TE -> C, through the octahedron column map and G
    u4 = FilteredChainMap(TE, C, [
        _apply(G, g2.cols[nF + i] | t1.u.cols[i] << nA) for i in range(nE)],
        0)

    Bp = w2.cprime  # B' = A (+) TX
    phi_prime = FilteredChainMap(B2, Bp, _over(nA, w1.phi.cols), 0)
    # phi_prime o psi2 ~ eta by the homotopy t.x -> t.H1(x)
    psi2 = FilteredChainMap(shift_complex(Bp, r), B2,
                            _over(nA, w1.psi.cols,
                                  None if H1 is None else _product(u2, H1)),
                            0)
    psi3 = w2.psi.viewed(shift_complex(B, r + s), shift_complex(Bp, r))

    K4 = cone(u4, 0)
    lam = FilteredChainMap(K4, B2,
                           G + [1 << (nA + nF + e) for e in range(nE)], 0)
    phi4 = compose(w2.phi, compose(phi_prime, lam))
    psi4 = compose(lam.viewed(B2, K4, 0), compose(psi2, psi3))
    d4, wit4 = exact_triangle(u4, phi4, psi4, r + s,
                              _octahedron_certificate(
                                  (c1, H1), (c2, H2), nA, u2, lam.cols,
                                  phi_prime.cols, w2.phi.cols, w2.psi.cols))

    m4 = translate_map(t1.v).viewed(
        translate(F), shift_complex(translate(X), -s)
    )
    bottom_lhs = compose(
        translate_map(t1.w).viewed(
            shift_complex(translate(X), -s),
            shift_complex(translate(TE), -(r + s)),
        ),
        t2.w,
    )
    squares = (
        ("cone-over-composite", compose(p, t1.u),
         FilteredChainMap.zero(E, A), Fraction(0)),
        ("top-projection", compose(d3.w, u4),
         translate_map(t1.u), Fraction(0)),
        ("middle-inclusion", compose(d4.v, d3.v), t2.v,
         Fraction(0)),
        ("middle-projection", compose(t2.w, d4.v),
         compose(m4, d3.w), Fraction(0)),
        ("bottom-right", d4.w, bottom_lhs, r),
    )
    return OctahedronResult(d3, wit3, d4, wit4, squares)


# ----------------------------------------------------------------------
# triangle functoriality


def fill_morphism(t1, w1, t2, w2, f, g):
    """Complete a commuting square on the first two legs to a morphism
    of triangles h: C1 -> S^-r C2; the middle square closes up to the
    first weight and the right square up to the second."""
    r, s = Fraction(t1.weight), Fraction(t2.weight)
    if not (_closed_shift0(f, t1.A, t2.A) and _closed_shift0(g, t1.B, t2.B)):
        raise ValueError("fill_morphism needs closed shift-0 maps "
                         "t1.A -> t2.A and t1.B -> t2.B")
    if homotopic(compose(t2.u, f), compose(g, t1.u), 0) is None:
        raise ValueError("fill_morphism: the given square does not commute")
    C2r = shift_complex(t2.C, -r)
    TA1, TA2 = translate(t1.A), translate(t2.A)

    rhs_mid = compose(t2.v, g).viewed(t1.B, C2r)
    w2v = t2.w.viewed(C2r, shift_complex(TA2, -(r + s)))
    tfv = translate_map(f).viewed(
        shift_complex(TA1, -r), shift_complex(TA2, -r)
    )
    rhs_right = compose(tfv, t1.w).viewed(
        t1.C, shift_complex(TA2, -(r + s))
    )
    h = fill_map(t1.C, C2r, pre=[(t1.v, rhs_mid, r)],
                 post=[(w2v, rhs_right, s)])
    if h is None:
        raise AssertionError("fill_morphism solve failed on a valid square")
    return h


# ----------------------------------------------------------------------
# limit-category weights (certified upper bounds over a finite grid)


def level_grid(*complexes):
    """Nonnegative pairwise level differences over the given objects,
    taken in integers over their common denominator."""
    den, lev = _joined([(X._den, X._lev) for X in complexes])
    levels = set(lev)
    grid = {a - b for a in levels for b in levels if a > b}
    return [Fraction(d, den) for d in sorted(grid | {0})]


def _witness_candidate(u, v, w, W):
    """Try to witness (u, v, w) as strict exact of weight W.

    Two-phase linear solve: the comparison map phi (with its clauses,
    the connecting one relaxed to slack W), certified by the barcode of
    its cone, then the right inverse psi: S^W C -> K with phi psi = eta
    and project psi = w read on S^W C.  include and project are the
    blocks of K = cone(u, 0) = B (+) TA by offset; the slack is project
    read into w's target.  Returns a witness or None; only verified
    candidates are ever reported.
    """
    W = Fraction(W)
    A, B = u.source, u.target
    C1 = v.target
    K = cone(u, 0)
    TA = translate(A)

    phi = fill_map(K, C1, pre=[(_inclusion(B, K, 0), v, 0)],
                   post=[(w, _projection(K, w.target, B.n), W)])
    if phi is None or not is_r_acyclic(cone(phi, 0), W):
        return None
    sC = shift_complex(C1, W)
    psi = fill_map(sC, K, post=[
        (phi, eta(C1, W), 0),
        (_projection(K, TA, B.n), w.viewed(sC, TA), 0)])
    if psi is None:
        return None
    return TriangleWitness(K, phi, psi)


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
    """The weight alpha * r + beta of a triangle of weight r; w0 is its
    value on the identity triangle."""

    name: str
    w0: Fraction
    alpha: Fraction = Fraction(1)
    beta: Fraction = Fraction(0)

    def of(self, tri: WeightedTriangle):
        return self.alpha * Fraction(tri.weight) + self.beta


FLAT_WEIGHT = TriangularWeight("flat", Fraction(1), Fraction(0), Fraction(1))
PERSISTENCE_WEIGHT = TriangularWeight("persistence", Fraction(0))


def mixed_weight(alpha, beta):
    """alpha * persistence + beta * flat."""
    return TriangularWeight(
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
