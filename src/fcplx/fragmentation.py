"""Cone decompositions and fragmentation pseudo-metrics.

A cone decomposition builds an object through a chain of witnessed
weighted triangles starting from zero; its weight is the sum of the
triangle weights.  The one-sided distance delta(X, X') is the infimal
weight over decompositions of X whose linearization consists of family
members plus a single slot carrying the desuspension of X'.  This
module provides validated constructions only: every distance returned
is a certified upper bound carried by an explicit decomposition, and a
small-instance branch-and-bound oracle explores a documented family of
decompositions exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .rationals import POS_INF, is_finite
from .f2linalg import F2Vector
from .homsolve import enumerate_closed_maps
from .complexes import (
    FilteredChainMap,
    FilteredComplex,
    compose,
    cone,
    direct_sum,
    make_complex,
    shift_complex,
    translate,
    translate_inverse,
    zero_complex,
)
from .barcodes import (
    Bar,
    Barcode,
    barcode,
    boundary_depth,
    bottleneck,
    canonical_form,
    from_barcode,
)
from .f2linalg import invert
from .tpc import (
    TriangleWitness,
    WeightedTriangle,
    contraction_inverse,
    identity_triangle,
    sum_triangles,
    octahedron,
    triangle_from_morphism,
    verify_triangle,
)


# ----------------------------------------------------------------------
# canonical isomorphisms between barcode-equal objects


def canonical_object(X: FilteredComplex) -> FilteredComplex:
    return from_barcode(barcode(X))


def _bar_records(witness):
    """(bar, new-basis indices) per summand, in from_barcode sort order."""
    X = witness.complex
    recs = []
    for x_i, y_j in witness.pairs:
        b = Bar(X.gens[x_i].degree, X.gens[x_i].ell, X.gens[y_j].ell)
        recs.append((b, (x_i, y_j)))
    for g in witness.unpaired:
        recs.append((Bar(X.gens[g].degree, X.gens[g].ell, POS_INF), (g,)))
    recs.sort(key=lambda r: (r[0].degree, r[0].lo, r[0].hi))
    return recs


def iso_to_canonical(X: FilteredComplex):
    """Strictly invertible level-preserving chain iso X -> canonical."""
    B, W = canonical_form(X)
    canon = from_barcode(B)
    recs = _bar_records(W)
    assign = {}
    for k, (b, idxs) in enumerate(recs):
        if b.hi == POS_INF:
            assign[idxs[0]] = canon.index_of(f"i{k}")
        else:
            assign[idxs[0]] = canon.index_of(f"x{k}")
            assign[idxs[1]] = canon.index_of(f"y{k}")
    Uinv = invert(W.matrix)
    cols = []
    for c in range(X.n):
        m = 0
        for nb in Uinv.column(c):
            m ^= 1 << assign[nb]
        cols.append(F2Vector(mask=m))
    fwd = FilteredChainMap(X, canon, cols, 0)
    back_cols = [None] * canon.n
    for nb, ci in assign.items():
        back_cols[ci] = W.matrix.column(nb)
    back = FilteredChainMap(canon, X, back_cols, 0)
    return fwd, back


def zero_iso_between(X: FilteredComplex, Y: FilteredComplex):
    """A 0-isomorphism X -> Y between barcode-equal objects."""
    if barcode(X) != barcode(Y):
        raise ValueError("objects are not barcode-equal")
    fx, _ = iso_to_canonical(X)
    _, by = iso_to_canonical(Y)
    return compose(by, fx)


def canonical_projection(X: FilteredComplex, target: FilteredComplex):
    """0-isomorphism X -> target when X differs from the target only by
    zero-length bars.  The target must be a from_barcode-shaped object."""
    bx = list(barcode(X))
    bt = list(barcode(target))
    for b in bt:
        try:
            bx.remove(b)
        except ValueError:
            raise ValueError("target bars are not a sub-multiset")
    if any(b.length() != 0 for b in bx):
        raise ValueError("dropped bars must have zero length")
    fx, _ = iso_to_canonical(X)
    canon = fx.target
    # map canonical summands of X onto target summands bar-by-bar
    remaining = {}
    for k, b in enumerate(
        sorted(barcode(target), key=lambda b: (b.degree, b.lo, b.hi))
    ):
        remaining.setdefault(b, []).append(k)
    cols = [F2Vector()] * canon.n
    for k, b in enumerate(
        sorted(barcode(X), key=lambda b: (b.degree, b.lo, b.hi))
    ):
        slots = remaining.get(b)
        if not slots:
            continue
        kt = slots.pop(0)
        if b.hi == POS_INF:
            cols[canon.index_of(f"i{k}")] = F2Vector(
                [target.index_of(f"i{kt}")]
            )
        else:
            cols[canon.index_of(f"x{k}")] = F2Vector(
                [target.index_of(f"x{kt}")]
            )
            cols[canon.index_of(f"y{k}")] = F2Vector(
                [target.index_of(f"y{kt}")]
            )
    proj = FilteredChainMap(canon, target, cols, 0)
    return compose(proj, fx)


def comparison_map(S: FilteredComplex, T: FilteredComplex):
    """The in-order bar-matching map S -> T between from_barcode-shaped
    objects, when every matched generator moves weakly down in level.
    Returns None when counts differ or some entry would be illegal."""
    BS = sorted(barcode(S), key=lambda b: (b.degree, b.lo, b.hi))
    BT = sorted(barcode(T), key=lambda b: (b.degree, b.lo, b.hi))
    if len(BS) != len(BT):
        return None

    def keyed(B):
        out = {}
        for k, b in enumerate(B):
            out.setdefault((b.degree, b.hi == POS_INF), []).append((b, k))
        return out

    ks, kt = keyed(BS), keyed(BT)
    if set(ks) != set(kt):
        return None
    pairs = []
    for key in ks:
        a, b = ks[key], kt[key]
        if len(a) != len(b):
            return None
        pairs.extend(zip(a, b))
    cols = [F2Vector()] * S.n
    for (bsrc, ksrc), (btgt, ktgt) in pairs:
        if btgt.lo > bsrc.lo:
            return None
        if bsrc.hi == POS_INF:
            cols[S.index_of(f"i{ksrc}")] = F2Vector(
                [T.index_of(f"i{ktgt}")]
            )
        else:
            if btgt.hi > bsrc.hi:
                return None
            cols[S.index_of(f"x{ksrc}")] = F2Vector([T.index_of(f"x{ktgt}")])
            cols[S.index_of(f"y{ksrc}")] = F2Vector([T.index_of(f"y{ktgt}")])
    return FilteredChainMap(S, T, cols, 0)


# ----------------------------------------------------------------------
# decomposition data


@dataclass(frozen=True)
class ConeDecomposition:
    """Ordered witnessed triangles X_i -> Y_{i-1} -> Y_i with Y_0 = 0."""

    steps: tuple  # of (WeightedTriangle, TriangleWitness)

    def linearization(self):
        return tuple(tri.A for tri, _ in self.steps)

    def total_weight(self):
        return sum((Fraction(tri.weight) for tri, _ in self.steps),
                   Fraction(0))

    def target(self):
        if not self.steps:
            return zero_complex()
        return self.steps[-1][0].C


def singleton_triangle(Xp: FilteredComplex):
    """(T^-1 X', 0, X') of weight 0, ending at the given object itself."""
    A = translate_inverse(Xp)
    z = zero_complex()
    K = cone(FilteredChainMap.zero(A, z), 0)
    tri = WeightedTriangle(
        A, z, Xp,
        FilteredChainMap.zero(A, z),
        FilteredChainMap.zero(z, Xp),
        FilteredChainMap.identity(Xp).viewed(Xp, translate(A)),
        Fraction(0),
    )
    phi = FilteredChainMap.identity(Xp).viewed(K.complex, Xp)
    psi = FilteredChainMap.identity(Xp).viewed(Xp, K.complex)
    return tri, TriangleWitness(K.complex, phi, psi)


def singleton_decomposition(Xp: FilteredComplex) -> ConeDecomposition:
    """T^-1 X' -> 0 -> X', the weight-0 decomposition through the slot."""
    return ConeDecomposition((singleton_triangle(Xp),))


def eta_slot_triangle(X: FilteredComplex, r):
    """(T^-1 S^r X, 0, X) of weight r: builds X through its raised copy."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("eta slot triangle needs r >= 0")
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
    """(0, Y, Z) of weight W: attach nothing, pay for the W-iso v."""
    W = Fraction(W)
    # one canonical form of cone(v) both decides and inverts v
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
    wit = TriangleWitness(Y, v, psi)
    return tri, wit


def acyclic_from_zero_step(H: FilteredComplex):
    """(0, 0, H) of weight depth(H); requires H acyclic."""
    B = barcode(H)
    if B.infinite():
        raise ValueError("attached object must be acyclic")
    W = boundary_depth(B)
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


def collapse_acyclic_triangle(Xp: FilteredComplex):
    """(T^-1 X', 0, 0) of weight depth(X'); consumes an acyclic slot."""
    B = barcode(Xp)
    if B.infinite():
        raise ValueError("collapsed object must be acyclic")
    W = boundary_depth(B)
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


# ----------------------------------------------------------------------
# families


@dataclass(frozen=True)
class FamilySpec:
    members: tuple
    closed_shift: bool = False
    closed_T: bool = False
    with_zero: bool = True

    def _matches(self, BX: Barcode, BM: Barcode):
        if len(BX) != len(BM):
            return False
        bx = sorted(BX, key=lambda b: (b.degree, b.lo, b.hi))
        bm = sorted(BM, key=lambda b: (b.degree, b.lo, b.hi))
        if not bx:
            return True
        # derive the allowed offsets from the leading bars, then check
        delta = bx[0].lo - bm[0].lo if self.closed_shift else Fraction(0)
        kdeg = bx[0].degree - bm[0].degree if self.closed_T else 0
        shifted = BM.shifted(delta).degree_translated(-kdeg)
        return BX == shifted

    def contains(self, X: FilteredComplex) -> bool:
        BX = barcode(X)
        if self.with_zero and not BX:
            return True
        return any(self._matches(BX, barcode(m)) for m in self.members)


def parse_family(text: str, load_complex) -> FamilySpec:
    members = []
    closed_shift = closed_T = False
    with_zero = False
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "family":
            seen_header = True
        elif parts[0] == "member":
            members.append(load_complex(parts[1]))
        elif parts[0] == "closed-shift":
            closed_shift = True
        elif parts[0] == "closed-T":
            closed_T = True
        elif parts[0] == "with-zero":
            with_zero = True
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if not seen_header:
        raise ValueError("missing family header")
    return FamilySpec(tuple(members), closed_shift, closed_T, with_zero)


EMPTY_FAMILY = FamilySpec((), with_zero=True)


# ----------------------------------------------------------------------
# validation


def validate_decomposition(D: ConeDecomposition, target, family: FamilySpec,
                           xprime):
    """Chain condition, per-step verification, family membership with a
    single slot barcode-equal to T^-1 X'.  Returns (ok, weight, problems).
    """
    problems = []
    prev = zero_complex()
    for k, (tri, wit) in enumerate(D.steps):
        if tri.B != prev:
            problems.append(f"step {k}: middle object breaks the chain")
        ok, fails = verify_triangle(tri, wit)
        if not ok:
            problems.append(f"step {k}: triangle fails {fails}")
        prev = tri.C
    if barcode(prev) != barcode(target):
        problems.append("final object does not match the target")
    slot_bar = barcode(translate_inverse(xprime))
    slot_candidates = [
        k for k, (tri, _) in enumerate(D.steps)
        if barcode(tri.A) == slot_bar
    ]
    ok_lin = False
    for slot in slot_candidates:
        if all(
            family.contains(tri.A)
            for k, (tri, _) in enumerate(D.steps)
            if k != slot
        ):
            ok_lin = True
            break
    if not ok_lin:
        problems.append(
            "linearization is not family members plus one slot entry"
        )
    return not problems, D.total_weight(), problems


# ----------------------------------------------------------------------
# refinement and sums


def refine(D: ConeDecomposition, i: int, Dp: ConeDecomposition):
    """Replace step i of D by the octahedron-iterated steps of Dp.

    Requires Dp to decompose the apex of step i; the result's weight is
    exactly the sum of the two weights and its linearization inserts
    the translates of Dp's linearization at position i.
    """
    if not 0 <= i < len(D.steps):
        raise IndexError("refine: step index out of range")
    tri_i, _ = D.steps[i]
    if Dp.target() != tri_i.A:
        raise ValueError("refine: inner decomposition does not build X_i")
    current = D.steps[i]
    new_rev = []
    for step in reversed(Dp.steps):
        res = octahedron(step[0], step[1], current[0], current[1])
        new_rev.append((res.d4, res.wit4))
        current = (res.d3, res.wit3)
    new_steps = D.steps[:i] + tuple(reversed(new_rev)) + D.steps[i + 1:]
    return ConeDecomposition(new_steps)


def translate_inverse_decomposition(D: ConeDecomposition):
    """Apply the inverse translation functor to every step."""
    steps = []
    for tri, wit in D.steps:
        A2, B2, C2 = (translate_inverse(Z) for Z in (tri.A, tri.B, tri.C))
        u2 = tri.u.viewed(A2, B2)
        v2 = tri.v.viewed(B2, C2)
        w2 = tri.w.viewed(C2, shift_complex(translate(A2), -tri.weight))
        K2 = translate_inverse(wit.cprime)
        phi2 = wit.phi.viewed(K2, C2)
        psi2 = wit.psi.viewed(shift_complex(C2, tri.weight), K2)
        steps.append(
            (WeightedTriangle(A2, B2, C2, u2, v2, w2, tri.weight),
             TriangleWitness(K2, phi2, psi2))
        )
    return ConeDecomposition(tuple(steps))


def _slot_index(D: ConeDecomposition, xprime):
    slot_bar = barcode(translate_inverse(xprime))
    for k, (tri, _) in enumerate(D.steps):
        if barcode(tri.A) == slot_bar:
            return k
    raise ValueError("decomposition has no slot entry for the target")


def compose_decompositions(D1, x_mid, D2):
    """Through-path witness: refine D1's slot for x_mid with T^-1 D2.

    D1 builds X through x_mid, D2 builds x_mid through x', and the
    result builds X through x' with weight exactly w(D1) + w(D2)."""
    i = _slot_index(D1, x_mid)
    slot_obj = D1.steps[i][0].A  # barcode-equal to T^-1 x_mid
    DpT = translate_inverse_decomposition(D2)
    if DpT.target() != slot_obj:
        adapter = zero_iso_between(DpT.target(), slot_obj)
        tri, wit = zero_apex_step(DpT.target(), slot_obj, adapter,
                                  Fraction(0))
        DpT = ConeDecomposition(DpT.steps + ((tri, wit),))
    return refine(D1, i, DpT)


def sum_decompositions(DA: ConeDecomposition, DB: ConeDecomposition):
    """Decomposition of A (+) B: run DA, then DB padded by the identity
    triangle on A.  Weight adds exactly."""
    steps = list(DA.steps)
    A = DA.target()
    for tri, wit in DB.steps:
        idt, idw = identity_triangle(A)
        steps.append(sum_triangles(idt, idw, tri, wit))
    return ConeDecomposition(tuple(steps))


def merge_slot_decompositions(DA, xprimeA, DB, xprimeB):
    """Single-slot decomposition of A (+) B through T^-1 (A' (+) B').

    The two slot triangles are merged by a direct sum (weight max), all
    other steps are padded by identity triangles; the total weight is
    at most w(DA) + w(DB)."""
    iA = _slot_index(DA, xprimeA)
    iB = _slot_index(DB, xprimeB)
    steps = list(DA.steps[:iA])
    P = DA.steps[iA][0].B
    for tri, wit in DB.steps[:iB]:
        idt, idw = identity_triangle(P)
        steps.append(sum_triangles(idt, idw, tri, wit))
    steps.append(
        sum_triangles(DA.steps[iA][0], DA.steps[iA][1],
                      DB.steps[iB][0], DB.steps[iB][1])
    )
    QC = DB.steps[iB][0].C
    for tri, wit in DA.steps[iA + 1:]:
        idt, idw = identity_triangle(QC)
        steps.append(sum_triangles(tri, wit, idt, idw))
    Afin = DA.target()
    for tri, wit in DB.steps[iB + 1:]:
        idt, idw = identity_triangle(Afin)
        steps.append(sum_triangles(idt, idw, tri, wit))
    return ConeDecomposition(tuple(steps))



def _sum_many(parts):
    """Iterated direct sum with the final inclusion map of every part."""
    total = zero_complex()
    folds = []
    for p in parts:
        s = direct_sum(total, p)
        folds.append(s)
        total = s.complex
    includes = []
    for j in range(len(parts)):
        inc = folds[j].include_right
        for k in range(j + 1, len(parts)):
            inc = compose(folds[k].include_left, inc)
        includes.append(inc)
    return total, includes


def _fold_projections(parts):
    """Projections of the left-fold direct sum onto each part, matching
    the fold performed by repeated sum_triangles calls."""
    folds = []
    run = parts[0]
    for obj in parts[1:]:
        s = direct_sum(run, obj)
        folds.append(s)
        run = s.complex
    total = run
    projs = []
    for idx in range(len(parts)):
        proj = FilteredChainMap.identity(total)
        out = None
        for k in range(len(folds) - 1, -1, -1):
            s = folds[k]
            if idx == k + 1:
                out = compose(s.project_right, proj)
                break
            proj = compose(s.project_left, proj)
        projs.append(out if out is not None else proj)
    return projs


# ----------------------------------------------------------------------
# the matched-pair pipeline


def _pair_block(bx: Bar, by: Bar):
    """Slot block turning the Y-side summand into the shifted X-side
    summand: helper complex H, attaching map u with cone(u) equal to
    S^mu E(bx) plus zero-length bars, and the residual shift mu."""
    delta = bx.degree
    if by.degree != delta:
        raise ValueError("matched bars must share a degree")
    Ep = from_barcode(Barcode([by]))          # Y-side summand
    if bx.hi == POS_INF:
        mu = max(by.lo - bx.lo, Fraction(0))
        H = make_complex(
            [("P", delta, bx.lo + mu), ("Q", delta + 1, by.lo)],
            {"P": ["Q"]},
        )
        u = FilteredChainMap.from_pairs(
            translate_inverse(Ep), H, {"i0": ["Q"]}, 0
        )
    else:
        mu = max(by.lo - bx.lo, by.hi - bx.hi, Fraction(0))
        H = make_complex(
            [
                ("P", delta - 1, bx.hi + mu),
                ("Q", delta, by.hi),
                ("R", delta, bx.lo + mu),
                ("S", delta + 1, by.lo),
            ],
            {"P": ["Q", "R"], "Q": ["S"], "R": ["S"]},
        )
        u = FilteredChainMap.from_pairs(
            translate_inverse(Ep), H, {"y0": ["Q"], "x0": ["S"]}, 0
        )
    return H, u, mu


def prop51_pipeline(X, Y, family: FamilySpec = EMPTY_FAMILY):
    """One-sided witnessed bound for building X through the slot Y,
    driven by the exact bottleneck matching of their barcodes.

    Returns (bound, decomposition, d_bot, constant) where the bound is
    at most (4 * min(#bars) + 1) * d_bot; the decomposition validates
    against any family containing zero.  Returns (inf, None, inf, C)
    when the infinite-bar counts disagree."""
    BX, BY = barcode(X), barcode(Y)
    cap = 4 * min(len(BX), len(BY)) + 1
    tau, wit = bottleneck(BX, BY)
    if tau == POS_INF:
        return POS_INF, None, POS_INF, cap
    blocks = []  # (slot triangle, witness, H, output, down map, mu)
    for bx, by in wit.matched:
        H, u, mu = _pair_block(bx, by)
        K = cone(u, 0)
        tri, twit = triangle_from_morphism(u)
        shifted = from_barcode(Barcode([bx]).shifted(mu))
        proj = canonical_projection(K.complex, shifted)
        tgt = from_barcode(Barcode([bx]))
        down = compose(
            FilteredChainMap.identity(tgt).viewed(shifted, tgt), proj
        )
        blocks.append((tri, twit, H, K.complex, down, tgt, mu))
    shorts_y = list(wit.short2)
    shorts_x = list(wit.short1)
    SX = from_barcode(Barcode(shorts_x))
    steps = []
    # merged slot step: pair blocks + collapsed Y-shorts + X-short carry
    slot_parts = [(tri, twit) for tri, twit, *_ in blocks]
    for bs in shorts_y:
        slot_parts.append(collapse_acyclic_triangle(from_barcode(
            Barcode([bs]))))
    if not SX.is_zero() or not slot_parts:
        slot_parts.append(identity_triangle(SX))
    merged = slot_parts[0]
    for part in slot_parts[1:]:
        merged = sum_triangles(merged[0], merged[1], part[0], part[1])
    H_tot = merged[0].B
    if not H_tot.is_zero():
        steps.append(acyclic_from_zero_step(H_tot))
    steps.append(merged)
    M_tot = merged[0].C

    # final down move, block-diagonal over the component fold of M_tot
    n_pairs = len(blocks)
    targets = [b[5] for b in blocks] + [SX]
    total, includes = _sum_many(targets)
    comp_objs = [tri.C for tri, _ in slot_parts]
    comp_projs = _fold_projections(comp_objs)
    down_total = FilteredChainMap.zero(M_tot, total)
    for j in range(len(slot_parts)):
        if j < n_pairs:
            dm = compose(blocks[j][4], comp_projs[j])
            tgt_idx = j
        elif j < n_pairs + len(shorts_y):
            continue  # collapsed blocks output zero
        else:
            dm = comp_projs[j]  # the X-short carry maps identically
            tgt_idx = n_pairs
        down_total = down_total + compose(includes[tgt_idx], dm)
    W_fin = max([b[6] for b in blocks], default=Fraction(0))
    if not (M_tot.is_zero() and total.is_zero()):
        steps.append(zero_apex_step(M_tot, total, down_total, W_fin))
    D = ConeDecomposition(tuple(steps))
    bound = D.total_weight()
    if bound > cap * tau:
        raise AssertionError("pipeline exceeded its stated budget")
    return bound, D, tau, cap


# ----------------------------------------------------------------------
# upper bounds for the fragmentation pseudo-metrics


def _eta_shift_candidate(BX: Barcode, BXp: Barcode):
    """r >= 0 with B(X') = B(X) + r, if any."""
    if len(BX) != len(BXp) or not len(BX):
        return None
    r = BXp.bars[0].lo - BX.bars[0].lo
    if r < 0:
        return None
    if BX.shifted(r) == BXp:
        return r
    return None


def _cylinder_helper(Xp: FilteredComplex, k):
    """T^-1 of the eta_k cone over X': used to raise the slot by k."""
    k = Fraction(k)
    gens = []
    bnd = {}
    for g in Xp.gens:
        gens.append((f"P.{g.gid}", g.degree, g.ell + k))
        gens.append((f"Q.{g.gid}", g.degree + 1, g.ell))
    for i, g in enumerate(Xp.gens):
        others = [Xp.gens[j].gid for j in Xp.diff[i]]
        bnd[f"P.{g.gid}"] = [f"P.{o}" for o in others] + [f"Q.{g.gid}"]
        bnd[f"Q.{g.gid}"] = [f"Q.{o}" for o in others]
    H = make_complex(gens, bnd)
    u = FilteredChainMap.from_pairs(
        translate_inverse(Xp), H,
        {g.gid: [f"Q.{g.gid}"] for g in Xp.gens}, 0,
    )
    return H, u


def _riso_strategy(X, Xp, k):
    """Witness delta(X, X') <= k + depth(cone(m)) through the raised
    comparison m: S^k X' -> X, when the in-order comparison is legal."""
    k = Fraction(k)
    Xc = canonical_object(X)
    Spk = from_barcode(barcode(Xp).shifted(k))
    m = comparison_map(Spk, Xc)
    if m is None:
        return None
    Km = cone(m, 0)
    mbar = barcode(Km.complex)
    if mbar.infinite():
        return None
    rk = boundary_depth(mbar)
    steps = []
    Xpc = canonical_object(Xp)
    if k == 0:
        steps.append(singleton_triangle(Xpc))
        reached = Xpc
        down = compose(m, zero_iso_between(reached, Spk))
    else:
        H, u = _cylinder_helper(Xpc, k)
        Ku = cone(u, 0)
        if barcode(Ku.complex).without_zero_length() != barcode(
                Spk).without_zero_length():
            return None
        steps.append(acyclic_from_zero_step(H))
        steps.append(triangle_from_morphism(u))
        reached = Ku.complex
        down = compose(m, canonical_projection(reached, Spk))
    final_target = Xc
    steps.append(zero_apex_step(reached, final_target, down, rk))
    return ConeDecomposition(tuple(steps))


def delta_upper(X, Xp, family: FamilySpec = EMPTY_FAMILY, via=(),
                grid=None):
    """Certified upper bound for the one-sided fragmentation distance
    of X through the slot X'; returns (value, decomposition or None).

    Strategies: the weight-0 slot when barcodes agree; the eta slot for
    pure shifts; raised in-order comparison maps over a finite shift
    grid; the bottleneck-driven matched-pair pipeline; and through-path
    composition via the objects in `via`.
    """
    BX, BXp = barcode(X), barcode(Xp)
    best = (POS_INF, None)

    def consider(D):
        nonlocal best
        if D is None:
            return
        wgt = D.total_weight()
        if wgt < best[0]:
            best = (wgt, D)

    if BX == BXp:
        consider(singleton_decomposition(canonical_object(Xp)))
    r = _eta_shift_candidate(BX, BXp)
    if r is not None:
        tri, wit = eta_slot_triangle(canonical_object(X), r)
        consider(ConeDecomposition(((tri, wit),)))
    if grid is None:
        levels = sorted({g.ell for Z in (X, Xp) for g in Z.gens})
        grid = sorted(
            {Fraction(0)}
            | {a - b for a in levels for b in levels if a - b > 0}
        )
    for k in grid:
        consider(_riso_strategy(X, Xp, k))
    bnd, D51, _, _ = prop51_pipeline(X, Xp, family)
    if D51 is not None:
        consider(D51)
    for mid in via:
        v1, D1 = delta_upper(X, mid, family)
        v2, D2 = delta_upper(mid, Xp, family)
        if D1 is not None and D2 is not None:
            consider(compose_decompositions(D1, mid, D2))
    return best


def d_frag_upper(X, Xp, family: FamilySpec = EMPTY_FAMILY):
    """Symmetrized witnessed bound max(delta(X, X'), delta(X', X))."""
    a, _ = delta_upper(X, Xp, family)
    b, _ = delta_upper(Xp, X, family)
    return max(a, b)


def underline_delta_upper(X, Xp, family: FamilySpec = EMPTY_FAMILY):
    """Upper bound for the chain variant starting at Y_0 = X' with all
    apexes in the family.  Requires zero in the family.  Returns
    (value, chain of steps); the chain converts into a slot-style
    witness, so this bound always dominates delta_upper."""
    if not family.with_zero:
        raise ValueError("the chain variant needs zero in the family")
    BX, BXp = barcode(X), barcode(Xp)
    if BX == BXp:
        return Fraction(0), ()
    if not BXp and not BX.infinite():
        # attaching everything over the zero apex in one move
        W = boundary_depth(BX)
        Xc = canonical_object(X)
        step = zero_apex_step(
            zero_complex(), Xc, FilteredChainMap.zero(zero_complex(), Xc), W
        )
        return W, (step,)
    m = comparison_map(canonical_object(Xp), canonical_object(X))
    if m is not None:
        K = cone(m, 0)
        b = barcode(K.complex)
        if not b.infinite():
            W = boundary_depth(b)
            step = zero_apex_step(m.source, m.target, m, W)
            return W, (step,)
    return POS_INF, None


# ----------------------------------------------------------------------
# exhaustive small-instance oracle


def _state_of(X) -> Barcode:
    return barcode(X).without_zero_length()


def _iso_move_cost(BS: Barcode, BT: Barcode):
    """Least W admitting a W-iso from_barcode(BS) -> from_barcode(BT)
    within the per-degree in-order matching family (both endpoints move
    weakly down by at most W; unmatched bars have length <= W)."""
    by_deg = {}
    for b in BS:
        by_deg.setdefault(b.degree, ([], []))[0].append(b)
    for b in BT:
        by_deg.setdefault(b.degree, ([], []))[1].append(b)
    total = Fraction(0)
    for deg, (src, tgt) in by_deg.items():
        src_inf = [b for b in src if not b.is_finite()]
        tgt_inf = [b for b in tgt if not b.is_finite()]
        if len(src_inf) != len(tgt_inf):
            return POS_INF
        best = POS_INF
        src_fin = [b for b in src if b.is_finite()]
        tgt_fin = [b for b in tgt if b.is_finite()]
        n, m = len(src_fin), len(tgt_fin)
        for kset in range(min(n, m), -1, -1):
            for src_sel in itertools.combinations(range(n), kset):
                for tgt_sel in itertools.permutations(range(m), kset):
                    cost = Fraction(0)
                    okm = True
                    for a, b in zip(src_sel, tgt_sel):
                        s, t = src_fin[a], tgt_fin[b]
                        if t.lo > s.lo or t.hi > s.hi:
                            okm = False
                            break
                        cost = max(cost, s.lo - t.lo, s.hi - t.hi)
                    if not okm:
                        continue
                    for a in range(n):
                        if a not in src_sel:
                            cost = max(cost, src_fin[a].length())
                    for b in range(m):
                        if b not in tgt_sel:
                            cost = max(cost, tgt_fin[b].length())
                    best = min(best, cost)
        infcost = Fraction(0)
        srt_s = sorted(src_inf, key=lambda b: b.lo)
        srt_t = sorted(tgt_inf, key=lambda b: b.lo)
        okinf = True
        for s, t in zip(srt_s, srt_t):
            if t.lo > s.lo:
                okinf = False
                break
            infcost = max(infcost, s.lo - t.lo)
        if not okinf:
            return POS_INF
        if best == POS_INF and (src_fin or tgt_fin):
            return POS_INF
        if best == POS_INF:
            best = Fraction(0)
        total = max(total, best, infcost)
    return total


def delta_exact_small(X, Xp, family: FamilySpec = EMPTY_FAMILY,
                      depth_budget=3, weight_budget=Fraction(100)):
    """Branch-and-bound minimum over a documented decomposition family.

    Moves: cone attachments over family members (and grid shifts when
    the family is shift-closed) or over the slot; acyclic single-bar
    attachments with endpoints on the level grid; in-order matched
    down-moves.  The search result is reconciled with the constructive
    strategies, so the value is always a certified upper bound and
    never exceeds delta_upper.  Returns (value, note).
    """
    weight_budget = Fraction(weight_budget)
    target_state = _state_of(X)
    slot_state_complex = translate_inverse(canonical_object(Xp))
    levels = sorted(
        {g.ell for Z in (X, Xp, *family.members) for g in Z.gens}
    )
    diffs = sorted(
        {Fraction(0)}
        | {a - b for a in levels for b in levels if a - b > 0}
    )
    pool_levels = sorted(
        {lv for lv in levels}
        | {lv + d for lv in levels for d in diffs}
    )[:12]
    degrees = sorted(
        {g.degree for Z in (X, Xp) for g in Z.gens} | {0}
    )
    deg_pool = sorted(set(degrees) | {d + 1 for d in degrees})
    bar_pool = [
        Bar(d, a, b)
        for d in deg_pool
        for a in pool_levels
        for b in pool_levels
        if a < b
    ]

    best = [POS_INF]
    seen = {}

    def search(state: Barcode, used, depth, spent):
        key = (state, used)
        if spent >= best[0] or spent > weight_budget:
            return
        prev = seen.get(key)
        if prev is not None and prev <= spent:
            return
        seen[key] = spent
        if used and state == target_state:
            best[0] = min(best[0], spent)
            return
        if used:
            final = _iso_move_cost(state, target_state)
            if is_finite(final):
                candidate = spent + final
                if candidate < best[0] and candidate <= weight_budget:
                    best[0] = candidate
        if depth >= depth_budget:
            return
        cur = from_barcode(state)
        apexes = []
        if not used:
            apexes.append((slot_state_complex, True))
        for memb in family.members:
            apexes.append((canonical_object(memb), used))
            if family.closed_shift:
                for d in diffs[1:3]:
                    apexes.append(
                        (from_barcode(barcode(memb).shifted(d)), used)
                    )
        for apex, new_used in apexes:
            for u in enumerate_closed_maps(apex, cur, cap=512):
                K = cone(u, 0)
                search(_state_of(K.complex), new_used, depth + 1, spent)
        for b in bar_pool:
            newstate = Barcode(tuple(state) + (b,))
            search(newstate, used, depth + 1, spent + b.length())

    search(Barcode(), False, 0, Fraction(0))
    # search holds itself through its closure; break that cycle so the
    # memo goes with this frame, not at the next cyclic collection
    del search
    upper, _ = delta_upper(X, Xp, family)
    value = min(best[0], upper)
    note = "search" if best[0] <= upper else "strategy"
    if value == POS_INF:
        return POS_INF, "budget exceeded"
    return value, note
