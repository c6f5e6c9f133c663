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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate
from math import lcm

from .rationals import POS_INF, is_finite
from .homsolve import enumerate_closed_maps
from .complexes import (
    FilteredChainMap,
    FilteredComplex,
    _directives,
    _inclusion,
    _projection,
    compose,
    cone,
    eta,
    shift_complex,
    translate_inverse,
    zero_complex,
)
from .barcodes import (
    Bar,
    Barcode,
    _Ends,
    _from_bars,
    _kuhn,
    _least_feasible,
    _split_by_degree,
    _summands,
    barcode,
    boundary_depth,
    bottleneck,
    canonical_form,
    from_barcode,
)
from .f2linalg import _bits, invert
from .tpc import (
    _identity_step,
    _inverse_step,
    _reanchored,
    identity_triangle,
    level_grid,
    octahedron,
    sum_triangles,
    sum_triangles_many,
    triangle_from_morphism,
    verify_triangle,
)


# ----------------------------------------------------------------------
# canonical isomorphisms between barcode-equal objects


def iso_to_canonical(X: FilteredComplex):
    """Strictly invertible level-preserving chain iso X -> canonical,
    read off a canonical form (B, W) of X: the k-th summand of X, in
    bar order, goes to the k-th summand of from_barcode(B)."""
    B, W = canonical_form(X)
    deg, lev = X._deg, X._lev

    def bar(s):
        # (degree, lo, infinite?, hi) on the ints sorts as the bars do
        return deg[s[0]], lev[s[0]], not s[1:], lev[s[-1]]

    # a stable sort: equal bars keep the witness's order
    summands = sorted([*W.pairs, *((g,) for g in W.unpaired)], key=bar)
    assign, back_cols = [0] * X.n, [None] * X.n
    for s, t in zip(summands, _summands(B)):
        for nb, ci in zip(s, t):
            assign[nb] = ci
            back_cols[ci] = W.matrix.column(nb)
    cols = []
    for col in invert(W.matrix).columns:
        m = 0
        for nb in _bits(col):
            m ^= 1 << assign[nb]
        cols.append(m)
    canon = from_barcode(B)
    return (FilteredChainMap(X, canon, cols, 0),
            FilteredChainMap(canon, X, back_cols, 0))


def zero_iso_between(X: FilteredComplex, Y: FilteredComplex):
    """A 0-isomorphism X -> Y between barcode-equal objects."""
    fx, _ = iso_to_canonical(X)
    _, by = iso_to_canonical(Y)
    # from_barcode is injective: equal canonical objects, equal barcodes
    if fx.target != by.source:
        raise ValueError("objects are not barcode-equal")
    return compose(by, fx)


def _in_order_pairs(BS: Barcode, BT: Barcode):
    """The in-order matching of two barcodes: per (degree, infinite?)
    class, the k-th bar of BS in bar order goes to the k-th of BT.
    Returns ((s, ks), (t, kt)) pairs of bars and their indices in that
    order, or None when counts differ."""
    def keyed(B):
        out = {}
        for k, b in enumerate(B):
            out.setdefault((b.degree, not b.is_finite()), []).append((b, k))
        return out

    ks, kt = keyed(BS), keyed(BT)
    if len(BS) != len(BT) or any(len(kt.get(c, ())) != len(a)
                                 for c, a in ks.items()):
        return None
    return [p for c in ks for p in zip(ks[c], kt[c])]


def _scaled(B: Barcode, den):
    """B with every endpoint times den, as an int; den clears them all.
    A positive factor keeps the bar order."""
    return Barcode._of_sorted(tuple(
        Bar(b.degree, int(b.lo * den),
            int(b.hi * den) if b.is_finite() else b.hi) for b in B))


def comparison_map(BS: Barcode, BT: Barcode):
    """The in-order bar-matching map from_barcode(BS) -> from_barcode(BT),
    when every matched generator moves weakly down in level.  Returns
    None when counts differ or some entry would be illegal."""
    pairs = _in_order_pairs(BS, BT)
    if pairs is None or any(t.lo > s.lo or (s.is_finite() and t.hi > s.hi)
                            for (s, _), (t, _) in pairs):
        return None
    S = from_barcode(BS)
    src, tgt = _summands(BS), _summands(BT)
    cols = [0] * S.n
    for (_, ksrc), (_, ktgt) in pairs:
        for i, j in zip(src[ksrc], tgt[ktgt]):
            cols[i] = 1 << j
    return FilteredChainMap(S, from_barcode(BT), cols, 0)


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
    return eta_slot_triangle(Xp, 0)


def singleton_decomposition(Xp: FilteredComplex) -> ConeDecomposition:
    """T^-1 X' -> 0 -> X', the weight-0 decomposition through the slot."""
    return ConeDecomposition((singleton_triangle(Xp),))


def eta_slot_triangle(X: FilteredComplex, r):
    """(T^-1 S^r X, 0, X) of weight r: builds X through its raised copy."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("eta slot triangle needs r >= 0")
    return _identity_step(FilteredChainMap.zero(
        translate_inverse(shift_complex(X, r)), zero_complex()), r, X)


def zero_apex_step(v, W):
    """(0, Y, Z) of weight W for a W-isomorphism v: Y -> Z: attach
    nothing, pay for v."""
    step = _inverse_step(FilteredChainMap.zero(zero_complex(), v.source), v,
                         Fraction(W))
    if step is None:
        raise ValueError("zero_apex_step needs a W-isomorphism")
    return step


def acyclic_from_zero_step(H: FilteredComplex):
    """(0, 0, H) of weight depth(H); requires H acyclic."""
    z = zero_complex()
    step = _inverse_step(FilteredChainMap.zero(z, z),
                         FilteredChainMap.zero(z, H))
    if step is None:
        raise ValueError("attached object must be acyclic")
    return step


def collapse_acyclic_triangle(Xp: FilteredComplex):
    """(T^-1 X', 0, 0) of weight depth(X'); consumes an acyclic slot."""
    z = zero_complex()
    u = FilteredChainMap.zero(translate_inverse(Xp), z)
    step = _inverse_step(u, FilteredChainMap.zero(cone(u, 0), z))
    if step is None:
        raise ValueError("collapsed object must be acyclic")
    return step


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
        if not BX:
            return True
        bx, bm = BX.bars[0], BM.bars[0]
        # derive the allowed offsets from the leading bars, then check
        delta = bx.lo - bm.lo if self.closed_shift else Fraction(0)
        kdeg = bx.degree - bm.degree if self.closed_T else 0
        shifted = BM.shifted(delta).degree_translated(-kdeg)
        return BX == shifted

    @cached_property
    def _member_barcodes(self):
        """Each member's barcode, made once per family."""
        return tuple(barcode(m) for m in self.members)

    def has_zero(self) -> bool:
        """Does the family contain the zero object?"""
        return self.with_zero or not all(self._member_barcodes)

    def contains(self, X: FilteredComplex) -> bool:
        return self._holds(barcode(X))

    def _holds(self, BX: Barcode) -> bool:
        """contains, for an object named by its barcode."""
        if self.with_zero and not BX:
            return True
        return any(self._matches(BX, BM) for BM in self._member_barcodes)


_FAMILY_OPERANDS = {"family": 0, "member": 1, "closed-shift": 0,
                    "closed-T": 0, "with-zero": 0}


def parse_family(text: str, load_complex) -> FamilySpec:
    members = []
    flags = set()
    for lineno, parts in _directives(text):
        want = _FAMILY_OPERANDS.get(parts[0])
        if want is None:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
        if len(parts) != want + 1:
            raise ValueError(
                f"line {lineno}: wrong operand count for {parts[0]}")
        if parts[0] == "member":
            members.append(load_complex(parts[1]))
        flags.add(parts[0])
    if "family" not in flags:
        raise ValueError("missing family header")
    return FamilySpec(tuple(members), "closed-shift" in flags,
                      "closed-T" in flags, "with-zero" in flags)


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
    if not _linearization_ok(D, family, barcode(xprime)):
        problems.append(
            "linearization is not family members plus one slot entry"
        )
    return not problems, D.total_weight(), problems


def _linearization_ok(D: ConeDecomposition, family: FamilySpec, BXp):
    """Is every linearization entry a family member, but for one slot
    entry barcode-equal to T^-1 X'?  X' is named by its barcode."""
    slot_bar = BXp.degree_translated(-1)
    bars = [barcode(E) for E in D.linearization()]
    outside = [B for B in bars if not family._holds(B)]
    # the slot entry may be the one entry outside the family
    return outside == [slot_bar] if outside else slot_bar in bars


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
    """Apply the inverse translation functor to every step.  No matrix
    changes, so each witness keeps its certificate."""
    return ConeDecomposition(tuple(
        _reanchored(tri, wit, *map(translate_inverse, (
            tri.A, tri.B, tri.C, wit.cprime)), tri.weight)
        for tri, wit in D.steps))


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
        DpT = ConeDecomposition(
            DpT.steps + (zero_apex_step(adapter, Fraction(0)),))
    return refine(D1, i, DpT)


def _padded(steps, Z, left=True):
    """Each step summed with the identity triangle on Z, on the left
    (Z (+) step) or on the right (step (+) Z)."""
    out = []
    for tri, wit in steps:
        idt, idw = identity_triangle(Z)
        out.append(sum_triangles(idt, idw, tri, wit) if left
                   else sum_triangles(tri, wit, idt, idw))
    return out


def sum_decompositions(DA: ConeDecomposition, DB: ConeDecomposition):
    """Decomposition of A (+) B: run DA, then DB padded by the identity
    triangle on A.  Weight adds exactly."""
    return ConeDecomposition(DA.steps + tuple(_padded(DB.steps, DA.target())))


def merge_slot_decompositions(DA, xprimeA, DB, xprimeB):
    """Single-slot decomposition of A (+) B through T^-1 (A' (+) B').

    The two slot triangles are merged by a direct sum (weight max), all
    other steps are padded by identity triangles; the total weight is
    at most w(DA) + w(DB)."""
    iA = _slot_index(DA, xprimeA)
    iB = _slot_index(DB, xprimeB)
    (tA, wA), (tB, wB) = DA.steps[iA], DB.steps[iB]
    steps = list(DA.steps[:iA])
    steps += _padded(DB.steps[:iB], tA.B)
    steps.append(sum_triangles(tA, wA, tB, wB))
    steps += _padded(DA.steps[iA + 1:], tB.C, left=False)
    steps += _padded(DB.steps[iB + 1:], DA.target())
    return ConeDecomposition(tuple(steps))


# ----------------------------------------------------------------------
# the matched-pair pipeline


def _residual_shift(bx: Bar, by: Bar):
    """How far _pipeline raises bx so that by maps onto it."""
    if not bx.is_finite():
        return max(by.lo - bx.lo, Fraction(0))
    return max(by.lo - bx.lo, by.hi - bx.hi, Fraction(0))


def prop51_pipeline(X, Y):
    """One-sided witnessed bound for building X through the slot Y,
    driven by the exact bottleneck matching of their barcodes.

    Returns (bound, decomposition, d_bot, constant) where the bound is
    at most (4 * min(#bars) + 1) * d_bot; the decomposition validates
    against any family containing zero.  Returns (inf, None, inf, C)
    when the infinite-bar counts disagree.  All matched pairs bx <- by,
    in matching order, make one helper H, the cone of T^-1 S^mu E(bx) ->
    E' = T^-1 E(by), and one slot triangle, the cone triangle of E' -> H."""
    return _pipeline(barcode(X), barcode(Y))


def _pipeline_cost(tau, wit):
    """The weight of _pipeline's decomposition for the bottleneck
    matching (tau, wit), from its bars alone; inf when there is none.

    The weight is the depth of the helper attached first, plus the
    longest collapsed Y-short, plus the largest residual shift mu paid
    by the final down move.  The helper is the sum of the X-short carry
    and the pair cone H, whose bars are, per matched pair,
    [by.lo, bx.lo + mu) for infinite bx, else [by.lo, min(by.hi,
    bx.lo + mu)) and [max(by.hi, bx.lo + mu), bx.hi + mu)."""
    if tau == POS_INF:
        return POS_INF
    helper = [b.length() for b in wit.short1]
    mus = []
    for bx, by in wit.matched:
        mu = _residual_shift(bx, by)
        mus.append(mu)
        if not bx.is_finite():
            helper.append(bx.lo + mu - by.lo)
        else:
            helper.append(min(by.hi, bx.lo + mu) - by.lo)
            helper.append(bx.hi + mu - max(by.hi, bx.lo + mu))
    return (max(helper, default=Fraction(0))
            + max((b.length() for b in wit.short2), default=Fraction(0))
            + max(mus, default=Fraction(0)))


def _pipeline(BX: Barcode, BY: Barcode, match=None):
    """prop51_pipeline on barcodes; `match` is bottleneck(BX, BY) when
    the caller already holds it."""
    cap = 4 * min(len(BX), len(BY)) + 1
    tau, wit = match or bottleneck(BX, BY)
    if tau == POS_INF:
        return POS_INF, None, POS_INF, cap
    bxs = [bx for bx, _ in wit.matched]
    mus = [_residual_shift(bx, by) for bx, by in wit.matched]
    shorts_x = sorted(wit.short1)  # in bar order
    SX = _from_bars(shorts_x)
    # the slot step sums the pair cone, the collapsed Y-shorts and the
    # X-short carry; cone(u) is E' (+) S^mu E(bx) (+) T E', block by block
    parts = []
    if bxs:
        # an infinite hi stays infinite when raised
        Es = translate_inverse(_from_bars([
            Bar(b.degree, b.lo + mu, b.hi + mu) for b, mu in zip(bxs, mus)]))
        Ep = translate_inverse(_from_bars([by for _, by in wit.matched]))
        H = cone(_inclusion(Es, Ep, 0), 0)
        parts.append(triangle_from_morphism(_inclusion(Ep, H, 0)))
    if wit.short2:
        parts.append(collapse_acyclic_triangle(_from_bars(wit.short2)))
    if not SX.is_zero() or not parts:
        parts.append(identity_triangle(SX))
    merged = sum_triangles_many(parts)
    tri = merged[0]
    steps = [] if tri.B.is_zero() else [acyclic_from_zero_step(tri.B)]
    steps.append(merged)
    # final down move: off its middle block, cone(u) is the cone of an
    # identity, all of whose bars have zero length, so down is the block
    # projection onto the bx bars, then the identity on the X-short
    # carry (the collapsed Y-shorts have no generators)
    total = _from_bars(bxs + shorts_x)
    n = total.n - SX.n
    cols = [0] * n + [1 << i for i in range(n)] + [0] * n
    cols += [1 << (n + i) for i in range(SX.n)]
    if not (tri.C.is_zero() and total.is_zero()):
        steps.append(zero_apex_step(FilteredChainMap(tri.C, total, cols, 0),
                                    max(mus, default=Fraction(0))))
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


def _riso_strategy(BX: Barcode, BXp: Barcode, k):
    """Witness delta(X, X') <= k + depth(cone(m)) through the raised
    comparison m: S^k X' -> X, when the in-order comparison is legal;
    X and X' are named by their barcodes."""
    k = Fraction(k)
    m = comparison_map(BXp.shifted(k), BX)
    if m is None:
        return None
    Km = cone(m, 0)
    mbar = barcode(Km)
    if mbar.infinite():
        return None
    rk = boundary_depth(mbar)
    Xpc = from_barcode(BXp)
    if k == 0:
        steps = [singleton_triangle(Xpc)]
        down = m  # m starts at X' itself
    else:
        # the cylinder H = T^-1 cone(eta_k) over X' raises the slot by k:
        # u includes its T^-1 X' block, and cone(u) is T^-1 X' (+) S^k X'
        # (+) X', whose S^k X' block is m's source
        TXp = translate_inverse(Xpc)
        H = cone(eta(TXp, k), 0)
        tri, twit = triangle_from_morphism(_inclusion(TXp, H, 0))
        steps = [acyclic_from_zero_step(H), (tri, twit)]
        down = compose(m, _projection(tri.C, m.source, Xpc.n))
    steps.append(zero_apex_step(down, rk))
    return ConeDecomposition(tuple(steps))


def _riso_costs(BX: Barcode, BXp: Barcode, grid):
    """(weight, k) of _riso_strategy(X, X', k) for each shift k of the
    grid at which that strategy gives a decomposition, in grid order,
    from the barcodes alone.

    The weight is the cylinder raise plus depth(cone(m)).  The raise is
    the depth of the eta_k cone over X': max over the bars of X' of
    min(k, length), 0 when k = 0.  The comparison m: S^k X' -> X is a
    sum of single-bar maps s -> t, so cone(m) is the sum of their cones:
    of depth s.lo - t.lo for infinite bars, the longer of the two bars
    when t ends before s starts (the map is then zero on persistence),
    and max(s.lo - t.lo, s.hi - t.hi) otherwise.

    A shift keeps the bar order in each class, so X' unshifted is paired
    once, in integer levels.  Then m exists iff k >= t.lo - s.lo and
    k >= t.hi - s.hi, and a pair's cone has depth k + max(s.lo - t.lo,
    s.hi - t.hi) until k reaches t.hi - s.lo, then the longer bar; one
    bisection scores a shift k >= 0.
    """
    den = lcm(*(k.denominator for k in grid), *(
        x.denominator for b in (*BX, *BXp) for x in b[1:2 + b.is_finite()]))
    SXp = _scaled(BXp, den)
    pairs = _in_order_pairs(SXp, _scaled(BX, den))
    if pairs is None:
        return
    ks = [int(k * den) for k in grid]
    low = -max(ks, default=0)  # k + low <= 0 at every shift: no pair
    floors, top, rows = [low], [low], []
    for (s, _), (t, _) in pairs:
        if s.is_finite():
            floors.append(max(t.lo - s.lo, t.hi - s.hi))
            rows.append((t.hi - s.lo, max(s.lo - t.lo, s.hi - t.hi),
                         max(t.length(), s.length())))
        else:
            floors.append(t.lo - s.lo)
            top.append(s.lo - t.lo)
    rows.sort()
    turns = [r[0] for r in rows]
    # tops[i]: the largest offset of the pairs that still overlap when
    # rows[:i] have turned (rows[i:] and the infinite pairs); longest[i]:
    # the longest bar of rows[:i]
    tops = [*accumulate((r[1] for r in reversed(rows)), max,
                        initial=max(top))][::-1]
    longest = [*accumulate((r[2] for r in rows), max, initial=0)]
    cap = max((b.length() for b in SXp), default=0)
    least = max(floors)
    for k, kk in zip(grid, ks):
        if kk >= least:
            i = bisect_right(turns, kk)
            depth = max(longest[i], kk + tops[i])
            yield Fraction(min(kk, cap) + depth, den), k


def delta_upper(X, Xp, family: FamilySpec = EMPTY_FAMILY, via=()):
    """Certified upper bound for the one-sided fragmentation distance
    of X through the slot X'; returns (value, decomposition or None).

    Strategies: the weight-0 slot when barcodes agree; the eta slot for
    pure shifts; raised in-order comparison maps over the shift grid
    `level_grid(X, X')`; the bottleneck-driven matched-pair pipeline;
    and through-path composition via the objects in `via`, each leg
    reusing the barcodes already held.  Every strategy is scored from
    barcodes (a `via` path by its two legs' values), and the scores are
    built lightest first, ties in that order, until one passes the
    family rule: when the family lacks zero, a decomposition counts
    only if its linearization passes the rule `validate_decomposition`
    applies, family members plus one slot.
    """
    return _delta_upper(X, Xp, barcode(X), barcode(Xp), family, via)


def _delta_upper(X, Xp, BX, BXp, family, via=()):
    """delta_upper with the barcodes of X and X' given."""
    cands = []  # (score, build), in tie order
    if BX == BXp:
        cands.append((Fraction(0),
                      lambda: singleton_decomposition(from_barcode(BXp))))
    r = _eta_shift_candidate(BX, BXp)
    if r is not None:
        cands.append((r, lambda: ConeDecomposition(
            (eta_slot_triangle(from_barcode(BX), r),))))
    riso = list(_riso_costs(BX, BXp, level_grid(X, Xp)))
    if riso:
        # min keeps the first lightest shift
        cost, k = min(riso, key=lambda ck: ck[0])
        cands.append((cost, partial(_riso_strategy, BX, BXp, k)))
    match = bottleneck(BX, BXp)
    cands.append((_pipeline_cost(*match),
                  lambda: _pipeline(BX, BXp, match)[1]))
    for mid in via:
        BM = barcode(mid)
        w1, D1 = _delta_upper(X, mid, BX, BM, family)
        w2, D2 = _delta_upper(mid, Xp, BM, BXp, family)
        if D1 is not None and D2 is not None:
            cands.append((w1 + w2,
                          partial(compose_decompositions, D1, mid, D2)))
    lacks_zero = not family.has_zero()
    for score, build in sorted(cands, key=lambda c: c[0]):
        if score == POS_INF:
            break
        D = build()
        if D is None or D.total_weight() != score:
            raise AssertionError("a strategy built off its score")
        if not lacks_zero or _linearization_ok(D, family, BXp):
            return score, D
    return POS_INF, None


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
    if not family.has_zero():
        raise ValueError("the chain variant needs zero in the family")
    BX, BXp = barcode(X), barcode(Xp)
    if BX == BXp:
        return Fraction(0), ()
    if not BXp and not BX.infinite():
        # attaching everything over the zero apex in one move
        step = acyclic_from_zero_step(from_barcode(BX))
        return step[0].weight, (step,)
    for W, _ in _riso_costs(BX, BXp, (0,)):
        return W, (zero_apex_step(comparison_map(BXp, BX), W),)
    return POS_INF, None


# ----------------------------------------------------------------------
# exhaustive small-instance oracle


def _iso_move_cost(BS: Barcode, BT: Barcode):
    """Least W admitting a W-iso from_barcode(BS) -> from_barcode(BT)
    within the per-degree in-order matching family (both endpoints move
    weakly down by at most W; unmatched bars have length <= W).

    A pair s -> t is legal at W when t.lo lies in [s.lo - W, s.lo] and
    t.hi in [s.hi - W, s.hi]; an infinite hi is the float inf, so
    infinite bars meet only infinite ones.  So, as in `bottleneck`, a
    bar's partners at W are two range masks ANDed, and by the
    Mendelsohn-Dulmage theorem W is feasible iff, in every degree, each
    side's bars longer than W can be matched into the other side.
    Feasibility grows with W, and the least feasible W is a bar length
    or a pair cost, a gap between a lo of BS and one of BT or between
    their finite his; a binary search over those finds it."""
    ds, dt = _split_by_degree(BS), _split_by_degree(BT)
    parts = []
    weights = {0}
    for deg in set(ds) | set(dt):
        src = [b for side in ds.get(deg, ()) for b in side]
        tgt = [b for side in dt.get(deg, ()) for b in side]
        ends_s = _Ends(b.lo for b in src), _Ends(b.hi for b in src)
        ends_t = _Ends(b.lo for b in tgt), _Ends(b.hi for b in tgt)
        len_s = [b.length() for b in src]
        len_t = [b.length() for b in tgt]
        parts.append((src, len_s, ends_s, tgt, len_t, ends_t))
        for es, et in zip(ends_s, ends_t):
            weights.update(a - b for a in es.keys if a != POS_INF
                           for b in et.keys if b <= a)
        weights.update(w for w in len_s + len_t if w != POS_INF)

    def feasible(W):
        for src, len_s, (slo, shi), tgt, len_t, (tlo, thi) in parts:
            down = [tlo.within(s.lo - W, s.lo) & thi.within(s.hi - W, s.hi)
                    for s, w in zip(src, len_s) if w > W]
            up = [slo.within(t.lo, t.lo + W) & shi.within(t.hi, t.hi + W)
                  for t, w in zip(tgt, len_t) if w > W]
            if (_kuhn(down, len(tgt), greedy=True) is None
                    or _kuhn(up, len(src), greedy=True) is None):
                return False
        return True

    grid = sorted(weights)
    if not feasible(grid[-1]):
        return POS_INF
    return _least_feasible(grid, feasible)


def delta_exact_small(X, Xp, family: FamilySpec = EMPTY_FAMILY,
                      depth_budget=3, weight_budget=Fraction(100)):
    """Branch-and-bound minimum over a documented decomposition family.

    Moves: cone attachments over family members (and grid shifts when
    the family is shift-closed) or over the slot; acyclic single-bar
    attachments with endpoints on the level grid; in-order matched
    down-moves.  The last two have apex zero and are dropped when the
    family lacks zero.  The search result is reconciled with the
    constructive strategies, so the value is always a certified upper
    bound and never exceeds delta_upper.  An infinite weight budget
    puts no cap on the search.  Returns (value, note).  The search runs
    on the instance scaled to integer levels (level differences and
    the budget too), which keeps every comparison and visited node.
    Each search state is a sorted tuple of `Bar`s with int ends, so a
    node makes no `Barcode` and compares no `Fraction`.
    """
    budget = None if weight_budget == POS_INF else Fraction(weight_budget)
    Zs = (X, Xp, *family.members)
    den = lcm(*(Z._den for Z in Zs), budget.denominator if budget else 1)
    weight_budget = POS_INF if budget is None else int(budget * den)
    BX, BXp = barcode(X), barcode(Xp)
    target_state = _scaled(BX, den).without_zero_length().bars
    slot_state_complex = translate_inverse(from_barcode(_scaled(BXp, den)))
    # acyclic attachments and the final down-move have apex zero
    has_zero = family.has_zero()
    levels = {v * (den // Z._den) for Z in Zs for v in Z._lev}
    diffs = [int(d * den) for d in level_grid(*Zs)]
    pool_levels = sorted(
        levels | {lv + d for lv in levels for d in diffs})[:12]
    degrees = sorted({*X._deg, *Xp._deg, 0})
    deg_pool = sorted(set(degrees) | {d + 1 for d in degrees})
    bar_pool = [
        (Bar(d, a, b), b - a)
        for d in deg_pool
        for a in pool_levels
        for b in pool_levels
        if has_zero and a < b
    ]

    member_apexes = []
    for memb in family.members:
        BM = _scaled(barcode(memb), den)
        member_apexes.append(from_barcode(BM))
        if family.closed_shift:
            for d in diffs[1:3]:
                member_apexes.append(from_barcode(BM.shifted(d)))

    best = [POS_INF]
    seen = {}

    def infinite_degrees(state):
        # bars sort by degree first, so this lists the degrees in order
        return [b.degree for b in state if not b.is_finite()]

    # with no members, a used slot leaves only finite bars to attach, and
    # both ways to finish need the target's infinite bars in each degree
    target_infinite = (None if family.members
                       else infinite_degrees(target_state))

    def attached(K):
        """barcode(K) without its zero-length bars, on int ends."""
        # every complex the search builds has integer levels
        assert K._den == 1
        bars = []
        for b in barcode(K):
            lo = b.lo.numerator
            hi = b.hi.numerator if b.is_finite() else b.hi
            if lo != hi:
                bars.append(Bar(b.degree, lo, hi))
        return tuple(bars)

    def search(state, used, depth, spent):
        key = (state, used)
        if spent >= best[0] or spent > weight_budget:
            return
        if (used and target_infinite is not None
                and infinite_degrees(state) != target_infinite):
            return
        prev = seen.get(key)
        if prev is not None and prev <= spent:
            return
        seen[key] = spent
        if used and state == target_state:
            best[0] = min(best[0], spent)
            return
        if used and has_zero:
            final = _iso_move_cost(state, target_state)
            if is_finite(final):
                candidate = spent + final
                if candidate < best[0] and candidate <= weight_budget:
                    best[0] = candidate
        if depth >= depth_budget:
            return
        apexes = [] if used else [(slot_state_complex, True)]
        apexes += [(apex, used) for apex in member_apexes]
        if apexes:
            cur = from_barcode(Barcode._of_sorted(state))
        for apex, new_used in apexes:
            for u in enumerate_closed_maps(apex, cur, cap=512):
                search(attached(cone(u, 0)), new_used, depth + 1, spent)
        for b, length in bar_pool:
            # the child's own first test, made before its state is built
            cost = spent + length
            if cost < best[0] and cost <= weight_budget:
                i = bisect_right(state, b)
                search(state[:i] + (b,) + state[i:], used, depth + 1, cost)

    search((), False, 0, 0)
    # search holds itself through its closure; break that cycle so the
    # memo goes with this frame, not at the next cyclic collection
    del search
    found = best[0] if best[0] == POS_INF else Fraction(best[0], den)
    upper, _ = _delta_upper(X, Xp, BX, BXp, family)
    value = min(found, upper)
    note = "search" if found <= upper else "strategy"
    if value == POS_INF:
        return POS_INF, "budget exceeded"
    return value, note
