"""`delta_upper` as it was before the shift grid was scored from
barcodes: it builds the raised-comparison decomposition for every shift
in the grid and keeps the lightest, first one on a tie.  When the
family lacks zero it keeps only decompositions whose linearization
passes `_linearization_ok`, the rule `validate_decomposition` applies.

The tests check `fcplx.fragmentation.delta_upper` against it for a
byte-identical (value, decomposition).  It builds one witnessed
decomposition per grid shift, so keep inputs small.

`reference_riso_cost` is the score of one shift as it was computed
before one in-order pairing scored the whole grid: it shifts X', pairs
it with X again and adds up `Fraction` levels.  The tests check
`fcplx.fragmentation._riso_costs` against it shift by shift.
"""

from fractions import Fraction

from fcplx.barcodes import barcode, from_barcode
from fcplx.fragmentation import (
    EMPTY_FAMILY,
    ConeDecomposition,
    _eta_shift_candidate,
    _in_order_pairs,
    _linearization_ok,
    _riso_strategy,
    compose_decompositions,
    eta_slot_triangle,
    prop51_pipeline,
    singleton_decomposition,
)
from fcplx.rationals import POS_INF


def reference_delta_upper(X, Xp, family=EMPTY_FAMILY, via=(), grid=None):
    BX, BXp = barcode(X), barcode(Xp)
    best = (POS_INF, None)
    lacks_zero = not family.has_zero()

    def consider(D):
        nonlocal best
        if D is None or lacks_zero and not _linearization_ok(D, family, BXp):
            return
        wgt = D.total_weight()
        if wgt < best[0]:
            best = (wgt, D)

    if BX == BXp:
        consider(singleton_decomposition(from_barcode(BXp)))
    r = _eta_shift_candidate(BX, BXp)
    if r is not None:
        tri, wit = eta_slot_triangle(from_barcode(BX), r)
        consider(ConeDecomposition(((tri, wit),)))
    if grid is None:
        levels = sorted({g.ell for Z in (X, Xp) for g in Z.gens})
        grid = sorted(
            {Fraction(0)}
            | {a - b for a in levels for b in levels if a - b > 0}
        )
    for k in grid:
        consider(_riso_strategy(BX, BXp, k))
    bnd, D51, _, _ = prop51_pipeline(X, Xp)
    if D51 is not None:
        consider(D51)
    for mid in via:
        v1, D1 = reference_delta_upper(X, mid, family)
        v2, D2 = reference_delta_upper(mid, Xp, family)
        if D1 is not None and D2 is not None:
            consider(compose_decompositions(D1, mid, D2))
    return best


def reference_riso_cost(BX, BXp, k):
    """The weight of _riso_strategy(X, X', k), or None exactly when it
    gives no decomposition: the cylinder raise (max over the bars of X'
    of min(k, length), 0 when k = 0) plus the depth of the cone of the
    in-order comparison S^k X' -> X."""
    k = Fraction(k)
    pairs = _in_order_pairs(BXp.shifted(k), BX)
    if pairs is None:
        return None
    for (s, _), (t, _) in pairs:
        if t.lo > s.lo or (s.is_finite() and t.hi > s.hi):
            return None
    lift = Fraction(0)
    if k:
        lift = max((min(k, b.length()) for b in BXp), default=lift)
    depth = Fraction(0)
    for (s, _), (t, _) in pairs:
        if not s.is_finite():
            d = s.lo - t.lo
        elif t.hi <= s.lo:
            d = max(t.hi - t.lo, s.hi - s.lo)
        else:
            d = max(s.lo - t.lo, s.hi - t.hi)
        depth = max(depth, d)
    return lift + depth
