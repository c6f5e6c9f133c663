"""`delta_upper` as it was before the shift grid was scored from
barcodes: it builds the raised-comparison decomposition for every shift
in the grid and keeps the lightest, first one on a tie.  When the
family lacks zero it keeps only decompositions whose linearization
passes `_linearization_ok`, the rule `validate_decomposition` applies.

The tests check `fcplx.fragmentation.delta_upper` against it for a
byte-identical (value, decomposition).  It builds one witnessed
decomposition per grid shift, so keep inputs small.
"""

from fractions import Fraction

from fcplx.barcodes import barcode, from_barcode
from fcplx.fragmentation import (
    EMPTY_FAMILY,
    ConeDecomposition,
    _eta_shift_candidate,
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
