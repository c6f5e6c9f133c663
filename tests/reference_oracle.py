"""`delta_exact_small` as it was before the search ran on the instance
scaled to integer levels: the same moves, memo and cuts, on `Fraction`
levels, weights and budget.

The tests check `fcplx.fragmentation.delta_exact_small` against it for
an equal (value, note).  The search is exponential in its depth, so
keep inputs small.
"""

from fractions import Fraction

from fcplx.barcodes import Bar, Barcode, barcode, from_barcode
from fcplx.complexes import cone, translate_inverse
from fcplx.fragmentation import EMPTY_FAMILY, _delta_upper, _iso_move_cost
from fcplx.homsolve import enumerate_closed_maps
from fcplx.rationals import POS_INF, is_finite
from fcplx.tpc import level_grid


def reference_delta_exact_small(X, Xp, family=EMPTY_FAMILY, depth_budget=3,
                                weight_budget=Fraction(100)):
    weight_budget = Fraction(weight_budget)
    BX, BXp = barcode(X), barcode(Xp)
    target_state = BX.without_zero_length()
    slot_state_complex = translate_inverse(from_barcode(BXp))
    # acyclic attachments and the final down-move have apex zero
    has_zero = family.has_zero()
    levels = {g.ell for Z in (X, Xp, *family.members) for g in Z.gens}
    diffs = level_grid(X, Xp, *family.members)
    pool_levels = sorted(
        levels | {lv + d for lv in levels for d in diffs})[:12]
    degrees = sorted(
        {g.degree for Z in (X, Xp) for g in Z.gens} | {0}
    )
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
        BM = barcode(memb)
        member_apexes.append(from_barcode(BM))
        if family.closed_shift:
            for d in diffs[1:3]:
                member_apexes.append(from_barcode(BM.shifted(d)))

    best = [POS_INF]
    seen = {}

    def search(state, used, depth, spent):
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
            cur = from_barcode(state)
        for apex, new_used in apexes:
            for u in enumerate_closed_maps(apex, cur, cap=512):
                K = cone(u, 0)
                search(barcode(K).without_zero_length(),
                       new_used, depth + 1, spent)
        for b, length in bar_pool:
            cost = spent + length
            if cost < best[0] and cost <= weight_budget:
                search(Barcode(tuple(state) + (b,)), used, depth + 1, cost)

    search(Barcode(), False, 0, Fraction(0))
    del search
    upper, _ = _delta_upper(X, Xp, BX, BXp, family)
    value = min(best[0], upper)
    note = "search" if best[0] <= upper else "strategy"
    if value == POS_INF:
        return POS_INF, "budget exceeded"
    return value, note
