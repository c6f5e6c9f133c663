"""The oracle's final-move cost by enumeration: `_iso_move_cost` as it
was before it became a matching decision, unchanged but for its name.

Per degree, the infinite bars are matched in sorted order, and every
partial injection of the finite bars (combinations of sources times
permutations of targets) is tried.  A matched pair s -> t is legal when
both endpoints move weakly down and costs the larger move; an unmatched
finite bar costs its length.  The tests check
`fcplx.fragmentation._iso_move_cost` against it.  The enumeration is
factorial in the bars per degree, so keep inputs small.
"""

import itertools
from fractions import Fraction

from fcplx.rationals import POS_INF


def reference_iso_move_cost(BS, BT):
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
