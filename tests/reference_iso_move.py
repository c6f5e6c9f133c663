"""The oracle's final-move cost by enumeration: `_iso_move_cost` as it
was before it became a matching decision, unchanged but for its name.

Per degree, the infinite bars are matched in sorted order, and every
partial injection of the finite bars (combinations of sources times
permutations of targets) is tried.  A matched pair s -> t is legal when
both endpoints move weakly down and costs the larger move; an unmatched
finite bar costs its length.  The tests check
`fcplx.fragmentation._iso_move_cost` against it.  The enumeration is
factorial in the bars per degree, so keep inputs small.

`reference_iso_move_by_lists` is the matching decision that came next,
on a cost matrix with every row and column sorted by cost and a linear
scan over the candidate weights.  It is polynomial, so the tests run it
on pairs far too large for the enumeration.
"""

import itertools
from fractions import Fraction

from fcplx.barcodes import _split_by_degree
from fcplx.rationals import POS_INF

from reference_bottleneck import _by_cost, _covers


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


def _move_cost(s, t):
    """How far each endpoint of s moves down to t, the larger of the
    two; inf if one moves up or only one is infinite."""
    if s.is_finite() != t.is_finite() or t.lo > s.lo or t.hi > s.hi:
        return POS_INF
    return max(s.lo - t.lo, s.hi - t.hi) if s.is_finite() else s.lo - t.lo


def reference_iso_move_by_lists(BS, BT):
    ds, dt = _split_by_degree(BS), _split_by_degree(BT)
    parts = []
    weights = {0}
    for deg in set(ds) | set(dt):
        src = [b for side in ds.get(deg, ()) for b in side]
        tgt = [b for side in dt.get(deg, ()) for b in side]
        cost = [[_move_cost(s, t) for t in tgt] for s in src]
        rows1 = [_by_cost(row) for row in cost]
        rows2 = [_by_cost(col) for col in zip(*cost)] or [([], [])] * len(tgt)
        thr1 = [b.length() for b in src]
        thr2 = [b.length() for b in tgt]
        parts.append((rows1, thr1, rows2, thr2, len(src), len(tgt)))
        weights.update(c for row in cost for c in row if c != POS_INF)
        weights.update(w for w in thr1 + thr2 if w != POS_INF)
    for W in sorted(weights):
        if all(_covers(rows1, thr1, W, n2) and _covers(rows2, thr2, W, n1)
               for rows1, thr1, rows2, thr2, n1, n2 in parts):
            return W
    return POS_INF
