"""The dense extended-graph bottleneck with recursive Kuhn matching.

`fcplx.barcodes.bottleneck` must return exactly the same value and
witness; the tests compare the two on seeded pairs.  Every probe of the
binary search here rebuilds the whole extended graph over Fractions, so
keep its inputs to about 100 bars.
"""

from fractions import Fraction

from fcplx.barcodes import (
    Barcode,
    BottleneckWitness,
    _finite_pair_cost,
    _short_threshold,
    _split_by_degree,
)
from fcplx.rationals import POS_INF


def _perfect_matching(nl, nr, edges):
    """Maximum bipartite matching; returns pair list if perfect."""
    adj = [[] for _ in range(nl)]
    for i, j in edges:
        adj[i].append(j)
    match_r = [-1] * nr
    match_l = [-1] * nl

    def augment(i, seen):
        for j in adj[i]:
            if seen[j]:
                continue
            seen[j] = True
            if match_r[j] == -1 or augment(match_r[j], seen):
                match_r[j] = i
                match_l[i] = j
                return True
        return False

    size = 0
    for i in range(nl):
        if augment(i, [False] * nr):
            size += 1
    if size != nl or nl != nr:
        return None
    return [(i, match_l[i]) for i in range(nl)]


def _degree_feasible(fin1, fin2, inf1, inf2, tau, rule):
    """Matching test within one degree; returns witness data or None."""
    if len(inf1) != len(inf2):
        return None
    inf_edges = [
        (i, j)
        for i in range(len(inf1))
        for j in range(len(inf2))
        if abs(inf1[i].lo - inf2[j].lo) <= tau
    ]
    inf_match = _perfect_matching(len(inf1), len(inf2), inf_edges)
    if inf_match is None:
        return None
    # extended graph: left = fin1 + diagonal copies of fin2,
    # right = fin2 + diagonal copies of fin1; diagonal-diagonal always ok
    n1, n2 = len(fin1), len(fin2)
    edges = []
    for i in range(n1):
        for j in range(n2):
            if _finite_pair_cost(fin1[i], fin2[j]) <= tau:
                edges.append((i, j))
        if _short_threshold(fin1[i], rule) <= tau:
            edges.append((i, n2 + i))
    for j in range(n2):
        if _short_threshold(fin2[j], rule) <= tau:
            edges.append((n1 + j, j))
    for j in range(n2):
        for i in range(n1):
            edges.append((n1 + j, n2 + i))
    fin_match = _perfect_matching(n1 + n2, n2 + n1, edges)
    if fin_match is None:
        return None
    matched, short1, short2 = [], [], []
    for i, j in fin_match:
        if i < n1 and j < n2:
            matched.append((fin1[i], fin2[j]))
        elif i < n1:
            short1.append(fin1[i])
        elif j < n2:
            short2.append(fin2[j])
    matched.extend((inf1[i], inf2[j]) for i, j in inf_match)
    return matched, short1, short2


def reference_bottleneck(B1: Barcode, B2: Barcode, rule="half"):
    """Exact bottleneck distance with matching witness.

    rule="half" is the strict convention implemented by default: a bar
    may be dropped as short at tolerance tau only if twice its length is
    at most tau.  rule="double" allows dropping bars of length up to
    2*tau (the common convention, for cross-tool comparison).
    Bars are only ever matched within equal degree.
    """
    d1, d2 = _split_by_degree(B1), _split_by_degree(B2)
    degrees = sorted(set(d1) | set(d2))
    for deg in degrees:
        if len(d1.get(deg, ((), ()))[1]) != len(d2.get(deg, ((), ()))[1]):
            return POS_INF, BottleneckWitness(POS_INF, (), (), ())
    candidates = {Fraction(0)}
    for deg in degrees:
        fin1, inf1 = d1.get(deg, ([], []))
        fin2, inf2 = d2.get(deg, ([], []))
        for a in fin1:
            candidates.add(_short_threshold(a, rule))
            for b in fin2:
                candidates.add(abs(a.lo - b.lo))
                candidates.add(abs(a.hi - b.hi))
        for b in fin2:
            candidates.add(_short_threshold(b, rule))
        for a in inf1:
            for b in inf2:
                candidates.add(abs(a.lo - b.lo))

    def feasible(tau):
        matched, s1, s2 = [], [], []
        for deg in degrees:
            fin1, inf1 = d1.get(deg, ([], []))
            fin2, inf2 = d2.get(deg, ([], []))
            got = _degree_feasible(fin1, fin2, inf1, inf2, tau, rule)
            if got is None:
                return None
            matched.extend(got[0])
            s1.extend(got[1])
            s2.extend(got[2])
        return matched, s1, s2

    grid = sorted(candidates)
    lo, hi = 0, len(grid) - 1
    if feasible(grid[hi]) is None:
        raise AssertionError("bottleneck candidate grid is incomplete")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(grid[mid]) is None:
            lo = mid + 1
        else:
            hi = mid
    tau = grid[lo]
    matched, s1, s2 = feasible(tau)
    return tau, BottleneckWitness(tau, tuple(matched), tuple(s1), tuple(s2))
