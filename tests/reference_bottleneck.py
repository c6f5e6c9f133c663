"""Two earlier bottleneck searches that `fcplx.barcodes.bottleneck`
must match exactly, value and witness; the tests compare them on seeded
pairs.

`reference_bottleneck` is the dense extended-graph search with
recursive Kuhn matching.  Every probe of its binary search rebuilds the
whole extended graph over Fractions, so keep its inputs to about 100
bars.

`reference_list_bottleneck` is the search on integer costs that came
next: each degree builds the full cost matrix of its finite bars, sorts
every row and column by cost, and matches on neighbour lists.  It runs
1000 bars a side in seconds.  `_by_cost` and `_covers` also serve the
list-based `_iso_move_cost` in `reference_iso_move.py`.
"""

from bisect import bisect_right
from fractions import Fraction
from math import lcm

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


def _kuhn(adj, nr, tail_from=None, block=0, greedy=False):
    """Kuhn's augmenting-path matching on neighbour lists, without
    recursion.

    Left vertices are matched in index order, and each depth-first
    search tries a vertex's neighbours in the order `adj` lists them.
    Left vertices from `tail_from` on are also adjacent, after their
    listed neighbours, to every right vertex from `block` on; one
    pointer per search walks that block.  With `greedy`, each left
    vertex first takes its first free listed neighbour.  Returns the
    right partner of each left vertex, or None as soon as one left
    vertex cannot be matched.
    """
    nl = len(adj)
    if tail_from is None:
        tail_from = nl
    match_l = [-1] * nl
    match_r = [-1] * nr
    if greedy:
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                if match_r[v] < 0:
                    match_l[u], match_r[v] = v, u
                    break
    for root in range(nl):
        if match_l[root] >= 0:
            continue
        seen = bytearray(nr)
        ptr = block
        stack, todo, via = [root], [iter(adj[root])], []
        while stack:
            u, v = stack[-1], -1
            for w in todo[-1]:
                if not seen[w]:
                    v = w
                    break
            if v < 0 and u >= tail_from:
                while ptr < nr and seen[ptr]:
                    ptr += 1
                if ptr < nr:
                    v = ptr
            if v < 0:
                stack.pop()
                todo.pop()
                if via:
                    via.pop()
                continue
            seen[v] = 1
            via.append(v)
            if match_r[v] < 0:
                for u, v in zip(stack, via):
                    match_l[u] = v
                    match_r[v] = u
                break
            u = match_r[v]
            stack.append(u)
            todo.append(iter(adj[u]))
        else:
            return None
    return match_l


def _by_cost(costs):
    order = sorted(range(len(costs)), key=costs.__getitem__)
    return [costs[j] for j in order], order


def _covers(rows, thr, t, nr):
    """Whether the non-short left bars (thr > t) can all be matched to
    right bars at cost <= t."""
    adj = [
        order[:bisect_right(costs, t)]
        for (costs, order), th in zip(rows, thr) if th > t
    ]
    return len(adj) <= nr and _kuhn(adj, nr, greedy=True) is not None


class _Degree:
    """One degree's bars, with every cost scaled to an integer once:
    `cost[i][j]` for fin1[i] against fin2[j], and `rows1`/`rows2` the
    other side's bars by increasing cost, per finite bar."""

    def __init__(self, fin1, inf1, fin2, inf2, scaled, rule):
        self.fin1, self.fin2, self.inf1, self.inf2 = fin1, fin2, inf1, inf2
        f1 = [(scaled(b.lo), scaled(b.hi)) for b in fin1]
        f2 = [(scaled(b.lo), scaled(b.hi)) for b in fin2]
        self.cost = [
            [max(abs(alo - blo), abs(ahi - bhi)) for blo, bhi in f2]
            for alo, ahi in f1
        ]
        if rule == "half":
            self.thr1 = [2 * (hi - lo) for lo, hi in f1]
            self.thr2 = [2 * (hi - lo) for lo, hi in f2]
        else:
            self.thr1 = [(hi - lo) // 2 for lo, hi in f1]
            self.thr2 = [(hi - lo) // 2 for lo, hi in f2]
        self.inf_lo1 = [scaled(b.lo) for b in inf1]
        self.inf_lo2 = [scaled(b.lo) for b in inf2]
        self.floor = max(
            (abs(a - b) for a, b in
             zip(sorted(self.inf_lo1), sorted(self.inf_lo2))),
            default=0,
        )
        self.rows1 = [_by_cost(row) for row in self.cost]
        cols = list(zip(*self.cost)) or [()] * len(fin2)
        self.rows2 = [_by_cost(col) for col in cols]

    def candidates(self):
        out = set(self.thr1)
        out.update(self.thr2)
        for row in self.cost:
            out.update(row)
        return out

    def feasible(self, t):
        return (_covers(self.rows1, self.thr1, t, len(self.fin2))
                and _covers(self.rows2, self.thr2, t, len(self.fin1)))

    def witness(self, t):
        n1, n2 = len(self.fin1), len(self.fin2)
        adj = [
            [j for j, c in enumerate(row) if c <= t]
            + ([n2 + i] if self.thr1[i] <= t else [])
            for i, row in enumerate(self.cost)
        ]
        adj += [[j] if self.thr2[j] <= t else [] for j in range(n2)]
        fin = _kuhn(adj, n1 + n2, tail_from=n1, block=n2)
        inf = _kuhn(
            [[j for j, b in enumerate(self.inf_lo2) if abs(a - b) <= t]
             for a in self.inf_lo1],
            len(self.inf2),
        )
        if fin is None or inf is None:
            raise AssertionError("bottleneck decision and witness disagree")
        matched = [(self.fin1[i], self.fin2[j])
                   for i, j in enumerate(fin[:n1]) if j < n2]
        matched += [(self.inf1[i], self.inf2[j]) for i, j in enumerate(inf)]
        short1 = [self.fin1[i] for i, j in enumerate(fin[:n1]) if j >= n2]
        short2 = [self.fin2[j] for j in fin[n1:] if j < n2]
        return matched, short1, short2


def reference_list_bottleneck(B1: Barcode, B2: Barcode, rule="half"):
    """`bottleneck` on cost matrices and neighbour lists."""
    if rule not in ("half", "double"):
        raise ValueError(f"unknown short rule {rule!r}")
    d1, d2 = _split_by_degree(B1), _split_by_degree(B2)
    degrees = sorted(set(d1) | set(d2))
    for deg in degrees:
        if len(d1.get(deg, ((), ()))[1]) != len(d2.get(deg, ((), ()))[1]):
            return POS_INF, BottleneckWitness(POS_INF, (), (), ())
    den = 1
    for b in B1.bars + B2.bars:
        den = lcm(den, b.lo.denominator,
                  b.hi.denominator if b.is_finite() else 1)
    scale = 2 * den

    def scaled(x):
        return x.numerator * (scale // x.denominator)

    parts = [
        _Degree(*d1.get(deg, ([], [])), *d2.get(deg, ([], [])),
                scaled, rule)
        for deg in degrees
    ]
    t = max((p.floor for p in parts), default=0)
    for p in parts:
        if p.feasible(t):
            continue
        grid = sorted(c for c in p.candidates() if c > t)
        lo, hi = 0, len(grid) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if p.feasible(grid[mid]):
                hi = mid
            else:
                lo = mid + 1
        t = grid[lo]
    matched, s1, s2 = [], [], []
    for p in parts:
        got = p.witness(t)
        matched.extend(got[0])
        s1.extend(got[1])
        s2.extend(got[2])
    tau = Fraction(t, scale)
    return tau, BottleneckWitness(tau, tuple(matched), tuple(s1), tuple(s2))
