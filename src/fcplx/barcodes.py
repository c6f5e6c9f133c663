"""Canonical-form decomposition, boundary depth and the exact
bottleneck distance for filtered complexes.

Every filtered complex decomposes, by a level-preserving invertible
change of basis, into one-generator summands (infinite bars) and
two-generator summands d(y) = x (finite bars [ell(x), ell(y)) tagged
with the degree of x).  The reduction is a filtration-aware Gaussian
elimination: generators are processed in increasing (level, input
order) and the pivot of a column is its maximal entry in that same
order, which both pins the barcode and yields the change-of-basis
witness.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .f2linalg import F2SparseMatrix, _apply, _bits, _eliminate, invert
from .rationals import POS_INF, fmt_scalar, is_finite
from .complexes import (
    FilteredChainMap,
    FilteredComplex,
    make_complex,
)


class Bar(NamedTuple):
    degree: int
    lo: Fraction
    hi: Fraction  # POS_INF for infinite bars

    def length(self):
        return self.hi - self.lo if self.is_finite() else POS_INF

    def is_finite(self):
        # an int or Fraction never equals the float infinity
        return isinstance(self.hi, (int, Fraction)) or self.hi != POS_INF


class Barcode:
    """Finite multiset of bars; equality is multiset equality."""

    __slots__ = ("bars",)

    def __init__(self, bars=()):
        object.__setattr__(self, "bars", tuple(sorted(
            b if isinstance(b, Bar) else Bar(*b) for b in bars)))

    @classmethod
    def _of_sorted(cls, bars):
        """The barcode of a tuple of Bars already in bar order."""
        B = object.__new__(cls)
        object.__setattr__(B, "bars", bars)
        return B

    def __setattr__(self, name, value):
        raise AttributeError("Barcode is immutable")

    def __eq__(self, other):
        return isinstance(other, Barcode) and self.bars == other.bars

    def __hash__(self):
        return hash(self.bars)

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.bars)

    def __repr__(self):
        return f"Barcode({list(self.bars)})"

    def finite(self):
        return tuple(b for b in self.bars if b.is_finite())

    def infinite(self):
        return tuple(b for b in self.bars if not b.is_finite())

    def union(self, other):
        return Barcode(self.bars + other.bars)

    # shifting every level, translating every degree and dropping bars
    # keep bar order, so these build without sorting again

    def shifted(self, r):
        r = Fraction(r)
        return Barcode._of_sorted(tuple(
            Bar(b.degree, b.lo + r, b.hi + r if b.is_finite() else b.hi)
            for b in self.bars))

    def degree_translated(self, k):
        """Barcode of T^k applied to the underlying complex."""
        return Barcode._of_sorted(tuple(
            Bar(b.degree - k, b.lo, b.hi) for b in self.bars))

    def without_zero_length(self):
        return Barcode._of_sorted(tuple(
            b for b in self.bars if b.length() != 0))


def barcode_to_text(B: Barcode) -> str:
    lines = []
    for b in B.bars:
        hi = fmt_scalar(b.hi) if b.is_finite() else "inf"
        lines.append(f"bar {b.degree} {fmt_scalar(b.lo)} {hi}")
    return "\n".join(lines) + ("\n" if lines else "")


class CanonicalFormWitness:
    """Change of basis taking the input basis to a canonical one.

    `matrix` column j holds the j-th new basis vector in the original
    coordinates; in the new basis the differential has the canonical
    shape (each paired generator maps exactly to its partner, all other
    generators map to zero).  `pairs` lists (x_index, y_index) with
    d(new y) = new x.
    """

    __slots__ = ("complex", "matrix", "pairs", "unpaired")

    def __init__(self, complex, matrix, pairs, unpaired):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "unpaired", tuple(unpaired))

    def __setattr__(self, name, value):
        raise AttributeError("CanonicalFormWitness is immutable")

    def contraction(self) -> F2SparseMatrix:
        """h = U h' U^-1, where h' sends each paired x to its partner y.

        In the canonical basis dh' + h'd is the identity on every paired
        generator, so on a complex without infinite bars dh + hd = id.
        U and U^-1 are unitriangular in (level, index) order and so keep
        levels; the shift of h is the length of the longest bar.
        """
        U = self.matrix
        Uh = [0] * U.ncols
        for x, y in self.pairs:
            Uh[x] = U.columns[y]
        return F2SparseMatrix(Uh, U.nrows).matmul(invert(U))

    def check(self) -> bool:
        """Witness invariants, by products and one rank test.

        The x's, the y's and `unpaired` cover range(n) once each; every
        column j of U has its top level at lev[j]; D*U = U*D', where
        column y of D' is e_x for each pair (x, y) and every other column
        is 0, so D*U's column y is U's column x and the rest are zero;
        and U is invertible, so that D' = U^-1 D U.
        """
        X, U = self.complex, self.matrix
        n = X.n
        if U.nrows != n or U.ncols != n:
            return False
        image = {y: x for x, y in self.pairs}
        idx = [*image, *image.values(), *self.unpaired]
        if (len(image) != len(self.pairs) or len(idx) != n
                or set(idx) != set(range(n))):
            return False
        lev, cols, diff = X._lev, U.columns, X.diff
        # at[L]: the generators of level L; upto[L]: those of level <= L
        at = {}
        for i, v in enumerate(lev):
            at[v] = at.get(v, 0) | 1 << i
        upto, m = {}, 0
        for v in sorted(at):
            m |= at[v]
            upto[v] = m
        for j, c in enumerate(cols):
            v = lev[j]
            if c & ~upto[v] or not c & at[v]:
                return False
            x = image.get(j)
            if _apply(diff, c) != (0 if x is None else cols[x]):
                return False
        return len(_eliminate(list(cols), [0] * n)) == n


def canonical_form(X: FilteredComplex):
    """Barcode plus change-of-basis witness for a valid complex.

    Columns are reduced in (level, index) order.  Each one carries,
    beside it, the combination of X's generators it stands for and that
    combination's image under d, both in X's coordinates and packed in
    one int (image above bit n), so one XOR updates both and the new
    basis is read off without mapping positions back to generators.
    """
    problems = X.validate()
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    n = X.n
    diff = X.diff
    # a stable sort keeps equal levels in index order
    order = sorted(range(n), key=X._lev.__getitem__)
    pos = {orig: p for p, orig in enumerate(order)}

    def to_pos(vec: int) -> int:
        m = 0
        for i in _bits(vec):
            m |= 1 << pos[i]
        return m

    cols = [to_pos(diff[g]) for g in order]
    track = [diff[g] << n | 1 << g for g in order]
    owner = _eliminate(cols, track)

    # each bar as (degree, lo, infinite?, hi) on X's ints: these sort as
    # the bars do
    keys = []
    pairs = []
    unpaired = []
    new_basis = [None] * n
    low = (1 << n) - 1
    deg, lev = X._deg, X._lev
    for p in range(n):
        if cols[p]:
            x, y = order[cols[p].bit_length() - 1], order[p]
            pairs.append((x, y))
            new_basis[y] = track[p] & low
            new_basis[x] = track[p] >> n
            keys.append((deg[x], lev[x], False, lev[y]))
        elif p not in owner:
            g = order[p]
            unpaired.append(g)
            new_basis[g] = track[p] & low
            keys.append((deg[g], lev[g], True, 0))
    keys.sort()
    # every level is a bar end: one Fraction per distinct level
    end = {v: Fraction(v, X._den) for v in set(lev)}
    bars = tuple(Bar(d, end[lo], POS_INF if inf else end[hi])
                 for d, lo, inf, hi in keys)
    witness = CanonicalFormWitness(
        X, F2SparseMatrix(new_basis, n), pairs, unpaired
    )
    return Barcode._of_sorted(bars), witness


def barcode(X: FilteredComplex) -> Barcode:
    return canonical_form(X)[0]


def from_barcode(B: Barcode) -> FilteredComplex:
    """A concrete complex realizing a barcode, one summand per bar, in
    bar order: `i{k}` for an infinite bar, `x{k}` then `y{k}` with
    d(y{k}) = x{k} for a finite one."""
    triples = []
    boundaries = {}
    # a Barcode's bars are already in bar order
    bars = B.bars if isinstance(B, Barcode) else Barcode(B).bars
    for k, b in enumerate(bars):
        if not b.is_finite():
            triples.append((f"i{k}", b.degree, b.lo))
        else:
            triples.append((f"x{k}", b.degree, b.lo))
            triples.append((f"y{k}", b.degree - 1, b.hi))
            boundaries[f"y{k}"] = [f"x{k}"]
    return make_complex(triples, boundaries)


def _summands(B: Barcode):
    """Per bar of B, in order, the indices of its generators in
    from_barcode(B): (i,) for an infinite bar, (x, y) for a finite one."""
    out = []
    n = 0
    for b in B:
        out.append((n, n + 1) if b.is_finite() else (n,))
        n += len(out[-1])
    return out


def boundary_depth(obj):
    """Length of the longest finite bar; 0 when there is none."""
    B = obj if isinstance(obj, Barcode) else barcode(obj)
    depth = Fraction(0)
    for b in B.finite():
        if b.length() > depth:
            depth = b.length()
    return depth


def is_r_acyclic(X, r, want_witness=False):
    """No infinite bars and depth <= r; optionally the nullhomotopy of
    the identity that witnesses it, read off the canonical form."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("acyclicity threshold must be >= 0")
    B, wit = canonical_form(X)
    ok = not B.infinite() and boundary_depth(B) <= r
    if not want_witness:
        return ok
    if not ok:
        return False, None
    return True, FilteredChainMap(X, X, wit.contraction().columns, -1)


def persistence_rank(X, r, s, degree) -> int:
    """Rank of the structure map H^degree(level <= r) -> H^degree(<= s)."""
    r, s = Fraction(r), Fraction(s)
    if s < r:
        raise ValueError("persistence_rank needs r <= s")
    B = barcode(X)
    return sum(
        1 for b in B if b.degree == degree and b.lo <= r and b.hi > s
    )


def interval_structure_map(degree, lo, hi, r):
    """Persistence-module view of a single bar: is the map shifting the
    parameter down by r the zero map (r-torsion)?"""
    r = Fraction(r)
    if r < 0:
        raise ValueError("r must be >= 0")
    length = POS_INF if hi == POS_INF else Fraction(hi) - Fraction(lo)
    return {
        "degree": degree,
        "length": length,
        "torsion": is_finite(length) and r >= length,
    }


# ----------------------------------------------------------------------
# bottleneck distance


class BottleneckWitness(NamedTuple):
    value: object
    matched: tuple      # pairs (bar in B1, bar in B2)
    short1: tuple
    short2: tuple


def _short_threshold(b: Bar, rule):
    # level at which the bar may be discarded as short
    if rule == "half":
        return 2 * b.length()
    if rule == "double":
        return Fraction(b.length(), 2)
    raise ValueError(f"unknown short rule {rule!r}")


def _finite_pair_cost(a: Bar, b: Bar):
    return max(abs(a.lo - b.lo), abs(a.hi - b.hi))


def _kuhn(adj, nr, tail_from=None, block=0, greedy=False):
    """Kuhn's augmenting-path matching, without recursion.

    Left vertices are matched in index order, and each depth-first
    search tries a vertex's neighbours in the order `adj` lists them, so
    the matching found is fixed by `adj`.  Left vertices from
    `tail_from` on are also adjacent, after their listed neighbours, to
    every right vertex from `block` on.  One pointer per search walks
    that block: every block vertex before it has been seen, so it finds
    the same vertex as a scan from the start that skips seen ones.
    With `greedy`, each left vertex first takes its first free listed
    neighbour, which changes the matching found but not whether one
    exists.  Returns the right partner of each left vertex, or None as
    soon as one left vertex cannot be matched.
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


class _Degree:
    """One degree's bars, with every cost scaled to an integer once.

    `cost[i][j]` is the pair cost of fin1[i] and fin2[j]; `thr1`/`thr2`
    are the levels at which each finite bar may be dropped as short;
    `floor` is the least tolerance at which the infinite bars have a
    perfect matching (on a line, pairing them in sorted order is
    optimal).  `rows1`/`rows2` list, for each finite bar, the bars of
    the other side by increasing cost, with those costs.
    """

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
        """Every level at which this degree's feasibility can change."""
        out = set(self.thr1)
        out.update(self.thr2)
        for row in self.cost:
            out.update(row)
        return out

    def feasible(self, t):
        """Decision at t >= floor: by the Mendelsohn-Dulmage theorem a
        matching of pairs of cost <= t that covers every non-short bar
        on both sides exists iff each side's non-short bars can be
        matched into the other side."""
        return (_covers(self.rows1, self.thr1, t, len(self.fin2))
                and _covers(self.rows2, self.thr2, t, len(self.fin1)))

    def witness(self, t):
        """Matched pairs and short bars at t, from Kuhn's matching on the
        extended graph: left fin1 then a diagonal copy per fin2 bar,
        right fin2 then a diagonal copy per fin1 bar, where every
        diagonal copy may meet every other."""
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


def _split_by_degree(B: Barcode):
    out = {}
    for b in B:
        out.setdefault(b.degree, ([], []))[0 if b.is_finite() else 1].append(b)
    return out


def bottleneck(B1: Barcode, B2: Barcode, rule="half"):
    """Exact bottleneck distance with matching witness.

    rule="half" is the strict convention implemented by default: a bar
    may be dropped as short at tolerance tau only if twice its length is
    at most tau.  rule="double" allows dropping bars of length up to
    2*tau (the common convention, for cross-tool comparison).
    Bars are only ever matched within equal degree.

    All endpoints are scaled once by twice the lcm of their
    denominators, so every cost and short threshold, halves included,
    is an exact integer.  Per degree, a binary search over those levels
    asks only whether a matching exists; the matching witness is built
    once, at the final value.
    """
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
        if not grid:
            raise AssertionError("bottleneck candidate grid is incomplete")
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
