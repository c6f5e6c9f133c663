"""Canonical-form decomposition, boundary depth and the exact
bottleneck distance for filtered complexes.

Every filtered complex decomposes, by a level-preserving change of
basis, into one-generator summands (infinite bars) and
two-generator summands d(y) = x (finite bars [ell(x), ell(y)) tagged
with the degree of x).  The reduction is a filtration-aware Gaussian
elimination: generators are processed in increasing (level, input
order) and the pivot of a column is its maximal entry in that same
order, which both pins the barcode and yields the change-of-basis
witness.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product, starmap
from math import lcm
from operator import sub
from typing import NamedTuple

from .f2linalg import F2SparseMatrix, _apply, _back_substitute, _eliminate
from .rationals import POS_INF, fmt_scalar
from .complexes import FilteredComplex, _over_lcd


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
        levels; the shift of h is the length of the longest bar.  U^-1
        is never formed: h is read by back substitution over U's
        columns in that order (`_contract`), and a U that is not
        unitriangular in it raises ValueError.
        """
        U = self.matrix
        return F2SparseMatrix(_contract(self._order(), U.columns,
                                        self.pairs), U.nrows)

    def _order(self):
        """The (level, index) order of the complex's generators, in
        which U must be unitriangular; ValueError when U is not n x n."""
        lev, U = self.complex._lev, self.matrix
        if U.nrows != len(lev) or U.ncols != len(lev):
            raise ValueError("witness matrix is not n x n")
        # a stable sort keeps equal levels in index order
        return sorted(range(len(lev)), key=lev.__getitem__)

    def depth(self):
        """The complex's boundary depth, the length of its longest
        finite bar (0 when it has none), from the pairs' int levels."""
        return _depth(self.complex, self.pairs)

    def check(self) -> bool:
        """Witness invariants, by products and one rank test.

        The x's, the y's and `unpaired` cover range(n) once each; every
        column j of U has its top level at lev[j]; D*U = U*D', where
        column y of D' is e_x for each pair (x, y) and every other column
        is 0, so D*U's column y is U's column x and the rest are zero;
        and U has full rank, so that D' = U^-1 D U.
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


def _reduce(X: FilteredComplex):
    """The one reduction behind canonical forms, contractions and
    acyclicity: (order, basis, pairs, unpaired) of a valid complex.

    Columns are reduced in (level, index) order, `order`.  Each one
    carries, beside it, the combination of X's generators it stands for
    and that combination's image under d, both in X's coordinates and
    packed in one int (image above bit n), so one XOR updates both and
    the new basis is read off without mapping positions back to
    generators: `basis[g]` is the new basis vector of generator g,
    unitriangular in `order`, `pairs` lists (x, y) with d(new y) =
    new x in the order of the y's, and `unpaired` the rest.

    The walk that maps each column to sorted positions also checks it:
    every entry is in range and one degree up (one mask test), and the
    column's top position, which has its highest level, is not above
    its own level.
    d o d = 0 is checked after the reduction as d(new x) = 0 for every
    pair: the combinations the columns stand for are a basis,
    unitriangular in (level, index) order, and d sends each of them to
    0 or to some pair's new x, so d o d vanishes on that basis exactly
    when it vanishes on every new x.  An invalid X raises the
    ValueError that lists the records of `X.validate()`.
    """
    n = X.n
    diff, deg, lev = X.diff, X._deg, X._lev
    # a stable sort keeps equal levels in index order
    order = sorted(range(n), key=lev.__getitem__)
    at = [0] * n
    for p, g in enumerate(order):
        at[g] = 1 << p
    of_deg = X._of_degree()
    cols = []
    for g in order:
        c = diff[g]
        m = 0
        if c:
            # an entry out of range or of the wrong degree, or a
            # negative column (its bits never end), leaves a bit
            # outside the generators of degree deg + 1
            if c & ~of_deg.get(deg[g] + 1, 0):
                raise _invalid(X)
            while c:
                bit = c & -c
                m |= at[bit.bit_length() - 1]
                c ^= bit
            if lev[order[m.bit_length() - 1]] > lev[g]:
                raise _invalid(X)
        cols.append(m)
    track = [diff[g] << n | 1 << g for g in order]
    owner = _eliminate(cols, track)

    pairs = []
    unpaired = []
    basis = [None] * n
    low = (1 << n) - 1
    for p in range(n):
        if cols[p]:
            x, y = order[cols[p].bit_length() - 1], order[p]
            pairs.append((x, y))
            basis[y] = track[p] & low
            basis[x] = track[p] >> n
            if _apply(diff, basis[x]):
                raise _invalid(X)
        elif p not in owner:
            g = order[p]
            unpaired.append(g)
            basis[g] = track[p] & low
    return order, basis, pairs, unpaired


def _depth(X, pairs):
    """The length of the longest of the bars `pairs` of X (0 when there
    is none), from their int levels."""
    lev = X._lev
    return Fraction(max((lev[y] - lev[x] for x, y in pairs), default=0),
                    X._den)


def _contract(order, basis, pairs):
    """The columns of h = U h' U^-1, U the new basis `basis` and h' the
    map that sends each pair's new x to its new y: S U^-1 for S = U h',
    whose column x is U's column y, by one back substitution over U's
    columns in `order` (`f2linalg._back_substitute`)."""
    seed = [0] * len(basis)
    for x, y in pairs:
        seed[x] = basis[y]
    return _back_substitute(seed, basis, order)


def canonical_form(X: FilteredComplex):
    """Barcode plus change-of-basis witness for a valid complex, read
    off its one reduction (`_reduce`), which also checks that X is
    valid."""
    _, basis, pairs, unpaired = _reduce(X)
    deg, lev = X._deg, X._lev
    # each bar as (degree, lo, infinite?, hi) on X's ints: these sort as
    # the bars do
    keys = [(deg[x], lev[x], False, lev[y]) for x, y in pairs]
    keys += [(deg[g], lev[g], True, 0) for g in unpaired]
    keys.sort()
    # every level is a bar end: one Fraction per distinct level
    end = {v: Fraction(v, X._den) for v in set(lev)}
    bars = tuple(Bar(d, end[lo], POS_INF if inf else end[hi])
                 for d, lo, inf, hi in keys)
    witness = CanonicalFormWitness(
        X, F2SparseMatrix(basis, X.n), pairs, unpaired
    )
    return Barcode._of_sorted(bars), witness


def _invalid(X):
    """The error canonical_form raises on an invalid X."""
    return ValueError("invalid complex: " + "; ".join(X.validate()))


def barcode(X: FilteredComplex) -> Barcode:
    return canonical_form(X)[0]


def from_barcode(B: Barcode) -> FilteredComplex:
    """A concrete complex realizing a barcode, one summand per bar, in
    bar order: `i{k}` for an infinite bar, `x{k}` then `y{k}` with
    d(y{k}) = x{k} for a finite one.  Built from its parts: the ends
    are read as ints over their least common denominator."""
    # a Barcode's bars are already in bar order
    return _from_bars(B.bars if isinstance(B, Barcode) else Barcode(B).bars)


def _from_bars(bars) -> FilteredComplex:
    """from_barcode with the summands in the given order of the bars."""
    ids, deg, ends, diff = [], [], [], []
    for k, b in enumerate(bars):
        if not b.is_finite():
            ids.append(f"i{k}")
            deg.append(b.degree)
            ends.append(b.lo)
            diff.append(0)
        else:
            diff += (0, 1 << len(ids))
            ids += (f"x{k}", f"y{k}")
            deg += (b.degree, b.degree - 1)
            ends += (b.lo, b.hi)
    try:
        den, lev = _over_lcd(ends)
    except AttributeError:  # an end that is neither an int nor a Fraction
        den, lev = _over_lcd([Fraction(v) for v in ends])
    return FilteredComplex._from_parts(tuple(ids), tuple(deg), den, lev,
                                       diff)


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
    if not isinstance(obj, Barcode):
        return _depth(obj, _reduce(obj)[2])
    depth = Fraction(0)
    for b in obj.finite():
        if b.length() > depth:
            depth = b.length()
    return depth


def is_r_acyclic(X, r):
    """No infinite bars and depth <= r, read off the one reduction."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("acyclicity threshold must be >= 0")
    _, _, pairs, unpaired = _reduce(X)
    return not unpaired and _depth(X, pairs) <= r


def persistence_rank(X, r, s, degree) -> int:
    """Rank of the structure map H^degree(level <= r) -> H^degree(<= s)."""
    r, s = Fraction(r), Fraction(s)
    if s < r:
        raise ValueError("persistence_rank needs r <= s")
    B = barcode(X)
    return sum(
        1 for b in B if b.degree == degree and b.lo <= r and b.hi > s
    )


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


class _Ends:
    """One end of one side's bars, for range queries.

    `keys` are the distinct values of that end in increasing order and
    `below[k]` is the mask of the bars whose end is below keys[k]
    (`below[-1]` holds every bar), so the bars with an end in [a, b]
    are two bisections and one mask operation away.
    """

    __slots__ = ("keys", "below")

    def __init__(self, ends):
        at = {}
        for j, v in enumerate(ends):
            at[v] = at.get(v, 0) | 1 << j
        self.keys = sorted(at)
        below = [0]
        for v in self.keys:
            below.append(below[-1] | at[v])
        self.below = below

    def within(self, a, b):
        """The mask of the bars with an end in [a, b]."""
        keys, below = self.keys, self.below
        return below[bisect_right(keys, b)] & ~below[bisect_left(keys, a)]


def _kuhn(adj, nr, greedy=False):
    """Kuhn's augmenting-path matching on int masks, without recursion.

    `adj[u]` is the mask of left vertex u's neighbours among nr right
    vertices.  Left vertices are matched in index order, and each
    depth-first search goes on to the lowest neighbour it has not yet
    seen, so the matching found is fixed by `adj`.  With `greedy`, each
    left vertex first takes its lowest free neighbour, which changes
    the matching found but not whether one exists.  Returns the right
    partner of each left vertex, or None when some left vertex cannot
    be matched.
    """
    nl = len(adj)
    if nl > nr:
        return None
    match_l = [-1] * nl
    match_r = [-1] * nr
    if greedy:
        taken = 0
        for u, a in enumerate(adj):
            a &= ~taken
            if a:
                low = a & -a
                taken |= low
                v = low.bit_length() - 1
                match_l[u], match_r[v] = v, u
    everyone = (1 << nr) - 1
    for root in range(nl):
        if match_l[root] >= 0:
            continue
        # the path so far: left vertices `stack` then u, and `via` the
        # right vertex each of `stack` goes on through
        u, unseen = root, everyone
        stack, via = [], []
        while True:
            free = adj[u] & unseen
            if free:
                low = free & -free
                unseen ^= low
                v = low.bit_length() - 1
                w = match_r[v]
                stack.append(u)
                via.append(v)
                if w < 0:
                    break
                u = w
            elif stack:
                u = stack.pop()
                via.pop()
            else:
                return None
        for u, v in zip(stack, via):
            match_l[u] = v
            match_r[v] = u
    return match_l


class _Degree:
    """One degree's bars, every end scaled to an integer once.

    `f1`/`f2` are the finite bars' (lo, hi) and `ends1`/`ends2` index
    them by each end, so the bars of the other side that a bar may meet
    at cost <= t (lo within t of its lo and hi within t of its hi) are
    two range masks ANDed; `inf_ends2` does the same for the infinite
    bars' lo.  `thr1`/`thr2` are the levels at which each finite bar
    may be dropped as short; `floor` is the least tolerance at which
    the infinite bars have a perfect matching (on a line, pairing them
    in sorted order is optimal).
    """

    def __init__(self, fin1, inf1, fin2, inf2, scaled, rule):
        self.fin1, self.fin2, self.inf1, self.inf2 = fin1, fin2, inf1, inf2
        self.f1 = f1 = [(scaled(b.lo), scaled(b.hi)) for b in fin1]
        self.f2 = f2 = [(scaled(b.lo), scaled(b.hi)) for b in fin2]
        if rule == "half":
            self.thr1 = [2 * (hi - lo) for lo, hi in f1]
            self.thr2 = [2 * (hi - lo) for lo, hi in f2]
        else:
            self.thr1 = [(hi - lo) // 2 for lo, hi in f1]
            self.thr2 = [(hi - lo) // 2 for lo, hi in f2]
        self.ends1 = _Ends(lo for lo, _ in f1), _Ends(hi for _, hi in f1)
        self.ends2 = _Ends(lo for lo, _ in f2), _Ends(hi for _, hi in f2)
        self.inf_lo1 = [scaled(b.lo) for b in inf1]
        inf_lo2 = [scaled(b.lo) for b in inf2]
        self.inf_ends2 = _Ends(inf_lo2)
        self.floor = max(
            (abs(a - b) for a, b in
             zip(sorted(self.inf_lo1), sorted(inf_lo2))),
            default=0,
        )

    def candidates(self):
        """Every level at which this degree's feasibility can change:
        the short thresholds and the gaps between the two sides' lo
        ends and between their hi ends, a superset of the pair costs."""
        out = set(self.thr1)
        out.update(self.thr2)
        for e1, e2 in zip(self.ends1, self.ends2):
            out.update(map(abs, starmap(sub, product(e1.keys, e2.keys))))
        return out

    def feasible(self, t):
        """Decision at t >= floor: by the Mendelsohn-Dulmage theorem a
        matching of pairs of cost <= t that covers every non-short bar
        on both sides exists iff each side's non-short bars can be
        matched into the other side."""
        return (_covers(self.f1, self.thr1, self.ends2, len(self.f2), t)
                and _covers(self.f2, self.thr2, self.ends1, len(self.f1), t))

    def witness(self, t):
        """Matched pairs and short bars at t, from Kuhn's matching on the
        extended graph: left fin1 then a diagonal copy per fin2 bar,
        right fin2 then a diagonal copy per fin1 bar, where every
        diagonal copy may meet every other."""
        n1, n2 = len(self.fin1), len(self.fin2)
        lo2, hi2 = self.ends2
        adj = [
            lo2.within(lo - t, lo + t) & hi2.within(hi - t, hi + t)
            | (1 << n2 + i if th <= t else 0)
            for i, ((lo, hi), th) in enumerate(zip(self.f1, self.thr1))
        ]
        block = (1 << n1 + n2) - (1 << n2)
        adj += [block | (1 << j if th <= t else 0)
                for j, th in enumerate(self.thr2)]
        fin = _kuhn(adj, n1 + n2)
        inf = _kuhn([self.inf_ends2.within(a - t, a + t)
                     for a in self.inf_lo1], len(self.inf2))
        if fin is None or inf is None:
            raise AssertionError("bottleneck decision and witness disagree")
        matched = [(self.fin1[i], self.fin2[j])
                   for i, j in enumerate(fin[:n1]) if j < n2]
        matched += [(self.inf1[i], self.inf2[j]) for i, j in enumerate(inf)]
        short1 = [self.fin1[i] for i, j in enumerate(fin[:n1]) if j >= n2]
        short2 = [self.fin2[j] for j in fin[n1:] if j < n2]
        return matched, short1, short2


def _covers(bars, thr, ends, nr, t):
    """Whether the non-short bars (thr > t) can all be matched, at cost
    <= t, to the nr bars that `ends` indexes."""
    lo_e, hi_e = ends
    return _kuhn([lo_e.within(lo - t, lo + t) & hi_e.within(hi - t, hi + t)
                  for (lo, hi), th in zip(bars, thr) if th > t],
                 nr, greedy=True) is not None


def _least_feasible(grid, feasible):
    """The first level of the sorted `grid` at which `feasible` holds,
    by binary search: `feasible` must be monotone and hold at the last
    level."""
    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(grid[mid]):
            hi = mid
        else:
            lo = mid + 1
    return grid[lo]


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
    is an exact integer.  Per degree, a binary search over the
    candidate levels (`_Degree.candidates`) asks only whether a
    matching exists; the matching witness is built once, at the final
    value.  No cost matrix is formed: a bar's partners at a level are
    read off as range masks (`_Ends`), and `_kuhn` matches on them.
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
        t = _least_feasible(grid, p.feasible)
    matched, s1, s2 = [], [], []
    for p in parts:
        got = p.witness(t)
        matched.extend(got[0])
        s1.extend(got[1])
        s2.extend(got[2])
    tau = Fraction(t, scale)
    return tau, BottleneckWitness(tau, tuple(matched), tuple(s1), tuple(s2))
