"""Filtered cochain complexes over GF(2) and their filtered chain maps.

A complex is a finite filtered basis: each generator carries an integer
degree and an exact rational filtration level.  The differential raises
degree by 1 and never raises the level.  The filtration level of a
combination is the max over its support, so levels of arbitrary
elements are determined by the basis.

Degree conventions used throughout:
  * the differential has degree +1;
  * the translation T lowers generator degree by 1 (and T^-1 raises it),
    which is the unique choice making the mapping cone
    Y (+) TX, with mixing block f, degree-legal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import NamedTuple

from .f2linalg import (
    F2SparseMatrix,
    _apply,
    _bits,
    _columns,
    _mask_from_indices,
    solve_in_span,
)
from .rationals import NEG_INF, fmt_scalar, is_finite, parse_scalar


class Generator(NamedTuple):
    gid: str
    degree: int
    ell: Fraction


def _scaled(gens):
    """The lcm of the generators' level denominators and each level's
    numerator over it: levels as ints that compare like the levels."""
    for g in gens:
        if not isinstance(g.ell, (int, Fraction)):
            raise ValueError(f"generator {g.gid!r}: level {g.ell!r} is not "
                             "an int or Fraction")
    return _over_lcd([g.ell for g in gens])


def _over_lcd(levels):
    """Fraction levels as ints over their least common denominator."""
    den = lcm(*{v.denominator for v in levels})
    return den, tuple(v.numerator * (den // v.denominator) for v in levels)


def _shifted(den, lev, r):
    """The levels lev / den plus the Fraction r, again as ints over their
    least common denominator: dividing out the gcd of the numerators
    keeps equal complexes hashing equally."""
    if not r:
        return den, lev
    d = lcm(den, r.denominator)
    a, top = d // den, r.numerator * (d // r.denominator)
    lev = [v * a + top for v in lev]
    g = gcd(d, *lev)
    if g == 1:
        return d, tuple(lev)
    return d // g, tuple(v // g for v in lev)


def _joined(scales):
    """The (den, lev) of generators concatenated from parts of the given
    (den, lev) scales: the lcm of their least common denominators is
    again the least common denominator."""
    den = lcm(*(d for d, _ in scales))
    return den, tuple(v * (den // d) for d, lev in scales for v in lev)


def _unique_index(ids):
    """{id: position}, refusing a repeated id."""
    index = {}
    for i, gid in enumerate(ids):
        if gid in index:
            raise ValueError(f"duplicate generator id {gid!r}")
        index[gid] = i
    return index


class FilteredComplex:
    """Immutable filtered cochain complex with a distinguished basis.

    A complex holds its generators as the tuples `_ids` and `_deg` and
    their levels as ints `_lev` over the least common denominator
    `_den`; all internal code reads those.  The public `gens`, one
    `Generator` with a `Fraction` level per generator, is built on its
    first read and kept, and so is `_of_degree()`, the generators of each
    degree as one mask.  Constructions that read their parts off other
    complexes build through `_from_parts`."""

    __slots__ = ("_ids", "_deg", "_den", "_lev", "diff", "_gens", "_index",
                 "_degmask", "_hash")

    def __init__(self, gens, diff):
        gens, diff = tuple(gens), tuple(diff)
        if len(diff) != len(gens):
            raise ValueError("one differential column per generator required")
        ids = tuple(g.gid for g in gens)
        index = _unique_index(ids)
        den, lev = _scaled(gens)
        self._set(ids, tuple(g.degree for g in gens), den, lev, diff, index)
        object.__setattr__(self, "_gens", gens)

    @classmethod
    def _from_parts(cls, ids, deg, den, lev, diff, index=None):
        """A complex of the given parts, with no check: ids distinct,
        one entry per generator in each, den the least common
        denominator of the levels lev / den."""
        X = object.__new__(cls)
        X._set(ids, deg, den, lev, tuple(diff), index)
        return X

    def _set(self, ids, deg, den, lev, diff, index):
        put = object.__setattr__
        put(self, "_ids", ids)
        put(self, "_deg", deg)
        put(self, "_den", den)
        put(self, "_lev", lev)
        put(self, "diff", diff)
        put(self, "_gens", None)
        put(self, "_index", index)
        put(self, "_degmask", None)
        # _den is the least common denominator, never a multiple of it,
        # so equal complexes have equal _den and _lev
        put(self, "_hash", hash((lev, den, diff)))

    def __setattr__(self, name, value):
        raise AttributeError("FilteredComplex is immutable")

    # -- basic views ---------------------------------------------------

    @property
    def gens(self):
        """The generators as `Generator`s, built on first read."""
        gens = self._gens
        if gens is None:
            den, lev = self._den, self._lev
            ell = {v: Fraction(v, den) for v in set(lev)}
            gens = tuple(map(Generator, self._ids, self._deg,
                             map(ell.__getitem__, lev)))
            object.__setattr__(self, "_gens", gens)
        return gens

    @property
    def n(self) -> int:
        return len(self._ids)

    def is_zero(self) -> bool:
        return not self._ids

    def index_of(self, gid: str) -> int:
        if self._index is None:
            object.__setattr__(self, "_index",
                               {g: i for i, g in enumerate(self._ids)})
        return self._index[gid]

    def degree(self, i) -> int:
        return self._deg[i]

    def _of_degree(self):
        """{degree: mask of the generators of that degree}, built on
        first read and kept."""
        table = self._degmask
        if table is None:
            table = {}
            for g, d in enumerate(self._deg):
                table[d] = table.get(d, 0) | 1 << g
            object.__setattr__(self, "_degmask", table)
        return table

    def ell(self, i) -> Fraction:
        return Fraction(self._lev[i], self._den)

    def diff_matrix(self) -> F2SparseMatrix:
        return F2SparseMatrix(self.diff, self.n)

    def level_of(self, vec: int):
        """Filtration level of an element: max over the support."""
        lev = self._lev
        top = max(_bits(vec), key=lev.__getitem__, default=None)
        return NEG_INF if top is None else self.ell(top)

    def __eq__(self, other):
        if self is other:
            return True
        # equal complexes hash equally, so a hash mismatch settles it
        return (
            isinstance(other, FilteredComplex)
            and self._hash == other._hash
            and self._lev == other._lev
            and self._den == other._den
            and self._deg == other._deg
            and self._ids == other._ids
            and self.diff == other.diff
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FilteredComplex({self.n} gens)"

    # -- validation ----------------------------------------------------

    def validate(self):
        """All invariant violations, as human-readable records."""
        problems = []
        ids, deg, lev, diff = self._ids, self._deg, self._lev, self.diff
        n = len(ids)
        for i, c in enumerate(diff):
            if c < 0:
                problems.append(f"d({ids[i]}) is a negative column")
                continue
            for j in _bits(c):
                if j >= n:
                    problems.append(f"d({ids[i]}) hits index {j} out of range")
                    continue
                if deg[j] != deg[i] + 1:
                    problems.append(
                        f"degree violation: d({ids[i]}) contains {ids[j]} "
                        f"of degree {deg[j]}, expected {deg[i] + 1}"
                    )
                if lev[j] > lev[i]:
                    problems.append(
                        f"filtration violation: d({ids[i]}) contains "
                        f"{ids[j]} with level {fmt_scalar(self.ell(j))} > "
                        f"{fmt_scalar(self.ell(i))}"
                    )
        # d(d(g)) is only defined where d(g) stays in range
        for gid, c in zip(ids, diff):
            if not c >> n and _apply(diff, c):
                problems.append(f"d(d({gid})) != 0")
        return problems


def make_complex(gen_triples, boundaries=None) -> FilteredComplex:
    """Build a complex from (id, degree, level) triples and id-level
    boundary data {src: iterable of target ids}."""
    ids, deg, levels = [], [], []
    for gid, d, ell in gen_triples:
        ids.append(gid)
        deg.append(int(d))
        levels.append(ell if type(ell) is Fraction else Fraction(ell))
    index = _unique_index(ids)
    boundaries = boundaries or {}
    cols = [_mask_from_indices(index[t] for t in boundaries.get(gid, ()))
            for gid in ids]
    return FilteredComplex._from_parts(tuple(ids), tuple(deg),
                                       *_over_lcd(levels), cols, index)


def zero_complex() -> FilteredComplex:
    return FilteredComplex((), ())


# ----------------------------------------------------------------------
# chain maps


class FilteredChainMap:
    """GF(2)-linear map between complexes, column per source generator."""

    __slots__ = ("source", "target", "degree", "cols")

    def __init__(self, source, target, cols, degree=0):
        cols, bad = _columns(cols, target.n)
        if len(cols) != source.n:
            raise ValueError("one column per source generator required")
        if bad is not None:
            raise ValueError("map column exceeds target size")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("FilteredChainMap is immutable")

    @classmethod
    def zero(cls, source, target, degree=0):
        return cls(source, target, [0] * source.n, degree)

    @classmethod
    def identity(cls, X):
        return _inclusion(X, X, 0)

    @classmethod
    def from_pairs(cls, source, target, pairs, degree=0):
        """pairs: {source id: iterable of target ids}."""
        cols = [_mask_from_indices(target.index_of(t)
                                   for t in pairs.get(gid, ()))
                for gid in source._ids]
        return cls(source, target, cols, degree)

    def matrix(self) -> F2SparseMatrix:
        return F2SparseMatrix(self.cols, self.target.n)

    def apply(self, vec: int) -> int:
        return _apply(self.cols, vec)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("cannot add maps with different endpoints")
        if self.degree != other.degree:
            raise ValueError("cannot add maps of different degrees")
        return FilteredChainMap(
            self.source,
            self.target,
            [a ^ b for a, b in zip(self.cols, other.cols)],
            self.degree,
        )

    def __eq__(self, other):
        return (
            isinstance(other, FilteredChainMap)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.degree, self.cols))

    def viewed(self, source=None, target=None, degree=None):
        """Same matrix between different (size-matching) anchors.

        Used for the shift functors: shifting a complex does not change
        any matrix, only the levels against which shifts are measured.
        The degree is re-read off the first nonzero entry (zero maps
        keep their declared degree unless one is given).
        """
        source = source if source is not None else self.source
        target = target if target is not None else self.target
        if source.n != self.source.n or target.n != self.target.n:
            raise ValueError("viewed() requires size-matching complexes")
        if degree is None:
            degree = self.degree
            for j, c in enumerate(self.cols):
                if c:
                    degree = (target._deg[c.bit_length() - 1]
                              - source._deg[j])
                    break
        return FilteredChainMap(source, target, self.cols, degree)

    def validate(self):
        problems = []
        S, T = self.source, self.target
        for j, c in enumerate(self.cols):
            for i in _bits(c):
                if T._deg[i] != S._deg[j] + self.degree:
                    problems.append(
                        f"map degree violation on {S._ids[j]} -> {T._ids[i]}"
                    )
        return problems

    def is_closed(self) -> bool:
        """Chain-map condition dT*f + f*dS = 0 (signs vacuous mod 2),
        decided column by column."""
        return _boundary_is(self.cols, self.source.diff, self.target.diff,
                            repeat(0))


def _boundary_is(h, dS, dT, rhs):
    """Is dT o h + h o dS, for the map with columns h, equal to rhs,
    column by column?  A column with at most one bit is read by index."""
    for c, d, e in zip(h, dS, rhs):
        if c & (c - 1):
            c = _apply(dT, c)
        elif c:
            c = dT[c.bit_length() - 1]
        if d & (d - 1):
            d = _apply(h, d)
        elif d:
            d = h[d.bit_length() - 1]
        if c ^ d != e:
            return False
    return True


def _shift_num(S, T, cols):
    """The shift of the map S -> T with columns cols as an int over
    lcm(S._den, T._den), or None for the zero map."""
    den = lcm(S._den, T._den)
    a, b = den // S._den, den // T._den
    tl = T._lev
    r = None
    for s, c in zip(S._lev, cols):
        if not c:
            continue
        if c & (c - 1):
            t = max(map(tl.__getitem__, _bits(c))) * b - s * a
        else:
            t = tl[c.bit_length() - 1] * b - s * a
        if r is None or t > r:
            r = t
    return r


def _shift_within(S, T, cols, bound):
    """Is the shift of the map S -> T with columns cols at most bound,
    an int or Fraction?  Decided in ints."""
    r = _shift_num(S, T, cols)
    return r is None or (r * bound.denominator
                         <= bound.numerator * lcm(S._den, T._den))


def shift_of_map(f: FilteredChainMap):
    """Least r with level(f(x)) <= level(x) + r; -inf for the zero map."""
    S, T = f.source, f.target
    r = _shift_num(S, T, f.cols)
    return NEG_INF if r is None else Fraction(r, lcm(S._den, T._den))


def compose(g: FilteredChainMap, f: FilteredChainMap) -> FilteredChainMap:
    if g.source != f.target:
        raise ValueError("compose: target of inner map != source of outer")
    gc = g.cols
    return FilteredChainMap(
        f.source,
        g.target,
        [_apply(gc, c) for c in f.cols],
        f.degree + g.degree,
    )


# ----------------------------------------------------------------------
# shift, translation, direct sums


def shift_complex(X: FilteredComplex, r) -> FilteredComplex:
    """Sigma^r: add r to every filtration level; differential unchanged."""
    r = Fraction(r)
    if r == 0:
        return X
    return FilteredComplex._from_parts(X._ids, X._deg,
                                       *_shifted(X._den, X._lev, r),
                                       X.diff, X._index)


def translate(X: FilteredComplex) -> FilteredComplex:
    """T: lower every generator degree by 1; levels and d unchanged."""
    return FilteredComplex._from_parts(X._ids, tuple(d - 1 for d in X._deg),
                                       X._den, X._lev, X.diff, X._index)


def translate_inverse(X: FilteredComplex) -> FilteredComplex:
    return FilteredComplex._from_parts(X._ids, tuple(d + 1 for d in X._deg),
                                       X._den, X._lev, X.diff, X._index)


def translate_map(f: FilteredChainMap) -> FilteredChainMap:
    return f.viewed(translate(f.source), translate(f.target))


def _disambiguate(*id_lists):
    """Ids of a disjoint union, in order: an id already taken by an
    earlier generator is primed until it is free.  `taken` only grows,
    so every form of an id up to the last primed one handed out is
    still taken, and the search for the next starts there."""
    taken = set()
    last = {}
    out = []
    for ids in id_lists:
        for gid in ids:
            if gid in taken:
                base = gid
                gid = last.get(base, base)
                while gid in taken:
                    gid = gid + "'"
                last[base] = gid
            taken.add(gid)
            out.append(gid)
    return tuple(out)


def sum_complexes(parts):
    """Direct sum of a list of complexes and each part's generator
    offset, the one direct-sum constructor.  Bases are concatenated in
    order and each part's differential is shifted by its offset; an id
    already taken by an earlier part is primed until it is free.  The
    inclusion and projection of a part are its blocks by offset,
    `_inclusion(P, Z, off)` and `_projection(Z, P, off)`."""
    offsets = []
    n = 0
    for p in parts:
        offsets.append(n)
        n += p.n
    nonzero = [p for p in parts if not p.is_zero()]
    if len(nonzero) <= 1:
        return (nonzero[0] if nonzero else zero_complex()), offsets
    ids = _disambiguate(*(p._ids for p in parts))
    deg = tuple(d for p in parts for d in p._deg)
    cols = [c << off for p, off in zip(parts, offsets) for c in p.diff]
    den, lev = _joined([(p._den, p._lev) for p in parts])
    return FilteredComplex._from_parts(ids, deg, den, lev, cols), offsets


def _inclusion(X: FilteredComplex, Z: FilteredComplex, off):
    """The block inclusion X -> Z onto generators off, off + 1, ..."""
    return FilteredChainMap(X, Z, [1 << (off + i) for i in range(X.n)], 0)


def _projection(Z: FilteredComplex, X: FilteredComplex, off):
    """The block projection Z -> X off generators off, off + 1, ..."""
    cols = [0] * Z.n
    for i in range(X.n):
        cols[off + i] = 1 << i
    return FilteredChainMap(Z, X, cols, 0)


# ----------------------------------------------------------------------
# eta comparison maps


def eta(X: FilteredComplex, r) -> FilteredChainMap:
    """The canonical comparison Sigma^r X -> X (the identity matrix)."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("eta requires r >= 0")
    return FilteredChainMap.identity(X).viewed(shift_complex(X, r), X)


# ----------------------------------------------------------------------
# mapping cones


def cone(f: FilteredChainMap, lam=0) -> FilteredComplex:
    """lam-filtered mapping cone of a closed degree-0 map f: X -> Y.

    Generators are those of Y followed by those of Sigma^lam T X; the
    differential of an X-part generator is f(x) plus the translated
    d(x).  Requires lam >= shift(f) so the result is filtration-legal.
    The cone maps are the blocks by offset: `_inclusion(Y, C, 0)` and
    `_projection(C, Sigma^lam T X, Y.n)`.
    """
    lam = Fraction(lam)
    if f.degree != 0:
        raise ValueError("cone requires a degree-0 map")
    X, Y = f.source, f.target
    # a map with no columns is closed and of shift -inf
    if not X.is_zero():
        if not f.is_closed():
            raise ValueError("cone requires a closed map")
        if not _shift_within(X, Y, f.cols, lam):
            sh = shift_of_map(f)
            raise ValueError(
                f"cone level too small: lambda = {fmt_scalar(lam)} < "
                f"shift {fmt_scalar(sh)} (deficit {fmt_scalar(sh - lam)})"
            )
    return _cone(f, lam)


def _cone(f, lam):
    """`cone` of f and the Fraction or int lam with none of its checks,
    for a map just checked to be closed, of degree 0 and of shift
    <= lam."""
    X, Y = f.source, f.target
    if X.is_zero():
        return Y
    ids = _disambiguate(Y._ids, ["t." + gid for gid in X._ids])
    deg = Y._deg + tuple(d - 1 for d in X._deg)
    den, lev = _joined([(Y._den, Y._lev), _shifted(X._den, X._lev, lam)])
    off = Y.n
    cols = list(Y.diff)
    for i in range(X.n):
        cols.append(f.cols[i] | X.diff[i] << off)
    return FilteredComplex._from_parts(ids, deg, den, lev, cols)


# ----------------------------------------------------------------------
# hom complexes and nullhomotopies


def _hom_pairs(X, Y, degree, bound=None):
    """The (s, t) of Hom(X, Y) of degree `degree` (of every degree for
    None) and, given a bound, of level <= bound, in flat order: the
    elementary maps x_s* (x) y_t a solve may use."""
    tops = None
    if bound is not None and is_finite(bound):
        # level(t) - level(s) <= bound, on one common denominator
        b = Fraction(bound)
        den = lcm(X._den, Y._den, b.denominator)
        yl = [v * (den // Y._den) for v in Y._lev]
        a, top = den // X._den, b.numerator * (den // b.denominator)
        tops = [v * a + top for v in X._lev]
    elif bound is not None and bound < 0:
        return []  # no level is <= -inf; a bound of +inf keeps every pair
    by_degree = {}
    for t, dt in enumerate(Y._deg):
        by_degree.setdefault(dt, []).append(t)
    pairs = []
    for s, ds in enumerate(X._deg):
        ts = (range(Y.n) if degree is None
              else by_degree.get(ds + degree, ()))
        if tops is not None:
            top = tops[s]
            ts = [t for t in ts if yl[t] <= top]
        pairs.extend((s, t) for t in ts)
    return pairs


def _hom_hits(cols, n, nY):
    """Per s < n, the flat positions (s', 0) of every s' whose column in
    `cols` contains s.  Shifted by t they give the h o a part of column
    (s, t) of Hom(X, Y), for a map a with these columns into X: with
    a = dX this is the h o dX part of the differential."""
    hits = [0] * n
    for sp, c in enumerate(cols):
        for s in _bits(c):
            hits[s] |= 1 << (sp * nY)
    return hits


def _hom_slice(X, Y, degree, bound=None):
    """The `_hom_pairs` of a slice of Hom(X, Y) and the differential
    d(x_s* (x) y_t) = dY o h + h o dX of each, as a flat mask."""
    pairs = _hom_pairs(X, Y, degree, bound)
    hits = _hom_hits(X.diff, X.n, Y.n)
    nY = Y.n
    return pairs, [(Y.diff[t] << (s * nY)) | (hits[s] << t)
                   for s, t in pairs]


def _flat(f: FilteredChainMap) -> int:
    """f as a mask over the flat coordinates s * |target| + t."""
    m = 0
    nY = f.target.n
    for s, c in enumerate(f.cols):
        m |= c << (s * nY)
    return m


def _map_at(X, Y, pairs, mask, degree) -> FilteredChainMap:
    """The map X -> Y with an entry at pairs[k] for each bit k of mask."""
    cols = [0] * X.n
    while mask:
        low = mask & -mask
        s, t = pairs[low.bit_length() - 1]
        cols[s] |= 1 << t
        mask ^= low
    return FilteredChainMap(X, Y, cols, degree)


class HomComplex:
    """Hom(X, Y) as a filtered complex on elementary maps x* (x) y.

    Flat index of the pair (s, t) is s * Y.n + t.  An elementary map
    has degree deg(t) - deg(s) and level ell(t) - ell(s); the
    differential is h -> dY o h + h o dX.  Solvers build only the
    slices they use (`_hom_slice`).
    """

    __slots__ = ("X", "Y", "complex")

    def __init__(self, X: FilteredComplex, Y: FilteredComplex):
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        pairs, cols = _hom_slice(X, Y, None)
        gens = [
            Generator(f"{X.gens[s].gid}>{Y.gens[t].gid}",
                      Y.gens[t].degree - X.gens[s].degree,
                      Y.gens[t].ell - X.gens[s].ell)
            for s, t in pairs
        ]
        object.__setattr__(self, "complex", FilteredComplex(gens, cols))

    def __setattr__(self, name, value):
        raise AttributeError("HomComplex is immutable")

    def encode(self, f: FilteredChainMap) -> int:
        if f.source != self.X or f.target != self.Y:
            raise ValueError("map does not live in this hom complex")
        return _flat(f)

    def decode(self, vec: int, degree) -> FilteredChainMap:
        nY = self.Y.n
        flat = [divmod(i, nY) for i in range(self.X.n * nY)]
        return _map_at(self.X, self.Y, flat, vec, degree)

    def gens_with(self, degree=None, max_level=None):
        """Flat indices filtered by degree and level bound."""
        out = []
        for i, g in enumerate(self.complex.gens):
            if degree is not None and g.degree != degree:
                continue
            if max_level is not None and g.ell > max_level:
                continue
            out.append(i)
        return out


def nullhomotopy(f: FilteredChainMap, bound):
    """An h of degree deg(f)-1 and level <= bound with dh + hd = f,
    or None if no such homotopy exists.  Decided exactly.

    The system is the one over Hom(X, Y), restricted to the elementary
    maps h may use: their columns, in flat order, are built directly
    and solved as a compact matrix, so no other column is made.
    """
    if f.is_zero():
        return FilteredChainMap.zero(f.source, f.target, f.degree - 1)
    X, Y = f.source, f.target
    pairs, cols = _hom_slice(X, Y, f.degree - 1, bound)
    x = solve_in_span(F2SparseMatrix(cols, X.n * Y.n), _flat(f))
    if x is None:
        return None
    return _map_at(X, Y, pairs, x, f.degree - 1)


def is_nullhomotopic_within(f: FilteredChainMap, s):
    """Homotopy witnessing f ~ 0 with level <= shift(f) + s, or None."""
    if f.is_zero():
        return FilteredChainMap.zero(f.source, f.target, f.degree - 1)
    return nullhomotopy(f, shift_of_map(f) + Fraction(s))


def homotopic(f: FilteredChainMap, g: FilteredChainMap, bound=0):
    """Homotopy h of level <= bound with dh + hd = f + g, or None."""
    if f.cols == g.cols:
        return FilteredChainMap.zero(f.source, f.target, f.degree - 1)
    return nullhomotopy(f + g, Fraction(bound))


# ----------------------------------------------------------------------
# text formats


def _directives(text: str):
    """(line number, tokens) of each line of a text format that holds
    more than a `#` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, parts


def parse_complex(text: str) -> FilteredComplex:
    """Complex text format:

        gen <id> <degree> <filtration>
        d <src> <tgt> [<tgt> ...]

    `#` starts a comment; ids are ASCII tokens without whitespace.
    """
    triples = []
    boundaries = {}
    for lineno, parts in _directives(text):
        if parts[0] == "gen":
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: gen wants id degree level")
            triples.append((parts[1], int(parts[2]), parse_scalar(parts[3])))
        elif parts[0] == "d":
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: d wants a source id")
            boundaries[parts[1]] = parts[2:]
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    try:
        return make_complex(triples, boundaries)
    except KeyError as exc:
        raise ValueError(f"unknown generator id {exc.args[0]!r}") from exc


def complex_to_text(X: FilteredComplex) -> str:
    lines = []
    for g in X.gens:
        lines.append(f"gen {g.gid} {g.degree} {fmt_scalar(g.ell)}")
    for i, g in enumerate(X.gens):
        if X.diff[i]:
            tgts = " ".join(X.gens[j].gid for j in _bits(X.diff[i]))
            lines.append(f"d {g.gid} {tgts}")
    return "\n".join(lines) + "\n"


def parse_map(text: str, load_complex) -> FilteredChainMap:
    """Map text format: header `map <source-file> <target-file> [degree]`
    then lines `f <src> <tgt> [<tgt> ...]`.  `load_complex` resolves a
    referenced file name to a FilteredComplex."""
    source = target = None
    degree = 0
    pairs = {}
    for lineno, parts in _directives(text):
        if parts[0] == "map":
            if len(parts) not in (3, 4):
                raise ValueError(f"line {lineno}: map wants source target")
            source = load_complex(parts[1])
            target = load_complex(parts[2])
            if len(parts) == 4:
                degree = int(parts[3])
        elif parts[0] == "f":
            if source is None:
                raise ValueError(f"line {lineno}: f before map header")
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: f wants a source id")
            pairs[parts[1]] = parts[2:]
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if source is None:
        raise ValueError("missing map header")
    try:
        return FilteredChainMap.from_pairs(source, target, pairs, degree)
    except KeyError as exc:
        raise ValueError(f"unknown generator id {exc.args[0]!r}") from exc


def map_to_text(f: FilteredChainMap, source_name="A", target_name="B") -> str:
    lines = [f"map {source_name} {target_name} {f.degree}"]
    for j, c in enumerate(f.cols):
        if c:
            tgts = " ".join(f.target.gens[i].gid for i in _bits(c))
            lines.append(f"f {f.source.gens[j].gid} {tgts}")
    return "\n".join(lines) + "\n"
