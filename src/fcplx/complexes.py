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
from typing import NamedTuple

from .f2linalg import ZERO, F2SparseMatrix, F2Vector, solve_in_span
from .rationals import NEG_INF, fmt_scalar, is_finite, parse_scalar


class Generator(NamedTuple):
    gid: str
    degree: int
    ell: Fraction


class FilteredComplex:
    """Immutable filtered cochain complex with a distinguished basis."""

    __slots__ = ("gens", "diff", "_index", "_hash")

    def __init__(self, gens, diff):
        gens = tuple(gens)
        diff = tuple(
            c if isinstance(c, F2Vector) else F2Vector(c) for c in diff
        )
        if len(diff) != len(gens):
            raise ValueError("one differential column per generator required")
        index = {}
        for i, g in enumerate(gens):
            if g.gid in index:
                raise ValueError(f"duplicate generator id {g.gid!r}")
            index[g.gid] = i
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "diff", diff)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", hash((gens, diff)))

    def __setattr__(self, name, value):
        raise AttributeError("FilteredComplex is immutable")

    # -- basic views ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def index_of(self, gid: str) -> int:
        return self._index[gid]

    def degree(self, i) -> int:
        return self.gens[i].degree

    def ell(self, i) -> Fraction:
        return self.gens[i].ell

    def diff_matrix(self) -> F2SparseMatrix:
        return F2SparseMatrix(self.diff, self.n)

    def level_of(self, vec: F2Vector):
        """Filtration level of an element: max over the support."""
        lev = NEG_INF
        for i in vec:
            if lev == NEG_INF or self.gens[i].ell > lev:
                lev = self.gens[i].ell
        return lev

    def __eq__(self, other):
        return (
            isinstance(other, FilteredComplex)
            and self.gens == other.gens
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
        for i, g in enumerate(self.gens):
            for j in self.diff[i]:
                if j >= self.n:
                    problems.append(f"d({g.gid}) hits index {j} out of range")
                    continue
                h = self.gens[j]
                if h.degree != g.degree + 1:
                    problems.append(
                        f"degree violation: d({g.gid}) contains {h.gid} "
                        f"of degree {h.degree}, expected {g.degree + 1}"
                    )
                if h.ell > g.ell:
                    problems.append(
                        f"filtration violation: d({g.gid}) contains {h.gid} "
                        f"with level {fmt_scalar(h.ell)} > {fmt_scalar(g.ell)}"
                    )
        D = self.diff_matrix()
        DD = D.matmul(D)
        for i in range(self.n):
            if DD.column(i):
                problems.append(f"d(d({self.gens[i].gid})) != 0")
        return problems


def make_complex(gen_triples, boundaries=None) -> FilteredComplex:
    """Build a complex from (id, degree, level) triples and id-level
    boundary data {src: iterable of target ids}."""
    gens = tuple(
        Generator(gid, int(d), Fraction(ell)) for gid, d, ell in gen_triples
    )
    index = {g.gid: i for i, g in enumerate(gens)}
    cols = []
    boundaries = boundaries or {}
    for g in gens:
        tgts = boundaries.get(g.gid, ())
        cols.append(F2Vector(index[t] for t in tgts))
    return FilteredComplex(gens, cols)


def zero_complex() -> FilteredComplex:
    return FilteredComplex((), ())


# ----------------------------------------------------------------------
# chain maps


class FilteredChainMap:
    """GF(2)-linear map between complexes, column per source generator."""

    __slots__ = ("source", "target", "degree", "cols")

    def __init__(self, source, target, cols, degree=0):
        cols = tuple(
            c if isinstance(c, F2Vector) else F2Vector(c) for c in cols
        )
        if len(cols) != source.n:
            raise ValueError("one column per source generator required")
        for c in cols:
            t = c.top()
            if t is not None and t >= target.n:
                raise ValueError("map column exceeds target size")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("FilteredChainMap is immutable")

    @classmethod
    def zero(cls, source, target, degree=0):
        return cls(source, target, [ZERO] * source.n, degree)

    @classmethod
    def identity(cls, X):
        return cls(X, X, [F2Vector(mask=1 << i) for i in range(X.n)], 0)

    @classmethod
    def from_pairs(cls, source, target, pairs, degree=0):
        """pairs: {source id: iterable of target ids}."""
        cols = []
        for g in source.gens:
            tgts = pairs.get(g.gid, ())
            cols.append(F2Vector(target.index_of(t) for t in tgts))
        return cls(source, target, cols, degree)

    def matrix(self) -> F2SparseMatrix:
        return F2SparseMatrix(self.cols, self.target.n)

    def apply(self, vec: F2Vector) -> F2Vector:
        m = 0
        for j in vec:
            m ^= self.cols[j].mask
        return F2Vector(mask=m)

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("cannot add maps with different endpoints")
        if self.degree != other.degree:
            raise ValueError("cannot add maps of different degrees")
        return FilteredChainMap(
            self.source,
            self.target,
            [a + b for a, b in zip(self.cols, other.cols)],
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
                t = c.top()
                if t is not None:
                    degree = target.degree(t) - source.degree(j)
                    break
        return FilteredChainMap(source, target, self.cols, degree)

    def validate(self):
        problems = []
        for j, c in enumerate(self.cols):
            g = self.source.gens[j]
            for i in c:
                h = self.target.gens[i]
                if h.degree != g.degree + self.degree:
                    problems.append(
                        f"map degree violation on {g.gid} -> {h.gid}"
                    )
        return problems

    def is_closed(self) -> bool:
        """Chain-map condition dT*f + f*dS = 0 (signs vacuous mod 2)."""
        DT = self.target.diff_matrix()
        M = self.matrix()
        DS = self.source.diff_matrix()
        return DT.matmul(M) == M.matmul(DS)


def shift_of_map(f: FilteredChainMap):
    """Least r with level(f(x)) <= level(x) + r; -inf for the zero map."""
    best = NEG_INF
    for j, c in enumerate(f.cols):
        lj = f.source.gens[j].ell
        for i in c:
            d = f.target.gens[i].ell - lj
            if best == NEG_INF or d > best:
                best = d
    return best


def compose(g: FilteredChainMap, f: FilteredChainMap) -> FilteredChainMap:
    if g.source != f.target:
        raise ValueError("compose: target of inner map != source of outer")
    return FilteredChainMap(
        f.source,
        g.target,
        [g.apply(c) for c in f.cols],
        f.degree + g.degree,
    )


# ----------------------------------------------------------------------
# shift, translation, direct sums


def shift_complex(X: FilteredComplex, r) -> FilteredComplex:
    """Sigma^r: add r to every filtration level; differential unchanged."""
    r = Fraction(r)
    if r == 0:
        return X
    return FilteredComplex(
        tuple(Generator(g.gid, g.degree, g.ell + r) for g in X.gens),
        X.diff,
    )


def translate(X: FilteredComplex) -> FilteredComplex:
    """T: lower every generator degree by 1; levels and d unchanged."""
    return FilteredComplex(
        tuple(Generator(g.gid, g.degree - 1, g.ell) for g in X.gens),
        X.diff,
    )


def translate_inverse(X: FilteredComplex) -> FilteredComplex:
    return FilteredComplex(
        tuple(Generator(g.gid, g.degree + 1, g.ell) for g in X.gens),
        X.diff,
    )


def translate_map(f: FilteredChainMap) -> FilteredChainMap:
    return f.viewed(translate(f.source), translate(f.target))


class DirectSum(NamedTuple):
    complex: FilteredComplex
    include_left: FilteredChainMap
    include_right: FilteredChainMap
    project_left: FilteredChainMap
    project_right: FilteredChainMap


def _disambiguate(left_ids, right_ids):
    taken = set(left_ids)
    out = []
    for gid in right_ids:
        new = gid
        while new in taken:
            new = new + "'"
        taken.add(new)
        out.append(new)
    return out


def direct_sum(X: FilteredComplex, Y: FilteredComplex) -> DirectSum:
    """Disjoint union of bases; colliding right ids get primed."""
    if X.is_zero():
        idy = FilteredChainMap.identity(Y)
        return DirectSum(
            Y,
            FilteredChainMap.zero(X, Y),
            idy,
            FilteredChainMap.zero(Y, X),
            idy,
        )
    if Y.is_zero():
        idx = FilteredChainMap.identity(X)
        return DirectSum(
            X,
            idx,
            FilteredChainMap.zero(Y, X),
            idx,
            FilteredChainMap.zero(X, Y),
        )
    right_ids = _disambiguate([g.gid for g in X.gens], [g.gid for g in Y.gens])
    gens = list(X.gens) + [
        Generator(right_ids[i], g.degree, g.ell) for i, g in enumerate(Y.gens)
    ]
    off = X.n
    cols = list(X.diff) + [
        F2Vector(mask=c.mask << off) for c in Y.diff
    ]
    Z = FilteredComplex(gens, cols)
    inc_l = FilteredChainMap(
        X, Z, [F2Vector(mask=1 << i) for i in range(X.n)], 0
    )
    inc_r = FilteredChainMap(
        Y, Z, [F2Vector(mask=1 << (off + i)) for i in range(Y.n)], 0
    )
    proj_l = FilteredChainMap(
        Z,
        X,
        [F2Vector(mask=1 << i) for i in range(X.n)] + [ZERO] * Y.n,
        0,
    )
    proj_r = FilteredChainMap(
        Z,
        Y,
        [ZERO] * X.n + [F2Vector(mask=1 << i) for i in range(Y.n)],
        0,
    )
    return DirectSum(Z, inc_l, inc_r, proj_l, proj_r)


def map_direct_sum(f, g, sum_src: DirectSum, sum_tgt: DirectSum):
    """Block-diagonal f (+) g between prepared direct sums."""
    left = compose(sum_tgt.include_left, compose(f, sum_src.project_left))
    right = compose(sum_tgt.include_right, compose(g, sum_src.project_right))
    return left + right


# ----------------------------------------------------------------------
# eta comparison maps


def eta(X: FilteredComplex, r) -> FilteredChainMap:
    """The canonical comparison Sigma^r X -> X (the identity matrix)."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("eta requires r >= 0")
    return FilteredChainMap.identity(X).viewed(shift_complex(X, r), X)


def eta_down(X: FilteredComplex, r) -> FilteredChainMap:
    """The same comparison viewed X -> Sigma^{-r} X."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("eta_down requires r >= 0")
    return FilteredChainMap.identity(X).viewed(X, shift_complex(X, -r))


# ----------------------------------------------------------------------
# mapping cones


class ConeResult(NamedTuple):
    complex: FilteredComplex
    include: FilteredChainMap      # Y -> Cone
    project: FilteredChainMap      # Cone -> Sigma^lam T X
    y_indices: tuple
    x_indices: tuple


def cone(f: FilteredChainMap, lam=0) -> ConeResult:
    """lam-filtered mapping cone of a closed degree-0 map f: X -> Y.

    Generators are those of Y followed by those of Sigma^lam T X; the
    differential of an X-part generator is f(x) plus the translated
    d(x).  Requires lam >= shift(f) so the result is filtration-legal.
    """
    lam = Fraction(lam)
    if f.degree != 0:
        raise ValueError("cone requires a degree-0 map")
    if not f.is_closed():
        raise ValueError("cone requires a closed map")
    sh = shift_of_map(f)
    if is_finite(sh) and lam < sh:
        raise ValueError(
            f"cone level too small: lambda = {fmt_scalar(lam)} < "
            f"shift {fmt_scalar(sh)} (deficit {fmt_scalar(sh - lam)})"
        )
    X, Y = f.source, f.target
    tx = shift_complex(translate(X), lam)
    if X.is_zero():
        return ConeResult(
            Y,
            FilteredChainMap.identity(Y),
            FilteredChainMap.zero(Y, tx),
            tuple(range(Y.n)),
            (),
        )
    if Y.is_zero():
        C = FilteredComplex(
            tuple(Generator("t." + g.gid, g.degree, g.ell) for g in tx.gens),
            tx.diff,
        )
        return ConeResult(
            C,
            FilteredChainMap.zero(Y, C),
            FilteredChainMap.identity(tx).viewed(C, tx),
            (),
            tuple(range(X.n)),
        )
    x_ids = _disambiguate(
        [g.gid for g in Y.gens], ["t." + g.gid for g in X.gens]
    )
    gens = list(Y.gens) + [
        Generator(x_ids[i], g.degree, g.ell) for i, g in enumerate(tx.gens)
    ]
    off = Y.n
    cols = list(Y.diff)
    for i in range(X.n):
        cols.append(F2Vector(mask=f.cols[i].mask | (X.diff[i].mask << off)))
    C = FilteredComplex(gens, cols)
    include = FilteredChainMap(
        Y, C, [F2Vector(mask=1 << i) for i in range(Y.n)], 0
    )
    project = FilteredChainMap(
        C,
        tx,
        [ZERO] * Y.n + [F2Vector(mask=1 << i) for i in range(X.n)],
        0,
    )
    return ConeResult(C, include, project, tuple(range(Y.n)),
                      tuple(range(off, off + X.n)))


# ----------------------------------------------------------------------
# hom complexes and nullhomotopies


def _hom_hits(X, Y):
    """Per s, the flat positions (s', 0) of every x_s' whose d(x_s')
    contains x_s; shifted by t they give the h o dX part of column
    (s, t) of Hom(X, Y)."""
    hits = [0] * X.n
    for sp in range(X.n):
        for s in X.diff[sp]:
            hits[s] |= 1 << (sp * Y.n)
    return hits


def _hom_column(X, Y, hits, s, t) -> F2Vector:
    """d(x_s* (x) y_t) = dY o h + h o dX in flat coordinates."""
    return F2Vector(mask=(Y.diff[t].mask << (s * Y.n)) | (hits[s] << t))


class HomComplex:
    """Hom(X, Y) as a filtered complex on elementary maps x* (x) y.

    Flat index of the pair (s, t) is s * Y.n + t.  An elementary map
    has degree deg(t) - deg(s) and level ell(t) - ell(s); the
    differential is h -> dY o h + h o dX.
    """

    __slots__ = ("X", "Y", "complex")

    def __init__(self, X: FilteredComplex, Y: FilteredComplex):
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        gens = []
        cols = []
        hits = _hom_hits(X, Y)
        for s, gs in enumerate(X.gens):
            for t, gt in enumerate(Y.gens):
                gens.append(
                    Generator(
                        f"{gs.gid}>{gt.gid}", gt.degree - gs.degree,
                        gt.ell - gs.ell,
                    )
                )
                cols.append(_hom_column(X, Y, hits, s, t))
        object.__setattr__(self, "complex", FilteredComplex(gens, cols))

    def __setattr__(self, name, value):
        raise AttributeError("HomComplex is immutable")

    def encode(self, f: FilteredChainMap) -> F2Vector:
        if f.source != self.X or f.target != self.Y:
            raise ValueError("map does not live in this hom complex")
        m = 0
        nY = self.Y.n
        for s, c in enumerate(f.cols):
            m |= c.mask << (s * nY)
        return F2Vector(mask=m)

    def decode(self, vec: F2Vector, degree) -> FilteredChainMap:
        nY = self.Y.n
        cols = [0] * self.X.n
        for flat in vec:
            cols[flat // nY] |= 1 << (flat % nY)
        return FilteredChainMap(
            self.X, self.Y, [F2Vector(mask=m) for m in cols], degree
        )

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


def hom_complex(X, Y) -> HomComplex:
    return HomComplex(X, Y)


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
    nY = Y.n
    hits = _hom_hits(X, Y)
    by_degree = {}
    for t, gt in enumerate(Y.gens):
        by_degree.setdefault(gt.degree, []).append(t)
    pairs = []
    cols = []
    for s, gs in enumerate(X.gens):
        for t in by_degree.get(gs.degree + f.degree - 1, ()):
            if Y.gens[t].ell - gs.ell > bound:
                continue
            pairs.append((s, t))
            cols.append(_hom_column(X, Y, hits, s, t))
    rhs = sum(c.mask << (s * nY) for s, c in enumerate(f.cols))
    x = solve_in_span(F2SparseMatrix(cols, X.n * nY), F2Vector(mask=rhs))
    if x is None:
        return None
    out = [0] * X.n
    for k in x:
        s, t = pairs[k]
        out[s] |= 1 << t
    return FilteredChainMap(
        X, Y, [F2Vector(mask=m) for m in out], f.degree - 1
    )


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


def parse_complex(text: str) -> FilteredComplex:
    """Complex text format:

        gen <id> <degree> <filtration>
        d <src> <tgt> [<tgt> ...]

    `#` starts a comment; ids are ASCII tokens without whitespace.
    """
    triples = []
    boundaries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
            tgts = " ".join(X.gens[j].gid for j in X.diff[i])
            lines.append(f"d {g.gid} {tgts}")
    return "\n".join(lines) + "\n"


def parse_map(text: str, load_complex) -> FilteredChainMap:
    """Map text format: header `map <source-file> <target-file> [degree]`
    then lines `f <src> <tgt> [<tgt> ...]`.  `load_complex` resolves a
    referenced file name to a FilteredComplex."""
    source = target = None
    degree = 0
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
            tgts = " ".join(f.target.gens[i].gid for i in c)
            lines.append(f"f {f.source.gens[j].gid} {tgts}")
    return "\n".join(lines) + "\n"
