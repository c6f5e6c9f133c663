"""Linear systems over hom complexes.

The triangle layer repeatedly needs maps satisfying clauses of the form
"closed", "composite equals something up to a bounded homotopy".  Each
clause is GF(2)-linear in the unknown maps and homotopies, so a system
is assembled as one sparse matrix and solved exactly.  Its unknowns
live on degree and level slices of Hom: a map of level <= 0 on the
degree-0 elementary maps of level <= 0, a homotopy on the degree -1
ones under its bound (`complexes._hom_slice`), so no whole hom complex
is built.  `fill_map` states the one system the triangle layer solves:
a closed map whose composites with given maps agree with given maps up
to bounded homotopies.
"""

from __future__ import annotations

from .complexes import (
    HomComplex,
    _flat,
    _hom_hits,
    _hom_slice,
    _map_at,
)
from .f2linalg import F2SparseMatrix, column_reduce, solve_in_span


class MapSystem:
    """A GF(2)-linear system whose unknowns are filtered maps, over
    whole hom complexes.

    Unknowns are declared with a hom complex, a degree and a level
    bound; equations are lists of (operator matrix, unknown name) terms
    plus a right-hand side in some hom complex.  solve() returns a dict
    of FilteredChainMaps or None.  The library's solves build only
    slices of Hom; this general solver is the one the reference solvers
    in tests/reference_*.py state their systems with, and the
    benchmark's tracer names `MapSystem.solve`.
    """

    def __init__(self):
        self.unknowns = []   # (name, HomComplex, degree, allowed flats)
        self.by_name = {}
        self.equations = []  # (HomComplex, rhs mask, [(op, name)])

    def unknown(self, name, hom: HomComplex, degree, max_level):
        if name in self.by_name:
            raise ValueError(f"duplicate unknown {name!r}")
        allowed = hom.gens_with(degree=degree, max_level=max_level)
        rec = (name, hom, degree, allowed)
        self.by_name[name] = rec
        self.unknowns.append(rec)
        return name

    def equation(self, hom: HomComplex, terms, rhs: int):
        for op, name in terms:
            if name not in self.by_name:
                raise ValueError(f"equation uses unknown {name!r}")
            if op.nrows != hom.complex.n:
                raise ValueError("operator does not land in equation space")
        self.equations.append((hom, rhs, list(terms)))

    def solve(self):
        col_owner = []   # (unknown record, flat index within its hom)
        offsets = {}
        for rec in self.unknowns:
            offsets[rec[0]] = len(col_owner)
            col_owner.extend((rec, flat) for flat in rec[3])
        row_offset = 0
        row_offsets = []
        for hom, _, _ in self.equations:
            row_offsets.append(row_offset)
            row_offset += hom.complex.n
        nrows = row_offset
        cols = []
        for rec, flat in col_owner:
            m = 0
            for (hom, _, terms), base in zip(self.equations, row_offsets):
                for op, name in terms:
                    if name == rec[0]:
                        m ^= op.columns[flat] << base
            cols.append(m)
        b = 0
        for (hom, rhs, _), base in zip(self.equations, row_offsets):
            b |= rhs << base
        A = F2SparseMatrix(cols, nrows)
        x = solve_in_span(A, b)
        if x is None:
            return None
        out = {}
        for rec in self.unknowns:
            name, hom, degree, allowed = rec
            base = offsets[name]
            m = 0
            for k, flat in enumerate(allowed):
                if x >> (base + k) & 1:
                    m |= 1 << flat
            out[name] = hom.decode(m, degree)
        return out


def fill_map(S, T, pre=(), post=()):
    """A closed degree-0 map x: S -> T of level <= 0, or None.

    For each (a, b, bound) in `pre`, x o a ~ b with the homotopy in
    Hom(a.source, T); for each in `post`, a o x ~ b with the homotopy in
    Hom(S, a.target).  Every homotopy has level <= its bound.  The
    unknowns are x and then one homotopy per clause, pre before post;
    the equations are closedness and then the clauses in that order.
    """
    xs, cols = _hom_slice(S, T, 0, 0)
    # per clause: the homotopy's Hom(X, Y), b, its bound, and the x part
    # of the clause's rows, one mask per x column
    blocks = []
    for a, b, bound in pre:
        if a.target != S or (b.source, b.target) != (a.source, T):
            raise ValueError("pre clause anchors do not match")
        hits = _hom_hits(a.cols, S.n, T.n)
        blocks.append((a.source, T, b, bound, [hits[s] << t for s, t in xs]))
    for a, b, bound in post:
        if a.source != T or (b.source, b.target) != (S, a.target):
            raise ValueError("post clause anchors do not match")
        nZ = a.target.n
        blocks.append((S, a.target, b, bound,
                       [a.cols[t] << (s * nZ) for s, t in xs]))
    hcols = []
    rhs = 0
    base = S.n * T.n
    for X, Y, b, bound, part in blocks:
        for k, m in enumerate(part):
            cols[k] |= m << base
        hcols += [m << base for m in _hom_slice(X, Y, -1, bound)[1]]
        rhs |= _flat(b) << base
        base += X.n * Y.n
    x = solve_in_span(F2SparseMatrix(cols + hcols, base), rhs)
    if x is None:
        return None
    return _map_at(S, T, xs, x & ((1 << len(xs)) - 1), 0)


def closed_map_basis(S, T):
    """Basis of the space of closed degree-0 shift-<=0 maps S -> T,
    as (kernel vectors over legal positions, positions).

    The constraint column of position (i, j) is the differential of the
    elementary map x_i* (x) y_j in Hom(S, T)."""
    positions, cols = _hom_slice(S, T, 0, 0)
    if not positions:
        return [], positions
    A = F2SparseMatrix(cols, S.n * T.n)
    R, V = column_reduce(A)
    kernel = [V.column(j) for j in range(A.ncols) if not R.column(j)]
    return kernel, positions


def enumerate_closed_maps(S, T, cap=4096):
    """All closed degree-0 shift-<=0 maps S -> T, truncating the kernel
    basis when the space exceeds `cap` elements."""
    kernel, positions = closed_map_basis(S, T)
    if (1 << len(kernel)) > cap:
        kernel = kernel[: max(cap.bit_length() - 1, 0)]
    for bits in range(1 << len(kernel)):
        m = 0
        b, k = bits, 0
        while b:
            if b & 1:
                m ^= kernel[k]
            b >>= 1
            k += 1
        yield _map_at(S, T, positions, m, 0)


def random_closed_map(S, T, rng):
    """A random closed degree-0 shift-<=0 map S -> T."""
    kernel, positions = closed_map_basis(S, T)
    m = 0
    for vec in kernel:
        if rng.getrandbits(1):
            m ^= vec
    return _map_at(S, T, positions, m, 0)
