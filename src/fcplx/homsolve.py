"""Linear systems over hom complexes.

The triangle layer repeatedly needs maps satisfying clauses of the form
"closed", "composite equals something up to a bounded homotopy".  Each
clause is GF(2)-linear in the unknown maps and homotopies, so a system
is assembled as one sparse matrix over the flat coordinates of the
relevant hom complexes and solved exactly.
"""

from __future__ import annotations

from .complexes import FilteredChainMap, HomComplex
from .f2linalg import F2SparseMatrix, F2Vector, solve_in_span


def postcompose_op(H_in: HomComplex, g: FilteredChainMap,
                   H_out: HomComplex) -> F2SparseMatrix:
    """Matrix of h -> g o h from Hom(X, Y) to Hom(X, Z), g: Y -> Z."""
    if H_in.X != H_out.X or g.source != H_in.Y or g.target != H_out.Y:
        raise ValueError("postcompose_op anchors do not match")
    nY, nZ = H_in.Y.n, H_out.Y.n
    cols = []
    for s in range(H_in.X.n):
        for t in range(nY):
            m = 0
            for z in g.cols[t]:
                m |= 1 << (s * nZ + z)
            cols.append(F2Vector(mask=m))
    return F2SparseMatrix(cols, H_out.complex.n)


def precompose_op(H_in: HomComplex, g: FilteredChainMap,
                  H_out: HomComplex) -> F2SparseMatrix:
    """Matrix of h -> h o g from Hom(X, Y) to Hom(W, Y), g: W -> X."""
    if H_in.Y != H_out.Y or g.target != H_in.X or g.source != H_out.X:
        raise ValueError("precompose_op anchors do not match")
    nY = H_in.Y.n
    # (h o g)(w) = h(g(w)): coefficient of (w, t) collects h_(s, t)
    # over s in supp g(w)
    cols = []
    for s in range(H_in.X.n):
        hits = [w for w in range(g.source.n) if s in g.cols[w]]
        for t in range(nY):
            m = 0
            for w in hits:
                m |= 1 << (w * nY + t)
            cols.append(F2Vector(mask=m))
    return F2SparseMatrix(cols, H_out.complex.n)


def diff_op(H: HomComplex) -> F2SparseMatrix:
    return H.complex.diff_matrix()


class MapSystem:
    """A GF(2)-linear system whose unknowns are filtered maps.

    Unknowns are declared with a hom complex, a degree and a level
    bound; equations are lists of (operator matrix, unknown name) terms
    plus a right-hand side in some hom complex.  solve() returns a dict
    of FilteredChainMaps or None.
    """

    def __init__(self):
        self.unknowns = []   # (name, HomComplex, degree, allowed flats)
        self.by_name = {}
        self.equations = []  # (HomComplex, rhs F2Vector, [(op, name)])

    def unknown(self, name, hom: HomComplex, degree, max_level):
        if name in self.by_name:
            raise ValueError(f"duplicate unknown {name!r}")
        allowed = hom.gens_with(degree=degree, max_level=max_level)
        rec = (name, hom, degree, allowed)
        self.by_name[name] = rec
        self.unknowns.append(rec)
        return name

    def equation(self, hom: HomComplex, terms, rhs: F2Vector):
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
                        m ^= op.columns[flat].mask << base
            cols.append(F2Vector(mask=m))
        b = 0
        for (hom, rhs, _), base in zip(self.equations, row_offsets):
            b |= rhs.mask << base
        A = F2SparseMatrix(cols, nrows)
        x = solve_in_span(A, F2Vector(mask=b))
        if x is None:
            return None
        out = {}
        for rec in self.unknowns:
            name, hom, degree, allowed = rec
            base = offsets[name]
            m = 0
            for k, flat in enumerate(allowed):
                if (base + k) in x:
                    m |= 1 << flat
            out[name] = hom.decode(F2Vector(mask=m), degree)
        return out


def closed_map_basis(S, T):
    """Basis of the space of closed degree-0 shift-<=0 maps S -> T,
    as (kernel vectors over legal positions, positions)."""
    from .f2linalg import column_reduce

    positions = []
    for i, gs in enumerate(S.gens):
        for j, gt in enumerate(T.gens):
            if gt.degree == gs.degree and gt.ell <= gs.ell:
                positions.append((i, j))
    if not positions:
        return [], positions
    DT = T.diff_matrix()
    DS = S.diff_matrix()
    constraint_cols = []
    for i, j in positions:
        cols = [F2Vector() for _ in range(S.n)]
        cols[i] = F2Vector([j])
        M = FilteredChainMap(S, T, cols, 0).matrix()
        comm = DT.matmul(M)
        comm2 = M.matmul(DS)
        mask = 0
        for c_idx in range(S.n):
            mask |= (comm.columns[c_idx].mask
                     ^ comm2.columns[c_idx].mask) << (c_idx * T.n)
        constraint_cols.append(F2Vector(mask=mask))
    A = F2SparseMatrix(constraint_cols, S.n * T.n)
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
                m ^= kernel[k].mask
            b >>= 1
            k += 1
        cols = [0] * S.n
        mm = m
        while mm:
            low = mm & -mm
            pos = positions[low.bit_length() - 1]
            cols[pos[0]] |= 1 << pos[1]
            mm ^= low
        yield FilteredChainMap(S, T, [F2Vector(mask=c) for c in cols], 0)


def random_closed_map(S, T, rng):
    """A random closed degree-0 shift-<=0 map S -> T."""
    kernel, positions = closed_map_basis(S, T)
    m = 0
    for vec in kernel:
        if rng.getrandbits(1):
            m ^= vec.mask
    cols = [0] * S.n
    while m:
        low = m & -m
        pos = positions[low.bit_length() - 1]
        cols[pos[0]] |= 1 << pos[1]
        m ^= low
    return FilteredChainMap(S, T, [F2Vector(mask=c) for c in cols], 0)
