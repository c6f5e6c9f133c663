"""The hom-complex solvers that `fill_map`, `spectral_invariant` and
`representative_at_level` used before they were built on degree and
level slices of Hom.

`reference_fill_map` states each clause as a `MapSystem` equation over
whole hom complexes, with the operator matrices `precompose_op`,
`postcompose_op` and `diff_op`; `reference_spectral_invariant` and
`reference_representative_at_level` build all of Hom(X, Y) and filter
it with `gens_with`.  The tests check that the sliced solvers return
byte-identical output.  Each call builds hom complexes of |X|·|Y|
generators, so keep inputs small.
"""

from fractions import Fraction

from fcplx.complexes import (
    FilteredChainMap,
    HomComplex,
    nullhomotopy,
    shift_of_map,
)
from fcplx.f2linalg import F2SparseMatrix, _bits, solve_in_span
from fcplx.homsolve import MapSystem
from fcplx.rationals import NEG_INF, POS_INF, fmt_scalar, is_finite


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
            for z in _bits(g.cols[t]):
                m |= 1 << (s * nZ + z)
            cols.append(m)
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
        hits = [w for w in range(g.source.n) if s in _bits(g.cols[w])]
        for t in range(nY):
            m = 0
            for w in hits:
                m |= 1 << (w * nY + t)
            cols.append(m)
    return F2SparseMatrix(cols, H_out.complex.n)


def diff_op(H: HomComplex) -> F2SparseMatrix:
    return H.complex.diff_matrix()


def reference_fill_map(S, T, pre=(), post=()):
    system = MapSystem()
    H = HomComplex(S, T)
    system.unknown("x", H, 0, 0)
    system.equation(H, [(diff_op(H), "x")], 0)
    clauses = [(a, b, bound, HomComplex(a.source, T), precompose_op)
               for a, b, bound in pre]
    clauses += [(a, b, bound, HomComplex(S, a.target), postcompose_op)
                for a, b, bound in post]
    for k, (a, b, bound, Hk, op) in enumerate(clauses):
        name = system.unknown(f"h{k}", Hk, -1, bound)
        system.equation(Hk, [(op(H, a, Hk), "x"), (diff_op(Hk), name)],
                        Hk.encode(b))
    sol = system.solve()
    return None if sol is None else sol["x"]


def _boundary_above(f: FilteredChainMap):
    H = HomComplex(f.source, f.target)
    enc = H.encode(f)
    D = H.complex.diff_matrix()
    allowed = H.gens_with(degree=f.degree - 1)
    allowed_set = set(allowed)
    rows = H.gens_with(degree=f.degree)

    def above(k):
        rowmask = 0
        for i in rows:
            if H.complex.gens[i].ell > k:
                rowmask |= 1 << i
        cols = [
            D.columns[j] & rowmask if j in allowed_set else 0
            for j in range(D.ncols)
        ]
        return solve_in_span(F2SparseMatrix(cols, D.nrows),
                             enc & rowmask, allowed)

    return H, D, enc, allowed, above


def reference_level_grid(f: FilteredChainMap):
    """Levels of the degree-(deg f) elementary maps of Hom(X, Y)."""
    H = HomComplex(f.source, f.target)
    return sorted(
        {H.complex.gens[i].ell for i in H.gens_with(degree=f.degree)}
    )


def reference_spectral_invariant(f: FilteredChainMap):
    if not f.is_closed():
        raise ValueError("spectral invariant needs a closed map")
    H, D, enc, allowed, above = _boundary_above(f)
    if solve_in_span(D, enc, allowed) is not None:
        return NEG_INF
    levels = sorted(
        {H.complex.gens[i].ell for i in H.gens_with(degree=f.degree)}
    )
    lo, hi = 0, len(levels) - 1
    if above(levels[hi]) is None:
        raise AssertionError("spectral invariant grid incomplete")
    while lo < hi:
        mid = (lo + hi) // 2
        if above(levels[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return levels[lo]


def reference_representative_at_level(f: FilteredChainMap, k):
    sh = shift_of_map(f)
    if k == NEG_INF:
        if nullhomotopy(f, POS_INF) is None:
            raise ValueError("only the zero class lives at level -inf")
        return FilteredChainMap.zero(f.source, f.target, f.degree)
    k = Fraction(k)
    if not is_finite(sh) or sh <= k:
        return f
    H, D, enc, _, above = _boundary_above(f)
    x = above(k)
    if x is None:
        raise ValueError(
            f"class of the map has no representative at level {fmt_scalar(k)}"
        )
    corrected = enc ^ D.apply(x)
    return H.decode(corrected, f.degree)
