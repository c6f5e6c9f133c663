"""Direct sums of triangles as they were built before the n-ary sum: the
binary `direct_sum`, `map_direct_sum` and `sum_triangles`, the left fold
of `sum_triangles` over the slot parts of `prop51_pipeline` (the pair
cone, the collapsed short bars of Y and the carry of the short bars of
X), and the down map assembled from composed inclusions and projections
(`_fold_projections`).  The pair cone's own down map is the block
projection off its middle block, as in the pipeline: this file checks
the sum fold, not that map.

The tests check `fcplx.tpc.sum_triangles(_many)` and
`fcplx.fragmentation.prop51_pipeline` against these for byte-identical
output.  The fold costs O(n^2) maps in the number of parts, so keep
inputs to a few hundred generators.
"""

from fractions import Fraction
from typing import NamedTuple

from fcplx.barcodes import (
    Barcode,
    _from_bars,
    barcode,
    bottleneck,
    from_barcode,
)
from fcplx.complexes import (
    FilteredChainMap,
    FilteredComplex,
    Generator,
    _inclusion,
    _projection,
    compose,
    cone,
    shift_complex,
    translate,
    translate_inverse,
    translate_map,
    zero_complex,
)
from fcplx.f2linalg import _bits
from fcplx.fragmentation import (
    EMPTY_FAMILY,
    ConeDecomposition,
    _residual_shift,
    acyclic_from_zero_step,
    collapse_acyclic_triangle,
    zero_apex_step,
)
from fcplx.rationals import POS_INF
from fcplx.tpc import (
    TriangleWitness,
    WeightedTriangle,
    identity_triangle,
    triangle_from_morphism,
)


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


def direct_sum(X, Y):
    if X.is_zero():
        idy = FilteredChainMap.identity(Y)
        return DirectSum(Y, FilteredChainMap.zero(X, Y), idy,
                         FilteredChainMap.zero(Y, X), idy)
    if Y.is_zero():
        idx = FilteredChainMap.identity(X)
        return DirectSum(X, idx, FilteredChainMap.zero(Y, X), idx,
                         FilteredChainMap.zero(X, Y))
    right_ids = _disambiguate([g.gid for g in X.gens], [g.gid for g in Y.gens])
    gens = list(X.gens) + [
        Generator(right_ids[i], g.degree, g.ell) for i, g in enumerate(Y.gens)
    ]
    off = X.n
    cols = list(X.diff) + [c << off for c in Y.diff]
    Z = FilteredComplex(gens, cols)
    inc_l = FilteredChainMap(
        X, Z, [1 << i for i in range(X.n)], 0)
    inc_r = FilteredChainMap(
        Y, Z, [1 << (off + i) for i in range(Y.n)], 0)
    proj_l = FilteredChainMap(
        Z, X, [1 << i for i in range(X.n)] + [0] * Y.n, 0)
    proj_r = FilteredChainMap(
        Z, Y, [0] * X.n + [1 << i for i in range(Y.n)], 0)
    return DirectSum(Z, inc_l, inc_r, proj_l, proj_r)


def map_direct_sum(f, g, sum_src, sum_tgt):
    left = compose(sum_tgt.include_left, compose(f, sum_src.project_left))
    right = compose(sum_tgt.include_right, compose(g, sum_src.project_right))
    return left + right


def sum_triangles(t1, w1, t2, w2):
    r, s = Fraction(t1.weight), Fraction(t2.weight)
    m = max(r, s)
    SA = direct_sum(t1.A, t2.A)
    SB = direct_sum(t1.B, t2.B)
    SC = direct_sum(t1.C, t2.C)
    u = map_direct_sum(t1.u, t2.u, SA, SB)
    v = map_direct_sum(t1.v, t2.v, SB, SC)
    TS = shift_complex(translate(SA.complex), -m)
    inc_l = translate_map(SA.include_left).viewed(
        shift_complex(translate(t1.A), -m), TS)
    inc_r = translate_map(SA.include_right).viewed(
        shift_complex(translate(t2.A), -m), TS)
    w1v = t1.w.viewed(t1.C, shift_complex(t1.w.target, r - m))
    w2v = t2.w.viewed(t2.C, shift_complex(t2.w.target, s - m))
    w = compose(inc_l, compose(w1v, SC.project_left)) + compose(
        inc_r, compose(w2v, SC.project_right))
    tri = WeightedTriangle(SA.complex, SB.complex, SC.complex, u, v, w, m)

    K = cone(u, 0)
    K1 = cone(t1.u, 0)
    K2 = cone(t2.u, 0)
    n_b1, n_b2 = t1.B.n, t2.B.n
    n_a1 = t1.A.n

    def outer_index(which, inner_idx):
        if which == 1:
            if inner_idx < n_b1:
                return inner_idx
            return SB.complex.n + (inner_idx - n_b1)
        if inner_idx < n_b2:
            return n_b1 + inner_idx
        return SB.complex.n + n_a1 + (inner_idx - n_b2)

    def embed_vec(which, vec):
        mask = 0
        for i in _bits(vec):
            mask |= 1 << outer_index(which, i)
        return mask

    phi_cols = [None] * K.n
    for j in range(K1.n):
        phi_cols[outer_index(1, j)] = SC.include_left.apply(w1.phi.cols[j])
    for j in range(K2.n):
        phi_cols[outer_index(2, j)] = SC.include_right.apply(w2.phi.cols[j])
    phi = FilteredChainMap(K, SC.complex, phi_cols, 0)

    psi_cols = [None] * SC.complex.n
    for c in range(t1.C.n):
        psi_cols[c] = embed_vec(1, w1.psi.cols[c])
    for c in range(t2.C.n):
        psi_cols[t1.C.n + c] = embed_vec(2, w2.psi.cols[c])
    psi = FilteredChainMap(shift_complex(SC.complex, m), K,
                           psi_cols, 0)
    return tri, TriangleWitness(K, phi, psi)


def fold_triangles(parts):
    """The left fold of `sum_triangles` over (triangle, witness) parts."""
    merged = parts[0]
    for part in parts[1:]:
        merged = sum_triangles(merged[0], merged[1], part[0], part[1])
    return merged


def _fold_projections(parts):
    folds = []
    run = parts[0]
    for obj in parts[1:]:
        s = direct_sum(run, obj)
        folds.append(s)
        run = s.complex
    total = run
    projs = []
    for idx in range(len(parts)):
        proj = FilteredChainMap.identity(total)
        out = None
        for k in range(len(folds) - 1, -1, -1):
            s = folds[k]
            if idx == k + 1:
                out = compose(s.project_right, proj)
                break
            proj = compose(s.project_left, proj)
        projs.append(out if out is not None else proj)
    return projs


def reference_prop51_pipeline(X, Y, family=EMPTY_FAMILY):
    BX, BY = barcode(X), barcode(Y)
    cap = 4 * min(len(BX), len(BY)) + 1
    tau, wit = bottleneck(BX, BY)
    if tau == POS_INF:
        return POS_INF, None, POS_INF, cap
    bxs = [bx for bx, _ in wit.matched]
    mus = [_residual_shift(bx, by) for bx, by in wit.matched]
    Es = translate_inverse(_from_bars([
        Barcode([bx]).shifted(mu).bars[0] for bx, mu in zip(bxs, mus)]))
    Ep = translate_inverse(_from_bars([by for _, by in wit.matched]))
    shorts_x = Barcode(wit.short1)
    SX = from_barcode(shorts_x)
    slot_parts = []
    if bxs:
        H = cone(_inclusion(Es, Ep, 0), 0)
        slot_parts.append(triangle_from_morphism(_inclusion(Ep, H, 0)))
    if wit.short2:
        slot_parts.append(collapse_acyclic_triangle(_from_bars(
            wit.short2)))
    if not SX.is_zero() or not slot_parts:
        slot_parts.append(identity_triangle(SX))
    merged = fold_triangles(slot_parts)
    steps = []
    H_tot = merged[0].B
    if not H_tot.is_zero():
        steps.append(acyclic_from_zero_step(H_tot))
    steps.append(merged)
    M_tot = merged[0].C

    Ex = _from_bars(bxs)
    total = _from_bars(bxs + list(shorts_x))
    comp_projs = _fold_projections([tri.C for tri, _ in slot_parts])
    down_total = FilteredChainMap.zero(M_tot, total)
    if bxs:
        down = _projection(slot_parts[0][0].C, Ex, Ep.n)
        down_total = down_total + compose(
            _inclusion(Ex, total, 0), compose(down, comp_projs[0]))
    if not SX.is_zero():
        down_total = down_total + compose(
            _inclusion(SX, total, Ex.n), comp_projs[-1])
    W_fin = max(mus, default=Fraction(0))
    if not (M_tot.is_zero() and total.is_zero()):
        steps.append(zero_apex_step(down_total, W_fin))
    D = ConeDecomposition(tuple(steps))
    bound = D.total_weight()
    if bound > cap * tau:
        raise AssertionError("pipeline exceeded its stated budget")
    return bound, D, tau, cap
