"""The pipeline's pair blocks and the raised comparison's cylinder as they
were written before they were built as cones: each helper complex
spelled out generator by generator with `make_complex`, its attaching
map given by ids with `from_pairs`, and each down map found by a
canonical form of the attached cone (`canonical_projection` of
`reference_canonical`).

The tests run `fcplx.fragmentation._pipeline` and `_riso_strategy`
side by side with these and check that both give the same weights and
barcodes, step by step, and decompositions that validate.
"""

from fractions import Fraction

from fcplx.barcodes import (
    Barcode,
    barcode,
    boundary_depth,
    bottleneck,
    from_barcode,
)
from fcplx.complexes import (
    FilteredChainMap,
    compose,
    cone,
    make_complex,
    sum_complexes,
    translate_inverse,
)
from fcplx.f2linalg import _bits
from fcplx.fragmentation import (
    ConeDecomposition,
    _residual_shift,
    acyclic_from_zero_step,
    collapse_acyclic_triangle,
    comparison_map,
    singleton_triangle,
    zero_apex_step,
)
from fcplx.rationals import POS_INF
from fcplx.tpc import (
    identity_triangle,
    sum_triangles_many,
    triangle_from_morphism,
)

from reference_canonical import canonical_projection


def reference_pair_block(bx, by):
    """Helper complex H, attaching map u with cone(u) equal to S^mu
    E(bx) plus zero-length bars, and the residual shift mu."""
    delta = bx.degree
    if by.degree != delta:
        raise ValueError("matched bars must share a degree")
    Ep = from_barcode(Barcode([by]))
    mu = _residual_shift(bx, by)
    if not bx.is_finite():
        H = make_complex(
            [("P", delta, bx.lo + mu), ("Q", delta + 1, by.lo)],
            {"P": ["Q"]},
        )
        u = FilteredChainMap.from_pairs(
            translate_inverse(Ep), H, {"i0": ["Q"]}, 0
        )
    else:
        H = make_complex(
            [
                ("P", delta - 1, bx.hi + mu),
                ("Q", delta, by.hi),
                ("R", delta, bx.lo + mu),
                ("S", delta + 1, by.lo),
            ],
            {"P": ["Q", "R"], "Q": ["S"], "R": ["S"]},
        )
        u = FilteredChainMap.from_pairs(
            translate_inverse(Ep), H, {"y0": ["Q"], "x0": ["S"]}, 0
        )
    return H, u, mu


def reference_pipeline(BX, BY):
    """(bound, decomposition, tau, cap) of the pipeline on barcodes."""
    cap = 4 * min(len(BX), len(BY)) + 1
    tau, wit = bottleneck(BX, BY)
    if tau == POS_INF:
        return POS_INF, None, POS_INF, cap
    blocks = []
    for bx, by in wit.matched:
        _, u, mu = reference_pair_block(bx, by)
        tri, twit = triangle_from_morphism(u)
        tgt = from_barcode(Barcode([bx]))
        down = canonical_projection(
            tri.C, Barcode([bx]).shifted(mu)).viewed(target=tgt)
        blocks.append((tri, twit, down, tgt, mu))
    SX = from_barcode(Barcode(wit.short1))
    steps = []
    slot_parts = [(tri, twit) for tri, twit, *_ in blocks]
    for bs in wit.short2:
        slot_parts.append(collapse_acyclic_triangle(from_barcode(
            Barcode([bs]))))
    if not SX.is_zero() or not slot_parts:
        slot_parts.append(identity_triangle(SX))
    merged = sum_triangles_many(slot_parts)
    H_tot = merged[0].B
    if not H_tot.is_zero():
        steps.append(acyclic_from_zero_step(H_tot))
    steps.append(merged)
    M_tot = merged[0].C
    total, offsets = sum_complexes([b[3] for b in blocks] + [SX])
    cols = []
    for (_, _, down, _, _), off in zip(blocks, offsets):
        cols += [c << off for c in down.cols]
    cols += [1 << (offsets[-1] + i) for i in range(SX.n)]
    down_total = FilteredChainMap(M_tot, total, cols, 0)
    W_fin = max([b[4] for b in blocks], default=Fraction(0))
    if not (M_tot.is_zero() and total.is_zero()):
        steps.append(zero_apex_step(down_total, W_fin))
    D = ConeDecomposition(tuple(steps))
    return D.total_weight(), D, tau, cap


def reference_cylinder_helper(Xp, k):
    """T^-1 of the eta_k cone over X', and the inclusion of T^-1 X'."""
    k = Fraction(k)
    gens = []
    bnd = {}
    for g in Xp.gens:
        gens.append((f"P.{g.gid}", g.degree, g.ell + k))
        gens.append((f"Q.{g.gid}", g.degree + 1, g.ell))
    for i, g in enumerate(Xp.gens):
        others = [Xp.gens[j].gid for j in _bits(Xp.diff[i])]
        bnd[f"P.{g.gid}"] = [f"P.{o}" for o in others] + [f"Q.{g.gid}"]
        bnd[f"Q.{g.gid}"] = [f"Q.{o}" for o in others]
    H = make_complex(gens, bnd)
    u = FilteredChainMap.from_pairs(
        translate_inverse(Xp), H,
        {g.gid: [f"Q.{g.gid}"] for g in Xp.gens}, 0,
    )
    return H, u


def reference_riso_strategy(BX, BXp, k):
    """The raised-comparison decomposition at shift k, or None."""
    k = Fraction(k)
    BSpk = BXp.shifted(k)
    m = comparison_map(BSpk, BX)
    if m is None:
        return None
    mbar = barcode(cone(m, 0))
    if mbar.infinite():
        return None
    rk = boundary_depth(mbar)
    steps = []
    Xpc = from_barcode(BXp)
    if k == 0:
        steps.append(singleton_triangle(Xpc))
        reached = Xpc
    else:
        H, u = reference_cylinder_helper(Xpc, k)
        Ku = cone(u, 0)
        if (barcode(Ku).without_zero_length()
                != BSpk.without_zero_length()):
            return None
        steps.append(acyclic_from_zero_step(H))
        steps.append(triangle_from_morphism(u))
        reached = Ku
    down = compose(m, canonical_projection(reached, BSpk))
    steps.append(zero_apex_step(down, rk))
    return ConeDecomposition(tuple(steps))
