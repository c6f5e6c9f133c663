"""The maps between a complex and its canonical object as they were built
before one summand map read them all off one canonical form.

Each map here re-derives the `from_barcode` layout with `index_of`
lookups on the summand ids and re-sorts the bars, and
`canonical_projection` and `zero_iso_between` run several canonical
forms per call.  The tests check `fcplx.fragmentation` against these for
`serialize`-equal maps and equal `ValueError` messages.

`summand_map` and `canonical_projection` are the general summand map,
onto any barcode the complex covers up to zero-length bars, as the
library held it while it also read projections off one canonical form;
`reference_pipeline` finds its down maps with them.

`reference_canonical_form` is `canonical_form` as it was before each
column carried its image beside its combination: it tracks the
combination in sorted positions and maps every new basis vector back
to X's generators one bit at a time.  The tests check the packed
reduction against it for equal barcodes, matrices, pairs and unpaired
generators.

`reference_contraction`, `reference_tpc_contraction` and
`invert_iso_to_canonical` are `CanonicalFormWitness.contraction`,
`tpc._contraction` and `iso_to_canonical` as they were before U^-1 was
read by back substitution: each forms `invert(U)` by a second, general
column reduction, and the contraction multiplies it back with `matmul`
after a whole canonical form.  The tests check the back substitution
against them for byte-identical columns and equal None verdicts.
"""

from fractions import Fraction

from fcplx.barcodes import (
    Bar,
    Barcode,
    CanonicalFormWitness,
    _summands,
    barcode,
    canonical_form,
    from_barcode,
)
from fcplx.complexes import FilteredChainMap, compose
from fcplx.f2linalg import F2SparseMatrix, _bits, _eliminate, invert
from fcplx.rationals import POS_INF


def reference_canonical_form(X):
    problems = X.validate()
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    n = X.n
    order = sorted(range(n), key=X._lev.__getitem__)
    pos = {orig: p for p, orig in enumerate(order)}

    def to_pos(vec):
        m = 0
        for i in _bits(vec):
            m |= 1 << pos[i]
        return m

    def to_orig(mask):
        m = 0
        for p in _bits(mask):
            m |= 1 << order[p]
        return m

    cols = [to_pos(X.diff[order[p]]) for p in range(n)]
    track = [1 << p for p in range(n)]
    owner = _eliminate(cols, track)

    keys = []
    pairs = []
    unpaired = []
    new_basis = [None] * n
    pivot_rows = set(owner)
    deg, lev = X._deg, X._lev
    for p in range(n):
        if cols[p]:
            piv = cols[p].bit_length() - 1
            x_orig, y_orig = order[piv], order[p]
            pairs.append((x_orig, y_orig))
            new_basis[y_orig] = to_orig(track[p])
            new_basis[x_orig] = to_orig(cols[p])
            keys.append((deg[x_orig], lev[x_orig], False, lev[y_orig]))
        elif p not in pivot_rows:
            g = order[p]
            unpaired.append(g)
            new_basis[g] = to_orig(track[p])
            keys.append((deg[g], lev[g], True, 0))
    keys.sort()
    end = {v: Fraction(v, X._den) for v in set(lev)}
    bars = tuple(Bar(d, end[lo], POS_INF if inf else end[hi])
                 for d, lo, inf, hi in keys)
    witness = CanonicalFormWitness(
        X, F2SparseMatrix(new_basis, n), pairs, unpaired
    )
    return Barcode._of_sorted(bars), witness


def _bar_records(witness):
    """(bar, new-basis indices) per summand, in from_barcode sort order."""
    X = witness.complex
    recs = []
    for x_i, y_j in witness.pairs:
        b = Bar(X.gens[x_i].degree, X.gens[x_i].ell, X.gens[y_j].ell)
        recs.append((b, (x_i, y_j)))
    for g in witness.unpaired:
        recs.append((Bar(X.gens[g].degree, X.gens[g].ell, POS_INF), (g,)))
    recs.sort(key=lambda r: (r[0].degree, r[0].lo, r[0].hi))
    return recs


def reference_iso_to_canonical(X):
    B, W = canonical_form(X)
    canon = from_barcode(B)
    recs = _bar_records(W)
    assign = {}
    for k, (b, idxs) in enumerate(recs):
        if b.hi == POS_INF:
            assign[idxs[0]] = canon.index_of(f"i{k}")
        else:
            assign[idxs[0]] = canon.index_of(f"x{k}")
            assign[idxs[1]] = canon.index_of(f"y{k}")
    Uinv = invert(W.matrix)
    cols = []
    for c in range(X.n):
        m = 0
        for nb in _bits(Uinv.column(c)):
            m ^= 1 << assign[nb]
        cols.append(m)
    fwd = FilteredChainMap(X, canon, cols, 0)
    back_cols = [None] * canon.n
    for nb, ci in assign.items():
        back_cols[ci] = W.matrix.column(nb)
    back = FilteredChainMap(canon, X, back_cols, 0)
    return fwd, back


def reference_zero_iso_between(X, Y):
    if barcode(X) != barcode(Y):
        raise ValueError("objects are not barcode-equal")
    fx, _ = reference_iso_to_canonical(X)
    _, by = reference_iso_to_canonical(Y)
    return compose(by, fx)


def reference_canonical_projection(X, target):
    bx = list(barcode(X))
    bt = list(barcode(target))
    for b in bt:
        try:
            bx.remove(b)
        except ValueError:
            raise ValueError("target bars are not a sub-multiset")
    if any(b.length() != 0 for b in bx):
        raise ValueError("dropped bars must have zero length")
    fx, _ = reference_iso_to_canonical(X)
    canon = fx.target
    remaining = {}
    for k, b in enumerate(
        sorted(barcode(target), key=lambda b: (b.degree, b.lo, b.hi))
    ):
        remaining.setdefault(b, []).append(k)
    cols = [0] * canon.n
    for k, b in enumerate(
        sorted(barcode(X), key=lambda b: (b.degree, b.lo, b.hi))
    ):
        slots = remaining.get(b)
        if not slots:
            continue
        kt = slots.pop(0)
        if b.hi == POS_INF:
            cols[canon.index_of(f"i{k}")] = 1 << target.index_of(f"i{kt}")
        else:
            cols[canon.index_of(f"x{k}")] = 1 << target.index_of(f"x{kt}")
            cols[canon.index_of(f"y{k}")] = 1 << target.index_of(f"y{kt}")
    proj = FilteredChainMap(canon, target, cols, 0)
    return compose(proj, fx)


def summand_map(B, W, BT):
    """The map X -> from_barcode(BT) read off a canonical form (B, W) of
    X: each summand of X, in bar order, goes to the next free target
    summand with the same bar, or to zero."""
    X = W.complex
    deg, lev = X._deg, X._lev

    def bar(s):
        # (degree, lo, infinite?, hi) on the ints sorts as the bars do
        return deg[s[0]], lev[s[0]], not s[1:], lev[s[-1]]

    # a stable sort: equal bars keep the witness's order
    summands = sorted([*W.pairs, *((g,) for g in W.unpaired)], key=bar)
    free = {}
    for b, t in zip(BT, _summands(BT)):
        free.setdefault(b, []).append(t)
    assign = {}
    for b, s in zip(B, summands):
        if free.get(b):
            assign.update(zip(s, free[b].pop(0)))
    cols = []
    for col in invert(W.matrix).columns:
        m = 0
        for nb in _bits(col):
            if nb in assign:
                m ^= 1 << assign[nb]
        cols.append(m)
    return FilteredChainMap(X, from_barcode(BT), cols, 0)


def canonical_projection(X, BT):
    """0-isomorphism X -> from_barcode(BT) when X differs from it only
    by zero-length bars."""
    B, W = canonical_form(X)
    bx = list(B)
    for b in BT:
        try:
            bx.remove(b)
        except ValueError:
            raise ValueError("target bars are not a sub-multiset")
    if any(b.length() != 0 for b in bx):
        raise ValueError("dropped bars must have zero length")
    return summand_map(B, W, BT)


def _in_order_pairs(BS, BT):
    BS = sorted(BS, key=lambda b: (b.degree, b.lo, b.hi))
    BT = sorted(BT, key=lambda b: (b.degree, b.lo, b.hi))
    if len(BS) != len(BT):
        return None

    def keyed(B):
        out = {}
        for k, b in enumerate(B):
            out.setdefault((b.degree, b.hi == POS_INF), []).append((b, k))
        return out

    ks, kt = keyed(BS), keyed(BT)
    if set(ks) != set(kt):
        return None
    pairs = []
    for key in ks:
        a, b = ks[key], kt[key]
        if len(a) != len(b):
            return None
        pairs.extend(zip(a, b))
    for (bsrc, _), (btgt, _) in pairs:
        if btgt.lo > bsrc.lo or (bsrc.hi != POS_INF and btgt.hi > bsrc.hi):
            return None
    return pairs


def reference_comparison_map(S, T):
    pairs = _in_order_pairs(barcode(S), barcode(T))
    if pairs is None:
        return None
    cols = [0] * S.n
    for (bsrc, ksrc), (btgt, ktgt) in pairs:
        if bsrc.hi == POS_INF:
            cols[S.index_of(f"i{ksrc}")] = 1 << T.index_of(f"i{ktgt}")
        else:
            cols[S.index_of(f"x{ksrc}")] = 1 << T.index_of(f"x{ktgt}")
            cols[S.index_of(f"y{ksrc}")] = 1 << T.index_of(f"y{ktgt}")
    return FilteredChainMap(S, T, cols, 0)


def reference_contraction(witness):
    U = witness.matrix
    Uh = [0] * U.ncols
    for x, y in witness.pairs:
        Uh[x] = U.columns[y]
    return F2SparseMatrix(Uh, U.nrows).matmul(invert(U))


def reference_tpc_contraction(K, r=None):
    _, cf = canonical_form(K)
    depth = cf.depth()
    if cf.unpaired or r is not None and depth > r:
        return None
    return reference_contraction(cf).columns, depth


def invert_iso_to_canonical(X):
    B, W = canonical_form(X)
    deg, lev = X._deg, X._lev

    def bar(s):
        return deg[s[0]], lev[s[0]], not s[1:], lev[s[-1]]

    summands = sorted([*W.pairs, *((g,) for g in W.unpaired)], key=bar)
    assign, back_cols = [0] * X.n, [None] * X.n
    for s, t in zip(summands, _summands(B)):
        for nb, ci in zip(s, t):
            assign[nb] = ci
            back_cols[ci] = W.matrix.column(nb)
    cols = []
    for col in invert(W.matrix).columns:
        m = 0
        for nb in _bits(col):
            m ^= 1 << assign[nb]
        cols.append(m)
    canon = from_barcode(B)
    return (FilteredChainMap(X, canon, cols, 0),
            FilteredChainMap(canon, X, back_cols, 0))
