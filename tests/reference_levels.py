"""The level comparisons as they were made on `Fraction` levels, before
every complex carried its levels scaled to one common denominator
(`FilteredComplex._den`, `_lev`).  Unchanged but for their names:

* `reference_validate` is `FilteredComplex.validate`;
* `reference_shift_of_map` takes a `Fraction` max per column and one
  `Fraction` difference per column;
* `reference_canonical_order` is `canonical_form`'s sort;
* `reference_witness_levels_ok` is `CanonicalFormWitness.check`'s
  level test, through `level_of`, and `reference_witness_check` the
  whole check as it was made by conjugation, U^-1 D U, before it was
  made by products (it does not test that the pairs and `unpaired`
  cover each generator once);
* `reference_hom_pairs` is `complexes._hom_pairs`;
* `reference_random_basis_change` is `verify.random_basis_change`.

The constructions below built each derived complex from a tuple of
`Generator`s with `Fraction` levels, before a complex held its ids,
degrees and scaled levels and built `gens` only when read.  Each goes
through the public constructor, which derives the scale from those
`Generator`s, where the old body passed its parts' scale along:

* `reference_shift_complex` adds r to every level as a `Fraction`;
* `reference_translate` and `reference_translate_inverse` rebuild every
  generator with its degree moved;
* `reference_sum_complexes` and `reference_cone` are `sum_complexes`
  and `cone`, on those constructions.

The tests check the scaled code against them.
"""

from fractions import Fraction

from fcplx.complexes import (
    FilteredChainMap,
    FilteredComplex,
    Generator,
    _disambiguate,
    shift_of_map,
    zero_complex,
)
from fcplx.f2linalg import F2SparseMatrix, _apply, _bits, invert
from fcplx.rationals import NEG_INF, fmt_scalar, is_finite


def reference_validate(X):
    problems = []
    n = X.n
    for i, g in enumerate(X.gens):
        for j in _bits(X.diff[i]):
            if j >= n:
                problems.append(f"d({g.gid}) hits index {j} out of range")
                continue
            h = X.gens[j]
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
    for g, c in zip(X.gens, X.diff):
        if not c >> n and _apply(X.diff, c):
            problems.append(f"d(d({g.gid})) != 0")
    return problems


def reference_shift_of_map(f):
    tgt = f.target.gens
    return max((max(tgt[i].ell for i in _bits(c)) - g.ell
                for g, c in zip(f.source.gens, f.cols) if c),
               default=NEG_INF)


def reference_canonical_order(X):
    return sorted(range(X.n), key=lambda i: X.gens[i].ell)


def reference_witness_levels_ok(wit):
    X = wit.complex
    for j in range(X.n):
        col = wit.matrix.column(j)
        if X.level_of(col) != X.gens[j].ell:
            return False
    return True


def reference_hom_pairs(X, Y, degree, bound=None):
    by_degree = {}
    for t, gt in enumerate(Y.gens):
        by_degree.setdefault(gt.degree, []).append(t)
    pairs = []
    for s, gs in enumerate(X.gens):
        ts = (range(Y.n) if degree is None
              else by_degree.get(gs.degree + degree, ()))
        if bound is not None:
            top = gs.ell + bound
            ts = [t for t in ts if Y.gens[t].ell <= top]
        pairs.extend((s, t) for t in ts)
    return pairs


def reference_random_basis_change(X, rng):
    n = X.n
    order = sorted(range(n), key=lambda i: (X.gens[i].ell, i))
    pos = {g: p for p, g in enumerate(order)}
    cols = []
    for j in range(n):
        m = 1 << j
        for i in range(n):
            if i == j or pos[i] >= pos[j]:
                continue
            if X.gens[i].degree != X.gens[j].degree:
                continue
            if X.gens[i].ell > X.gens[j].ell:
                continue
            if rng.random() < 0.3:
                m |= 1 << i
        cols.append(m)
    U = F2SparseMatrix(cols, n)
    Uinv = invert(U)
    D = X.diff_matrix()
    newdiff = Uinv.matmul(D).matmul(U)
    Xp = FilteredComplex(X.gens, newdiff.columns)
    fwd = FilteredChainMap(Xp, X, U.columns, 0)
    return Xp, fwd, FilteredChainMap(X, Xp, Uinv.columns, 0)


def reference_witness_check(wit):
    """`CanonicalFormWitness.check`, its level test included."""
    X = wit.complex
    if not reference_witness_levels_ok(wit):
        return False
    try:
        U = wit.matrix
        Dp = invert(U).matmul(X.diff_matrix()).matmul(U)
    except ValueError:
        return False
    expect = {y: x for x, y in wit.pairs}
    for j in range(X.n):
        want = 1 << expect[j] if j in expect else 0
        if Dp.column(j) != want:
            return False
    return True


def reference_shift_complex(X, r):
    r = Fraction(r)
    if r == 0:
        return X
    return FilteredComplex(
        tuple(Generator(g.gid, g.degree, g.ell + r) for g in X.gens),
        X.diff,
    )


def reference_translate(X):
    return FilteredComplex(
        tuple(Generator(g.gid, g.degree - 1, g.ell) for g in X.gens),
        X.diff,
    )


def reference_translate_inverse(X):
    return FilteredComplex(
        tuple(Generator(g.gid, g.degree + 1, g.ell) for g in X.gens),
        X.diff,
    )


def reference_sum_complexes(parts):
    offsets = []
    n = 0
    for p in parts:
        offsets.append(n)
        n += p.n
    nonzero = [p for p in parts if not p.is_zero()]
    if len(nonzero) <= 1:
        return (nonzero[0] if nonzero else zero_complex()), offsets
    ids = _disambiguate(*([g.gid for g in p.gens] for p in parts))
    gens = [Generator(gid, g.degree, g.ell)
            for gid, g in zip(ids, (g for p in parts for g in p.gens))]
    cols = [c << off for p, off in zip(parts, offsets) for c in p.diff]
    return FilteredComplex(gens, cols), offsets


def reference_cone(f, lam=0):
    lam = Fraction(lam)
    if f.degree != 0:
        raise ValueError("cone requires a degree-0 map")
    X, Y = f.source, f.target
    if X.is_zero():
        return Y
    if not f.is_closed():
        raise ValueError("cone requires a closed map")
    sh = shift_of_map(f)
    if is_finite(sh) and lam < sh:
        raise ValueError(
            f"cone level too small: lambda = {fmt_scalar(lam)} < "
            f"shift {fmt_scalar(sh)} (deficit {fmt_scalar(sh - lam)})"
        )
    ids = _disambiguate(
        [g.gid for g in Y.gens], ["t." + g.gid for g in X.gens]
    )
    tx = reference_shift_complex(reference_translate(X), lam)
    gens = list(Y.gens) + [
        Generator(ids[Y.n + i], g.degree, g.ell)
        for i, g in enumerate(tx.gens)
    ]
    off = Y.n
    cols = list(Y.diff)
    for i in range(X.n):
        cols.append(f.cols[i] | X.diff[i] << off)
    return FilteredComplex(gens, cols)
