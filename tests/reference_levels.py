"""The level comparisons as they were made on `Fraction` levels, before
every complex carried its levels scaled to one common denominator
(`FilteredComplex._den`, `_lev`).  Unchanged but for their names:

* `reference_validate` is `FilteredComplex.validate`;
* `reference_shift_of_map` takes a `Fraction` max per column and one
  `Fraction` difference per column;
* `reference_canonical_order` is `canonical_form`'s sort;
* `reference_witness_levels_ok` is `CanonicalFormWitness.check`'s
  level test, through `level_of`, and `reference_witness_check` the
  whole check;
* `reference_hom_pairs` is `complexes._hom_pairs`;
* `reference_random_basis_change` is `verify.random_basis_change`.

The tests check the scaled code against them.
"""

from fcplx.complexes import FilteredChainMap, FilteredComplex
from fcplx.f2linalg import F2SparseMatrix, _apply, _bits, invert
from fcplx.rationals import NEG_INF, fmt_scalar


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
        Dp = wit.conjugated_differential()
    except ValueError:
        return False
    expect = {y: x for x, y in wit.pairs}
    for j in range(X.n):
        want = 1 << expect[j] if j in expect else 0
        if Dp.column(j) != want:
            return False
    return True
