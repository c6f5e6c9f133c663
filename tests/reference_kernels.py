"""The map layer's products and checks as they were before they shared
one int-mask kernel (`fcplx.f2linalg._apply`), unchanged but for their
names and for taking columns where the methods read `self`.

* `reference_matrix_columns` and `reference_map_columns` are the
  per-column range checks of `F2SparseMatrix.__init__` and
  `FilteredChainMap.__init__`;
* `reference_apply` is `apply` walking a column's indices, and
  `reference_matmul` is `matmul` as one `apply` per column;
* `reference_is_closed` compares the two matmuls dT*f and f*dS;
* `reference_shift_of_map` takes one `Fraction` difference per entry;
* `reference_compose_columns` and `reference_square_failures` are
  `compose`'s product and `FilteredComplex.validate`'s d∘d test.

The tests check the kernel-based code against them.
"""

from fcplx.f2linalg import _bits
from fcplx.rationals import NEG_INF


def _top(c):
    """Largest index in the support of the column c, or None if zero."""
    return c.bit_length() - 1 if c else None


def reference_matrix_columns(columns, nrows):
    columns = tuple(columns)
    for j, c in enumerate(columns):
        t = _top(c)
        if t is not None and t >= nrows:
            raise ValueError(f"column {j} has index {t} >= nrows {nrows}")
    return columns


def reference_map_columns(source, target, cols):
    cols = tuple(cols)
    if len(cols) != source.n:
        raise ValueError("one column per source generator required")
    for c in cols:
        t = _top(c)
        if t is not None and t >= target.n:
            raise ValueError("map column exceeds target size")
    return cols


def reference_apply(columns, x):
    m = 0
    for j in _bits(x):
        m ^= columns[j]
    return m


def reference_matmul(A, B):
    """The columns of A.matmul(B) for F2SparseMatrix A and B."""
    if B.nrows != A.ncols:
        raise ValueError("shape mismatch in matmul")
    return reference_matrix_columns(
        [reference_apply(A.columns, B.column(j)) for j in range(B.ncols)],
        A.nrows,
    )


def reference_is_closed(f):
    dT, M, dS = f.target.diff, f.cols, f.source.diff
    return ([reference_apply(dT, c) for c in M]
            == [reference_apply(M, c) for c in dS])


def reference_shift_of_map(f):
    best = NEG_INF
    for j, c in enumerate(f.cols):
        lj = f.source.gens[j].ell
        for i in _bits(c):
            d = f.target.gens[i].ell - lj
            if best == NEG_INF or d > best:
                best = d
    return best


def reference_compose_columns(g, f):
    return tuple(reference_apply(g.cols, c) for c in f.cols)


def reference_square_failures(X):
    """The d(d(g)) != 0 records of a complex whose differential stays
    in range."""
    DD = [reference_apply(X.diff, c) for c in X.diff]
    return [f"d(d({X.gens[i].gid})) != 0" for i in range(X.n) if DD[i]]
