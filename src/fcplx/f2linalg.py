"""Exact sparse linear algebra over the two-element field.

A vector is a plain int: bit i is its coefficient on basis index i, so
a column operation is a single XOR and `_bits` walks a support in
ascending order.  A matrix is a tuple of such columns.  The module is
filtration-blind; filtered structure is layered above it.
"""

from __future__ import annotations

from functools import reduce
from operator import or_


def _mask_from_indices(indices) -> int:
    """The vector with a 1 at each of `indices` (repeats count once)."""
    m = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"negative index {i}")
        m |= 1 << i
    return m


def _bits(m):
    """The set bits of the int m, in ascending order."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _apply(cols, x: int) -> int:
    """The product of the columns `cols` with the vector x: the XOR of
    cols[i] over the set bits i of x."""
    m = 0
    while x:
        low = x & -x
        m ^= cols[low.bit_length() - 1]
        x ^= low
    return m


def _columns(cols, nrows):
    """cols as a tuple and the first column with a bit at or above
    nrows, or None: one OR of the columns shows there is none.  That
    column being negative (its bits never end) raises ValueError."""
    cols = tuple(cols)
    if not reduce(or_, cols, 0) >> nrows:
        return cols, None
    j = next(j for j, c in enumerate(cols) if c >> nrows)
    if cols[j] < 0:
        raise ValueError(f"column {j} is negative")
    return cols, j


class F2SparseMatrix:
    """Column-major GF(2) matrix; column j is the image of e_j."""

    __slots__ = ("columns", "nrows", "ncols")

    def __init__(self, columns, nrows):
        columns, j = _columns(columns, nrows)
        if j is not None:
            t = columns[j].bit_length() - 1
            raise ValueError(f"column {j} has index {t} >= nrows {nrows}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", len(columns))

    def __setattr__(self, name, value):
        raise AttributeError("F2SparseMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def zero(cls, nrows, ncols):
        return cls([0] * ncols, nrows)

    def column(self, j) -> int:
        return self.columns[j]

    def apply(self, x: int) -> int:
        """Matrix-vector product; x lives in the column index space."""
        return _apply(self.columns, x)

    def matmul(self, other: "F2SparseMatrix") -> "F2SparseMatrix":
        if other.nrows != self.ncols:
            raise ValueError("shape mismatch in matmul")
        cols = self.columns
        return F2SparseMatrix([_apply(cols, c) for c in other.columns],
                              self.nrows)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __eq__(self, other):
        return (
            isinstance(other, F2SparseMatrix)
            and self.nrows == other.nrows
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.nrows, self.columns))

    def __repr__(self):
        return f"F2SparseMatrix({self.nrows}x{self.ncols})"


def _eliminate(cols, track):
    """Reduce the int masks `cols` left to right in place, mirroring each
    column addition on `track`; returns {pivot row: column index}.

    Column j is cleared of earlier pivots (pivot = largest support
    index) until it is zero or its pivot is new.
    """
    owner = {}
    for j, c in enumerate(cols):
        t = track[j]
        while c:
            piv = c.bit_length() - 1
            k = owner.get(piv)
            if k is None:
                owner[piv] = j
                break
            c ^= cols[k]
            t ^= track[k]
        cols[j] = c
        track[j] = t
    return owner


def _back_substitute(seed, cols, order):
    """The columns of S U^-1, where U is the square matrix of columns
    `cols`, unitriangular in `order` (column j has bit j, and its other
    bits come before j in `order`), and S the matrix of columns `seed`.

    Column j of U^-1 is e_j plus the columns of U^-1 at the other bits
    of U's column j, so column j of S U^-1 is seed[j] plus those columns
    of S U^-1, each formed before it in `order`: one pass, no
    elimination.  A U that is not unitriangular in `order` raises
    ValueError.
    """
    out = [0] * len(cols)
    done = 0
    for j in order:
        bit = 1 << j
        rest = cols[j] ^ bit
        m = seed[j]
        if rest:
            # bit j missing, or a bit not yet formed, is outside `done`
            if rest & ~done:
                raise ValueError("matrix is not unitriangular in the order")
            m ^= _apply(out, rest)
        out[j] = m
        done |= bit
    return out


def column_reduce(M: F2SparseMatrix):
    """Left-to-right column reduction.

    Returns (R, V) with R = M*V, V upper unitriangular (a
    product of elementary column additions), and all nonzero columns of
    R having distinct pivot rows (pivot = largest support index).
    """
    cols = list(M.columns)
    track = [1 << j for j in range(M.ncols)]
    _eliminate(cols, track)
    return F2SparseMatrix(cols, M.nrows), F2SparseMatrix(track, M.ncols)


def solve_in_span(A: F2SparseMatrix, b: int, allowed=None):
    """Solve A*x = b with support(x) contained in `allowed`.

    Returns the solution x, an int over column indices, or None if the
    system is inconsistent on the allowed columns.
    """
    if allowed is None:
        allowed = range(A.ncols)
    allowed = list(allowed)
    for j in allowed:
        if j < 0 or j >= A.ncols:
            raise ValueError(f"allowed column {j} out of range")
    cols = [A.columns[j] for j in allowed]
    track = [1 << j for j in allowed]
    owner = _eliminate(cols, track)
    r = b
    comb = 0
    while r:
        k = owner.get(r.bit_length() - 1)
        if k is None:
            return None
        r ^= cols[k]
        comb ^= track[k]
    return comb


def invert(V: F2SparseMatrix) -> F2SparseMatrix:
    """Inverse of an invertible square matrix.

    One column reduction gives V*T = R with distinct pivots.  Taking
    pivots p in increasing order, if R's column j has pivot p, then
    T's column j plus the inverse columns q of R's other entries is
    mapped by V to e_p, so it is column p of the inverse.
    """
    if V.nrows != V.ncols:
        raise ValueError("only square matrices can be inverted")
    R, T = column_reduce(V)
    owner = {}
    for j, c in enumerate(R.columns):
        if not c:
            raise ValueError("matrix is singular")
        owner[c.bit_length() - 1] = j
    inv = [0] * V.ncols
    for p in range(V.ncols):
        j = owner[p]
        m = T.columns[j]
        for q in _bits(R.columns[j]):
            if q != p:
                m ^= inv[q]
        inv[p] = m
    return F2SparseMatrix(inv, V.ncols)
