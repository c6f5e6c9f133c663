"""Exact sparse linear algebra over the two-element field.

Vectors are supports (sets of indices with coefficient 1), stored as
Python int bitmasks so that a column operation is a single XOR.  The
module is filtration-blind; filtered structure is layered above it.
"""

from __future__ import annotations

from functools import reduce
from operator import attrgetter, or_


def _mask_from_indices(indices) -> int:
    m = 0
    for i in indices:
        if i < 0:
            raise ValueError(f"negative index {i}")
        m |= 1 << i
    return m


class F2Vector:
    """Immutable GF(2) vector given by its support."""

    __slots__ = ("mask",)

    def __init__(self, indices=(), *, mask=None):
        if mask is None:
            mask = _mask_from_indices(indices)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("F2Vector is immutable")

    def __add__(self, other):
        return F2Vector(mask=self.mask ^ other.mask)

    __xor__ = __add__

    def __bool__(self):
        return self.mask != 0

    def __eq__(self, other):
        return isinstance(other, F2Vector) and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __contains__(self, i):
        return (self.mask >> i) & 1 == 1

    def __iter__(self):
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def indices(self):
        """Support as a strictly increasing tuple."""
        return tuple(self)

    def weight(self) -> int:
        return bin(self.mask).count("1")

    def top(self):
        """Largest index in the support (the pivot), or None if zero."""
        if self.mask == 0:
            return None
        return self.mask.bit_length() - 1

    def __repr__(self):
        return f"F2Vector({list(self)})"


ZERO = F2Vector()
_VECTOR = {F2Vector}
_mask = attrgetter("mask")


def _apply(cols, x: int) -> int:
    """The product of the columns `cols` with the vector whose support
    is the set bits of the int x: the XOR of cols[i].mask over them."""
    m = 0
    while x:
        low = x & -x
        m ^= cols[low.bit_length() - 1].mask
        x ^= low
    return m


def _columns(cols, nrows=None):
    """cols as a tuple of F2Vectors (an entry of another type is read
    as an iterable of indices) and, given nrows, the first column with
    an index >= nrows, or None: one OR of the masks shows there is
    none."""
    cols = tuple(cols)
    if not _VECTOR.issuperset(map(type, cols)):
        cols = tuple(c if type(c) is F2Vector else F2Vector(c) for c in cols)
    if nrows is None or not reduce(or_, map(_mask, cols), 0) >> nrows:
        return cols, None
    return cols, next(j for j, c in enumerate(cols) if c.mask >> nrows)


class F2SparseMatrix:
    """Column-major GF(2) matrix; column j is the image of e_j."""

    __slots__ = ("columns", "nrows", "ncols")

    def __init__(self, columns, nrows):
        columns, j = _columns(columns, nrows)
        if j is not None:
            t = columns[j].top()
            raise ValueError(f"column {j} has index {t} >= nrows {nrows}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", len(columns))

    def __setattr__(self, name, value):
        raise AttributeError("F2SparseMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([F2Vector(mask=1 << i) for i in range(n)], n)

    @classmethod
    def zero(cls, nrows, ncols):
        return cls([ZERO] * ncols, nrows)

    def column(self, j) -> F2Vector:
        return self.columns[j]

    def entry(self, i, j) -> int:
        return 1 if i in self.columns[j] else 0

    def apply(self, x: F2Vector) -> F2Vector:
        """Matrix-vector product; x lives in the column index space."""
        return F2Vector(mask=_apply(self.columns, x.mask))

    def matmul(self, other: "F2SparseMatrix") -> "F2SparseMatrix":
        if other.nrows != self.ncols:
            raise ValueError("shape mismatch in matmul")
        cols = self.columns
        return F2SparseMatrix(
            [F2Vector(mask=_apply(cols, c.mask)) for c in other.columns],
            self.nrows,
        )

    def is_zero(self) -> bool:
        return all(not c for c in self.columns)

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


def column_reduce(M: F2SparseMatrix):
    """Left-to-right column reduction.

    Returns (R, V) with R = M*V, V invertible upper-triangular (a
    product of elementary column additions), and all nonzero columns of
    R having distinct pivot rows (pivot = largest support index).
    """
    cols = [c.mask for c in M.columns]
    track = [1 << j for j in range(M.ncols)]
    _eliminate(cols, track)
    R = F2SparseMatrix([F2Vector(mask=m) for m in cols], M.nrows)
    V = F2SparseMatrix([F2Vector(mask=m) for m in track], M.ncols)
    return R, V


def solve_in_span(A: F2SparseMatrix, b: F2Vector, allowed=None):
    """Solve A*x = b with support(x) contained in `allowed`.

    Returns the solution as an F2Vector over column indices, or None if
    the system is inconsistent on the allowed columns.
    """
    if allowed is None:
        allowed = range(A.ncols)
    allowed = list(allowed)
    for j in allowed:
        if j < 0 or j >= A.ncols:
            raise ValueError(f"allowed column {j} out of range")
    cols = [A.columns[j].mask for j in allowed]
    track = [1 << j for j in allowed]
    owner = _eliminate(cols, track)
    r = b.mask
    comb = 0
    while r:
        k = owner.get(r.bit_length() - 1)
        if k is None:
            return None
        r ^= cols[k]
        comb ^= track[k]
    return F2Vector(mask=comb)


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
        owner[c.top()] = j
    inv = [0] * V.ncols
    for p in range(V.ncols):
        j = owner[p]
        m = T.columns[j].mask
        for q in R.columns[j]:
            if q != p:
                m ^= inv[q]
        inv[p] = m
    return F2SparseMatrix([F2Vector(mask=m) for m in inv], V.ncols)
