"""The rank of a persistence structure map by direct linear algebra on
sublevel cycles and boundaries, with no barcode.

`tests/test_barcodes.py` checks `fcplx.barcodes.persistence_rank`,
which counts bars, against it on seeded complexes.
"""

from fractions import Fraction

from fcplx.f2linalg import F2SparseMatrix, _bits, column_reduce


def persistence_rank_bruteforce(X, r, s, degree):
    """Rank of the structure map on sublevel cohomology, by direct
    linear algebra (no barcode)."""
    r, s = Fraction(r), Fraction(s)

    def cycles(level):
        idx = [i for i in range(X.n)
               if X.gens[i].degree == degree and X.gens[i].ell <= level]
        cols = [X.diff[i] for i in idx]
        R, V = column_reduce(F2SparseMatrix(cols, X.n))
        kernel = []
        for j in range(len(idx)):
            if not R.column(j):
                m = 0
                for k in _bits(V.column(j)):
                    m |= 1 << idx[k]
                kernel.append(m)
        return kernel

    def boundaries(level):
        idx = [i for i in range(X.n)
               if X.gens[i].degree == degree - 1 and X.gens[i].ell <= level]
        return [X.diff[i] for i in idx if X.diff[i]]

    def rank(vectors):
        R, _ = column_reduce(F2SparseMatrix(vectors, X.n))
        return sum(1 for j in range(len(vectors)) if R.column(j))

    Zr = cycles(r)
    Bs = boundaries(s)
    return rank(Zr + Bs) - rank(Bs)
