import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcplx.f2linalg import (
    F2SparseMatrix,
    _bits,
    _mask_from_indices,
    column_reduce,
    invert,
    solve_in_span,
)


def random_matrix(rng, nrows, ncols, density=0.4):
    cols = []
    for _ in range(ncols):
        cols.append(_mask_from_indices(i for i in range(nrows)
                                       if rng.random() < density))
    return F2SparseMatrix(cols, nrows)


def test_reduce_zero_matrix_is_identity():
    M = F2SparseMatrix.zero(4, 3)
    R, V = column_reduce(M)
    assert R.is_zero()
    assert V == F2SparseMatrix.identity(3)


def test_reduce_clears_repeated_column():
    M = F2SparseMatrix([0b1, 0b1], 2)
    R, V = column_reduce(M)
    assert R.column(0) == 0b1
    assert not R.column(1)
    assert V.column(1) == 0b11


def test_reduce_roundtrip_on_random_matrices():
    rng = random.Random(7)
    for _ in range(50):
        M = random_matrix(rng, 8, 8)
        R, V = column_reduce(M)
        assert R == M.matmul(V)
        assert invert(V).matmul(V) == F2SparseMatrix.identity(8)
        pivots = [c.bit_length() - 1 for c in R.columns if c]
        assert len(pivots) == len(set(pivots))


def test_solve_identity_cases():
    I = F2SparseMatrix.identity(4)
    x = solve_in_span(I, 1 << 2)
    assert x == 1 << 2
    assert solve_in_span(I, 1 << 2, allowed=[0, 1]) is None


def test_solve_out_of_range_allowed_is_an_error():
    I = F2SparseMatrix.identity(2)
    try:
        solve_in_span(I, 1 << 0, allowed=[5])
    except ValueError:
        pass
    else:
        raise AssertionError("expected a malformed-input error")


def test_solve_agrees_with_membership():
    rng = random.Random(13)
    for _ in range(60):
        A = random_matrix(rng, 6, 5)
        want = _mask_from_indices(j for j in range(5) if rng.random() < 0.5)
        b = A.apply(want)
        x = solve_in_span(A, b)
        assert x is not None
        assert A.apply(x) == b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), max_size=6), max_size=6),
       st.lists(st.integers(0, 5), max_size=4))
def test_solution_supports_stay_allowed(cols, allowed):
    M = F2SparseMatrix([_mask_from_indices(c) for c in cols], 8)
    allowed = sorted({a for a in allowed if a < M.ncols})
    b = 0
    for j in allowed:
        b = b ^ M.column(j)
    x = solve_in_span(M, b, allowed)
    assert x is not None
    assert set(_bits(x)) <= set(allowed)
    assert M.apply(x) == b


def test_invert_random_square_matrices():
    rng = random.Random(29)
    singular = 0
    for n in range(13):
        for _ in range(20):
            M = random_matrix(rng, n, n, density=0.5)
            R, _ = column_reduce(M)
            if all(R.columns):
                W = invert(M)
                assert M.matmul(W) == F2SparseMatrix.identity(n)
                assert W.matmul(M) == F2SparseMatrix.identity(n)
            else:
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    invert(M)
    assert 0 < singular < 13 * 20
    with pytest.raises(ValueError, match="square"):
        invert(F2SparseMatrix.zero(2, 3))
