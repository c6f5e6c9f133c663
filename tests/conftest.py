import random
from fractions import Fraction

import pytest

from fcplx.barcodes import Bar, Barcode, from_barcode
from fcplx.complexes import FilteredChainMap, FilteredComplex, make_complex
from fcplx.f2linalg import _apply
from fcplx.rationals import NEG_INF, POS_INF


def interval_free(a, degree=0):
    """One-generator complex, infinite bar at a."""
    return from_barcode(Barcode([Bar(degree, Fraction(a), POS_INF)]))


def interval_pair(c, d, degree=1):
    """Two-generator complex with d(y) = x, finite bar [d, c)."""
    return from_barcode(Barcode([Bar(degree, Fraction(d), Fraction(c))]))


def boundary_move(rng, f):
    """(f + dh + hd, h) for a random degree -1 map h of shift <= 0
    between f's source and target, as a column list: homotopic to f at
    level 0."""
    S, T = f.source, f.target
    cols = []
    for gs in S.gens:
        m = 0
        for t, gt in enumerate(T.gens):
            if (gt.degree == gs.degree - 1 and gt.ell <= gs.ell
                    and rng.random() < 0.5):
                m |= 1 << t
        cols.append(m)
    dh = [_apply(T.diff, c) ^ _apply(cols, d) for c, d in zip(cols, S.diff)]
    return f + FilteredChainMap(S, T, dh, 0), cols


@pytest.fixture
def e2_31():
    return make_complex([("y", 0, 3), ("x", 1, 1)], {"y": ["x"]})


@pytest.fixture
def rng():
    return random.Random(20240817)


def serialize(obj):
    """Exact, repr-free serialization of complexes, maps, triangles,
    witnesses and containers of them."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        assert obj in (NEG_INF, POS_INF)
        return "-inf" if obj == NEG_INF else "+inf"
    if isinstance(obj, FilteredComplex):
        gens = ",".join(f"{g.gid}:{g.degree}:{serialize(g.ell)}"
                        for g in obj.gens)
        return f"X[{gens}|{','.join(hex(c) for c in obj.diff)}]"
    if isinstance(obj, FilteredChainMap):
        cols = ",".join(hex(c) for c in obj.cols)
        return (f"M[{serialize(obj.source)}>{serialize(obj.target)}"
                f"|{obj.degree}|{cols}]")
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}={serialize(v)}"
                              for k, v in sorted(obj.items())) + "}"
    if hasattr(obj, "__dataclass_fields__"):
        return type(obj).__name__ + "(" + ",".join(
            serialize(getattr(obj, f))
            for f in obj.__dataclass_fields__) + ")"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(serialize(x) for x in obj) + ")"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
