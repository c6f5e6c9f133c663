import random
from fractions import Fraction

import pytest

from fcplx.barcodes import Bar, Barcode, from_barcode
from fcplx.complexes import FilteredChainMap, FilteredComplex, make_complex
from fcplx.rationals import NEG_INF, POS_INF


def interval_free(a, degree=0):
    """One-generator complex, infinite bar at a."""
    return from_barcode(Barcode([Bar(degree, Fraction(a), POS_INF)]))


def interval_pair(c, d, degree=1):
    """Two-generator complex with d(y) = x, finite bar [d, c)."""
    return from_barcode(Barcode([Bar(degree, Fraction(d), Fraction(c))]))


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
        return f"X[{gens}|{','.join(hex(c.mask) for c in obj.diff)}]"
    if isinstance(obj, FilteredChainMap):
        cols = ",".join(hex(c.mask) for c in obj.cols)
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
