"""`fill_map`, the solver behind the triangle-witness fills in `tpc`,
digests that pin the outputs of the triangle constructions, and seeded
clauses whose homotopy bounds bind."""

import hashlib
from fractions import Fraction

from fcplx.barcodes import Bar, Barcode, from_barcode
from fcplx.complexes import (
    FilteredChainMap,
    compose,
    homotopic,
    make_complex,
    translate,
)
from fcplx.f2linalg import _bits
from fcplx.homsolve import fill_map
from fcplx.rationals import POS_INF
from fcplx.tpc import (
    fill_morphism,
    octahedron,
    relax_weight,
    rotate,
    rotate_negative,
    unstable_weight_upper,
)
from fcplx.verify import (
    GenConfig,
    gen_triangle,
    gen_triangle_over,
    random_basis_change,
    random_closed_map,
)

from conftest import serialize
from reference_fill import reference_fill_map

CFG = GenConfig(seed=4242)
SLACKS = (Fraction(0), Fraction(1, 2), Fraction(1))
LIMIT_GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))

# Bound cases: levels on the half-integer grid, so every hom level is a
# multiple of 1/2 and the least bound admitting a fill is on HALVES.
BOUND_CFG = GenConfig(seed=1729)
HALVES = tuple(Fraction(n, 2) for n in range(9))
BOUND_CASES = 24

# the fill_morphism and unstable_weight_upper lines of `_outputs`
PARENT_DIGEST = (
    "0cbb13fe76eccdad997ceec513f4b51539752a54cf8ad371da0416574cd94ffc"
)
# the rotate, rotate_negative and octahedron lines of `_outputs`
CLOSED_FORM_DIGEST = (
    "180e7e3e9b1b20242de1db1323eafbe06a871f212d4a84958feb3beb7a1255c8"
)


def _outputs(n=200):
    """One (kind, line) per construction per seeded input: rotate with
    the improvement search, rotate_negative and octahedron ("closed"),
    then fill_morphism into a relaxed copy and unstable_weight_upper of
    the limit triangle ("fill")."""
    for off in range(n):
        rng = CFG.rng(off)
        t1, w1 = gen_triangle(CFG, rng)
        yield "closed", serialize(rotate(t1, w1, try_improve=True))
        yield "closed", serialize(rotate_negative(t1, w1))
        t2, w2 = gen_triangle_over(t1.C, CFG, rng)
        yield "closed", serialize(octahedron(t1, w1, t2, w2))
        t3, w3 = relax_weight(t1, w1, rng.choice(SLACKS))
        yield "fill", serialize(fill_morphism(t1, w1, t3, w3,
                                              FilteredChainMap.identity(t1.A),
                                              FilteredChainMap.identity(t1.B)))
        w_lim = t1.w.viewed(t1.C, translate(t1.A))
        yield "fill", serialize(unstable_weight_upper(t1.u, t1.v, w_lim,
                                                      grid=LIMIT_GRID))


def _digests():
    h = {"closed": hashlib.sha256(), "fill": hashlib.sha256()}
    for kind, line in _outputs():
        h[kind].update(line.encode())
        h[kind].update(b"\n")
    return {kind: d.hexdigest() for kind, d in h.items()}


def test_constructions_match_the_hand_built_systems():
    """PARENT_DIGEST is the digest of the fill lines at commit
    912dff2ba0ee, the last commit whose tpc wrote each hom-complex
    system out by hand: the fills through `fill_map` return
    byte-identical witnesses.  CLOSED_FORM_DIGEST pins the outputs of
    the constructions whose witness maps are written down in closed
    form; tests/test_rotations.py checks them against the fills of
    tests/reference_rotations.py."""
    digests = _digests()
    assert digests["fill"] == PARENT_DIGEST
    assert digests["closed"] == CLOSED_FORM_DIGEST


def test_contradictory_clauses_have_no_fill():
    # an infinite bar: no homotopy of any level links id and 0
    X = make_complex([("s", 0, 0)])
    one = FilteredChainMap.identity(X)
    zero = FilteredChainMap.zero(X, X)
    big = Fraction(10)
    assert fill_map(X, X, pre=[(one, one, big)]) == one
    assert fill_map(X, X, post=[(one, zero, big)]) == zero
    assert fill_map(X, X, pre=[(one, one, big)],
                    post=[(one, zero, big)]) is None
    assert fill_map(X, X, pre=[(one, one, big), (one, zero, big)]) is None


def test_pre_and_post_homotopies_live_in_their_own_hom_spaces():
    # x: S -> T with T = (d y = t) a bar [0, 1).  pre: a: W -> S, and
    # x o a ~ b (w -> t) in Hom(W, T), where the only homotopy w -> y has
    # level 1.  post: c: T -> Z an isomorphism onto a copy of T, and
    # c o x ~ 0 in Hom(S, Z), where the only homotopy s -> y' has level 1.
    S = make_complex([("s", 1, 0)])
    W = make_complex([("w", 1, 0)])
    T = make_complex([("t", 1, 0), ("y", 0, 1)], {"y": ["t"]})
    Z = make_complex([("t'", 1, 0), ("y'", 0, 1)], {"y'": ["t'"]})
    a = FilteredChainMap.from_pairs(W, S, {"w": ["s"]})
    b = FilteredChainMap.from_pairs(W, T, {"w": ["t"]})
    c = FilteredChainMap.from_pairs(T, Z, {"t": ["t'"], "y": ["y'"]})
    to_t = FilteredChainMap.from_pairs(S, T, {"s": ["t"]})
    zero_SZ = FilteredChainMap.zero(S, Z)

    # pre forces x(s) = t; post then needs its level-1 homotopy
    x = fill_map(S, T, pre=[(a, b, 0)], post=[(c, zero_SZ, 1)])
    assert x == to_t
    assert homotopic(compose(c, x), zero_SZ, 1) is not None
    assert homotopic(compose(c, x), zero_SZ, 0) is None
    # both bounds at 0: x(s) = t and x = 0 at once
    assert fill_map(S, T, pre=[(a, b, 0)], post=[(c, zero_SZ, 0)]) is None
    # the pre homotopy allowed instead: x = 0, and x o a ~ b at level 1
    x = fill_map(S, T, pre=[(a, b, 1)], post=[(c, zero_SZ, 0)])
    assert x == FilteredChainMap.zero(S, T)
    assert homotopic(compose(x, a), b, 1) is not None


# ----------------------------------------------------------------------
# clauses whose bounds bind


def _grid_complex(rng, lo=10, hi=20):
    """lo to hi generators: one summand per bar of a random barcode with
    half-integer endpoints, under a random change of basis."""
    bars = []
    n = rng.randint(lo, hi)
    while n > 0:
        lo = rng.choice(HALVES[:8])
        if n == 1 or rng.random() < 0.3:
            bars.append(Bar(rng.choice((0, 1)), lo, POS_INF))
            n -= 1
        else:
            bars.append(Bar(rng.choice((0, 1)), lo,
                            lo + rng.choice(HALVES[1:8])))
            n -= 2
    return random_basis_change(from_barcode(Barcode(bars)), rng)[0]


def _boundary(h):
    """dY o h + h o dX, the differential of h in Hom(X, Y)."""
    X, Y = h.source, h.target
    cols = []
    for j, c in enumerate(h.cols):
        m = 0
        for t in _bits(c):
            m ^= Y.diff[t]
        for i in _bits(X.diff[j]):
            m ^= h.cols[i]
        cols.append(m)
    return FilteredChainMap(X, Y, cols, h.degree + 1)


def _positive_homotopy(rng, X, Y):
    """A random degree -1 map X -> Y whose entries have levels in
    (0, cap] for a random cap of at most 2."""
    cap = rng.choice(HALVES[1:5])
    cols = []
    for gs in X.gens:
        m = 0
        for t, gt in enumerate(Y.gens):
            if (gt.degree == gs.degree - 1
                    and 0 < gt.ell - gs.ell <= cap
                    and rng.random() < 0.3):
                m |= 1 << t
        cols.append(m)
    return FilteredChainMap(X, Y, cols, -1)


def _bound_case(off, side):
    """(S, T, a, b) for one seeded clause on `side` ("pre" or "post"):
    b is a composite of a with a closed x0: S -> T plus the boundary of
    a homotopy of level in (0, 2], so a bound of 2 admits a fill and a
    smaller one may not."""
    rng = BOUND_CFG.rng(off if side == "pre" else 1000 + off)
    S, T, O = (_grid_complex(rng) for _ in range(3))
    x0 = random_closed_map(S, T, rng)
    if side == "pre":
        a = random_closed_map(O, S, rng)
        b = compose(x0, a) + _boundary(_positive_homotopy(rng, O, T))
    else:
        a = random_closed_map(T, O, rng)
        b = compose(a, x0) + _boundary(_positive_homotopy(rng, S, O))
    return S, T, a, b


def _fill(S, T, side, a, b, bound):
    clause = [(a, b, bound)]
    if side == "pre":
        return fill_map(S, T, pre=clause)
    return fill_map(S, T, post=clause)


def _least_bounds(side):
    """Per seeded case, the least bound on HALVES at which the clause
    has a fill (None past the grid), with that fill checked."""
    out = []
    for off in range(BOUND_CASES):
        S, T, a, b = _bound_case(off, side)
        least = None
        for bound in HALVES:
            x = _fill(S, T, side, a, b, bound)
            if x is not None:
                least = bound
                break
        if least is not None:
            assert x.is_closed() and x.degree == 0
            composite = compose(x, a) if side == "pre" else compose(a, x)
            assert homotopic(composite, b, least) is not None
        out.append(least)
    return out


# Recorded at the parent of the sliced fill_map, whose solver built the
# whole hom complexes.
LEAST_PRE = [Fraction(b) for b in (
    "0 1/2 0 2 2 1 0 1 2 0 3/2 3/2 3/2 1 3/2 3/2 3/2 3/2 2 3/2 0 1/2 0 0"
).split()]
LEAST_POST = [Fraction(b) for b in (
    "1/2 1 3/2 2 3/2 1 2 1/2 2 3/2 2 3/2 2 1 1 3/2 1/2 2 0 3/2 3/2 1 0 1"
).split()]


def _assert_bounds_bind(least, expected):
    assert least == expected
    # a bound binds: a fill at `b` and none at b - 1/2
    assert sum(1 for b in least if b is not None and b > 0) >= 12


def test_pre_clause_bounds_bind():
    _assert_bounds_bind(_least_bounds("pre"), LEAST_PRE)


def test_post_clause_bounds_bind():
    _assert_bounds_bind(_least_bounds("post"), LEAST_POST)


# ----------------------------------------------------------------------
# the sliced fill_map against the whole-hom-complex solver


def _clause_calls(n=220):
    """Seeded fill_map calls with 0-2 pre and 0-2 post clauses on 4-12
    generators.  Each b is a composite with one closed x0 plus the
    boundary of a homotopy of level in (0, 2], or, one time in four, a
    random closed map; bounds are drawn from 0 to 2."""
    cfg = GenConfig(seed=3141)
    for off in range(n):
        rng = cfg.rng(off)
        S, T = _grid_complex(rng, 4, 12), _grid_complex(rng, 4, 12)
        x0 = random_closed_map(S, T, rng)
        pre, post = [], []
        for _ in range(rng.randint(0, 2)):
            W = _grid_complex(rng, 4, 12)
            a = random_closed_map(W, S, rng)
            b = (random_closed_map(W, T, rng) if rng.random() < 0.25 else
                 compose(x0, a) + _boundary(_positive_homotopy(rng, W, T)))
            pre.append((a, b, rng.choice(HALVES[:5])))
        for _ in range(rng.randint(0, 2)):
            Z = _grid_complex(rng, 4, 12)
            a = random_closed_map(T, Z, rng)
            b = (random_closed_map(S, Z, rng) if rng.random() < 0.25 else
                 compose(a, x0) + _boundary(_positive_homotopy(rng, S, Z)))
            post.append((a, b, rng.choice(HALVES[:5])))
        yield S, T, pre, post


def _bound_calls():
    """Each seeded bound case at its least bound and half below it."""
    for side, least in (("pre", LEAST_PRE), ("post", LEAST_POST)):
        for off, b in enumerate(least):
            S, T, a, b_map = _bound_case(off, side)
            for bound in {b, max(b - Fraction(1, 2), 0)}:
                clause = [(a, b_map, bound)]
                yield ((S, T, clause, []) if side == "pre"
                       else (S, T, [], clause))


def test_fill_map_matches_the_whole_hom_complex_solve():
    calls = found = 0
    for S, T, pre, post in [*_clause_calls(), *_bound_calls()]:
        x = fill_map(S, T, pre=pre, post=post)
        assert serialize(x) == serialize(reference_fill_map(S, T, pre, post))
        calls += 1
        found += x is not None
    assert calls >= 300
    # both outcomes are exercised
    assert 0.2 * calls < found < 0.8 * calls
