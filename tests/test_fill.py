"""`fill_map`, the one solver behind every triangle-witness fill in
`tpc`, and a digest that pins the outputs of the constructions using it."""

import hashlib
from fractions import Fraction

from fcplx.complexes import (
    FilteredChainMap,
    compose,
    homotopic,
    make_complex,
    translate,
)
from fcplx.homsolve import fill_map
from fcplx.tpc import (
    fill_morphism,
    octahedron,
    relax_weight,
    rotate,
    rotate_negative,
    unstable_weight_upper,
)
from fcplx.verify import GenConfig, gen_triangle, gen_triangle_over

from conftest import serialize

CFG = GenConfig(seed=4242)
SLACKS = (Fraction(0), Fraction(1, 2), Fraction(1))
LIMIT_GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))

PARENT_DIGEST = (
    "606fb0fe197dd295726f2f40b5a2ff02566a650a6556b6aa6e8adc87ae51f467"
)


def _outputs(n=200):
    """One line per construction per seeded input: rotate with the
    improvement search, rotate_negative, octahedron, fill_morphism into
    a relaxed copy and unstable_weight_upper of the limit triangle."""
    for off in range(n):
        rng = CFG.rng(off)
        t1, w1 = gen_triangle(CFG, rng)
        yield serialize(rotate(t1, w1, try_improve=True))
        yield serialize(rotate_negative(t1, w1))
        t2, w2 = gen_triangle_over(t1.C, CFG, rng)
        yield serialize(octahedron(t1, w1, t2, w2))
        t3, w3 = relax_weight(t1, w1, rng.choice(SLACKS))
        yield serialize(fill_morphism(t1, w1, t3, w3,
                                      FilteredChainMap.identity(t1.A),
                                      FilteredChainMap.identity(t1.B)))
        w_lim = t1.w.viewed(t1.C, translate(t1.A))
        yield serialize(unstable_weight_upper(t1.u, t1.v, w_lim,
                                              grid=LIMIT_GRID))


def _digest():
    h = hashlib.sha256()
    for line in _outputs():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_constructions_match_the_hand_built_systems():
    """PARENT_DIGEST is this test's digest at commit 912dff2ba0ee, the
    last commit whose tpc wrote each hom-complex system out by hand: the
    fills through `fill_map` return byte-identical witnesses."""
    assert _digest() == PARENT_DIGEST


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
