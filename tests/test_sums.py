"""Direct sums of triangles are built once, n-ary, by block offsets
(`tpc.sum_triangles_many`, `complexes.sum_complexes`).  Their output
must equal, byte for byte, that of the binary left fold they replace
(`reference_sums`), and the pipeline, whose slot step sums one cone
over all matched bars with the collapsed and carried short bars, must
build a number of map columns linear in the number of bars and ids
with a bounded number of primes."""

import functools
import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest

from fcplx.barcodes import Bar, Barcode, from_barcode
from fcplx.complexes import (
    FilteredChainMap,
    _inclusion,
    _projection,
    shift_complex,
    sum_complexes,
    translate,
    zero_complex,
)
from fcplx.fragmentation import (
    EMPTY_FAMILY,
    collapse_acyclic_triangle,
    prop51_pipeline,
    validate_decomposition,
)
from fcplx.rationals import POS_INF
from fcplx.tpc import (
    WeightedTriangle,
    identity_triangle,
    sum_triangles,
    sum_triangles_many,
    triangle_from_morphism,
    verify_triangle,
)
from fcplx.verify import (
    GenConfig,
    gen_complex,
    gen_triangle,
    random_basis_change,
)

from conftest import serialize
import reference_sums

CFG = GenConfig(seed=6174)
# Filtration levels of the pipeline pairs: quarters in [0, 8).
GRID = tuple(Fraction(n, 4) for n in range(32))
BINARY_OFFSETS = 520  # two orders each: 1040 binary sums
LARGE_BARS = (32, 64, 128)

BINARY_DIGEST = (
    "5fce9eed6772a51621041305eae17a09daf8226f9b88649aebe473aaa859714d"
)
PIPELINE_DIGEST = (
    "1fd21126ce33def45d9e6902a4064db0187696c0a9f74d885c7c8cf0a63f3b7b"
)


# ----------------------------------------------------------------------
# inputs


def _random_barcode(rng, nbars, n_inf):
    bars = []
    for k in range(nbars):
        lo = rng.choice(GRID)
        hi = POS_INF if k < n_inf else lo + rng.choice(GRID[1:])
        bars.append(Bar(k % 2, lo, hi))
    return Barcode(bars)


def _jittered(rng, B, n_drop):
    """Every bar moved by at most 1, n_drop finite bars dropped."""
    finite = [k for k, b in enumerate(B.bars) if b.is_finite()]
    dropped = set(rng.sample(finite, min(n_drop, len(finite))))
    bars = []
    for k, b in enumerate(B.bars):
        if k in dropped:
            continue
        eps = rng.choice(GRID[:5]) * rng.choice((-1, 1))
        lo = b.lo + eps
        hi = b.hi if b.hi == POS_INF else max(b.hi + eps, lo + GRID[1])
        bars.append(Bar(b.degree, lo, hi))
    return Barcode(bars)


def _pipeline_pair(rng, n):
    """X of n bars, n // 5 of them infinite, and Y a jittered copy with
    n // 7 bars dropped, both in a random level-legal basis: the shape
    of the benchmark's pipeline inputs."""
    BX = _random_barcode(rng, n, n // 5)
    BY = _jittered(rng, BX, n // 7)
    X = random_basis_change(from_barcode(BX), rng)[0]
    Y = random_basis_change(from_barcode(BY), rng)[0]
    return X, Y


def _small_pairs():
    rng = random.Random(3301)
    return [_pipeline_pair(rng, n) for n in list(range(4, 17)) * 3]


@functools.lru_cache(maxsize=None)
def _large_pair(n):
    return _pipeline_pair(random.Random(f"sums/{n}"), n)


def _part(rng):
    """One (triangle, witness) summand: a generated cone triangle (ids
    g0, g1, ...), an identity triangle of a generated complex or of
    zero, a collapsed acyclic slot, a cone onto zero ("t." ids), or the
    fold of three generated triangles, whose ids repeat three times
    (g0, g0', g0'')."""
    kind = rng.randrange(6)
    if kind == 0:
        return gen_triangle(CFG, rng)
    if kind == 1:
        return identity_triangle(gen_complex(CFG, rng, max_generators=3))
    if kind == 2:
        return identity_triangle(zero_complex())
    if kind == 3:
        lo = rng.choice(GRID[:8])
        bar = Bar(rng.randrange(2), lo, lo + rng.choice(GRID[:4]))
        return collapse_acyclic_triangle(from_barcode(Barcode([bar])))
    if kind == 4:
        A = gen_complex(CFG, rng, max_generators=3)
        return triangle_from_morphism(FilteredChainMap.zero(A, zero_complex()))
    return reference_sums.fold_triangles(
        [gen_triangle(CFG, rng) for _ in range(3)])


def _binary_pairs():
    for off in range(BINARY_OFFSETS):
        rng = CFG.rng(off)
        p, q = _part(rng), _part(rng)
        yield p, q
        yield q, p


# ----------------------------------------------------------------------
# outputs, computed once per session


@functools.lru_cache(maxsize=None)
def _pipeline_outputs():
    pairs = _small_pairs() + [_large_pair(n) for n in LARGE_BARS]
    return [serialize(prop51_pipeline(X, Y)) for X, Y in pairs]


@functools.lru_cache(maxsize=None)
def _binary_outputs():
    return [serialize(sum_triangles(*p, *q)) for p, q in _binary_pairs()]


def test_pipeline_matches_the_binary_fold():
    pairs = _small_pairs() + [_large_pair(n) for n in LARGE_BARS]
    for (X, Y), got in zip(pairs, _pipeline_outputs()):
        assert got == serialize(reference_sums.reference_prop51_pipeline(X, Y))


def test_binary_sums_match_the_binary_fold():
    outputs = _binary_outputs()
    assert len(outputs) >= 1000
    for (p, q), got in zip(_binary_pairs(), outputs):
        assert got == serialize(reference_sums.sum_triangles(*p, *q))


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_outputs_match_the_parent_digest():
    """BINARY_DIGEST is the digest of the binary sums, one line each,
    computed at commit 60f1044b61c6.  There the pipeline outputs and the
    binary sums together still gave the digest of commit 8074491c441e,
    the last commit that folded binary sums."""
    assert _digest(_binary_outputs()) == BINARY_DIGEST


def test_pipeline_outputs_match_their_digest():
    """PIPELINE_DIGEST is the digest of the pipeline outputs, one line
    each, since all matched pairs are one cone: the slot step's
    generators are a block permutation of the per-pair cones' before
    it, with other ids, and so are the down maps (`test_cone_helpers`
    checks the per-pair blocks side by side)."""
    assert _digest(_pipeline_outputs()) == PIPELINE_DIGEST


def test_n_ary_sums_match_the_binary_fold():
    rng = random.Random(4096)
    verified = 0
    for _ in range(150):
        parts = [_part(rng) for _ in range(rng.randint(3, 6))]
        got = sum_triangles_many(parts)
        assert serialize(got) == serialize(reference_sums.fold_triangles(parts))
        if verified < 20:
            assert verify_triangle(*got)[0]
            verified += 1
    one = _part(rng)
    assert sum_triangles_many([one]) == one


def test_sum_complexes_gives_the_fold_ids_and_offsets():
    rng = random.Random(77)
    for _ in range(200):
        parts = [gen_complex(CFG, rng, max_generators=3)
                 if rng.random() < 0.8 else zero_complex()
                 for _ in range(rng.randint(1, 5))]
        total, offsets = sum_complexes(parts)
        ref = zero_complex()
        for p in parts:
            ref = reference_sums.direct_sum(ref, p).complex
        assert serialize(total) == serialize(ref)
        assert list(offsets) == [sum(p.n for p in parts[:k])
                                 for k in range(len(parts))]
    X = gen_complex(CFG, rng, max_generators=3)
    S, (_, off) = sum_complexes([X, X])
    assert serialize((S, _inclusion(X, S, 0), _inclusion(X, S, off),
                      _projection(S, X, 0), _projection(S, X, off))
                     ) == serialize(reference_sums.direct_sum(X, X))


def test_parts_with_different_u_degrees_do_not_sum():
    rng = CFG.rng(0)
    t1, w1 = gen_triangle(CFG, rng)
    z = zero_complex()
    A = gen_complex(CFG, rng, max_generators=3)
    t2 = WeightedTriangle(
        A, z, z,
        FilteredChainMap.zero(A, z, degree=1),
        FilteredChainMap.zero(z, z),
        FilteredChainMap.zero(z, shift_complex(translate(A), 0)),
        Fraction(0),
    )
    w2 = collapse_acyclic_triangle(z)[1]
    for parts in (((t1, w1), (t2, w2)), ((t2, w2), (t1, w1))):
        with pytest.raises(ValueError):
            reference_sums.fold_triangles(list(parts))
        with pytest.raises(ValueError):
            sum_triangles_many(list(parts))


# ----------------------------------------------------------------------
# no size cliff


def _columns_built(monkeypatch, X, Y):
    built = [0]
    init = FilteredChainMap.__init__

    def counting(self, source, target, cols, degree=0):
        built[0] += source.n
        init(self, source, target, cols, degree)

    with monkeypatch.context() as m:
        m.setattr(FilteredChainMap, "__init__", counting)
        prop51_pipeline(X, Y)
    return built[0]


def test_pipeline_map_columns_grow_linearly(monkeypatch):
    """The fold built 795 168 columns at 64 bars and 5 058 083 at 128
    (x6.4 per doubling); block offsets keep it near x2."""
    c64 = _columns_built(monkeypatch, *_large_pair(64))
    c128 = _columns_built(monkeypatch, *_large_pair(128))
    assert c128 <= 2.5 * c64


def test_pipeline_at_128_bars_validates():
    """Validation checks each step's certificate by products, so its
    memory stays far below that of solving phi o psi ~ eta on the
    summed slot step, which peaked near 550 MB here."""
    X, Y = _large_pair(128)
    bound, D, tau, cap = prop51_pipeline(X, Y)
    assert bound <= cap * tau
    tracemalloc.start()
    try:
        ok, weight, problems = validate_decomposition(D, X, EMPTY_FAMILY, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok, problems
    assert weight == bound
    assert peak < 100 * 2**20, f"{peak / 2**20:.0f} MB"


def test_pipeline_ids_carry_at_most_two_primes():
    """The slot step sums at most three parts, whose ids are numbered
    per bar, so no id needs more than two primes to be unique.  Summing
    one part per matched bar, each named x0/y0, gave this pair ids with
    336 primes."""
    X, Y = _large_pair(256)
    _, D, _, _ = prop51_pipeline(X, Y)
    primes = max(gid.count("'")
                 for tri, wit in D.steps
                 for obj in (tri.A, tri.B, tri.C, wit.cprime)
                 for gid in obj._ids)
    assert primes <= 2, primes
