"""`delta_upper` scores its raised-comparison shift grid from barcodes
(`_riso_costs`, one in-order pairing in integer levels for the whole
grid) and builds only the winning shift.  The score must equal the
weight of the built decomposition at every grid shift, and the
`Fraction` score of each shift on its own on fine grids, and the result
must equal, byte for byte, that of the reference that builds every
shift."""

import random
from fractions import Fraction

from fcplx import barcodes, fragmentation, tpc
from fcplx.barcodes import Bar, Barcode, barcode, from_barcode
from fcplx.complexes import zero_complex
from fcplx.fragmentation import (
    FamilySpec,
    _riso_costs,
    _riso_strategy,
    delta_exact_small,
    delta_upper,
)
from fcplx.rationals import POS_INF
from fcplx.verify import GenConfig, gen_complex, random_basis_change

from conftest import serialize
from reference_delta_upper import reference_delta_upper, reference_riso_cost

CFG = GenConfig(seed=5150)
LEVELS = tuple(Fraction(n, 4) for n in range(9))


def _bars(rng, shapes):
    """One bar per (degree, infinite?) shape, with random levels.  Bars
    of length up to 1 on levels up to 2 leave room for a raised bar to
    start above the end of its match."""
    bars = []
    for degree, infinite in shapes:
        lo = rng.choice(LEVELS)
        hi = POS_INF if infinite else lo + rng.choice(LEVELS[1:5])
        bars.append(Bar(degree, lo, hi))
    return Barcode(bars)


def _shapes(rng, n):
    return [(rng.randrange(2), rng.random() < 0.3) for _ in range(n)]


def _scrambled(rng, B):
    return random_basis_change(from_barcode(B), rng)[0]


def _pairs():
    """Seeded (X, X') pairs: scrambled from_barcode objects of 1-6 bars,
    half with matching bar shapes (so the in-order comparison exists at
    some shifts) and half drawn independently, the empty complex against
    itself and against a few bars, and gen_complex pairs."""
    rng = random.Random(8128)
    pairs = []
    for i in range(48):
        shapes = _shapes(rng, 1 + i % 6)
        other = shapes if i % 2 == 0 else _shapes(rng, rng.randint(1, 6))
        pairs.append((_bars(rng, shapes), _bars(rng, other)))
    pairs.append((Barcode(), Barcode()))
    pairs.append((Barcode(), _bars(rng, [(0, False), (1, False)])))
    pairs.append((Barcode(), _bars(rng, [(0, True)])))
    out = [(_scrambled(rng, a), _scrambled(rng, b)) for a, b in pairs]
    for off in range(8):
        grng = CFG.rng(off)
        out.append((gen_complex(CFG, grng, max_generators=4),
                    gen_complex(CFG, grng, max_generators=4)))
    return out


def _both_ways():
    for X, Y in _pairs():
        yield X, Y
        yield Y, X


def _grid(X, Xp):
    levels = sorted({g.ell for Z in (X, Xp) for g in Z.gens})
    return sorted(
        {Fraction(0)} | {a - b for a in levels for b in levels if a - b > 0}
    )


def test_score_equals_the_built_weight_at_every_shift():
    seen = {"none": 0, "disjoint": 0}
    for X, Xp in _both_ways():
        BX, BXp = barcode(X), barcode(Xp)
        for k in _grid(X, Xp):
            D = _riso_strategy(BX, BXp, k)
            scored = list(_riso_costs(BX, BXp, [k]))
            if D is None:
                assert scored == [], (BX, BXp, k)
                seen["none"] += 1
                continue
            assert scored == [(D.total_weight(), k)], (BX, BXp, k)
            pairs = fragmentation._in_order_pairs(BXp.shifted(k), BX)
            if any(s.hi != POS_INF and t.hi <= s.lo
                   for (s, _), (t, _) in pairs):
                seen["disjoint"] += 1
    # the inputs reach the refused and the disjoint-interval cases
    assert seen["none"] and seen["disjoint"]


def _jittered_pair(n):
    """X with n bars on the 1/97 grid of [0, 8), the first n/4 infinite,
    degrees alternating, lengths under 2, and X' = X with every endpoint
    moved by -1/97, 0 or +1/97."""
    rng = random.Random(f"fine/{n}")
    q = Fraction(1, 97)
    bx, by = [], []
    for k in range(n):
        lo = rng.randrange(8 * 97)
        hi = lo + rng.randrange(1, 2 * 97)
        jlo = max(0, lo + rng.choice((-1, 0, 1)))
        jhi = max(jlo + 1, hi + rng.choice((-1, 0, 1)))
        if k < n // 4:
            hi = jhi = POS_INF
        else:
            hi, jhi = hi * q, jhi * q
        bx.append(Bar(k % 2, lo * q, hi))
        by.append(Bar(k % 2, jlo * q, jhi))
    return Barcode(bx), Barcode(by)


def test_fine_grids_score_every_shift_as_the_fraction_reference():
    """On the 1/97 grid: at 32 bars every shift, both directions; at
    128 bars every 10th shift and the first lightest one."""
    for n, step in ((32, 1), (128, 10)):
        BX, BY = _jittered_pair(n)
        for B1, B2 in ((BX, BY), (BY, BX)):
            grid = tpc.level_grid(from_barcode(B1), from_barcode(B2))
            scored = {k: c for c, k in _riso_costs(B1, B2, grid)}
            for k in grid[::step]:
                assert scored.get(k) == reference_riso_cost(B1, B2, k), k
            least = min(scored.values())
            first = next(k for k in grid if scored.get(k) == least)
            assert reference_riso_cost(B1, B2, first) == least
    # the inputs reach refused shifts
    assert len(scored) < len(grid)


def test_the_first_of_tied_lightest_shifts_wins():
    """Three shifts share the lightest raised-comparison weight, which
    beats every other strategy: the first of them is built."""
    h = Fraction(1, 2)
    BX = Barcode([Bar(0, 2 * h, 4 * h), Bar(1, 4 * h, 6 * h)])
    BXp = Barcode([Bar(0, 4 * h, 5 * h), Bar(1, 2 * h, 4 * h)])
    X, Xp = from_barcode(BX), from_barcode(BXp)
    scored = list(_riso_costs(BX, BXp, tpc.level_grid(X, Xp)))
    least = min(c for c, _ in scored)
    tied = [k for c, k in scored if c == least]
    assert tied == [2 * h, 3 * h, 4 * h]
    value, D = delta_upper(X, Xp)
    assert value == least
    assert serialize(D) == serialize(_riso_strategy(BX, BXp, tied[0]))
    assert serialize(D) != serialize(_riso_strategy(BX, BXp, tied[1]))
    assert serialize((value, D)) == serialize(reference_delta_upper(X, Xp))


def _via_triple():
    """X, mid, X' where the path through mid beats every direct strategy."""
    q = Fraction(1, 4)
    return (_scrambled(random.Random(7), Barcode([Bar(0, lo, hi)]))
            for lo, hi in ((8 * q, 10 * q), (3 * q, 5 * q), (2 * q, 5 * q)))


def test_result_is_byte_identical_to_building_every_shift():
    for X, Xp in _both_ways():
        assert (serialize(delta_upper(X, Xp))
                == serialize(reference_delta_upper(X, Xp)))
    X, mid, Xp = _via_triple()
    through = delta_upper(X, Xp, via=(mid,))
    assert through[0] < delta_upper(X, Xp)[0]
    assert serialize(through) == serialize(
        reference_delta_upper(X, Xp, via=(mid,)))


def test_at_most_one_witnessed_iso_per_call(monkeypatch):
    """Only the winning strategy is built, and the raised comparison and
    the pipeline each attach one zero-apex step; building every grid
    shift would attach one per shift."""
    calls = []
    real = fragmentation.zero_apex_step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fragmentation, "zero_apex_step", counted)
    for X, Xp in _both_ways():
        calls.clear()
        delta_upper(X, Xp, via=())
        assert len(calls) <= 1


def _lacking_zero_pairs():
    """Pairs a family without zero can still witness: equal barcodes
    (the slot), pure shifts (the eta slot), and independent bars."""
    rng = random.Random(6174)
    out = []
    for n in range(1, 5):
        B = _bars(rng, _shapes(rng, n))
        out.append((_scrambled(rng, B), _scrambled(rng, B)))
        out.append((_scrambled(rng, B),
                     _scrambled(rng, B.shifted(rng.choice(LEVELS[1:])))))
        out.append((_scrambled(rng, B),
                     _scrambled(rng, _bars(rng, _shapes(rng, n)))))
    return out


def test_byte_identical_on_a_family_without_zero():
    """Without zero in the family, the lightest candidate may fail the
    family rule; the next one that passes is returned, as the reference
    that builds and filters every candidate returns it."""
    kept = 0
    for X, Xp in _lacking_zero_pairs():
        for fam in (FamilySpec((), with_zero=False),
                    FamilySpec((X,), with_zero=False)):
            for a, b in ((X, Xp), (Xp, X)):
                got = delta_upper(a, b, fam)
                assert serialize(got) == serialize(
                    reference_delta_upper(a, b, fam))
                kept += got[1] is not None
    fam = FamilySpec((), with_zero=False)
    X, mid, Xp = _via_triple()
    assert serialize(delta_upper(X, Xp, fam, via=(mid,))) == serialize(
        reference_delta_upper(X, Xp, fam, via=(mid,)))
    # lighter candidates fail the rule, and some pairs still get a bound
    assert kept and any(delta_upper(X, Xp)[0] < delta_upper(X, Xp, fam)[0]
                        for X, Xp in _lacking_zero_pairs())


def _counted_builds(monkeypatch):
    """Decompositions built by delta_upper's strategies, counted when no
    other strategy builder is running (singleton and raised-comparison
    builds call the eta slot triangle inside)."""
    builds, depth = [], [0]
    for name in ("singleton_decomposition", "eta_slot_triangle",
                 "_riso_strategy", "_pipeline", "compose_decompositions"):
        real = getattr(fragmentation, name)

        def counted(*args, _real=real, _name=name):
            if not depth[0]:
                builds.append(_name)
            depth[0] += 1
            try:
                return _real(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(fragmentation, name, counted)
    return builds


def test_one_build_per_call_with_zero_in_the_family(monkeypatch):
    """Every strategy is scored from barcodes, and with zero in the
    family the lightest one passes, so it is the only one built; a via
    path adds the builds of its two legs."""
    builds = _counted_builds(monkeypatch)
    zfam = FamilySpec((zero_complex(),), with_zero=False)
    for X, Xp in _both_ways():
        for fam in (fragmentation.EMPTY_FAMILY, zfam):
            builds.clear()
            value, D = delta_upper(X, Xp, fam)
            assert len(builds) == (D is not None)
    X, mid, Xp = _via_triple()
    builds.clear()
    delta_upper(X, Xp, via=(mid,))
    assert builds == [builds[0], builds[1], "compose_decompositions"]


def test_pipeline_runs_only_when_it_wins(monkeypatch):
    """The pipeline is scored from the bottleneck matching and built
    only when that score beats every other strategy; before, it was
    built whenever the bound held was above 0."""
    built = []
    real = fragmentation._pipeline

    def recorded(*args):
        out = real(*args)
        built.append(out[1])
        return out

    monkeypatch.setattr(fragmentation, "_pipeline", recorded)
    wins = 0
    for X, Xp in _both_ways():
        built.clear()
        _, D = delta_upper(X, Xp)
        assert built == ([D] if built else [])
        wins += bool(built)
    assert wins and wins < len(_pairs())
    # equal barcodes: the weight-0 slot wins, so the pipeline never runs
    built.clear()
    rng = random.Random(2718)
    for n in range(7):
        B = _bars(rng, _shapes(rng, n))
        assert delta_upper(_scrambled(rng, B), _scrambled(rng, B))[0] == 0
    assert not built


def _pipeline_pairs():
    """Seeded barcode pairs of 0-6 bars in two degrees, a third of them
    infinite, on a coarser grid than _bars so that bars go short."""
    rng = random.Random(4242)
    levels = [Fraction(n, 2) for n in range(9)]

    def bars(n):
        out = []
        for _ in range(n):
            lo = rng.choice(levels)
            hi = (POS_INF if rng.random() < 0.3
                  else lo + rng.choice(levels[1:]))
            out.append(Bar(rng.randrange(2), lo, hi))
        return Barcode(out)

    return [(bars(rng.randrange(7)), bars(rng.randrange(7)))
            for _ in range(300)]


def test_pipeline_cost_equals_the_built_weight():
    seen = {"infinite pair": 0, "X-short": 0, "Y-short": 0, "none": 0}
    for BX, BY in _pipeline_pairs():
        match = barcodes.bottleneck(BX, BY)
        cost = fragmentation._pipeline_cost(*match)
        bound, D, tau, _ = fragmentation._pipeline(BX, BY)
        if D is None:
            assert cost == POS_INF and tau == POS_INF
            seen["none"] += 1
            continue
        assert cost == bound == D.total_weight(), (BX, BY)
        wit = match[1]
        seen["infinite pair"] += any(bx.hi == POS_INF for bx, _ in wit.matched)
        seen["X-short"] += bool(wit.short1)
        seen["Y-short"] += bool(wit.short2)
    assert all(seen.values()), seen


def _count_canonical_forms(monkeypatch):
    """The number of canonical forms computed of each complex, keyed by
    its id and counted from this call on."""
    counts = {}
    inner = barcodes.canonical_form

    def counted(Z):
        counts[id(Z)] = counts.get(id(Z), 0) + 1
        return inner(Z)

    # every module that holds canonical_form; tpc reads contractions
    # off the reduction itself and holds none
    for mod in (barcodes, fragmentation):
        monkeypatch.setattr(mod, "canonical_form", counted)
    return counts


def test_one_canonical_form_of_each_input_per_call(monkeypatch):
    """delta_upper names X and X' by their barcodes, computed once each,
    on equal, shifted and independent bars."""
    counts = _count_canonical_forms(monkeypatch)
    rng = random.Random(3141)
    pairs = []
    for n in range(1, 7):
        B = _bars(rng, _shapes(rng, n))
        pairs.append((_scrambled(rng, B), _scrambled(rng, B)))
        pairs.append((_scrambled(rng, B),
                      _scrambled(rng, B.shifted(rng.choice(LEVELS[1:])))))
    pairs += _pairs()
    for X, Xp in pairs:
        for a, b in ((X, Xp), (Xp, X)):
            counts.clear()
            delta_upper(a, b)
            assert counts[id(a)] == 1 and counts[id(b)] == 1


def test_one_canonical_form_of_each_object_per_call_via_mid(monkeypatch):
    """Each leg through a `via` object reuses the barcodes already
    held, so X, mid and X' are each put in canonical form once."""
    X, mid, Xp = _via_triple()
    counts = _count_canonical_forms(monkeypatch)
    delta_upper(X, Xp, via=(mid,))
    assert (counts[id(X)], counts[id(mid)], counts[id(Xp)]) == (1, 1, 1)


def test_one_canonical_form_of_each_input_per_oracle_call(monkeypatch):
    """delta_exact_small hands its barcodes of X and X' to the strategies
    it reconciles with, so it too computes each once."""
    counts = _count_canonical_forms(monkeypatch)
    rng = random.Random(1729)
    for n in (1, 1, 2, 2):
        B = _bars(rng, _shapes(rng, n))
        other = _bars(rng, _shapes(rng, n))
        for X, Xp in ((_scrambled(rng, B), _scrambled(rng, B)),
                      (_scrambled(rng, B), _scrambled(rng, other))):
            counts.clear()
            delta_exact_small(X, Xp, depth_budget=2)
            assert counts[id(X)] == 1 and counts[id(Xp)] == 1
