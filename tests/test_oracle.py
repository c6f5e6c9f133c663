"""`delta_exact_small` searches the instance scaled to integer levels.
Scaling by a positive constant keeps the order of levels, so the search
must attach the same apexes in the same order and return the same
(value, note) as the `Fraction` search kept in `reference_oracle`: on
the benchmark's seed-1 oracle inputs, on levels over the denominators
3, 7 and 97 and below zero, on families with members, and under weight
and depth budgets."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from fcplx import fragmentation
from fcplx.barcodes import Bar, Barcode, from_barcode
from fcplx.complexes import zero_complex
from fcplx.fragmentation import FamilySpec, delta_exact_small
from fcplx.rationals import POS_INF
from fcplx.verify import random_basis_change

import reference_oracle
from reference_oracle import reference_delta_exact_small

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bars(rng, n, levels):
    """n bars in degrees 0, 1, 0, ..., each infinite with chance 1/3,
    with every endpoint in `levels`."""
    bars = []
    for k in range(n):
        if rng.random() < 1 / 3:
            bars.append(Bar(k % 2, rng.choice(levels), POS_INF))
        else:
            bars.append(Bar(k % 2, *sorted(rng.sample(levels, 2))))
    return Barcode(bars)


def _scrambled(rng, B):
    return random_basis_change(from_barcode(B), rng)[0]


def _instances(rng, count, grid, sizes=(1, 2)):
    """Seeded (X, X') pairs with their bars on three levels of `grid`:
    the search grows fast with the number of distinct levels."""
    for _ in range(count):
        levels = rng.sample(grid, 3)
        yield tuple(_scrambled(rng, _bars(rng, rng.choice(sizes), levels))
                    for _ in range(2))


def _attachments(monkeypatch):
    """(apex size, current size) of every cone attachment either search
    tries, in order; sizes do not change under scaling."""
    seen = []

    def recording(real):
        def enumerate_closed_maps(apex, cur, cap):
            seen.append((apex.n, cur.n))
            return real(apex, cur, cap=cap)
        return enumerate_closed_maps

    for mod in (fragmentation, reference_oracle):
        monkeypatch.setattr(mod, "enumerate_closed_maps",
                            recording(mod.enumerate_closed_maps))
    return seen


def _same(seen, X, Y, **kw):
    seen.clear()
    got = delta_exact_small(X, Y, **kw)
    ours = list(seen)
    seen.clear()
    want = reference_delta_exact_small(X, Y, **kw)
    assert got == want, (got, want)
    assert ours == seen
    return got


def test_the_benchmark_oracle_inputs_match_the_fraction_search(monkeypatch):
    seen = _attachments(monkeypatch)
    wl = _workloads()
    make, _, _, n = wl.WORKLOADS["frag"]
    notes = set()
    for i in range(n):
        inp = make(1, i, 0)
        if inp["oracle"]:
            notes.add(_same(seen, inp["X"], inp["Y"],
                            depth_budget=wl.ORACLE_DEPTH)[1])
    assert notes == {"search", "strategy"}


def test_fine_and_negative_levels_match_the_fraction_search(monkeypatch):
    seen = _attachments(monkeypatch)
    rng = random.Random(9973)
    for den in (3, 7, 97):
        grid = [Fraction(v, den) for v in range(-2 * den, 2 * den)]
        for X, Y in _instances(rng, 4, grid):
            _same(seen, X, Y, depth_budget=2)
    # two denominators in one instance
    X = _scrambled(rng, Barcode([Bar(0, Fraction(-1, 3), Fraction(2, 7))]))
    Y = _scrambled(rng, Barcode([Bar(0, Fraction(-2, 7), POS_INF)]))
    _same(seen, X, Y, depth_budget=2)


def test_families_match_the_fraction_search(monkeypatch):
    seen = _attachments(monkeypatch)
    rng = random.Random(1597)
    grid = [Fraction(v, 2) for v in range(-2, 5)]
    for X, Y in _instances(rng, 4, grid):
        M = _scrambled(rng, _bars(rng, 1, rng.sample(grid, 2)))
        for fam in (FamilySpec((M,)), FamilySpec((M,), closed_shift=True),
                    FamilySpec((M,), with_zero=False),
                    FamilySpec((M, zero_complex()), with_zero=False)):
            _same(seen, X, Y, family=fam, depth_budget=2)


def _over_budget():
    """Only the search reaches X from this slot, at weight 2: the
    strategies have no bound, so a smaller budget leaves none."""
    X = from_barcode(Barcode([Bar(0, Fraction(1), Fraction(3)),
                              Bar(0, Fraction(1), POS_INF)]))
    member = from_barcode(Barcode([Bar(1, Fraction(0), POS_INF)]))
    return X, zero_complex(), FamilySpec((member,), closed_shift=True)


def test_weight_budgets_match_the_fraction_search(monkeypatch):
    seen = _attachments(monkeypatch)
    X, Y, fam = _over_budget()
    assert _same(seen, X, Y, family=fam, depth_budget=2) == (2, "search")
    assert _same(seen, X, Y, family=fam, depth_budget=2,
                 weight_budget=Fraction(3, 2)) == (POS_INF,
                                                    "budget exceeded")
    rng = random.Random(4181)
    grid = [Fraction(v, 3) for v in range(-3, 7)]
    for X, Y in _instances(rng, 6, grid):
        _same(seen, X, Y, depth_budget=2, weight_budget=Fraction(7, 3))


def test_an_infinite_budget_puts_no_cap_on_the_search():
    X, Y, fam = _over_budget()
    assert delta_exact_small(X, Y, fam, depth_budget=2,
                             weight_budget=POS_INF) == (2, "search")
    rng = random.Random(6765)
    for X, Y in _instances(rng, 4, [Fraction(v, 4) for v in range(9)]):
        assert (delta_exact_small(X, Y, depth_budget=2,
                                  weight_budget=POS_INF)
                == reference_delta_exact_small(X, Y, depth_budget=2,
                                               weight_budget=10**6))


def test_depth_three_on_integer_levels_matches_the_fraction_search(
        monkeypatch):
    """2-bar pairs on the levels {0, 1, 2, 3}, as `frag --exact` runs
    them at its default depth; these seeds keep each search under a
    second, and give all three notes."""
    seen = _attachments(monkeypatch)
    levels = [Fraction(v) for v in range(4)]
    notes = set()
    for seed in (2, 8, 22, 28, 37, 39):
        rng = random.Random(f"depth3/{seed}")
        BX, BY = _bars(rng, 2, levels), _bars(rng, 2, levels)
        notes.add(_same(seen, _scrambled(rng, BX), _scrambled(rng, BY),
                        depth_budget=3)[1])
    assert notes == {"search", "strategy", "budget exceeded"}
