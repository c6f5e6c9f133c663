"""Every solve builds only the degree and level slice of Hom(X, Y) it
uses.  `spectral_invariant` and `representative_at_level` must return
what the whole-hom-complex solvers in `reference_fill` return, and no
solve may build a `HomComplex` or run a `MapSystem`."""

from fractions import Fraction

from fcplx import complexes, homsolve
from fcplx.complexes import (
    FilteredChainMap,
    is_nullhomotopic_within,
    nullhomotopy,
    shift_complex,
    shift_of_map,
    translate,
    translate_inverse,
)
from fcplx.homsolve import closed_map_basis
from fcplx.rationals import NEG_INF
from fcplx.tpc import representative_at_level, spectral_invariant
from fcplx.verify import GenConfig, gen_complex, random_closed_map

from conftest import serialize
from reference_fill import (
    reference_level_grid,
    reference_representative_at_level,
    reference_spectral_invariant,
)
from test_fill import (
    _boundary,
    _grid_complex,
    _outputs,
    _positive_homotopy,
)

CFG = GenConfig(seed=2718)
SHIFTS = (Fraction(0), Fraction(1, 2), Fraction(3, 2))


def _maps(n):
    """Seeded closed maps X -> Y on at most 8 generators each: a random
    closed map, the identity plus a closed map X -> X, or, between
    complexes with bars, a closed map plus the boundary of a homotopy
    of positive level (a shift above the class's invariant); of degree
    0, -1 or 1 (the target translated), shifted up by 0 to 3/2."""
    for off in range(n):
        rng = CFG.rng(off)
        if off % 3 == 2:
            X, Y = _grid_complex(rng, 4, 8), _grid_complex(rng, 4, 8)
            f = (random_closed_map(X, Y, rng)
                 + _boundary(_positive_homotopy(rng, X, Y)))
        else:
            X = gen_complex(CFG, rng)
            Y = X if off % 3 else gen_complex(CFG, rng)
            f = random_closed_map(X, Y, rng)
            if off % 3:
                f += FilteredChainMap.identity(X)
        degree, Y = rng.choice(
            ((0, Y), (-1, translate(Y)), (1, translate_inverse(Y))))
        yield f.viewed(X, shift_complex(Y, rng.choice(SHIFTS)), degree)


def _outcome(fn, *args):
    try:
        return serialize(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_spectral_invariants_match_the_whole_hom_complex_solve():
    maps = reps = corrected = 0
    for f in _maps(200):
        assert spectral_invariant(f) == reference_spectral_invariant(f)
        sh = shift_of_map(f)
        for k in [NEG_INF, *reference_level_grid(f)]:
            out = _outcome(representative_at_level, f, k)
            assert out == _outcome(reference_representative_at_level, f, k)
            reps += 1
            corrected += sh > k and not out.startswith("ValueError")
        maps += 1
    # the boundary correction itself runs, not only its early exits
    assert maps == 200 and reps > 1000 and corrected > 100


def _counted(monkeypatch):
    calls = {"HomComplex": 0, "MapSystem.solve": 0}
    init = complexes.HomComplex.__init__
    solve = homsolve.MapSystem.solve

    def counting_init(self, *args):
        calls["HomComplex"] += 1
        init(self, *args)

    def counting_solve(self):
        calls["MapSystem.solve"] += 1
        return solve(self)

    monkeypatch.setattr(complexes.HomComplex, "__init__", counting_init)
    monkeypatch.setattr(homsolve.MapSystem, "solve", counting_solve)
    return calls


def test_no_solve_builds_a_whole_hom_complex(monkeypatch):
    calls = _counted(monkeypatch)
    for _ in _outputs(20):
        pass
    for f in _maps(40):
        spectral_invariant(f)
        for k in (NEG_INF, 0, Fraction(1, 2), 1, 2):
            try:
                representative_at_level(f, k)
            except ValueError:
                pass
        nullhomotopy(f, Fraction(1))
        is_nullhomotopic_within(f, 2)
        closed_map_basis(f.source, f.target)
    assert calls == {"HomComplex": 0, "MapSystem.solve": 0}
    # the counters count: the reference solvers build whole complexes
    reference_spectral_invariant(FilteredChainMap.identity(
        gen_complex(CFG, CFG.rng(0))))
    assert calls["HomComplex"] > 0
