import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fcplx
from fcplx.barcodes import barcode, boundary_depth, is_r_acyclic
from fcplx.complexes import (
    FilteredChainMap,
    FilteredComplex,
    Generator,
    HomComplex,
    _inclusion,
    _projection,
    compose,
    cone,
    complex_to_text,
    eta,
    is_nullhomotopic_within,
    make_complex,
    nullhomotopy,
    parse_complex,
    parse_map,
    map_to_text,
    shift_complex,
    shift_of_map,
    sum_complexes,
    translate,
    translate_inverse,
    zero_complex,
)
from fcplx.f2linalg import _bits, _mask_from_indices
from fcplx.rationals import NEG_INF
from fcplx.verify import GenConfig, gen_complex, random_closed_map

from conftest import interval_free, interval_pair


def test_validate_accepts_finite_pair(e2_31):
    assert e2_31.validate() == []


def test_validate_catches_level_violation():
    bad = make_complex([("y", 0, 3), ("x", 1, 5)], {"y": ["x"]})
    assert any("filtration violation" in p for p in bad.validate())


def test_validate_catches_square_nonzero():
    bad = make_complex(
        [("y", 0, 3), ("x", 1, 1), ("z", 2, 0)],
        {"y": ["x"], "x": ["z"]},
    )
    assert any("d(d(" in p for p in bad.validate())


def test_validate_reports_an_index_out_of_range():
    """An out-of-range differential entry is a record, not a raise, and
    d(d(g)) is tested only where d(g) stays in range."""
    bad = FilteredComplex([Generator("a", 0, Fraction(0))], [1 << 3])
    assert bad.validate() == ["d(a) hits index 3 out of range"]
    two = FilteredComplex(
        [Generator("a", 0, Fraction(0)), Generator("b", 1, Fraction(0))],
        [1 << 1, 1 << 5],
    )
    assert two.validate() == ["d(b) hits index 5 out of range",
                              "d(d(a)) != 0"]


NEGATIVE_COLUMNS = """
from fractions import Fraction
from fcplx.barcodes import canonical_form
from fcplx.complexes import FilteredChainMap, FilteredComplex, Generator
from fcplx.f2linalg import F2SparseMatrix

gens = [Generator("a", 0, Fraction(0)), Generator("b", -1, Fraction(0))]
X = FilteredComplex(gens, [-2, 1])
print(X.validate())
for build in (lambda: canonical_form(X),
              lambda: F2SparseMatrix([0, -2], 4),
              lambda: FilteredChainMap(X, X, [0, -1])):
    try:
        build()
    except ValueError as exc:
        print(exc)
"""


def test_a_negative_column_is_reported_not_walked():
    """The bits of a negative int never end, so a negative column is a
    validate record and a ValueError naming it negative, never a walk
    over its support.  Run apart under a timeout, so that a walk fails
    the test instead of hanging the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(fcplx.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", NEGATIVE_COLUMNS], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "['d(a) is a negative column', 'd(d(b)) != 0']",
        "invalid complex: d(a) is a negative column; d(d(b)) != 0",
        "column 1 is negative",
        "column 1 is negative",
    ]


def test_shift_of_identity_is_zero(e2_31):
    assert shift_of_map(FilteredChainMap.identity(e2_31)) == 0


def test_shift_of_eta_comparison_is_minus_r(e2_31):
    assert shift_of_map(eta(e2_31, Fraction(3, 2))) == Fraction(-3, 2)


def test_shift_reads_level_difference():
    X = make_complex([("x", 0, 1)])
    Y = make_complex([("y", 0, 4)])
    f = FilteredChainMap.from_pairs(X, Y, {"x": ["y"]})
    assert shift_of_map(f) == 3
    assert shift_of_map(FilteredChainMap.zero(X, Y)) == NEG_INF


def test_shift_functor_composition_is_addition(e2_31):
    assert shift_complex(e2_31, 0) == e2_31
    a = shift_complex(shift_complex(e2_31, Fraction(1, 2)), Fraction(1, 3))
    assert a == shift_complex(e2_31, Fraction(5, 6))


def test_shift_matches_free_interval_normalization():
    a, c = Fraction(4), Fraction(1)
    assert shift_complex(interval_free(a), -(a - c)) == interval_free(c)


def test_shift_equivariance_of_barcode(rng):
    cfg = GenConfig(seed=5, max_generators=8)
    for off in range(20):
        X = gen_complex(cfg, cfg.rng(off))
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert barcode(shift_complex(X, r)) == barcode(X).shifted(r)


def test_translation_inverts_and_commutes_with_shift(e2_31):
    assert translate_inverse(translate(e2_31)) == e2_31
    assert translate(shift_complex(e2_31, 2)) == shift_complex(
        translate(e2_31), 2
    )


def test_translation_moves_degrees_down_one():
    X = interval_free(Fraction(1, 2), degree=0)
    T = translate(X)
    assert [g.degree for g in T.gens] == [-1]
    assert barcode(T).bars[0].lo == Fraction(1, 2)


def test_direct_sum_with_zero_is_identity(e2_31):
    assert sum_complexes([e2_31, zero_complex()]) == (e2_31, [0, e2_31.n])
    assert sum_complexes([zero_complex(), e2_31]) == (e2_31, [0, 0])


def test_direct_sum_barcode_union():
    X = interval_free(2)
    Y = interval_pair(3, 1)
    S = sum_complexes([X, Y])[0]
    assert barcode(S) == barcode(X).union(barcode(Y))
    assert boundary_depth(S) == max(boundary_depth(X), boundary_depth(Y))


def test_direct_sum_inclusions_project_back(e2_31):
    Y = interval_free(0)
    S, (_, off) = sum_complexes([e2_31, Y])
    assert compose(_projection(S, e2_31, 0), _inclusion(e2_31, S, 0)) == \
        FilteredChainMap.identity(e2_31)
    assert compose(_projection(S, Y, off), _inclusion(Y, S, off)) == \
        FilteredChainMap.identity(Y)
    assert compose(_projection(S, e2_31, 0), _inclusion(Y, S, off)).is_zero()
    # the two block idempotents add up to the identity of the sum
    assert compose(_inclusion(e2_31, S, 0), _projection(S, e2_31, 0)) + \
        compose(_inclusion(Y, S, off), _projection(S, Y, off)) == \
        FilteredChainMap.identity(S)


def test_cone_returns_its_complex_and_builds_no_map(monkeypatch):
    """cone(f, lam) is Y (+) Sigma^lam T X with the X-part differential
    f(x) + d(x), as a plain complex: a zero source gives Y itself, a
    source id that collides is primed, and no map is made."""
    X = make_complex([("a", 0, 0), ("y", 1, 0)], {"a": ["y"]})
    Y = make_complex([("t.a", 0, 1), ("y", 1, 1)], {"t.a": ["y"]})
    f = FilteredChainMap.from_pairs(X, Y, {"a": ["t.a"], "y": ["y"]})
    z = FilteredChainMap.zero(zero_complex(), Y)
    built = []
    init = FilteredChainMap.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FilteredChainMap, "__init__", counting)
    for lam in (1, Fraction(5, 2)):
        got = cone(f, lam)
        assert type(got) is FilteredComplex
        assert got == make_complex(
            [("t.a", 0, 1), ("y", 1, 1), ("t.a'", -1, lam), ("t.y", 0, lam)],
            {"t.a": ["y"], "t.a'": ["t.a", "t.y"], "t.y": ["y"]})
    for lam in (0, 3):
        assert cone(z, lam) is Y
    assert built == []


def test_cone_of_zero_map_is_sum_with_translate():
    X, Y = interval_free(1), interval_pair(3, 1)
    C = cone(FilteredChainMap.zero(X, Y), 0)
    want = barcode(Y).union(barcode(translate(X)))
    assert barcode(C) == want


def test_cone_of_identity_collapses(e2_31):
    C = cone(FilteredChainMap.identity(e2_31), 0)
    assert C.validate() == []
    assert is_r_acyclic(C, 0)


def test_cone_of_comparison_map_has_depth_r():
    X = sum_complexes([interval_free(0), interval_pair(2, 1)])[0]
    r = Fraction(5, 4)
    C = cone(eta(X, r), 0)
    assert is_r_acyclic(C, r)
    assert not is_r_acyclic(C, r - Fraction(1, 8))


def test_cone_level_precondition_names_deficit():
    X = make_complex([("x", 0, 0)])
    Y = make_complex([("y", 0, 2)])
    f = FilteredChainMap.from_pairs(X, Y, {"x": ["y"]})
    with pytest.raises(ValueError, match="deficit 1"):
        cone(f, 1)
    assert cone(f, 2).validate() == []


def test_cone_triangle_maps_are_closed_and_composable(e2_31):
    f = FilteredChainMap.identity(e2_31)
    C = cone(f, 0)
    include = _inclusion(e2_31, C, 0)
    project = _projection(C, translate(e2_31), e2_31.n)
    assert include.is_closed() and project.is_closed()
    assert compose(project, include).is_zero()
    h = is_nullhomotopic_within(compose(include, f), 0)
    assert h is not None
    # the standard homotopy: include the source into the translated part
    assert h.degree == -1


def test_hom_complex_of_free_intervals():
    H = HomComplex(interval_free(0), interval_free(0))
    assert H.complex.n == 1
    g = H.complex.gens[0]
    assert g.degree == 0 and g.ell == 0 and not H.complex.diff[0]

    H2 = HomComplex(interval_free(1), interval_free(Fraction(5, 2)))
    assert H2.complex.gens[0].ell == Fraction(3, 2)


def test_hom_differential_matches_bracket(rng):
    cfg = GenConfig(seed=9, max_generators=5)
    for off in range(15):
        X = gen_complex(cfg, cfg.rng(off))
        Y = gen_complex(cfg, cfg.rng(off + 100))
        H = HomComplex(X, Y)
        cols = []
        for j in range(X.n):
            cols.append([i for i in range(Y.n) if rng.random() < 0.4
                         and Y.gens[i].degree == X.gens[j].degree])
        f = FilteredChainMap(X, Y, [_mask_from_indices(c) for c in cols], 0)
        lhs = H.complex.diff_matrix().apply(H.encode(f))
        DY, DX = Y.diff_matrix(), X.diff_matrix()
        bracket = FilteredChainMap(
            X, Y, DY.matmul(f.matrix()).columns, 1
        ) + FilteredChainMap(X, Y, f.matrix().matmul(DX).columns, 1)
        assert lhs == H.encode(bracket)
        assert H.decode(H.encode(f), 0) == f


def test_nullhomotopy_threshold_on_finite_pair():
    X = interval_pair(3, 1)
    idm = FilteredChainMap.identity(X)
    assert is_nullhomotopic_within(idm, 2) is not None
    assert is_nullhomotopic_within(idm, Fraction(15, 8)) is None
    h = is_nullhomotopic_within(FilteredChainMap.zero(X, X), 0)
    assert h is not None and h.is_zero()


def test_free_interval_identity_never_nullhomotopic():
    X = interval_free(0)
    idm = FilteredChainMap.identity(X)
    for s in (0, 1, 10):
        assert is_nullhomotopic_within(idm, s) is None


def test_nullhomotopy_output_satisfies_its_equation(rng):
    cfg = GenConfig(seed=21, max_generators=5)
    for off in range(15):
        X = gen_complex(cfg, cfg.rng(off))
        Y = gen_complex(cfg, cfg.rng(off + 50))
        g = random_closed_map(X, Y, rng)
        h = nullhomotopy(g, 10)
        if h is None:
            continue
        DY, DX = Y.diff_matrix(), X.diff_matrix()
        recon = DY.matmul(h.matrix()) .columns
        recon2 = h.matrix().matmul(DX).columns
        total = [a ^ b for a, b in zip(recon, recon2)]
        assert total == list(g.cols)


def test_eta_endpoints_and_errors():
    X = interval_free(1)
    assert eta(X, 0) == FilteredChainMap.identity(X)
    e = eta(X, Fraction(3, 2))
    assert e.source == shift_complex(X, Fraction(3, 2))
    assert shift_of_map(e) == Fraction(-3, 2)
    with pytest.raises(ValueError):
        eta(X, -1)


def test_compose_rules(e2_31):
    f = FilteredChainMap.identity(e2_31)
    assert compose(f, f) == f
    r, s = Fraction(1), Fraction(2)
    e1 = eta(e2_31, r)
    e2 = eta(shift_complex(e2_31, r), s)
    assert compose(e1, e2).cols == eta(e2_31, r + s).cols
    with pytest.raises(ValueError):
        compose(e1, FilteredChainMap.identity(interval_free(0)))


def test_compose_shift_subadditive(rng):
    cfg = GenConfig(seed=33, max_generators=4)
    for off in range(20):
        X = gen_complex(cfg, cfg.rng(off))
        Y = gen_complex(cfg, cfg.rng(off + 10))
        Z = gen_complex(cfg, cfg.rng(off + 20))
        f = random_closed_map(X, Y, rng)
        g = random_closed_map(Y, Z, rng)
        gf = compose(g, f)
        sf, sg, sgf = shift_of_map(f), shift_of_map(g), shift_of_map(gf)
        if sgf != NEG_INF:
            assert sgf <= sf + sg


def test_complex_text_roundtrip(e2_31):
    text = complex_to_text(e2_31)
    assert parse_complex(text) == e2_31
    assert "gen y 0 3" in text


def test_complex_text_rejects_unknown_directive():
    with pytest.raises(ValueError, match="unknown directive"):
        parse_complex("spam a b c")


def test_map_text_roundtrip(e2_31):
    f = FilteredChainMap.identity(e2_31)
    text = map_to_text(f, "self", "self")
    g = parse_map(text, lambda name: e2_31)
    assert g == f


def test_encode_filtration_equals_map_shift(rng):
    cfg = GenConfig(seed=44, max_generators=4)
    for off in range(10):
        X = gen_complex(cfg, cfg.rng(off))
        Y = gen_complex(cfg, cfg.rng(off + 30))
        f = random_closed_map(X, Y, rng)
        if f.is_zero():
            continue
        H = HomComplex(X, Y)
        assert H.complex.level_of(H.encode(f)) == shift_of_map(f)


def test_hom_degree_zero_cycles_are_chain_maps(rng):
    cfg = GenConfig(seed=46, max_generators=3)
    X = gen_complex(cfg, cfg.rng(0))
    Y = gen_complex(cfg, cfg.rng(5))
    H = HomComplex(X, Y)
    D = H.complex.diff_matrix()
    for flatset in range(min(1 << H.complex.n, 256)):
        vec = _mask_from_indices(
            i for i in range(H.complex.n) if (flatset >> i) & 1
        )
        if any(H.complex.gens[i].degree != 0 for i in _bits(vec)):
            continue
        f = H.decode(vec, 0)
        assert (not D.apply(vec)) == f.is_closed()
