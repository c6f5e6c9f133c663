import json
from fractions import Fraction

import pytest

from fcplx.barcodes import barcode
from fcplx.complexes import complex_to_text, parse_complex
from fcplx.verify import (
    DEFAULT_GRID,
    SUITES,
    GenConfig,
    SuiteReport,
    gen_complex,
    gen_r_iso,
    replay_trial,
    run_suite,
)
from fcplx.tpc import is_r_isomorphism


def test_generator_stream_is_deterministic():
    cfg = GenConfig(seed=5)
    a = [gen_complex(cfg, cfg.rng(off)) for off in range(10)]
    b = [gen_complex(cfg, cfg.rng(off)) for off in range(10)]
    assert a == b
    other = GenConfig(seed=6)
    c = [gen_complex(other, other.rng(off)) for off in range(10)]
    assert a != c


def test_generated_complexes_validate():
    cfg = GenConfig(seed=15, max_generators=12)
    for off in range(1000):
        X = gen_complex(cfg, cfg.rng(off))
        assert X.validate() == []
        assert 1 <= X.n <= 12


def test_zero_density_means_zero_differential():
    cfg = GenConfig(seed=15, density=Fraction(0))
    for off in range(10):
        X = gen_complex(cfg, cfg.rng(off))
        assert all(not c for c in X.diff)


def test_gen_r_iso_is_certified():
    cfg = GenConfig(seed=25)
    for off in range(15):
        rng = cfg.rng(off)
        r = Fraction(rng.randint(0, 4), 2)
        f, A, B = gen_r_iso(cfg, r, rng)
        assert is_r_isomorphism(f, r)


def test_grid_filters_keep_grid_order_and_are_made_once():
    """The generators draw from `GenConfig._grid`, the filter they each
    wrote out before, made once per config; a grid given as a list, in
    any order and with negative values, filters the same."""
    grid = [Fraction(-1, 2), *reversed(DEFAULT_GRID)]
    for cfg in (GenConfig(seed=7), GenConfig(seed=7, filtration_grid=grid)):
        g = cfg.filtration_grid
        assert cfg._grid(1) == tuple(q for q in g if q <= 1)
        assert cfg._grid(2, 0, open_lo=True) == tuple(
            q for q in g if 0 < q <= 2)
        assert cfg._grid(Fraction(3, 2), 0) == tuple(
            q for q in g if 0 <= q <= Fraction(3, 2))
        assert cfg._grid(lo=0, open_lo=True) == tuple(q for q in g if q > 0)
        assert cfg._grid(1) is cfg._grid(1)
    for name in SUITES:
        assert run_suite(name, GenConfig(seed=7, filtration_grid=list(
            DEFAULT_GRID)), 1).ok


def test_unknown_suite_is_an_error():
    with pytest.raises(ValueError):
        run_suite("nope", GenConfig(), 1)


def test_all_suites_pass_briefly():
    cfg = GenConfig(seed=321)
    for name in SUITES:
        rep = run_suite(name, cfg, 4)
        assert rep.ok, rep.to_text()
        assert rep.trials == 4


def test_refinement_suite_at_one_hundred_trials():
    rep = run_suite("refinement", GenConfig(seed=7), 100)
    assert rep.ok, rep.to_text()


def test_replay_reproduces_a_trial():
    cfg = GenConfig(seed=99)
    for name in ("rotation", "prop51"):
        rep = run_suite(name, cfg, 3)
        for off in range(3):
            again = replay_trial(name, cfg, off)
            recorded = [(c, p) for o, c, p in rep.failures if o == off]
            assert [(c, p) for c, p in again] == recorded


def test_report_serialization_shapes():
    rep = SuiteReport("demo", 2)
    rep.failures.append((1, "some-claim", "gen a 0 0"))
    text = rep.to_text()
    assert "FAIL demo 1 some-claim" in text
    assert "  gen a 0 0" in text
    payload = rep.to_json()
    assert payload["suite"] == "demo"
    assert payload["failures"][0]["offset"] == 1
    json.dumps(payload)


def test_counterexample_payloads_embed_parseable_complexes():
    # payload text blocks round-trip through the complex format
    cfg = GenConfig(seed=1)
    X = gen_complex(cfg, cfg.rng(0))
    text = complex_to_text(X)
    assert parse_complex(text) == X
    assert barcode(parse_complex(text)) == barcode(X)
