"""The pipeline's pair blocks and the raised comparison's cylinder are
mapping cones, and their down maps are block projections off those
cones.  Side by side with the hand-written helpers and the down maps
found by canonical forms (`reference_pipeline`), both must give the
same weights and barcodes, step by step, and decompositions that
validate: on the seed-1 inputs of the benchmark's `pipeline` workload,
on the 32, 64 and 128-bar pairs of `test_sums`, and at every grid shift
of the `delta_upper` test inputs."""

import importlib.util
from pathlib import Path

from fcplx.barcodes import barcode, bottleneck
from fcplx.fragmentation import (
    EMPTY_FAMILY,
    _pipeline,
    _riso_strategy,
    validate_decomposition,
)

from reference_pipeline import reference_pipeline, reference_riso_strategy
from test_delta_upper import _both_ways, _grid
from test_sums import LARGE_BARS, _large_pair

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def _pipeline_inputs():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    make, _, _, n = wl.WORKLOADS["pipeline"]
    return [make(1, i, 0) for i in range(n)]


def _profile(D):
    """Each step's weight and the barcodes of its A, B and C."""
    return [(tri.weight, barcode(tri.A), barcode(tri.B), barcode(tri.C))
            for tri, _ in D.steps]


def _agree(D, R, X, Xp):
    """D and R step alike and both validate, building X through X'."""
    assert _profile(D) == _profile(R)
    for E in (D, R):
        ok, weight, problems = validate_decomposition(E, X, EMPTY_FAMILY, Xp)
        assert ok, problems
        assert weight == E.total_weight()


def test_pipeline_matches_the_hand_written_blocks():
    inputs = _pipeline_inputs()
    assert len(inputs) == 156
    seen = {"finite": 0, "infinite": 0}
    for inp in inputs:
        X, Y = inp["X"], inp["Y"]
        BX, BY = barcode(X), barcode(Y)
        bound, D, tau, cap = _pipeline(BX, BY)
        rbound, R, rtau, rcap = reference_pipeline(BX, BY)
        assert (bound, tau, cap) == (rbound, rtau, rcap)
        _agree(D, R, X, Y)
        for bx, _ in bottleneck(BX, BY)[1].matched:
            seen["finite" if bx.is_finite() else "infinite"] += 1
    # matched pairs of both kinds, one pair block each
    assert min(seen.values()) >= 100, seen


def test_large_pipelines_match_the_hand_written_blocks():
    for n in LARGE_BARS:
        X, Y = _large_pair(n)
        BX, BY = barcode(X), barcode(Y)
        bound, D, tau, cap = _pipeline(BX, BY)
        rbound, R, rtau, rcap = reference_pipeline(BX, BY)
        assert (bound, tau, cap) == (rbound, rtau, rcap)
        assert len(bottleneck(BX, BY)[1].matched) >= n // 2
        _agree(D, R, X, Y)


def test_raised_comparison_matches_the_hand_written_cylinder():
    built = {"k = 0": 0, "k > 0": 0, "none": 0}
    for X, Xp in _both_ways():
        BX, BXp = barcode(X), barcode(Xp)
        for k in _grid(X, Xp):
            D = _riso_strategy(BX, BXp, k)
            R = reference_riso_strategy(BX, BXp, k)
            if D is None or R is None:
                assert D is None and R is None, (BX, BXp, k)
                built["none"] += 1
                continue
            _agree(D, R, X, Xp)
            built["k = 0" if k == 0 else "k > 0"] += 1
    assert all(built.values()), built
