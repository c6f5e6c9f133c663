"""Contractions read by back substitution off the one reduction, side by
side with the bodies they replace in `reference_canonical` (U h' times
`invert(U)` after a whole canonical form, and the `invert` read of
`iso_to_canonical`).  Columns and shifts must be byte-identical, and
the None verdicts equal, on:
- every `tpc._contraction` call of a seed-1 pass of the benchmark's
  pipeline, frag and check workloads;
- complexes on the fine level grids 1/97 and 1/10007;
- one-bit `from_barcode` objects;
- scrambled ladder inputs (`tools/pipeline_ladder.py`) at 256 and 1024
  bars;
- the None cases: an infinite bar, or a bar longer than r;
- cones conjugated by `random_basis_change`, the rng path of
  `contraction_inverse`.
A witness matrix that is not unitriangular in (level, index) order
makes `contraction()` raise ValueError, where `invert` read it."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fcplx import tpc
from fcplx.barcodes import (
    Bar,
    Barcode,
    CanonicalFormWitness,
    barcode,
    canonical_form,
    from_barcode,
)
from fcplx.f2linalg import F2SparseMatrix, _back_substitute, invert
from fcplx.fragmentation import iso_to_canonical
from fcplx.rationals import POS_INF
from fcplx.tpc import contraction_inverse
from fcplx.verify import GenConfig, gen_r_iso, random_basis_change

from reference_canonical import (
    invert_iso_to_canonical,
    reference_contraction,
    reference_tpc_contraction,
)

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _maps(pair):
    return [(m.source, m.target, m.degree, m.cols) for m in pair]


def _same_witness_reads(K):
    """K's witness contraction and its iso to the canonical object equal
    the `invert` reads."""
    _, cf = canonical_form(K)
    assert cf.contraction() == reference_contraction(cf)
    assert _maps(iso_to_canonical(K)) == _maps(invert_iso_to_canonical(K))


@pytest.fixture
def compared(monkeypatch):
    """From here on every `tpc._contraction` call is checked against the
    reference, and so are K's witness reads; the list gets one entry per
    call, True when it found no contraction."""
    calls = []
    inner = tpc._contraction

    def checked(K, r=None):
        got = inner(K, r)
        assert got == reference_tpc_contraction(K, r)
        _same_witness_reads(K)
        calls.append(got is None)
        return got

    monkeypatch.setattr(tpc, "_contraction", checked)
    return calls


@pytest.mark.parametrize("workload, calls",
                         [("pipeline", 367), ("frag", 446), ("check", 518)])
def test_every_contraction_of_a_seed1_workload_pass(compared, workload,
                                                     calls):
    wl = _load("bench_workloads", ROOT / "perfbench" / "workloads.py")
    make, op, _, n = wl.WORKLOADS[workload]
    for i in range(n):
        op(make(1, i, 0))
    assert len(compared) == calls


def _bars(rng, den, nbars, n_inf=0):
    """nbars bars on the grid 1/den of [0, 4), lengths up to 3, the
    first n_inf infinite, degrees 0 to 2."""
    out = []
    for k in range(nbars):
        lo = Fraction(rng.randrange(4 * den), den)
        hi = (POS_INF if k < n_inf
              else lo + Fraction(rng.randrange(3 * den + 1), den))
        out.append(Bar(rng.randrange(3), lo, hi))
    return out


def _scrambled(rng, bars):
    return random_basis_change(from_barcode(Barcode(bars)), rng)[0]


@pytest.mark.parametrize("den", [97, 10007])
def test_fine_level_grids_and_one_bit_objects(compared, den):
    """Acyclic complexes at, just above and just below their depth, and
    complexes with an infinite bar; scrambled and one-bit."""
    rng = random.Random(f"contraction-grid/{den}")
    for _ in range(15):
        bars = _bars(rng, den, rng.randint(1, 30))
        depth = max(b.length() for b in bars)
        for K in (_scrambled(rng, bars), from_barcode(Barcode(bars))):
            for r in (None, depth, depth + Fraction(1, den)):
                assert tpc._contraction(K, r) is not None
            if depth:
                assert tpc._contraction(K, depth - Fraction(1, den)) is None
        with_inf = _bars(rng, den, rng.randint(1, 30), n_inf=1)
        for K in (_scrambled(rng, with_inf), from_barcode(Barcode(with_inf))):
            assert tpc._contraction(K) is None
    assert compared.count(True) >= 30 and compared.count(False) >= 90


@pytest.mark.parametrize("n", [256, 1024])
def test_scrambled_ladder_inputs(compared, n):
    """The ladder's pair (with infinite bars) and its X's finite bars
    alone, each in a random basis."""
    ladder = _load("pipeline_ladder", ROOT / "tools" / "pipeline_ladder.py")
    X, Y = ladder.pair(n)
    A = _scrambled(random.Random(f"contraction-ladder/{n}"),
                   barcode(X).finite())
    for K in (X, Y, A):
        tpc._contraction(K)
    assert compared == [True, True, False]


def test_conjugated_cones_of_contraction_inverse(compared):
    """With an rng, `contraction_inverse` reads the contraction of
    cone(f, 0) conjugated by a random basis change."""
    cfg = GenConfig(seed=3107)
    for off in range(30):
        rng = cfg.rng(off)
        r = Fraction(rng.randint(0, 8), 4)
        f, _, _ = gen_r_iso(cfg, r, rng)
        assert contraction_inverse(f, r, rng) is not None
    assert compared == [False] * 30


def test_back_substitution_is_the_seed_times_the_inverse():
    """S U^-1 for U unitriangular in a random order, against `invert`."""
    rng = random.Random(3109)
    for n in range(1, 14):
        for _ in range(20):
            order = rng.sample(range(n), n)
            cols = [0] * n
            for p, j in enumerate(order):
                cols[j] = 1 << j
                for i in order[:p]:
                    if rng.random() < 0.4:
                        cols[j] |= 1 << i
            seed = [rng.getrandbits(n + 3) for _ in range(n)]
            want = F2SparseMatrix(seed, n + 3).matmul(
                invert(F2SparseMatrix(cols, n)))
            assert tuple(_back_substitute(seed, cols, order)) == want.columns


def test_a_matrix_not_unitriangular_in_level_order_raises():
    """Adding a later column of U into an earlier one keeps U invertible
    (`invert` reads the product) but puts a bit above the earlier
    column's own: `contraction()` raises ValueError.  A singular U
    raises in both; a U with more columns than generators raises in the
    back substitution."""
    rng = random.Random(3119)
    bent = 0
    while bent < 40:
        bars = _bars(rng, 4, rng.randint(1, 6), n_inf=rng.randint(0, 1))
        K = _scrambled(rng, bars)
        if K.n < 2:
            continue
        _, cf = canonical_form(K)
        lev = K._lev
        order = sorted(range(K.n), key=lev.__getitem__)
        p, q = sorted(rng.sample(range(K.n), 2))
        i, j = order[p], order[q]
        for cols, err in (([*cf.matrix.columns], None),
                          ([*cf.matrix.columns], "singular")):
            cols[i] = cols[i] ^ cols[j] if err is None else cols[j]
            wit = CanonicalFormWitness(K, F2SparseMatrix(cols, K.n),
                                       cf.pairs, cf.unpaired)
            with pytest.raises(ValueError, match="not unitriangular"):
                wit.contraction()
            if err is None:
                reference_contraction(wit)
            else:
                with pytest.raises(ValueError, match=err):
                    reference_contraction(wit)
        bent += 1
    # a matrix with more columns than K has generators
    wider = F2SparseMatrix([*cf.matrix.columns, 1 << K.n], K.n + 1)
    with pytest.raises(ValueError, match="not n x n"):
        CanonicalFormWitness(K, wider, cf.pairs, cf.unpaired).contraction()
