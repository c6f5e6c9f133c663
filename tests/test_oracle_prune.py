"""With no family members, once the slot is used the depth-3 search only
attaches finite bars, and both ways to finish need the target's infinite
bars in every degree; `delta_exact_small` stops at once under a used
state whose infinite bars differ from the target's.  On 2-bar pairs
that end in "budget exceeded" it must still return what the unpruned
`Fraction` search of `reference_oracle` returns, with the same cone
attachments in order, while pricing fewer final iso moves.  Its states
are sorted tuples of int bars: a search builds no `Barcode` per node and
its costs stay ints."""

import importlib.util
import io
import random
from fractions import Fraction
from pathlib import Path

from fcplx import fragmentation
from fcplx.barcodes import Bar, Barcode
from fcplx.fragmentation import _iso_move_cost, delta_exact_small
from fcplx.rationals import POS_INF

import reference_oracle
from reference_oracle import reference_delta_exact_small
from test_oracle import _attachments, _bars, _scrambled

LEVELS = [Fraction(v) for v in range(4)]
TOOL = Path(__file__).resolve().parent.parent / "tools" / "oracle_depth.py"


def _pair(seed):
    rng = random.Random(f"depth3/{seed}")
    BX, BY = _bars(rng, 2, LEVELS), _bars(rng, 2, LEVELS)
    return _scrambled(rng, BX), _scrambled(rng, BY)


def _counting_iso_moves(monkeypatch):
    counts = {}
    for mod in (fragmentation, reference_oracle):
        def counted(BS, BT, _mod=mod, _real=mod._iso_move_cost):
            counts[_mod] = counts.get(_mod, 0) + 1
            return _real(BS, BT)
        monkeypatch.setattr(mod, "_iso_move_cost", counted)
    return counts


def test_budget_exceeded_pairs_match_the_unpruned_search(monkeypatch):
    seen = _attachments(monkeypatch)
    counts = _counting_iso_moves(monkeypatch)
    for seed in (13, 14, 22):
        X, Y = _pair(seed)
        counts.clear()
        got = delta_exact_small(X, Y, depth_budget=3)
        ours = list(seen)
        seen.clear()
        want = reference_delta_exact_small(X, Y, depth_budget=3)
        assert got == want == (float("inf"), "budget exceeded")
        assert ours == seen and ours
        seen.clear()
        assert counts.get(fragmentation, 0) < counts[reference_oracle]


def test_finished_searches_match_the_unpruned_search(monkeypatch):
    seen = _attachments(monkeypatch)
    for seed in (2, 4):
        X, Y = _pair(seed)
        got = delta_exact_small(X, Y, depth_budget=3)
        ours = list(seen)
        seen.clear()
        want = reference_delta_exact_small(X, Y, depth_budget=3)
        assert got == want == (2, "search")
        assert ours == seen and ours
        seen.clear()


def test_a_depth3_search_builds_no_barcode_per_node(monkeypatch):
    """On `depth3/1` the search visits about 316 000 nodes and tries
    3655 cone attachments; at most a handful of `Barcode`s are built
    around it."""
    inits = []
    real_init = Barcode.__init__

    def counted(self, bars=()):
        inits.append(1)
        real_init(self, bars)

    monkeypatch.setattr(Barcode, "__init__", counted)
    seen = _attachments(monkeypatch)
    X, Y = _pair(1)
    inits.clear()
    assert delta_exact_small(X, Y, depth_budget=3) == (POS_INF,
                                                       "budget exceeded")
    assert len(inits) <= 10
    assert len(seen) == 3655


def test_the_final_move_costs_ints_on_int_bars():
    rng = random.Random(4181)
    for _ in range(50):
        BS, BT = (_bars(rng, rng.randrange(4), range(-3, 4))
                  for _ in range(2))
        W = _iso_move_cost(BS, BT)
        assert W == POS_INF or type(W) is int, (BS, BT, W)
    same = Barcode([Bar(0, 1, 2), Bar(1, 0, POS_INF)])
    assert type(_iso_move_cost(same, same)) is int


def test_the_depth_tool_times_the_same_pairs():
    spec = importlib.util.spec_from_file_location("oracle_depth", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.pair(13) == _pair(13)
    out = io.StringIO()
    total = tool.run([15, 16], out)
    lines = out.getvalue().splitlines()
    assert [ln.split()[0] for ln in lines] == ["depth3/15:", "depth3/16:",
                                               "total:"]
    assert [ln.split()[3:] for ln in lines[:2]] == [["1", "search"]] * 2
    assert lines[2] == f"total: {total:.3f} s over 2 pairs"
