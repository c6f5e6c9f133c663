"""With no family members, once the slot is used the depth-3 search only
attaches finite bars, and both ways to finish need the target's infinite
bars in every degree; `delta_exact_small` stops at once under a used
state whose infinite bars differ from the target's.  On 2-bar pairs
that end in "budget exceeded" it must still return what the unpruned
`Fraction` search of `reference_oracle` returns, with the same cone
attachments in order, while pricing fewer final iso moves."""

import random
from fractions import Fraction

from fcplx import fragmentation
from fcplx.fragmentation import delta_exact_small

import reference_oracle
from reference_oracle import reference_delta_exact_small
from test_oracle import _attachments, _bars, _scrambled

LEVELS = [Fraction(v) for v in range(4)]


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
        rng = random.Random(f"depth3/{seed}")
        BX, BY = _bars(rng, 2, LEVELS), _bars(rng, 2, LEVELS)
        X, Y = _scrambled(rng, BX), _scrambled(rng, BY)
        counts.clear()
        got = delta_exact_small(X, Y, depth_budget=3)
        ours = list(seen)
        seen.clear()
        want = reference_delta_exact_small(X, Y, depth_budget=3)
        assert got == want == (float("inf"), "budget exceeded")
        assert ours == seen and ours
        seen.clear()
        assert counts.get(fragmentation, 0) < counts[reference_oracle]
