"""`canonical_form` checks its input in the walk that maps each column to
sorted positions, and checks d o d = 0 after the reduction, instead of
calling `FilteredComplex.validate` first.  On an invalid complex it
must raise the ValueError the validate-first reduction in
`reference_canonical` raises, message and all; on a valid one it must
not call `validate`."""

import random

import pytest

from fcplx.barcodes import canonical_form
from fcplx.complexes import FilteredComplex, make_complex
from fcplx.verify import GenConfig, gen_complex
from reference_canonical import reference_canonical_form


def _message(fn, X):
    with pytest.raises(ValueError) as err:
        fn(X)
    return str(err.value)


def test_a_chain_of_two_nonzero_differentials_is_rejected():
    # degrees and levels are legal, but d(d(a)) = c
    X = make_complex([("a", 0, 0), ("b", 1, 0), ("c", 2, 0)],
                     {"a": ["b"], "b": ["c"]})
    want = "invalid complex: d(d(a)) != 0"
    assert _message(reference_canonical_form, X) == want
    assert _message(canonical_form, X) == want


def _with_diff(X, diff):
    return FilteredComplex._from_parts(X._ids, X._deg, X._den, X._lev,
                                       diff, X._index)


def _mutated(X, rng, kind):
    """X with one column broken the way `kind` names, or None when X
    has no column that can be broken that way."""
    n, deg, lev, diff = X.n, X._deg, X._lev, list(X.diff)
    g = rng.randrange(n)
    if kind == "range":
        diff[g] |= 1 << n + rng.randrange(3)
    elif kind == "negative":
        diff[g] = -1 - diff[g]
    elif kind == "degree":
        j = rng.choice([j for j in range(n) if deg[j] != deg[g] + 1])
        diff[g] |= 1 << j
    else:
        # a legal entry: one degree up, at a level no higher; "level"
        # wants one level higher instead
        higher = kind == "level"
        js = [(h, j) for h in range(n) for j in range(n)
              if deg[j] == deg[h] + 1 and (lev[j] > lev[h]) == higher
              and not diff[h] >> j & 1]
        if not js:
            return None
        g, j = rng.choice(js)
        diff[g] |= 1 << j
    return _with_diff(X, diff)


RECORD = {"range": "out of range", "negative": "negative column",
          "degree": "degree violation", "level": "filtration violation",
          "dd": "d(d("}


def test_seeded_mutations_raise_the_validate_first_message():
    cfg = GenConfig(seed=3301, max_generators=10)
    seen = dict.fromkeys(RECORD, 0)
    for off in range(400):
        rng = cfg.rng(off)
        X = gen_complex(cfg, rng)
        for kind in RECORD:
            Y = _mutated(X, rng, kind)
            if Y is None or not Y.validate():
                continue
            seen[kind] += RECORD[kind] in "; ".join(Y.validate())
            assert (_message(canonical_form, Y)
                    == _message(reference_canonical_form, Y)), (kind, Y.diff)
    # every kind of record is reached often
    assert min(seen.values()) >= 50, seen


def test_a_valid_complex_never_calls_validate(monkeypatch):
    cfg = GenConfig(seed=3307, max_generators=14)
    inputs = [gen_complex(cfg, cfg.rng(off)) for off in range(60)]
    want = [reference_canonical_form(X) for X in inputs]

    def refuse(self):
        raise AssertionError("validate called on a valid complex")

    monkeypatch.setattr(FilteredComplex, "validate", refuse)
    for X, (B0, W0) in zip(inputs, want):
        B, W = canonical_form(X)
        assert B.bars == B0.bars
        assert W.matrix == W0.matrix
        assert (W.pairs, W.unpaired) == (W0.pairs, W0.unpaired)


def test_the_walk_rejects_what_validate_rejects_on_random_columns():
    """Columns drawn at random, most of them invalid in some way."""
    rng = random.Random(3313)
    bad = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        X = make_complex([(f"g{i}", rng.randrange(3), rng.randrange(3))
                          for i in range(n)])
        Y = _with_diff(X, [rng.randrange(1 << n + 1) for _ in range(n)])
        if Y.validate():
            bad += 1
            assert (_message(canonical_form, Y)
                    == _message(reference_canonical_form, Y))
        else:
            assert canonical_form(Y)[0] == reference_canonical_form(Y)[0]
    assert 200 < bad < 400
