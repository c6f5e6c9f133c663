"""Seeded inputs and one-op functions for the four benchmark workloads.

Every input complex is made by `from_barcode` followed by
`verify.random_basis_change`, so elimination starts from a scrambled
basis, as it does for users' complexes.  Input `i` of a workload has
variants `v` = 0, 1, ...: its barcodes depend only on (workload, seed,
i), and each variant puts them in another random basis, drawn from
(workload, seed, i, v).  Every variant of an input therefore asks for
the same exact values at nearly the same cost, but no two variants are
equal objects, so a cache of results cannot hit when an input is timed
again.

Each workload gives:
  make(seed, i, v) -> variant v of input i, built only with fcplx's
                    public constructors;
  op(inp)        -> the timed call into fcplx, returning its raw outputs;
  check(inp, out)-> (ok, digest line): exact invariants checked outside
                    the timed region, and the exact values that go into
                    the run's digest (no witness internals).

Library calls go through module attributes looked up at call time
(`fragmentation.delta_upper`, not a name bound at import), so the
tracer's wrappers are the functions that run when tracing is on.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from fcplx import barcodes, cli, fragmentation, verify
from fcplx.barcodes import Bar, Barcode
from fcplx.rationals import POS_INF, fmt_scalar

# Filtration levels: quarters in [0, 8).
GRID = tuple(Fraction(n, 4) for n in range(32))
# The oracle's search space grows with the number of distinct levels, so
# its pairs sit on three integer levels.
ORACLE_GRID = tuple(Fraction(n) for n in range(3))
ORACLE_DEPTH = 2
EMPTY = fragmentation.EMPTY_FAMILY


def _rng(workload, seed, *key):
    # str seeds hash through sha512: stable across processes and versions.
    return random.Random("/".join(map(str, (workload, seed) + key)))


def _random_barcode(rng, nbars, n_inf, grid=GRID):
    """nbars bars, the first n_inf of them infinite, degrees alternating
    0 and 1; only the levels are random.  Fixing the shape per input
    index keeps the cost mix of a run the same on every seed."""
    bars = []
    for k in range(nbars):
        lo = rng.choice(grid)
        hi = POS_INF if k < n_inf else lo + rng.choice(grid[1:])
        bars.append(Bar(k % 2, lo, hi))
    return Barcode(bars)


def _jittered(rng, B, n_drop=0, n_add=0):
    """A nearby barcode: every bar moved by at most 1, n_drop finite bars
    dropped and n_add short bars added.  Infinite bars are kept, so the
    bottleneck distance to B is finite."""
    finite = [k for k, b in enumerate(B.bars) if b.is_finite()]
    dropped = set(rng.sample(finite, min(n_drop, len(finite))))
    bars = []
    for k, b in enumerate(B.bars):
        if k in dropped:
            continue
        eps = rng.choice(GRID[:5]) * rng.choice((-1, 1))
        lo = b.lo + eps
        hi = b.hi if b.hi == POS_INF else max(b.hi + eps, lo + GRID[1])
        bars.append(Bar(b.degree, lo, hi))
    for k in range(n_add):
        lo = rng.choice(GRID)
        bars.append(Bar(k % 2, lo, lo + rng.choice(GRID[1:3])))
    return Barcode(bars)


def _complex(rng, B):
    """from_barcode(B) in a random level-legal basis."""
    return verify.random_basis_change(barcodes.from_barcode(B), rng)[0]


def _ladder(lo, hi, step, i):
    """Sizes cycle through a fixed ladder, so every seed sees the same
    size mix and runs on different seeds stay comparable."""
    sizes = range(lo, hi + 1, step)
    return sizes[i % len(sizes)]


# ----------------------------------------------------------------------
# pipeline: prop51_pipeline + validate_decomposition on 4-16 bars


def pipeline_make(seed, i, v):
    rng = _rng("pipeline", seed, i)
    n = _ladder(4, 16, 1, i)
    BX = _random_barcode(rng, n, n // 5)
    BY = _jittered(rng, BX, n_drop=n // 7)
    basis = _rng("pipeline", seed, i, v)
    return {"X": _complex(basis, BX), "Y": _complex(basis, BY)}


def pipeline_op(inp):
    bound, D, tau, cap = fragmentation.prop51_pipeline(inp["X"], inp["Y"])
    ok, _, _ = fragmentation.validate_decomposition(
        D, inp["X"], EMPTY, inp["Y"])
    return bound, tau, cap, ok


def pipeline_check(inp, out):
    bound, tau, cap, ok = out
    good = ok and tau != POS_INF and bound <= cap * tau
    return good, (f"bound={fmt_scalar(bound)} tau={fmt_scalar(tau)} "
                  f"cap={cap}")


# ----------------------------------------------------------------------
# frag: `fcplx frag` on 1-3 bar pairs; every fourth op adds the oracle


FRAG_KINDS = ("random", "equal", "shift")


def frag_make(seed, i, v):
    rng = _rng("frag", seed, i)
    basis = _rng("frag", seed, i, v)
    if i % 4 == 3:
        o = i // 4  # ordinal among the oracle ops
        BX = _random_barcode(rng, 1 + o % 2, o // 2 % 2, ORACLE_GRID)
        BY = _random_barcode(rng, 1 + o // 4 % 2, o // 2 % 2, ORACLE_GRID)
        return {"X": _complex(basis, BX), "Y": _complex(basis, BY),
                "oracle": True}
    j = i - i // 4  # ordinal among the non-oracle ops
    # Half the pairs have 2 bars, so the median op lies inside their
    # cost cluster rather than in the gap between 2 and 3 bars.
    kind, nbars = FRAG_KINDS[j % 3], (1, 2, 2, 3)[j // 3 % 4]
    n_inf = j // 12 % 2
    BX = _random_barcode(rng, nbars, n_inf)
    if kind == "random":
        BY = _random_barcode(rng, nbars, n_inf)
    elif kind == "equal":
        BY = BX
    else:
        BY = BX.shifted(rng.choice(GRID[1:9]))
    return {"X": _complex(basis, BX), "Y": _complex(basis, BY),
            "oracle": False}


def frag_op(inp):
    X, Y = inp["X"], inp["Y"]
    d1, D1 = fragmentation.delta_upper(X, Y)
    d2, D2 = fragmentation.delta_upper(Y, X)
    valid = []
    for D, target, slot in ((D1, X, Y), (D2, Y, X)):
        if D is not None:
            valid.append(fragmentation.validate_decomposition(
                D, target, EMPTY, slot))
    oracle = None
    if inp["oracle"]:
        oracle = fragmentation.delta_exact_small(X, Y,
                                                 depth_budget=ORACLE_DEPTH)
    return d1, D1, d2, D2, valid, oracle


def frag_check(inp, out):
    d1, D1, d2, D2, valid, oracle = out
    good = all(ok for ok, _, _ in valid)
    for d, D in ((d1, D1), (d2, D2)):
        if D is None:
            good = good and d == POS_INF
        else:
            good = good and D.total_weight() == d
    line = f"d1={fmt_scalar(d1)} d2={fmt_scalar(d2)}"
    if oracle is not None:
        good = good and oracle[0] <= d1
        line += f" oracle={fmt_scalar(oracle[0])}"
    return good, line


# ----------------------------------------------------------------------
# barcodes: certified canonical forms of two large complexes + bottleneck


def barcodes_make(seed, i, v):
    rng = _rng("barcodes", seed, i)
    n = _ladder(20, 100, 10, i)
    B1 = _random_barcode(rng, n, n // 5)
    B2 = _jittered(rng, B1, n_drop=n // 10, n_add=n // 10)
    basis = _rng("barcodes", seed, i, v)
    return {"B1": B1, "B2": B2, "X1": _complex(basis, B1),
            "X2": _complex(basis, B2), "rule": ("half", "double")[i % 2]}


def barcodes_op(inp):
    b1, w1 = barcodes.canonical_form(inp["X1"])
    b2, w2 = barcodes.canonical_form(inp["X2"])
    certified = w1.check() and w2.check()
    tau, wit = barcodes.bottleneck(b1, b2, rule=inp["rule"])
    return b1, b2, certified, tau, wit


def _short_ok(b, tau, rule):
    return (2 * b.length() if rule == "half" else b.length() / 2) <= tau


def _matching_ok(B1, B2, tau, wit, rule):
    """The matching witness covers both barcodes once, pairs bars of one
    degree within tau, and drops only bars short at tau."""
    left = sorted([a for a, _ in wit.matched] + list(wit.short1))
    right = sorted([b for _, b in wit.matched] + list(wit.short2))
    if left != sorted(B1) or right != sorted(B2):
        return False
    for a, b in wit.matched:
        if a.degree != b.degree or a.is_finite() != b.is_finite():
            return False
        if abs(a.lo - b.lo) > tau:
            return False
        if a.is_finite() and abs(a.hi - b.hi) > tau:
            return False
    return all(_short_ok(b, tau, rule) for b in wit.short1 + wit.short2)


def barcodes_check(inp, out):
    b1, b2, certified, tau, wit = out
    good = (certified and b1 == inp["B1"] and b2 == inp["B2"]
            and tau != POS_INF and wit.value == tau
            and _matching_ok(b1, b2, tau, wit, inp["rule"]))
    return good, f"rule={inp['rule']} bottleneck={fmt_scalar(tau)}"


# ----------------------------------------------------------------------
# check: one in-process `fcplx check --json` call per op


SUITE_NAMES = tuple(verify.SUITES)
CHECK_TRIALS = 2


def check_make(seed, i, v):
    # fcplx draws the suite's inputs from --seed, so every variant is the
    # same call: another seed would be other work.
    rng = _rng("check", seed, i)
    return ["check", "--json", "--suite", SUITE_NAMES[i % len(SUITE_NAMES)],
            "--trials", str(CHECK_TRIALS),
            "--seed", str(rng.randrange(1_000_000))]


def check_op(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_check(argv, out):
    code, text = out
    try:
        payload = json.loads(text)
    except ValueError:
        return False, f"{argv[3]} seed={argv[-1]} unparsable"
    failures = sum(len(r["failures"]) for r in payload["reports"])
    good = code == 0 and payload["ok"] is True and failures == 0
    return good, (f"{argv[3]} seed={argv[-1]} ok={payload['ok']} "
                  f"failures={failures}")


# ----------------------------------------------------------------------
# Per workload: make, op, check and the number of distinct inputs a run
# goes through.  Each count is a whole number of cycles of the
# workload's input shapes (13 pipeline sizes, 32 frag shapes, 9 barcodes
# sizes times 2 rules, 13 suites), so every seed does the same mix of
# work.  At the seed commit one pass over them takes 15 to 22 s.

WORKLOADS = {
    "pipeline": (pipeline_make, pipeline_op, pipeline_check, 156),
    "frag": (frag_make, frag_op, frag_check, 160),
    "barcodes": (barcodes_make, barcodes_op, barcodes_check, 126),
    "check": (check_make, check_op, check_check, 520),
}
