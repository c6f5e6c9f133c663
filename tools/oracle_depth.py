"""Time the depth-3 exact oracle on its 40 seeded 2-bar pairs.

    python3 tools/oracle_depth.py

Runs `delta_exact_small(X, Y, depth_budget=3)` on the pairs built from
`random.Random(f"depth3/{i}")`, i = 0..39, and prints one line per pair
(its CPU seconds, value and note) and then the total CPU seconds.  Each
pair is two barcodes of 2 bars in degrees 0 and 1 on the levels 0..3,
each bar infinite with chance 1/3, realized by `from_barcode` and
scrambled by `random_basis_change`; `tests/test_oracle_prune.py` builds
its depth-3 inputs the same way.  CPU time is `time.process_time`, so
it does not count time the process spends waiting for a CPU.
"""

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fcplx.barcodes import Bar, Barcode, from_barcode  # noqa: E402
from fcplx.fragmentation import delta_exact_small  # noqa: E402
from fcplx.rationals import POS_INF, fmt_scalar  # noqa: E402
from fcplx.verify import random_basis_change  # noqa: E402

PAIRS = 40
DEPTH = 3
LEVELS = [Fraction(v) for v in range(4)]


def _bars(rng, n):
    bars = []
    for k in range(n):
        if rng.random() < 1 / 3:
            bars.append(Bar(k % 2, rng.choice(LEVELS), POS_INF))
        else:
            bars.append(Bar(k % 2, *sorted(rng.sample(LEVELS, 2))))
    return Barcode(bars)


def pair(i):
    """The i-th seeded (X, Y) pair."""
    rng = random.Random(f"depth3/{i}")
    BX, BY = _bars(rng, 2), _bars(rng, 2)
    return tuple(random_basis_change(from_barcode(B), rng)[0]
                 for B in (BX, BY))


def run(indices, out=sys.stdout):
    """Print one line per pair and the total; return the total CPU
    seconds."""
    total = 0.0
    for i in indices:
        X, Y = pair(i)
        t0 = time.process_time()
        value, note = delta_exact_small(X, Y, depth_budget=DEPTH)
        dt = time.process_time() - t0
        total += dt
        print(f"depth3/{i}: {dt:.3f} s  {fmt_scalar(value)}  {note}",
              file=out)
    print(f"total: {total:.3f} s over {len(indices)} pairs", file=out)
    return total


if __name__ == "__main__":
    run(range(PAIRS))
