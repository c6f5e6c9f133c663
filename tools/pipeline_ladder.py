"""Time the matched-pair pipeline on the size ladder.

    python3 tools/pipeline_ladder.py            # 64 to 2048 bars
    python3 tools/pipeline_ladder.py 64 128     # chosen rungs

Per rung of n bars, builds X from the barcode of n bars on the quarter
grid of [0, 8), the first n // 4 of them infinite, degrees alternating
0 and 1, and Y from X's barcode with each `lo` raised by 0 or 1/4 and
each finite `hi` by 0, 1/4 or 1/2; both are realized by `from_barcode`
and scrambled by `random_basis_change`, drawn from
`random.Random(f"ladder/{n}")`.  It then runs `prop51_pipeline(X, Y)`
and `validate_decomposition` of its decomposition against the family
{0}, and prints one line per rung: the CPU seconds of each, the
process's running peak RSS, and the most primes any generator id
carries in a step's A, B, C or cprime.  CPU time is
`time.process_time`, so it does not count time the process spends
waiting for a CPU; the peak RSS is that of the whole process so far,
so run one rung per process to read a rung's own peak.  Exits 1 when
a decomposition does not validate.
"""

import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fcplx.barcodes import Bar, Barcode, from_barcode  # noqa: E402
from fcplx.fragmentation import (  # noqa: E402
    EMPTY_FAMILY,
    prop51_pipeline,
    validate_decomposition,
)
from fcplx.rationals import POS_INF, fmt_scalar  # noqa: E402
from fcplx.verify import random_basis_change  # noqa: E402

RUNGS = (64, 128, 256, 512, 1024, 2048)
GRID = [Fraction(n, 4) for n in range(32)]
QUARTER = Fraction(1, 4)


def barcodes(n, rng):
    """The rung's barcodes of X and Y."""
    bars = []
    for k in range(n):
        lo = rng.choice(GRID)
        hi = POS_INF if k < n // 4 else lo + rng.choice(GRID[1:])
        bars.append(Bar(k % 2, lo, hi))
    raised = []
    for b in bars:
        lo = b.lo + rng.choice((0, QUARTER))
        hi = b.hi + rng.choice((0, QUARTER, 2 * QUARTER)) \
            if b.is_finite() else b.hi
        raised.append(Bar(b.degree, lo, hi))
    return Barcode(bars), Barcode(raised)


def pair(n):
    """The rung's (X, Y), each in a random level-legal basis."""
    rng = random.Random(f"ladder/{n}")
    return tuple(random_basis_change(from_barcode(B), rng)[0]
                 for B in barcodes(n, rng))


def max_primes(D):
    return max((gid.count("'")
                for tri, wit in D.steps
                for obj in (tri.A, tri.B, tri.C, wit.cprime)
                for gid in obj._ids), default=0)


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(rungs, out=sys.stdout):
    """Print one line per rung; return True when every decomposition
    validates."""
    all_ok = True
    for n in rungs:
        X, Y = pair(n)
        t0 = time.process_time()
        bound, D, _, _ = prop51_pipeline(X, Y)
        t1 = time.process_time()
        ok, _, problems = validate_decomposition(D, X, EMPTY_FAMILY, Y)
        t2 = time.process_time()
        all_ok &= ok
        print(f"{n} bars: pipeline {t1 - t0:.3f} s  validate "
              f"{t2 - t1:.3f} s  peak {peak_rss_mb():.0f} MB  "
              f"primes {max_primes(D)}  bound {fmt_scalar(bound)}"
              + ("" if ok else f"  INVALID {problems}"), file=out)
    return all_ok


if __name__ == "__main__":
    sys.exit(0 if run([int(a) for a in sys.argv[1:]] or RUNGS) else 1)
