"""The map checks as they were decided through `Fraction` shifts and
generator expressions, before they were decided in ints and masks.
Unchanged but for their names:

* `reference_is_closed` is `FilteredChainMap.is_closed`;
* `reference_shift_of_map` is `complexes.shift_of_map`: one max per
  column over the common denominator, then one `Fraction`;
* `reference_closed_shift0` is `tpc._closed_shift0`, with its degree
  table built on every call;
* `reference_is_homotopy` is `tpc._is_homotopy`;
* `reference_cone_error` is the text of the error `complexes.cone`
  raised on a map it refused, or None where it built the cone.

The tests check the int and mask kernels against them.
"""

from fractions import Fraction
from math import lcm

from fcplx.complexes import FilteredChainMap
from fcplx.f2linalg import _apply, _bits
from fcplx.rationals import NEG_INF, fmt_scalar, is_finite


def reference_is_closed(f):
    dT, cols = f.target.diff, f.cols
    return all(_apply(dT, c) == _apply(cols, d)
               for c, d in zip(cols, f.source.diff))


def reference_shift_of_map(f):
    S, T = f.source, f.target
    den = lcm(S._den, T._den)
    a, b = den // S._den, den // T._den
    tl = T._lev
    r = max((max(map(tl.__getitem__, _bits(c))) * b - s * a
             for s, c in zip(S._lev, f.cols) if c), default=None)
    return NEG_INF if r is None else Fraction(r, den)


def reference_closed_shift0(m, source, target):
    if m.source != source or m.target != target or m.degree != 0:
        return False
    of_degree = {}
    for t, d in enumerate(target._deg):
        of_degree[d] = of_degree.get(d, 0) | 1 << t
    if any(c & ~of_degree.get(d, 0)
           for d, c in zip(source._deg, m.cols)) or not reference_is_closed(m):
        return False
    sh = reference_shift_of_map(m)
    return not is_finite(sh) or sh <= 0


def reference_is_homotopy(S, T, cols, f, bound):
    try:
        h = FilteredChainMap(S, T, cols, -1)
    except ValueError:
        return False
    dT = T.diff
    if not all(_apply(dT, c) ^ _apply(h.cols, d) == e
               for c, d, e in zip(h.cols, S.diff, f)):
        return False
    sh = reference_shift_of_map(h)
    return not is_finite(sh) or sh <= bound


def reference_cone_error(f, lam=0):
    lam = Fraction(lam)
    if f.degree != 0:
        return "cone requires a degree-0 map"
    if f.source.is_zero():
        return None
    if not reference_is_closed(f):
        return "cone requires a closed map"
    sh = reference_shift_of_map(f)
    if is_finite(sh) and lam < sh:
        return (f"cone level too small: lambda = {fmt_scalar(lam)} < "
                f"shift {fmt_scalar(sh)} (deficit {fmt_scalar(sh - lam)})")
    return None
