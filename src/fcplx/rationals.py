"""Exact scalar values used for filtration levels, weights and distances.

All finite quantities are `fractions.Fraction`; the only non-rational
values that ever appear are the two infinities (float sentinels), used
for the filtration of the zero element (-inf) and for infinite bars and
infinite distances (+inf).  Infinities take part in comparisons only,
never in arithmetic on exact paths.
"""

from __future__ import annotations

from fractions import Fraction

NEG_INF = float("-inf")
POS_INF = float("inf")


def is_finite(x) -> bool:
    # decided by type first: an int or Fraction never equals an infinity
    return isinstance(x, (int, Fraction)) or (x != NEG_INF and x != POS_INF)


def parse_scalar(token: str) -> Fraction:
    """Parse `p/q`, an integer, or a decimal literal, exactly.  Every
    parsed value is a level, weight or bound that takes part in exact
    arithmetic, so the infinities are rejected like any other token
    that is not a rational."""
    token = token.strip()
    if token.lstrip("+-") == "inf":
        raise ValueError(f"not a finite scalar: {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact scalar: {token!r}") from exc


def fmt_scalar(x) -> str:
    """Render in lowest terms: `p/q`, bare integer, or `inf`/`-inf`."""
    if x == POS_INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
