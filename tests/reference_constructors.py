"""Two constructors as they were before they built from ints, unchanged
but for their names:

* `reference_from_barcode` is `barcodes.from_barcode`, through
  `make_complex`: id triples, a boundary dict of ids and each end
  wrapped as a `Fraction`;
* `reference_disambiguate` is `complexes._disambiguate`, which primes a
  colliding id from its base form every time.

The tests check the new bodies against them.
"""

from fcplx.barcodes import Barcode
from fcplx.complexes import make_complex


def reference_from_barcode(B):
    triples = []
    boundaries = {}
    bars = B.bars if isinstance(B, Barcode) else Barcode(B).bars
    for k, b in enumerate(bars):
        if not b.is_finite():
            triples.append((f"i{k}", b.degree, b.lo))
        else:
            triples.append((f"x{k}", b.degree, b.lo))
            triples.append((f"y{k}", b.degree - 1, b.hi))
            boundaries[f"y{k}"] = [f"x{k}"]
    return make_complex(triples, boundaries)


def reference_disambiguate(*id_lists):
    taken = set()
    out = []
    for ids in id_lists:
        for gid in ids:
            while gid in taken:
                gid = gid + "'"
            taken.add(gid)
            out.append(gid)
    return tuple(out)
