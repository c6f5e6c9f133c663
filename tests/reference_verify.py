"""`tpc.verify_triangle` as it decided a witness without a certificate,
before every witness went through `tpc._certificate`: the
phi-r-isomorphism clause by the barcode of cone(phi, 0)
(`is_r_acyclic`) and the psi-right-inverse clause by one `homotopic`
solve for phi o psi ~ eta.

`tests/test_certificates.py` compares the verifier's (ok, failures)
with this one on seeded bare witnesses, good and broken.
"""

from fractions import Fraction

from fcplx.barcodes import is_r_acyclic
from fcplx.complexes import (
    _inclusion,
    _projection,
    compose,
    cone,
    eta,
    homotopic,
    shift_complex,
    translate,
)
from fcplx.tpc import _check_clause, _closed_shift0


def verify_triangle(tri, wit):
    failures = []
    r = Fraction(tri.weight)
    if r < 0:
        return False, ["weight-negative"]
    A, B, C = tri.A, tri.B, tri.C
    legs = (("u", tri.u, A, B), ("v", tri.v, B, C),
            ("w", tri.w, C, tri.w_target()))
    structural = all(m.source == source and m.target == target
                     for _, m, source, target in legs)
    if not _check_clause(failures, "shape", structural):
        return False, failures
    for name, m, source, target in legs:
        _check_clause(failures, f"{name}-closed-shift0",
                      _closed_shift0(m, source, target))
    if failures:
        return False, failures
    K = cone(tri.u, 0)
    if not _check_clause(failures, "cprime-is-cone", wit.cprime == K):
        return False, failures
    if not _check_clause(failures, "phi-closed-shift0",
                         _closed_shift0(wit.phi, K, C)):
        return False, failures
    sC = shift_complex(C, r)
    if not _check_clause(failures, "psi-closed-shift0",
                         _closed_shift0(wit.psi, sC, K)):
        return False, failures
    _check_clause(failures, "phi-r-isomorphism",
                  is_r_acyclic(cone(wit.phi, 0), r))
    _check_clause(failures, "psi-right-inverse",
                  homotopic(compose(wit.phi, wit.psi), eta(C, r), 0)
                  is not None)
    _check_clause(failures, "v-through-phi",
                  homotopic(tri.v, compose(wit.phi, _inclusion(B, K, 0)), 0)
                  is not None)
    shifted_w = tri.w.viewed(sC, translate(tri.A))
    _check_clause(failures, "w-through-psi",
                  homotopic(shifted_w, compose(
                      _projection(K, translate(tri.A), B.n), wit.psi), 0)
                  is not None)
    return not failures, failures
