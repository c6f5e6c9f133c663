"""Filtered cochain complexes over GF(2): barcodes, weighted exact
triangles, cone decompositions and fragmentation pseudo-metrics, with
a seeded verification harness and a CLI (`fcplx`)."""

from .rationals import NEG_INF, POS_INF, fmt_scalar, parse_scalar
from .f2linalg import F2SparseMatrix, column_reduce, solve_in_span
from .complexes import (
    FilteredChainMap,
    FilteredComplex,
    HomComplex,
    compose,
    cone,
    eta,
    is_nullhomotopic_within,
    make_complex,
    nullhomotopy,
    parse_complex,
    parse_map,
    shift_complex,
    shift_of_map,
    sum_complexes,
    translate,
    translate_inverse,
    zero_complex,
)
from .barcodes import (
    Bar,
    Barcode,
    barcode,
    barcode_to_text,
    bottleneck,
    boundary_depth,
    canonical_form,
    from_barcode,
    is_r_acyclic,
    persistence_rank,
)
from .tpc import (
    TriangleWitness,
    WeightedTriangle,
    check_triangular_weight,
    fill_morphism,
    identity_triangle,
    is_r_isomorphism,
    octahedron,
    r_equivalent,
    r_inverses,
    relax_weight,
    rotate,
    rotate_negative,
    spectral_invariant,
    stable_weight_upper,
    sum_triangles,
    sum_triangles_many,
    triangle_from_morphism,
    unstable_weight_upper,
    verify_triangle,
)
from .fragmentation import (
    ConeDecomposition,
    FamilySpec,
    d_frag_upper,
    delta_exact_small,
    delta_upper,
    merge_slot_decompositions,
    prop51_pipeline,
    refine,
    sum_decompositions,
    underline_delta_upper,
    validate_decomposition,
)
from .verify import (
    GenConfig,
    SuiteReport,
    gen_complex,
    gen_r_iso,
    replay_trial,
    run_suite,
)

__version__ = "0.1.0"
