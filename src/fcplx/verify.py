"""Seeded generators and the property suites behind `fcplx check`.

Each suite operationalizes one quantified claim about weighted
triangles, cone decompositions or barcodes, runs it over a seeded
stream of random instances, and reports replayable failures: a failure
record carries the seed offset, a claim id and a serialized
counterexample, and re-running the trial at that offset reproduces it.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import POS_INF, fmt_scalar
from .f2linalg import F2Vector
from .complexes import (
    FilteredChainMap,
    FilteredComplex,
    complex_to_text,
    compose,
    cone,
    direct_sum,
    is_nullhomotopic_within,
    map_to_text,
    make_complex,
    nullhomotopy,
    shift_complex,
    translate,
    zero_complex,
)
from .barcodes import (
    Bar,
    Barcode,
    barcode,
    boundary_depth,
    bottleneck,
    from_barcode,
    is_r_acyclic,
    _short_threshold,
    _finite_pair_cost,
)
from .f2linalg import column_reduce, F2SparseMatrix, invert
from .homsolve import random_closed_map
from .tpc import (
    FLAT_WEIGHT,
    PERSISTENCE_WEIGHT,
    check_triangular_weight,
    homotopic,
    identity_triangle,
    is_r_isomorphism,
    mixed_weight,
    octahedron,
    r_equivalent,
    r_inverses,
    relax_weight,
    rotate,
    rotate_negative,
    stable_weight_upper,
    sum_triangles,
    triangle_from_morphism,
    unstable_weight_upper,
    verify_triangle,
)
from .fragmentation import (
    EMPTY_FAMILY,
    ConeDecomposition,
    canonical_object,
    delta_upper,
    eta_slot_triangle,
    merge_slot_decompositions,
    prop51_pipeline,
    refine,
    singleton_decomposition,
    validate_decomposition,
)

log = logging.getLogger("fcplx.verify")

DEFAULT_GRID = tuple(
    Fraction(n, d) for d in (1, 2, 4, 8) for n in range(0, 4 * d)
)


@dataclass(frozen=True)
class GenConfig:
    """Deterministic generator configuration: identical configs yield
    identical instance streams."""

    seed: int = 0
    max_generators: int = 8
    max_degree_span: int = 3
    filtration_grid: tuple = DEFAULT_GRID
    density: Fraction = Fraction(1, 2)

    def rng(self, offset: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + offset)


def gen_complex(cfg: GenConfig, rng: random.Random,
                max_generators=None) -> FilteredComplex:
    """Random valid complex: random degrees and levels off the grid, a
    random level-compatible differential, and d^2 = 0 restored by
    rejection (the density decays if rejection keeps failing)."""
    cap = max_generators or cfg.max_generators
    n = rng.randint(1, cap)
    base = rng.randrange(-1, 2)
    gens = []
    for i in range(n):
        gens.append(
            (f"g{i}", base + rng.randrange(cfg.max_degree_span),
             rng.choice(cfg.filtration_grid))
        )
    density = Fraction(cfg.density)
    attempts = 0
    while True:
        attempts += 1
        bnd = {}
        for i in range(n):
            tgts = [
                gens[j][0]
                for j in range(n)
                if j != i
                and gens[j][1] == gens[i][1] + 1
                and gens[j][2] <= gens[i][2]
                and rng.random() < density
            ]
            if tgts:
                bnd[gens[i][0]] = tgts
        X = make_complex(gens, bnd)
        if not X.validate():
            if attempts > 1:
                log.debug("gen_complex accepted after %d attempts", attempts)
            return X
        if attempts % 8 == 0:
            density = density / 2


def gen_acyclic(cfg: GenConfig, rng: random.Random, max_depth,
                max_bars=3) -> FilteredComplex:
    """Random complex with only finite bars of length <= max_depth."""
    grid = [q for q in cfg.filtration_grid]
    bars = []
    for _ in range(rng.randint(1, max_bars)):
        lo = rng.choice(grid)
        lens = [q for q in grid if 0 <= q <= max_depth]
        bars.append(Bar(rng.randrange(2), lo, lo + rng.choice(lens)))
    X = from_barcode(Barcode(bars))
    return random_conjugate(X, rng)


def random_basis_change(X: FilteredComplex, rng: random.Random):
    """Random level-legal unitriangular change of basis; returns the
    re-based complex X' and the strict iso X' -> X."""
    n = X.n
    order = sorted(range(n), key=lambda i: (X.gens[i].ell, i))
    pos = {g: p for p, g in enumerate(order)}
    cols = []
    for j in range(n):
        m = 1 << j
        for i in range(n):
            if i == j or pos[i] >= pos[j]:
                continue
            if X.gens[i].degree != X.gens[j].degree:
                continue
            if X.gens[i].ell > X.gens[j].ell:
                continue
            if rng.random() < 0.3:
                m |= 1 << i
        cols.append(F2Vector(mask=m))
    U = F2SparseMatrix(cols, n)
    Uinv = invert(U)
    D = X.diff_matrix()
    newdiff = Uinv.matmul(D).matmul(U)
    Xp = FilteredComplex(X.gens, newdiff.columns)
    fwd = FilteredChainMap(Xp, X, U.columns, 0)   # X' -> X
    return Xp, fwd, FilteredChainMap(X, Xp, Uinv.columns, 0)


def random_conjugate(X, rng):
    return random_basis_change(X, rng)[0]


def gen_r_iso(cfg: GenConfig, r, rng: random.Random, source=None):
    """A random map certified as an r-isomorphism, built by summing an
    identity with an inclusion of or projection off an r-acyclic part,
    conjugated by random basis changes.  Returns (f, A, B)."""
    r = Fraction(r)
    A0 = source if source is not None else gen_complex(
        cfg, rng, max_generators=4)
    if r == 0:
        K = zero_complex()
    else:
        K = gen_acyclic(cfg, rng, max_depth=r, max_bars=2)
        if boundary_depth(K) < r:
            # force a bar of exact length r so the level is tight
            lo = rng.choice(cfg.filtration_grid)
            K = direct_sum(
                K, from_barcode(Barcode([Bar(0, lo, lo + r)]))
            ).complex
    S = direct_sum(A0, K)
    if source is None and rng.random() < 0.5:
        f, A, B = S.project_left, S.complex, A0
    else:
        f, A, B = S.include_left, A0, S.complex
    if source is None:
        A2, fa, _ = random_basis_change(A, rng)
        f, A = compose(f, fa), A2
    B2, _, gb = random_basis_change(B, rng)
    return compose(gb, f), A, B2


def gen_triangle(cfg: GenConfig, rng: random.Random, max_weight=None):
    """Random witnessed triangle: the cone triangle of a random closed
    map, with an optional weight relaxation."""
    A = gen_complex(cfg, rng, max_generators=3)
    B = gen_complex(cfg, rng, max_generators=3)
    f = random_closed_map(A, B, rng)
    tri, wit = triangle_from_morphism(f)
    if max_weight is None:
        max_weight = Fraction(2)
    slack = [q for q in cfg.filtration_grid if q <= max_weight]
    s = rng.choice(slack) if slack and rng.random() < 0.7 else Fraction(0)
    return relax_weight(tri, wit, s)


def gen_triangle_over(base, cfg, rng, max_weight=None):
    """Random witnessed triangle whose first object chain-extends base:
    base -> B -> C."""
    B = gen_complex(cfg, rng, max_generators=3)
    f = random_closed_map(base, B, rng)
    tri, wit = triangle_from_morphism(f)
    if max_weight is None:
        max_weight = Fraction(2)
    slack = [q for q in cfg.filtration_grid if q <= max_weight]
    s = rng.choice(slack) if slack and rng.random() < 0.7 else Fraction(0)
    return relax_weight(tri, wit, s)


# ----------------------------------------------------------------------
# independent oracles


def bottleneck_bruteforce(B1: Barcode, B2: Barcode, rule="half"):
    """Exhaustive minimum over all short-set choices and bijections."""
    def split(B):
        by = {}
        for b in B:
            by.setdefault(b.degree, ([], []))[0 if b.is_finite() else
                                              1].append(b)
        return by

    d1, d2 = split(B1), split(B2)
    degrees = set(d1) | set(d2)
    total = Fraction(0)
    for deg in degrees:
        fin1, inf1 = d1.get(deg, ([], []))
        fin2, inf2 = d2.get(deg, ([], []))
        if len(inf1) != len(inf2):
            return POS_INF
        best_inf = POS_INF
        for perm in itertools.permutations(range(len(inf2))):
            cost = Fraction(0)
            for i, j in enumerate(perm):
                cost = max(cost, abs(inf1[i].lo - inf2[j].lo))
            best_inf = min(best_inf, cost)
        if inf1 == [] and best_inf == POS_INF:
            best_inf = Fraction(0)
        best_fin = POS_INF
        n, m = len(fin1), len(fin2)
        for k in range(min(n, m) + 1):
            for keep1 in itertools.combinations(range(n), k):
                for keep2 in itertools.permutations(range(m), k):
                    cost = Fraction(0)
                    for a, b in zip(keep1, keep2):
                        cost = max(
                            cost, _finite_pair_cost(fin1[a], fin2[b])
                        )
                    for a in range(n):
                        if a not in keep1:
                            cost = max(cost, _short_threshold(fin1[a], rule))
                    for b in range(m):
                        if b not in keep2:
                            cost = max(cost, _short_threshold(fin2[b], rule))
                    best_fin = min(best_fin, cost)
        if best_fin == POS_INF:
            best_fin = Fraction(0)
        total = max(total, best_inf, best_fin)
    return total


def persistence_rank_bruteforce(X: FilteredComplex, r, s, degree):
    """Rank of the structure map on sublevel cohomology, by direct
    linear algebra (no barcode)."""
    r, s = Fraction(r), Fraction(s)

    def cycles(level):
        idx = [i for i in range(X.n)
               if X.gens[i].degree == degree and X.gens[i].ell <= level]
        cols = [X.diff[i] for i in idx]
        R, V = column_reduce(F2SparseMatrix(cols, X.n))
        kernel = []
        for j in range(len(idx)):
            if not R.column(j):
                m = 0
                for k in V.column(j):
                    m |= 1 << idx[k]
                kernel.append(F2Vector(mask=m))
        return kernel

    def boundaries(level):
        idx = [i for i in range(X.n)
               if X.gens[i].degree == degree - 1 and X.gens[i].ell <= level]
        return [X.diff[i] for i in idx if X.diff[i]]

    def rank(vectors):
        R, _ = column_reduce(F2SparseMatrix(vectors, X.n))
        return sum(1 for j in range(len(vectors)) if R.column(j))

    Zr = cycles(r)
    Bs = boundaries(s)
    return rank(Zr + Bs) - rank(Bs)


# ----------------------------------------------------------------------
# suite infrastructure


@dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def to_text(self):
        lines = [
            f"suite {self.suite}: {self.trials} trials, "
            f"{len(self.failures)} failures"
        ]
        for offset, claim, payload in self.failures:
            lines.append(f"FAIL {self.suite} {offset} {claim}")
            for ln in payload.splitlines():
                lines.append("  " + ln)
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": [
                {"offset": o, "claim": c, "payload": p}
                for o, c, p in self.failures
            ],
        }


def _payload(**parts):
    chunks = []
    for name, val in parts.items():
        if isinstance(val, FilteredComplex):
            chunks.append(f"complex {name}:\n{complex_to_text(val)}")
        elif isinstance(val, FilteredChainMap):
            chunks.append(f"map {name}:\n{map_to_text(val)}")
        else:
            chunks.append(f"{name}: {val}")
    return "\n".join(chunks)


def _trial_acyclic_equivalence(cfg, rng):
    fails = []
    if rng.random() < 0.5:
        X = gen_acyclic(cfg, rng, max_depth=Fraction(2))
    else:
        X = gen_complex(cfg, rng, max_generators=min(cfg.max_generators, 12))
    B = barcode(X)
    if not B.infinite():
        d = boundary_depth(B)
        by_barcode = is_r_acyclic(X, d)
        h = is_nullhomotopic_within(FilteredChainMap.identity(X), d)
        if not (by_barcode and h is not None):
            fails.append(("acyclic-at-depth", _payload(X=X, depth=d)))
        if d > 0:
            lower = d - Fraction(1, 8)
            if is_r_acyclic(X, lower) or is_nullhomotopic_within(
                FilteredChainMap.identity(X), lower
            ) is not None:
                fails.append(("not-acyclic-below-depth", _payload(X=X)))
    else:
        probe = boundary_depth(B) + 1
        if is_r_acyclic(X, probe) or is_nullhomotopic_within(
            FilteredChainMap.identity(X), probe
        ) is not None:
            fails.append(("infinite-bars-never-acyclic", _payload(X=X)))
    return fails


def _trial_cone_acyclic_sum(cfg, rng):
    fails = []
    K1 = gen_acyclic(cfg, rng, max_depth=Fraction(2))
    K2 = gen_acyclic(cfg, rng, max_depth=Fraction(2))
    r, s = boundary_depth(K1), boundary_depth(K2)
    f = random_closed_map(K1, K2, rng)
    C = cone(f, 0).complex
    if not is_r_acyclic(C, r + s):
        fails.append(
            ("cone-of-acyclics", _payload(K1=K1, K2=K2, f=f,
                                          r=fmt_scalar(r),
                                          s=fmt_scalar(s)))
        )
    return fails


def _trial_riso_compose(cfg, rng):
    fails = []
    grid = [q for q in cfg.filtration_grid if q <= 2]
    r, s = rng.choice(grid), rng.choice(grid)
    f, A, B = gen_r_iso(cfg, r, rng)
    g, _, Cc = gen_r_iso(cfg, s, rng, source=B)
    gf = compose(g, f)
    if not is_r_isomorphism(gf, r + s):
        fails.append(("iso-composition", _payload(
            f=f, g=g, r=fmt_scalar(r), s=fmt_scalar(s))))
    return fails


def _trial_inverse_2r(cfg, rng):
    fails = []
    grid = [q for q in cfg.filtration_grid if 0 < q <= 2]
    r = rng.choice(grid)
    f, A, B = gen_r_iso(cfg, r, rng)
    phi, psi = r_inverses(f, r, rng=rng)
    if not is_r_isomorphism(psi, 2 * r):
        fails.append(("right-inverse-2r", _payload(f=f, psi=psi)))
    if not is_r_isomorphism(phi, 2 * r):
        fails.append(("left-inverse-2r", _payload(f=f, phi=phi)))
    phi2, psi2 = r_inverses(f, r, rng=rng)
    if not r_equivalent(psi, psi2, r, level=Fraction(0)):
        fails.append(("right-inverses-r-equivalent", _payload(f=f)))
    if not r_equivalent(phi, phi2, r, level=Fraction(0)):
        fails.append(("left-inverses-r-equivalent", _payload(f=f)))
    # one-sided cancellation: u o f = u' o f forces u ~_r u'
    u = random_closed_map(B, A, rng)
    h = nullhomotopy(compose(u, f), Fraction(0))
    if h is not None and not r_equivalent(
        u, FilteredChainMap.zero(B, A), r, level=Fraction(0)
    ):
        fails.append(("cancel-through-iso", _payload(f=f, u=u)))
    return fails


def _trial_octahedron(cfg, rng):
    fails = []
    t1, w1 = gen_triangle(cfg, rng)
    t2, w2 = gen_triangle_over(t1.C, cfg, rng)
    res = octahedron(t1, w1, t2, w2)
    if res.d3.weight != 0:
        fails.append(("first-output-weight", _payload(got=res.d3.weight)))
    if res.d4.weight != t1.weight + t2.weight:
        fails.append(("second-output-weight", _payload(got=res.d4.weight)))
    ok3, f3 = verify_triangle(res.d3, res.wit3)
    ok4, f4 = verify_triangle(res.d4, res.wit4)
    if not ok3:
        fails.append(("first-output-verifies", _payload(clauses=f3)))
    if not ok4:
        fails.append(("second-output-verifies", _payload(clauses=f4)))
    for name, lhs, rhs, slack in res.squares:
        if homotopic(lhs, rhs, slack) is None:
            fails.append((f"square-{name}", _payload(slack=slack)))
    lhs = res.d3.weight + res.d4.weight
    if lhs != t1.weight + t2.weight:
        fails.append(("weight-inequality-slack", _payload(lhs=lhs)))
    return fails


def _trial_rotation(cfg, rng):
    fails = []
    tri, wit = gen_triangle(cfg, rng)
    r = tri.weight
    rt, rw = rotate(tri, wit)
    if rt.weight != 2 * r:
        fails.append(("rotation-weight", _payload(got=rt.weight)))
    ok, cl = verify_triangle(rt, rw)
    if not ok:
        fails.append(("rotation-verifies", _payload(clauses=cl)))
    if homotopic(rt.v, tri.w, r) is None:
        fails.append(("rotated-connecting-map", _payload()))
    nt, nw = rotate_negative(tri, wit)
    if nt.weight != 2 * r or not verify_triangle(nt, nw)[0]:
        fails.append(("negative-rotation", _payload(got=nt.weight)))
    return fails


def _random_decomposition(cfg, rng, steps=2):
    Y1 = gen_complex(cfg, rng, max_generators=3)
    parts = [singleton_decomposition(Y1).steps[0]]
    prev = Y1
    for _ in range(steps - 1):
        A = gen_complex(cfg, rng, max_generators=2)
        f = random_closed_map(A, prev, rng)
        tri, wit = triangle_from_morphism(f)
        grid = [q for q in cfg.filtration_grid if q <= 1]
        tri, wit = relax_weight(tri, wit, rng.choice(grid))
        parts.append((tri, wit))
        prev = tri.C
    return ConeDecomposition(tuple(parts))


def _trial_refinement(cfg, rng):
    fails = []
    D = _random_decomposition(cfg, rng, steps=2)
    i = rng.randrange(len(D.steps))
    Xi = D.steps[i][0].A
    inner_grid = [q for q in cfg.filtration_grid if q <= 1]
    r = rng.choice(inner_grid)
    if rng.random() < 0.5 and not Xi.is_zero():
        tri, wit = eta_slot_triangle(Xi, r)
        Dp = ConeDecomposition(((tri, wit),))
    else:
        Dp = singleton_decomposition(Xi)
    D2 = refine(D, i, Dp)
    if D2.total_weight() != D.total_weight() + Dp.total_weight():
        fails.append(("refinement-weight", _payload(
            got=D2.total_weight(),
            want=D.total_weight() + Dp.total_weight())))
    want_lin = (
        [barcode(a) for a in D.linearization()[:i]]
        + [barcode(translate(a)) for a in Dp.linearization()]
        + [barcode(a) for a in D.linearization()[i + 1:]]
    )
    got_lin = [barcode(a) for a in D2.linearization()]
    if got_lin != want_lin:
        fails.append(("refinement-linearization", _payload()))
    prev = zero_complex()
    for k, (tri, wit) in enumerate(D2.steps):
        if tri.B != prev or not verify_triangle(tri, wit)[0]:
            fails.append((f"refined-step-{k}", _payload()))
            break
        prev = tri.C
    else:
        if barcode(prev) != barcode(D.target()):
            fails.append(("refined-target", _payload()))
    return fails


def _trial_sum_triangle(cfg, rng):
    fails = []
    t1, w1 = gen_triangle(cfg, rng)
    t2, w2 = gen_triangle(cfg, rng)
    st, sw = sum_triangles(t1, w1, t2, w2)
    if st.weight != max(t1.weight, t2.weight):
        fails.append(("sum-weight-max", _payload(got=st.weight)))
    if not verify_triangle(st, sw)[0]:
        fails.append(("sum-verifies", _payload()))
    idt, idw = identity_triangle(gen_complex(cfg, rng, max_generators=2))
    st2, sw2 = sum_triangles(t1, w1, idt, idw)
    if st2.weight != t1.weight or not verify_triangle(st2, sw2)[0]:
        fails.append(("sum-with-identity", _payload()))
    return fails


def _interval_object(cfg, rng, bars=2):
    grid = cfg.filtration_grid
    out = []
    for _ in range(rng.randint(1, bars)):
        lo = rng.choice(grid)
        if rng.random() < 0.4:
            out.append(Bar(rng.randrange(2), lo, POS_INF))
        else:
            out.append(Bar(rng.randrange(2), lo, lo + rng.choice(grid)))
    return from_barcode(Barcode(out))


def _trial_frag_sum(cfg, rng):
    fails = []
    A = _interval_object(cfg, rng)
    B = _interval_object(cfg, rng)
    Ap = from_barcode(barcode(A).shifted(rng.choice(
        [q for q in cfg.filtration_grid if q <= 1])))
    Bp = from_barcode(barcode(B).shifted(rng.choice(
        [q for q in cfg.filtration_grid if q <= 1])))
    va, Da = delta_upper(A, Ap)
    vb, Db = delta_upper(B, Bp)
    if Da is None or Db is None:
        return [("frag-sum-witness-missing", _payload(A=A, B=B))]
    DM = merge_slot_decompositions(Da, Ap, Db, Bp)
    if DM.total_weight() > va + vb:
        fails.append(("merged-weight-bound", _payload(
            got=DM.total_weight(), cap=va + vb)))
    tgt = direct_sum(A, B).complex
    slot = direct_sum(canonical_object(Ap), canonical_object(Bp)).complex
    ok, _, probs = validate_decomposition(DM, tgt, EMPTY_FAMILY, slot)
    if not ok:
        fails.append(("merged-validates", _payload(problems=probs)))
    return fails


def _random_barcode(cfg, rng, max_bars, degrees=(0, 1)):
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        lo = rng.choice(cfg.filtration_grid)
        if rng.random() < 0.3:
            bars.append(Bar(rng.choice(degrees), lo, POS_INF))
        else:
            bars.append(
                Bar(rng.choice(degrees), lo, lo + rng.choice(
                    cfg.filtration_grid))
            )
    return Barcode(bars)


def _trial_prop51(cfg, rng):
    fails = []
    BX = _random_barcode(cfg, rng, 5)
    # derive BY from BX by jitter so the distance is often finite
    bars = []
    for b in BX:
        if rng.random() < 0.3:
            continue
        eps = rng.choice([q for q in cfg.filtration_grid if q <= 1])
        sign = rng.choice([-1, 1])
        lo = b.lo + sign * eps
        hi = b.hi if b.hi == POS_INF else max(b.hi + sign * eps, lo)
        bars.append(Bar(b.degree, lo, hi))
    BY = Barcode(bars)
    X, Y = from_barcode(BX), from_barcode(BY)
    bound, D, tau, cap = prop51_pipeline(X, Y)
    if tau == POS_INF:
        return fails
    if bound > cap * tau:
        fails.append(("pipeline-budget", _payload(
            bound=bound, tau=tau, cap=cap)))
    ok, _, probs = validate_decomposition(D, X, EMPTY_FAMILY, Y)
    if not ok:
        fails.append(("pipeline-validates", _payload(problems=probs)))
    return fails


def _trial_bottleneck_oracle(cfg, rng):
    fails = []
    B1 = _random_barcode(cfg, rng, 4)
    B2 = _random_barcode(cfg, rng, 4)
    fast, _ = bottleneck(B1, B2)
    slow = bottleneck_bruteforce(B1, B2)
    if fast != slow:
        fails.append(("bottleneck-agreement", _payload(
            fast=fast, slow=slow, B1=list(B1), B2=list(B2))))
    if bottleneck(B1, B1)[0] != 0:
        fails.append(("bottleneck-reflexive", _payload(B1=list(B1))))
    return fails


def _trial_weight_axioms(cfg, rng):
    fails = []
    t1, w1 = gen_triangle(cfg, rng)
    t2, w2 = gen_triangle_over(t1.C, cfg, rng)
    for wf in (FLAT_WEIGHT, PERSISTENCE_WEIGHT, mixed_weight(1, 1)):
        ok, recs = check_triangular_weight(wf, [(t1, w1, t2, w2)])
        if not ok:
            fails.append((f"axioms-{wf.name}", _payload(records=recs)))
    # degenerate middle base: the simplified first output
    X0 = gen_complex(cfg, rng, max_generators=2)
    tri0, wit0 = eta_slot_triangle(X0, Fraction(1, 2))
    t2b, w2b = gen_triangle_over(tri0.C, cfg, rng)
    ok, recs = check_triangular_weight(
        PERSISTENCE_WEIGHT, [(tri0, wit0, t2b, w2b)]
    )
    if not ok:
        fails.append(("axioms-degenerate-base", _payload(records=recs)))
    return fails


def _trial_limit_examples(cfg, rng):
    fails = []
    grid = [q for q in cfg.filtration_grid if q > 0]
    r = rng.choice(grid)
    lo = rng.choice(cfg.filtration_grid)
    A = make_complex([("a", 0, lo)])
    TA = translate(A)
    Z = zero_complex()
    u = FilteredChainMap.zero(A, Z)
    rigid_C = shift_complex(TA, -r)
    w_rigid = FilteredChainMap.identity(TA).viewed(rigid_C, TA)
    val, _ = unstable_weight_upper(u, FilteredChainMap.zero(Z, rigid_C),
                                   w_rigid)
    sval, _ = stable_weight_upper(u, FilteredChainMap.zero(Z, rigid_C),
                                  w_rigid)
    if val != r or sval != r:
        fails.append(("rigid-example", _payload(
            r=fmt_scalar(r), unstable=val, stable=sval)))
    soft_C = shift_complex(TA, r)
    w_soft = FilteredChainMap.identity(TA).viewed(soft_C, TA)
    val2, _ = unstable_weight_upper(u, FilteredChainMap.zero(Z, soft_C),
                                    w_soft)
    sval2, _ = stable_weight_upper(u, FilteredChainMap.zero(Z, soft_C),
                                   w_soft)
    if val2 != r or sval2 != 0:
        fails.append(("soft-example", _payload(
            r=fmt_scalar(r), unstable=val2, stable=sval2)))
    return fails


SUITES = {
    "acyclic-equivalence": _trial_acyclic_equivalence,
    "cone-acyclic-sum": _trial_cone_acyclic_sum,
    "riso-compose": _trial_riso_compose,
    "inverse-2r": _trial_inverse_2r,
    "octahedron": _trial_octahedron,
    "rotation": _trial_rotation,
    "refinement": _trial_refinement,
    "sum-triangle": _trial_sum_triangle,
    "frag-sum": _trial_frag_sum,
    "prop51": _trial_prop51,
    "bottleneck-oracle": _trial_bottleneck_oracle,
    "weight-axioms": _trial_weight_axioms,
    "limit-examples": _trial_limit_examples,
}


def run_suite(name, cfg: GenConfig, trials: int) -> SuiteReport:
    """Run one named suite; failures are replayable from their offset."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    fn = SUITES[name]
    report = SuiteReport(name, trials)
    for offset in range(trials):
        rng = cfg.rng(offset)
        try:
            fails = fn(cfg, rng)
        except Exception as exc:  # noqa: BLE001 - counterexample capture
            fails = [("exception", f"{type(exc).__name__}: {exc}")]
        for claim, payload in fails:
            report.failures.append((offset, claim, payload))
    return report


def replay_trial(name, cfg: GenConfig, offset: int):
    """Re-run a single trial; returns its failure list."""
    return SUITES[name](cfg, cfg.rng(offset))
