"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of each fcplx layer
module, and four named methods, with a wrapper that records a span
(id, name, start, end, parent id, op id).  The function object is
replaced everywhere a `fcplx.*` module holds it, because modules import
each other's functions by name (`from .barcodes import canonical_form`).
`uninstall()` puts the originals back.

Self time of a span is its duration minus the durations of its wrapped
child spans.  Time in unwrapped code (helpers, `rationals`, Python
itself) goes to the nearest wrapped ancestor, and the root `bench.op`
span that wraps each op takes whatever the library does not, so the
self times of one traced pass add up to its total op time.  No layer
has a queue, so no span waits; the trace reports no waiting time.

The tracer's own bookkeeping runs after a span's end is read and so is
charged to the caller's span; its total cost shows as the traced pass's
overhead against an untraced pass over the same ops.
"""

import gzip
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("f2linalg", "complexes", "barcodes", "homsolve", "tpc",
          "fragmentation", "verify", "cli")
# Methods whose cost the per-layer metrics name; module-level public
# functions are found by inspection.
METHODS = (
    ("complexes", "HomComplex", "__init__"),
    ("complexes", "FilteredComplex", "validate"),
    ("barcodes", "CanonicalFormWitness", "check"),
    ("homsolve", "MapSystem", "solve"),
)
# Witness constructors counted by tpc.witnesses_built.
WITNESS_BUILDERS = ("tpc.triangle_from_morphism", "tpc.sum_triangles",
                    "tpc.octahedron", "tpc.rotate", "tpc.rotate_negative",
                    "tpc.relax_weight")
VERIFY_GENERATORS = ("verify.gen_complex", "verify.gen_acyclic",
                     "verify.gen_r_iso", "verify.gen_triangle",
                     "verify.gen_triangle_over",
                     "verify.random_basis_change",
                     "verify.random_conjugate")
MAX_SPANS = 100_000


def _cols(args, result):
    return args[0].ncols


def _failed(args, result):
    return 0 if result[0] else 1


# Work counts read from the arguments or the result of a call that
# returned: name -> ((count, hook(args, result)), ...).
WORK = {
    "f2linalg.column_reduce": (("cols", _cols),),
    "f2linalg.solve_in_span": (("cols", _cols),),
    "f2linalg.invert": (("cols", _cols),),
    "complexes.HomComplex": (("gens", lambda a, r: a[0].complex.n),),
    "barcodes.canonical_form": (("gens", lambda a, r: a[0].n),),
    "barcodes.bottleneck": (("bars", lambda a, r: len(a[0]) + len(a[1])),),
    "homsolve.MapSystem.solve": (
        ("unknowns", lambda a, r: sum(len(u[3]) for u in a[0].unknowns)),
        ("rows", lambda a, r: sum(h.complex.n for h, _, _ in a[0].equations)),
    ),
    "tpc.verify_triangle": (("failed", _failed),),
    "fragmentation.validate_decomposition": (("failed", _failed),),
}


class Record:
    """Totals of one wrapped function over a traced pass."""

    __slots__ = ("calls", "self_s", "total_s", "raised", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.raised = 0
        self.counts = {}


class Tracer:
    def __init__(self):
        self.records = {}
        self.spans = []          # (id, name, start, end, parent, op)
        self.spans_dropped = 0
        self.outside_op = 0      # wrapped calls made outside any op
        self.op_id = None
        self.ops = 0
        self.seen_complexes = set()
        self.cf_repeats = 0
        self.delta_upper_depth = 0
        self.builds_in_delta_upper = 0
        self._stack = [[None, 0.0]]   # [span id, child time] per frame
        self._next_id = 0
        self._patched = []       # (owner, attribute, original)
        self._root = self._wrap("bench.op", lambda op, inp: op(inp))

    # -- installation --------------------------------------------------

    def _targets(self):
        """(name, owner, attribute, function) for everything wrapped."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"fcplx.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"fcplx.{layer}"], cls_name)
            name = f"{layer}.{cls_name}"
            if meth != "__init__":
                name += f".{meth}"
            out.append((name, cls, meth, vars(cls)[meth]))
        return out

    def install(self):
        """Wrap every target; returns {original: wrapper}."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, fn in self._targets():
            wrappers[fn] = self._wrap(name, fn)
            setattr(owner, attr, wrappers[fn])
            self._patched.append((owner, attr, fn))
        # Replace every alias held by any fcplx module, the package too.
        for modname, mod in list(sys.modules.items()):
            if modname != "fcplx" and not modname.startswith("fcplx."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        return wrappers

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, name, fn):
        rec = self.records[name] = Record()
        work = WORK.get(name, ())
        stack = self._stack
        is_cf = name == "barcodes.canonical_form"
        is_du = name == "fragmentation.delta_upper"
        is_zas = name == "fragmentation.zero_apex_step"
        tracer = self

        def wrapper(*args, **kwargs):
            if is_du:
                tracer.delta_upper_depth += 1
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            result = returned = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            except BaseException:
                rec.raised += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent = stack[-1]
                parent[1] += dur
                rec.calls += 1
                rec.self_s += dur - frame[1]
                rec.total_s += dur
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (sid, name, start, end, parent[0], tracer.op_id))
                else:
                    tracer.spans_dropped += 1
                if tracer.op_id is None:
                    tracer.outside_op += 1
                if is_du:
                    tracer.delta_upper_depth -= 1
                elif is_zas and tracer.delta_upper_depth:
                    tracer.builds_in_delta_upper += 1
                elif is_cf:
                    if args[0] in tracer.seen_complexes:
                        tracer.cf_repeats += 1
                    else:
                        tracer.seen_complexes.add(args[0])
                if returned:
                    for count, hook in work:
                        rec.counts[count] = (rec.counts.get(count, 0)
                                             + hook(args, result))

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op, inp):
        """One op under the root span `bench.op`; returns its output."""
        self.op_id = self.ops
        try:
            return self._root(op, inp)
        finally:
            self.op_id = None
            self.ops += 1

    # -- results -------------------------------------------------------

    @property
    def op_total_s(self):
        return self.records["bench.op"].total_s

    def self_sum_s(self):
        return sum(r.self_s for r in self.records.values())

    def metrics(self):
        """Per-layer metric values keyed by name (see BENCHMARK.json).

        Self time is given as `self_share`, a share of the traced op
        time: a layer a workload never calls reads 0 rather than a fixed
        0 s, and shares stay comparable when the machine's speed drifts.
        Seconds are share times `bench.op_total_s`."""
        R = self.records
        total = self.op_total_s

        def share(names):
            return sum(R[n].self_s for n in names) / total

        m = {}
        for layer in LAYERS:
            mine = [n for n in R if n.startswith(layer + ".")]
            m[f"{layer}.calls"] = sum(R[n].calls for n in mine)
            m[f"{layer}.self_share"] = share(mine)
            m[f"{layer}.raised"] = sum(R[n].raised for n in mine)
        for name, rec in R.items():
            m[f"{name}.calls"] = rec.calls
            m[f"{name}.self_share"] = rec.self_s / total
            for count, _ in WORK.get(name, ()):
                m[f"{name}.{count}"] = rec.counts.get(count, 0)
        cf, du = R["barcodes.canonical_form"], R["fragmentation.delta_upper"]
        m["barcodes.canonical_form.repeat_share"] = (
            self.cf_repeats / cf.calls if cf.calls else 0.0)
        m["fragmentation.delta_upper.builds_per_call"] = (
            self.builds_in_delta_upper / du.calls if du.calls else 0.0)
        m["tpc.witnesses_built"] = sum(R[n].calls for n in WITNESS_BUILDERS)
        m["verify.gen.calls"] = sum(R[n].calls for n in VERIFY_GENERATORS)
        m["verify.gen.self_share"] = share(VERIFY_GENERATORS)
        m["bench.op_total_s"] = total
        m["trace.spans"] = len(self.spans) + self.spans_dropped
        return m

    def write_spans(self, path):
        """Spans as gzipped JSON lines: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
