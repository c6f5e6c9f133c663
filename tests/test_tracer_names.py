"""Every name the benchmark's tracer looks up exists in fcplx, and every
work count it reads off a call's arguments or result can be read.

`perfbench/tracer.py` wraps each layer's public functions and four
named methods, then reads its metrics by name and its work counts
through hooks on the wrapped calls (`WORK`), so a refactor that moves
one of those names or changes what a hook reads would fail only in a
`--trace 1` run.  This loads the tracer by path, unchanged, and fails
at once instead."""

import importlib
import importlib.util
from pathlib import Path

from fcplx import barcodes, fragmentation
from fcplx.barcodes import barcode
from fcplx.complexes import make_complex

from reference_fill import reference_fill_map

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tr = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tr)
    for layer in tr.LAYERS:
        importlib.import_module(f"fcplx.{layer}")
    return tr


def test_every_name_the_tracer_reads_is_wrapped():
    tr = _load_tracer()
    tracer = tr.Tracer()
    # _targets resolves each METHODS entry and raises on a missing one
    wrapped = {name for name, *_ in tracer._targets()}
    named = set(tr.WORK) | set(tr.WITNESS_BUILDERS) | set(tr.VERIFY_GENERATORS)
    assert named <= wrapped, sorted(named - wrapped)
    tracer.install()
    try:
        tracer.run_op(barcode, make_complex([("y", 0, 3), ("x", 1, 1)],
                                            {"y": ["x"]}))
    finally:
        tracer.uninstall()
    assert tracer.metrics()["barcodes.canonical_form.calls"] == 1


# The ops call through the module attributes, which the tracer replaces,
# as the benchmark's workloads do.


def _pipeline(inp):
    X, Y = inp
    D = fragmentation.prop51_pipeline(X, Y)[1]
    return fragmentation.validate_decomposition(
        D, X, fragmentation.EMPTY_FAMILY, Y)


def _barcodes(inp):
    (b1, w1), (b2, w2) = map(barcodes.canonical_form, inp)
    return w1.check() and w2.check(), barcodes.bottleneck(b1, b2)


def _fill(inp):
    X, _ = inp
    return reference_fill_map(X, X)


def test_every_work_count_hook_reads_its_call():
    """Ops under the installed tracer that call every function of
    `WORK`: a pipeline build and its validation, certified canonical
    forms with a bottleneck match, and a general hom-complex solve."""
    tr = _load_tracer()
    X = make_complex([("a", 1, 0), ("y", 0, 3), ("x", 1, 1)], {"y": ["x"]})
    Y = make_complex([("a", 1, 0), ("y", 0, 2), ("x", 1, 1)], {"y": ["x"]})
    tracer = tr.Tracer()
    tracer.install()
    try:
        for op in (_pipeline, _barcodes, _fill):
            tracer.run_op(op, (X, Y))
    finally:
        tracer.uninstall()
    for name, hooks in tr.WORK.items():
        rec = tracer.records[name]
        assert rec.calls and not rec.raised, name
        assert sorted(rec.counts) == sorted(c for c, _ in hooks), name
