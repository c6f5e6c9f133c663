"""Every name the benchmark's tracer looks up exists in fcplx.

`perfbench/tracer.py` wraps each layer's public functions and four
named methods, then reads its metrics by name, so a refactor that moves
one of those names would fail only in a `--trace 1` run.  This loads
the tracer by path, unchanged, and fails at once instead."""

import importlib
import importlib.util
from pathlib import Path

from fcplx.barcodes import barcode
from fcplx.complexes import make_complex

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_name_the_tracer_reads_is_wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tr = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tr)
    for layer in tr.LAYERS:
        importlib.import_module(f"fcplx.{layer}")
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
