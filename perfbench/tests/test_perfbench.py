"""Tests of the benchmark itself.  Run with:

    python3 -m pytest -q perfbench/tests
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer as tracing

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# Enough inputs for one whole cycle of every workload's input shapes.
QUICK_INPUTS = {"pipeline": 13, "frag": 32, "barcodes": 18, "check": 13}


def _run(workload, trace, seconds="0.5", seed="7", cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", str(trace),
         "--inputs", str(QUICK_INPUTS[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_of_every_workload(workload):
    lines, res = _result(_run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert any(line.startswith("fail_share") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_equals_untraced(workload):
    lines, res = _result(_run(workload, 1))
    assert res["correct"] is True and res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    untraced = next(ln for ln in lines if ln.startswith("untraced digest"))
    traced = next(ln for ln in lines if ln.startswith("digest "))
    assert untraced.split()[2:] == traced.split()[1:]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    # Self times partition the traced op time: nothing counted twice.
    assert metrics["trace.self_sum_share"] == pytest.approx(1, abs=1e-9)
    assert metrics["bench.op.calls"] >= 1


def test_digest_does_not_depend_on_run_length():
    # A run makes at least one whole pass over its inputs; the longer
    # run also times other variants of them, which must give the same
    # values.
    short = _result(_run("pipeline", 0, seconds="0.1"))[0]
    longer = _result(_run("pipeline", 0, seconds="4"))[0]
    pick = [ln for ln in short if ln.startswith("digest ")]
    assert pick == [ln for ln in longer if ln.startswith("digest ")]
    assert pick[0].endswith("over 13 inputs")
    passes = next(ln for ln in longer if "passes" in ln)
    assert float(passes.split()[-2]) > 1


def test_tracer_replaces_every_alias():
    import fcplx  # noqa: F401 - loads every fcplx module
    import workloads  # noqa: F401 - the benchmark's own imports too

    tr = tracing.Tracer()
    wrappers = tr.install()
    try:
        originals = set(wrappers)
        assert len(originals) > 50
        for name, mod in list(sys.modules.items()):
            if name != "fcplx" and not name.startswith("fcplx."):
                continue
            for attr, obj in vars(mod).items():
                assert not (inspect.isfunction(obj) and obj in originals), (
                    f"{name}.{attr} still holds the unwrapped function")
        from fcplx import barcodes, complexes, homsolve
        for cls, meth in ((complexes.HomComplex, "__init__"),
                          (complexes.FilteredComplex, "validate"),
                          (barcodes.CanonicalFormWitness, "check"),
                          (homsolve.MapSystem, "solve")):
            assert vars(cls)[meth] not in originals
    finally:
        tr.uninstall()
    from fcplx import barcodes
    assert barcodes.canonical_form in originals


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("pipeline", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
