"""fcplx benchmark: one seeded workload per process, closed loop.

    python3 perfbench/run.py --workload frag --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  One caller issues the next op only after the previous one
returns; nothing here starts a thread or a process.  Inputs are made
from `--seed` before the timed loop.

--trace 0 makes passes over the workload's inputs for `--seconds`, each
pass on another variant of every input (the same values in another
basis), and reports the end-to-end metrics of BENCHMARK.json.  Op and
set-up times are scaled to a nominal host speed by a reference loop
timed between ops (speedref.py).  --trace 1 makes one pass untraced and
one traced, reports the per-layer metrics and the tracing overhead, and
checks that both passes give the same value digest.

Human-readable lines come first; the last line of standard output is a
JSON object with keys correct, attempted, failed and metrics.  Exit
code 2, with no result line, if the checkout holds no fcplx source.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
# Variants made of every input, one set-up part each; setup_s counts
# the median part once per variant, so one slow part does not swing it.
# A run of the committed length makes 1 to 2 passes at the seed
# commit's speed, so a variant is timed twice only on a commit about
# twice as fast.
VARIANTS = 3
# Warm-up ops; setup_s counts the median.
WARMUP = 3
# Reference samples taken after set-up (see speedref.py).
SETUP_SAMPLES = 15


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _digest(lines):
    text = "\n".join(f"{i}\t{lines[i]}" for i in sorted(lines))
    return hashlib.sha256(text.encode()).hexdigest()[:16], len(lines)


class Pass:
    """Outcome of running ops over inputs: each input's latencies, digest
    lines and the failures found by each op's own checks."""

    def __init__(self):
        self.latencies = []
        self.by_input = {}  # input -> [(latency, gauge sample), ...]
        self.lines = {}
        self.failed = 0
        self.first_failure = None

    def record(self, idx, inp, out, err, check):
        if err is None:
            try:
                ok, line = check(inp, out)
            except Exception as exc:  # a malformed output fails the op
                ok, line = False, f"check raised {type(exc).__name__}"
        else:
            ok, line = False, f"raised {type(err).__name__}: {err}"
        if self.lines.setdefault(idx, line) != line:
            ok = False  # another variant of the input gave another value
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"input {idx}: {line}"


def run_ops(pool, passes, op, check, deadline=None, tracer=None,
            gauge=None):
    """Closed loop: pass p runs variant p % len(pool) of every input in
    order.  With a deadline, the loop stops at the first op to end
    after it, but not before one whole pass.  A gauge takes reference
    samples between ops.  Returns the Pass and the loop's wall time."""
    res = Pass()
    call = op if tracer is None else (lambda inp: tracer.run_op(op, inp))
    start = perf_counter()
    for p in passes:
        for idx, inp in enumerate(pool[p % len(pool)]):
            t = perf_counter()
            try:
                out, err = call(inp), None
            except Exception as exc:  # counted as a failed op
                out, err = None, exc
            lat = perf_counter() - t
            res.latencies.append(lat)
            res.record(idx, inp, out, err, check)
            k = None if gauge is None else gauge.after_op()
            res.by_input.setdefault(idx, []).append((lat, k))
            if p > 0 and deadline is not None and perf_counter() >= deadline:
                return res, perf_counter() - start
        if deadline is not None and perf_counter() >= deadline:
            break
    return res, perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pipeline", "frag", "barcodes", "check"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", type=int,
                    help="distinct inputs (default: the workload's own "
                         "count); fewer make a quick smoke run")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if args.inputs is not None and args.inputs < 2:
        return _fail("--inputs must be at least 2")

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "fcplx" / "__init__.py").is_file():
        return _fail(f"no fcplx source under {src}")
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    os.environ.pop("FCPLX_CACHE_DIR", None)  # `fcplx check` writes there
    import fcplx
    if Path(fcplx.__file__).resolve().parent != (src / "fcplx").resolve():
        return _fail(f"imported fcplx from {fcplx.__file__}, not {src}")
    import speedref
    import tracer as tracing
    import workloads
    import_s = perf_counter() - T_START

    make, op, check, n_inputs = workloads.WORKLOADS[args.workload]
    n_inputs = args.inputs or n_inputs
    # Reference samples taken while the inputs are made (outside the
    # timed parts) and right after set-up scale its time.
    setup_gauge = speedref.Gauge()
    pool, part_s = [], []
    for v in range(VARIANTS):
        part, part_t = [], 0.0
        for i in range(n_inputs):
            t = perf_counter()
            part.append(make(args.seed, i, v))
            part_t += perf_counter() - t
            setup_gauge.after_op()
        pool.append(part)
        part_s.append(part_t)
    # Warm-up ops run an extra variant of the first inputs: the cheap
    # shapes at the start of each cycle, in bases the timed loop never
    # sees.
    warm = [[make(args.seed, i, VARIANTS) for i in range(WARMUP)]]
    warm_pass, _ = run_ops(warm, range(1), op, check, gauge=setup_gauge)
    setup_wall_s = (import_s + VARIANTS * statistics.median(part_s)
                    + statistics.median(warm_pass.latencies))
    setup_gauge.samples += [speedref.sample()
                            for _ in range(SETUP_SAMPLES)]
    setup_scale = speedref.scale(setup_gauge.samples)
    setup_s = setup_wall_s * setup_scale

    print(f"workload {args.workload}, seed {args.seed}: closed loop, one "
          f"caller, no threads; {n_inputs} inputs in {VARIANTS} variants")
    if args.trace == 0:
        gauge = speedref.Gauge()
        res, loop_s = run_ops(pool, itertools.count(), op, check,
                              deadline=perf_counter() + args.seconds,
                              gauge=gauge)
        # Each op's time, scaled to the nominal host by the reference
        # samples around it, then averaged over the passes of its input.
        cost = sorted(statistics.fmean(lat * gauge.scale(k) for lat, k in x)
                      for x in res.by_input.values())
        p90 = statistics.quantiles(cost, n=10)[8]
        passes = [warm_pass, res]
        attempted = len(res.latencies) + WARMUP
        values = {
            "ops_per_s": len(cost) / sum(cost),
            "op_p50_ms": statistics.median(cost) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        beyond = sum(1 for x in cost if x > p90)
        notes = {"op_p90_ms": f"(n={len(cost)} inputs, {beyond} beyond it)"}
        metrics = spec["end_to_end"]
        n_ops = len(res.latencies)
        refs = gauge.samples
        scales = [gauge.scale(k) for k in range(len(refs))]
        print(f"{n_ops} timed ops in {loop_s:.3f} s wall "
              f"({n_ops / loop_s:.4g} ops/s unscaled), "
              f"{n_ops / len(cost):.2f} passes")
        print(f"host speed: {len(refs)} reference samples, median "
              f"{statistics.median(refs) * 1e3:.3f} ms against "
              f"{speedref.NOMINAL_S * 1e3:g} ms nominal; op scale "
              f"{min(scales):.3f} to {max(scales):.3f}")
        digest, covered = _digest(res.lines)
    else:
        plain, _ = run_ops(pool, range(1), op, check)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = run_ops(pool, range(1), op, check, tracer=tracer)
        finally:
            tracer.uninstall()
        plain_s = sum(plain.latencies)
        values = tracer.metrics()
        values["trace.untraced_op_total_s"] = plain_s
        values["trace.overhead_share"] = tracer.op_total_s / plain_s - 1
        values["trace.self_sum_share"] = (
            tracer.self_sum_s() / tracer.op_total_s)
        notes = {}
        metrics = spec["per_layer"]
        passes = [warm_pass, plain, traced]
        attempted = 2 * n_inputs + WARMUP
        digest, covered = _digest(traced.lines)
        plain_digest = _digest(plain.lines)
        print(f"{n_inputs} ops untraced in {plain_s:.3f} s, traced in "
              f"{tracer.op_total_s:.3f} s (overhead "
              f"{values['trace.overhead_share']:+.1%}); self times sum "
              f"to {tracer.self_sum_s():.6f} s; no layer has a queue, so "
              f"no waiting time is reported")
        print(f"untraced digest {plain_digest[0]} over {plain_digest[1]} "
              f"inputs")
        if tracer.outside_op:
            print(f"{tracer.outside_op} wrapped calls ran outside an op")
        out = ROOT / "perfbench" / "out" / (
            f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write_spans(out)
        print(f"{len(tracer.spans)} spans written to "
              f"{out.relative_to(ROOT)} ({tracer.spans_dropped} dropped "
              f"over the cap)")

    failed = sum(p.failed for p in passes)
    correct = failed == 0
    if args.trace == 1 and (plain_digest != (digest, covered)
                            or tracer.outside_op):
        correct = False
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        return _fail(f"metrics not computed: {missing}")
    for m in metrics:
        k = m["name"]
        print(f"{k:48s} {values[k]:.6g} {m['unit']} "
              f"{notes.get(k, '')}".rstrip())
    print(f"{'fail_share':48s} {failed / attempted:.6g} share "
          f"({failed} of {attempted} ops, warm-up included)")
    print(f"setup: {setup_wall_s:.3f} s wall, scale {setup_scale:.3f}; "
          f"import {import_s:.3f} s, inputs in {VARIANTS} parts "
          f"{', '.join(f'{x:.3f}' for x in part_s)} s, warm-up "
          f"{', '.join(f'{x:.3f}' for x in warm_pass.latencies)} s")
    print(f"digest {digest} over {covered} inputs")
    if not correct:
        why = [p.first_failure for p in passes if p.first_failure]
        why.append("traced and untraced digests differ")
        print(f"INCORRECT: {why[0]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
