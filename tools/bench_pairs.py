"""Record a parent/change benchmark comparison as BENCH_<workload>.json.

    git worktree add --detach ../parent <parent sha>
    python3 tools/bench_pairs.py --parent ../parent --workload pipeline \\
        --seeds 51-60

Make the parent checkout with `git worktree add` as above: the record's
`parent_commit` is that checkout's HEAD.  A copy without git metadata
(a `git archive` export) records it as "unknown".

Runs `perfbench/run.py --workload W --seed N --seconds S`, S the
`run_seconds` of BENCHMARK.json, once in the parent checkout and once
in this one for every seed, alternating which side runs first (odd
seeds run the parent first), one run at a time.
Each run's last output line is its JSON result, and its line
`digest <hex> over <n> inputs` the digest of the values it computed.
The record keeps every run with its digest and, per end-to-end metric
of BENCHMARK.json, the median and quartiles of each side (the median
alone below two seeds) and the number of seeds on which the change is
better.  At the end it prints one line per end-to-end metric: the
parent's median, the change's, the change's wins, and WORSE when the
change's median is worse than the parent's by more than the metric's
`bound`.  Exits 1 when any run fails or reports incorrect results, or
when the two sides' digests differ on a seed (the seed is named), and
2, before running anything, when the two checkouts' BENCHMARK.json or
the files under its `paths` differ: both sides must run the same
benchmark code.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _digest(stdout):
    """The `<hex> over <n> inputs` of a run's digest line, or None."""
    found = re.findall(r"^digest (\S+ over \d+ inputs)$", stdout, re.M)
    return found[-1] if found else None


def _run(checkout, workload, seed, seconds):
    """A run's JSON result and its value digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited "
                         f"{out.returncode}\n{out.stderr}")
    return (json.loads(out.stdout.strip().splitlines()[-1]),
            _digest(out.stdout))


def _commit(checkout):
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _bench_files(checkout, paths):
    """{name: bytes} of BENCHMARK.json and every file under `paths`."""
    files = {}
    for p in ["BENCHMARK.json", *paths]:
        base = checkout / p
        for f in [base] if base.is_file() else base.rglob("*"):
            if f.is_file():
                files[f.relative_to(checkout).as_posix()] = f
    return {name: f.read_bytes() for name, f in files.items()}


def _benchmark_differences(parent, paths):
    """Names of the benchmark files that differ between the parent
    checkout and this one, leaving out what git ignores here (byte
    code, span traces)."""
    ours, theirs = _bench_files(ROOT, paths), _bench_files(parent, paths)
    names = sorted(n for n in ours.keys() | theirs.keys()
                   if ours.get(n) != theirs.get(n))
    ignored = subprocess.run(["git", "check-ignore", "--stdin"], cwd=ROOT,
                             input="\n".join(names), capture_output=True,
                             text=True).stdout.splitlines()
    return [n for n in names if n not in ignored]


def _stats(values):
    if len(values) < 2:
        return {"median": round(statistics.median(values), 4)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _summary(runs, metrics):
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    out = {}
    for m in metrics:
        sides = {side: [by_seed[s][side]["metrics"][m["name"]]["value"]
                        for s in sorted(by_seed)]
                 for side in ("parent", "change")}
        higher = m["better"] == "higher"
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[m["name"]] = {
            "parent": _stats(sides["parent"]),
            "change": _stats(sides["change"]),
            "change_wins": f"{wins}/{len(by_seed)}",
            "unit": m["unit"],
        }
    return out


def _report(summary, metrics):
    """One line per end-to-end metric: parent median -> change median,
    the change's wins, and WORSE past the metric's relative bound."""
    lines = []
    for m in metrics:
        s = summary[m["name"]]
        p, c = s["parent"]["median"], s["change"]["median"]
        sign = 1 if m["better"] == "higher" else -1
        worse = sign * (p - c) > m["bound"] * p
        lines.append(f"{m['name']}: {p:g} -> {c:g} {m['unit']}, change wins "
                     f"{s['change_wins']}" + ("  WORSE" if worse else ""))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="N or N-M")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent = Path(args.parent).resolve()
    differ = _benchmark_differences(parent, bench["paths"])
    if differ:
        print("the benchmark differs between the checkouts: "
              + ", ".join(differ), file=sys.stderr)
        return 2
    runs = []
    for seed in _seeds(args.seeds):
        order = [("parent", parent), ("change", ROOT)]
        if seed % 2 == 0:
            order.reverse()
        for k, (side, checkout) in enumerate(order):
            result, digest = _run(checkout, args.workload, seed, seconds)
            runs.append({"seed": seed, "side": side, "ran_first": k == 0,
                         "digest": digest, "result": result})
            print(f"seed {seed} {side}: ops_per_s "
                  f"{result['metrics']['ops_per_s']['value']:.2f}",
                  file=sys.stderr)
    record = {
        "workload": args.workload,
        "command": ("python3 perfbench/run.py --workload "
                    f"{args.workload} --seed N --seconds {seconds:g}"),
        "python": platform.python_version(),
        "host": f"{os.cpu_count()} CPUs; one run at a time",
        "parent_commit": _commit(parent),
        "change_commit": "the commit that adds this record",
        "pairs": (f"seeds {args.seeds}, one parent and one change run each; "
                  "odd seeds ran the parent first, even seeds the change "
                  "first"),
        "summary": _summary(runs, bench["end_to_end"]),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in _report(record["summary"], bench["end_to_end"]):
        print(line)
    bad = [r for r in runs if not r["result"]["correct"]
           or r["result"]["failed"]]
    digests = {}
    for r in runs:
        digests.setdefault(r["seed"], {})[r["side"]] = r["digest"]
    for seed, d in digests.items():
        if d["parent"] != d["change"]:
            print(f"seed {seed}: the digests differ, parent {d['parent']}, "
                  f"change {d['change']}", file=sys.stderr)
            bad.append(seed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
