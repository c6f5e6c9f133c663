"""`tools/bench_pairs.py` records one seed as well as ten, refuses to
compare checkouts whose benchmark code differs, reads the parent's
commit off a git worktree, ends with one line per end-to-end metric
that says WORSE past the metric's bound, and fails a seed on which the
two sides' value digests differ.  The runs themselves are
stubbed: each test builds two small checkouts and counts the runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
BENCH = {
    "paths": ["perfbench"],
    "run_seconds": 1,
    "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher",
                    "bound": 0.25}],
}


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def tool(tmp_path, monkeypatch):
    mod = _load()
    change, parent = tmp_path / "change", tmp_path / "parent"
    for d in (change, parent):
        (d / "perfbench").mkdir(parents=True)
        (d / "BENCHMARK.json").write_text(json.dumps(BENCH))
        (d / "perfbench" / "run.py").write_text("# the benchmark\n")
    (change / ".gitignore").write_text("__pycache__/\n")
    subprocess.run(["git", "init", "-q"], cwd=change, check=True)
    runs = []
    rate = {change: 2, parent: 1}
    digest = {change: {}, parent: {}}

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout, seed))
        value = rate[checkout] + seed / 100
        return ({"correct": True, "failed": 0,
                 "metrics": {"ops_per_s": {"value": value}}},
                digest[checkout].get(seed, f"{seed:016x} over 126 inputs"))

    monkeypatch.setattr(mod, "ROOT", change)
    monkeypatch.setattr(mod, "_run", fake_run)
    monkeypatch.setattr(mod, "_commit", lambda checkout: "0" * 40)

    def main(seeds):
        return mod.main(["--parent", str(parent), "--workload", "pipeline",
                         "--seeds", seeds])

    main.rate = rate  # each side's ops_per_s before the seed's share
    main.digest = digest  # {seed: digest line} per side, when not the usual
    return main, change, parent, runs


def test_one_seed_records_the_medians_alone(tool):
    main, change, _, runs = tool
    assert main("51") == 0
    assert len(runs) == 2
    summary = json.loads((change / "BENCH_pipeline.json").read_text())[
        "summary"]["ops_per_s"]
    assert summary["parent"] == {"median": 1.51}
    assert summary["change"] == {"median": 2.51}
    assert summary["change_wins"] == "1/1"


def test_two_seeds_record_quartiles(tool):
    main, change, _, _ = tool
    assert main("51-52") == 0
    summary = json.loads((change / "BENCH_pipeline.json").read_text())[
        "summary"]["ops_per_s"]
    assert summary["parent"] == {"median": 1.515, "q1": 1.5125, "q3": 1.5175}


@pytest.mark.parametrize("change_parent", [
    lambda p: (p / "perfbench" / "run.py").write_text("# another\n"),
    lambda p: (p / "perfbench" / "extra.py").write_text(""),
    lambda p: (p / "perfbench" / "run.py").unlink(),
    lambda p: (p / "BENCHMARK.json").write_text(
        json.dumps({**BENCH, "run_seconds": 2})),
    lambda p: (p / "BENCHMARK.json").unlink(),
])
def test_different_benchmark_code_exits_2_before_any_run(tool,
                                                         change_parent):
    main, change, parent, runs = tool
    change_parent(parent)
    assert main("51-60") == 2
    assert runs == []
    assert not (change / "BENCH_pipeline.json").exists()


def test_files_git_ignores_may_differ(tool):
    main, _, parent, runs = tool
    cache = parent / "perfbench" / "__pycache__"
    cache.mkdir()
    (cache / "run.cpython-311.pyc").write_bytes(b"\0")
    assert main("51") == 0
    assert len(runs) == 2


def test_the_last_lines_give_each_metric_and_flag_a_worse_change(tool,
                                                                 capsys):
    main, change, parent, _ = tool
    assert main("51-52") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "ops_per_s: 1.515 -> 2.515 1/s, change wins 2/2"
    # 25 % below the parent's 1.515 is 1.136: 1.2 is within the bound,
    # 1.1 is past it; the exit code does not change
    for rate, tail in ((1.2 - 0.515, ""), (1.1 - 0.515, "  WORSE")):
        main.rate[change] = rate
        assert main("51-52") == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.endswith(f"change wins 0/2{tail}"), line


def test_a_seed_whose_digests_differ_fails_the_comparison(tool, capsys):
    main, change, parent, runs = tool
    assert main("51-53") == 0
    main.digest[parent][52] = "00000000000000ff over 126 inputs"
    assert main("51-53") == 1
    err = capsys.readouterr().err
    assert ("seed 52: the digests differ, parent 00000000000000ff over 126 "
            "inputs, change 0000000000000034 over 126 inputs") in err
    assert err.count("the digests differ") == 1
    record = json.loads((change / "BENCH_pipeline.json").read_text())
    assert [(r["seed"], r["side"], r["digest"])
            for r in record["runs"][2:4]] == [
        (52, "change", "0000000000000034 over 126 inputs"),
        (52, "parent", "00000000000000ff over 126 inputs")]
    assert len(runs) == 12


def test_the_digest_is_read_off_the_last_digest_line():
    out = ("untraced digest 1111111111111111 over 2 inputs\n"
           "digest 510607105eaf7cdf over 126 inputs\n{}\n")
    assert _load()._digest(out) == "510607105eaf7cdf over 126 inputs"
    assert _load()._digest("{}\n") is None


def test_lower_is_better_metrics_are_worse_when_they_grow():
    summary = {"op_p50_ms": {"parent": {"median": 10.0},
                             "change": {"median": 12.6},
                             "change_wins": "0/1"},
               "peak_rss_mb": {"parent": {"median": 30.0},
                               "change": {"median": 32.9},
                               "change_wins": "0/1"}}
    metrics = [{"name": "op_p50_ms", "unit": "ms", "better": "lower",
                "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
                "bound": 0.1}]
    assert _load()._report(summary, metrics) == [
        "op_p50_ms: 10 -> 12.6 ms, change wins 0/1  WORSE",
        "peak_rss_mb: 30 -> 32.9 MB, change wins 0/1",
    ]


def test_commit_is_a_worktree_head_and_unknown_without_git(tmp_path,
                                                           monkeypatch):
    """A parent made by `git worktree add --detach` records its HEAD; a
    copy without git metadata (a `git archive` export) records
    "unknown"."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    repo, parent, export = (tmp_path / n for n in ("repo", "parent",
                                                    "export"))
    repo.mkdir()
    export.mkdir()
    (repo / "f.txt").write_text("one\n")

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=n", "-c", "user.email=n@example.org",
             "-c", "commit.gpgsign=false", *args],
            cwd=repo, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    sha = git("rev-parse", "HEAD").strip()
    git("worktree", "add", "--detach", str(parent), sha)
    (repo / "f.txt").write_text("two\n")
    git("commit", "-q", "-am", "two")
    mod = _load()
    assert mod._commit(parent) == sha != mod._commit(repo)
    assert mod._commit(export) == "unknown"
