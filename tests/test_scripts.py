"""scripts/bench_pairs.py on canned runs and on a throwaway one-commit repository."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _bench_run(pair, side, wall, rss, failed=0):
    result = {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}
    return {"workload": "w", "pair": pair, "seed": 100 + pair, "side": side,
            "exit": 0, "result": result, "info": {}}


def test_bench_pairs_summary_on_canned_lines():
    bench = _load_script("bench_pairs")
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]}
    walls = [(1.0, 0.5), (1.2, 0.6), (0.8, 0.9), (1.1, 1.1)]  # (parent, change)
    runs = []
    for pair, (parent, change) in enumerate(walls):
        runs.append(_bench_run(pair, "parent", parent, 100.0))
        runs.append(_bench_run(pair, "change", change, 100.0 + 20.0 * pair, failed=pair // 3))
    runs.append(dict(_bench_run(4, "parent", 0.1, 1.0), result=None, exit=1))
    runs.append(_bench_run(4, "change", 0.1, 1.0))  # its parent failed: not a pair

    summary = bench.summarize(runs, spec)["w"]
    assert summary["pairs"] == 4
    assert summary["failed"] == {"parent": [0, 0, 0, 0, None], "change": [0, 0, 0, 1, 0]}
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"]["median"] == 1.05 and wall["change"]["median"] == 0.75
    assert np.isclose(wall["parent"]["q1"], 0.95) and np.isclose(wall["parent"]["q3"], 1.125)
    assert np.isclose(wall["parent"]["iqr"], 0.175)
    assert wall["change_wins"] == 2  # pair 2 lost, pair 3 tied
    assert np.isclose(wall["median_change_rel"], 0.75 / 1.05 - 1.0)
    assert wall["within_bound"] and wall["gain_beyond_parent_iqr"]
    # per-pair ratios 0.5, 0.5, 1.125 and 1; two wins, one loss, one tie
    assert wall["median_pair_ratio"] == 0.75 and wall["sign_test_p"] == 1.0
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and np.isclose(rss["median_change_rel"], 0.3)
    assert not rss["within_bound"] and not rss["gain_beyond_parent_iqr"]
    # ratios 1, 1.2, 1.4 and 1.6; three losses of three that differ
    assert np.isclose(rss["median_pair_ratio"], 1.3) and rss["sign_test_p"] == 0.25


def test_bench_pairs_sign_test_is_exact_and_two_sided():
    bench = _load_script("bench_pairs")
    assert bench.sign_test_p(10, 0) == bench.sign_test_p(0, 10) == 2 / 2**10
    assert bench.sign_test_p(8, 2) == bench.sign_test_p(2, 8) == 2 * (1 + 10 + 45) / 2**10
    assert bench.sign_test_p(5, 5) == bench.sign_test_p(0, 0) == 1.0
    # five pairs cannot resolve a change at the 5% level, however they fall
    assert bench.sign_test_p(5, 0) == 0.0625


def _bench_repo(tmp_path, monkeypatch):
    """A one-commit repository with a benchmark/ directory and BENCHMARK.json,
    installed as the root that bench_pairs compares against."""
    repo = tmp_path / "repo"
    (repo / "benchmark").mkdir(parents=True)
    (repo / "benchmark" / "run.py").write_text("")
    spec = {"run_seconds": 7, "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run([*git, *args], cwd=repo, check=True, capture_output=True)
    bench = _load_script("bench_pairs")
    monkeypatch.setattr(bench, "ROOT", repo)
    return bench, repo


def test_bench_pairs_refuses_changed_benchmark_files(tmp_path, monkeypatch):
    bench, repo = _bench_repo(tmp_path, monkeypatch)
    monkeypatch.setattr(bench, "run_side", lambda *a: pytest.fail("ran a benchmark"))
    out = tmp_path / "BENCH.json"
    argv = ["--workload", "w", "--pairs", "1", "--seed", "1", "--out", str(out)]
    (repo / "benchmark" / "extra.py").write_text("")  # untracked
    assert bench.main(argv) == 2
    (repo / "benchmark" / "extra.py").unlink()
    (repo / "BENCHMARK.json").write_text("{}")  # tracked, modified
    assert bench.main(argv) == 2
    assert not out.exists()


def test_bench_pairs_appends_at_the_benchmark_run_length(tmp_path, monkeypatch):
    bench, repo = _bench_repo(tmp_path, monkeypatch)
    calls = []

    def run_side(tree, workload, seed, seconds):
        change = Path(tree).name == "change"
        calls.append((change, seed, seconds))
        run = _bench_run(0, "parent", 1.0 if change else 2.0, 1.0)
        return 0, {}, run["result"]

    monkeypatch.setattr(bench, "run_side", run_side)
    out = tmp_path / "BENCH.json"
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                         capture_output=True, text=True).stdout.strip()
    out.write_text(json.dumps({"parent": "0" * 40, "runs": []}))
    argv = ["--workload", "w", "--pairs", "2", "--seed", "10", "--out", str(out)]
    assert bench.main(argv) == 2  # runs against another parent

    out.write_text(json.dumps({"note": "kept", "parent": sha, "runs": []}))
    assert bench.main(argv) == 0
    assert bench.main([*argv[:-3], "20", "--out", str(out)]) == 0
    assert calls == [(False, 10, 7), (True, 10, 7), (True, 11, 7), (False, 11, 7),
                     (False, 20, 7), (True, 20, 7), (True, 21, 7), (False, 21, 7)]
    record = json.loads(out.read_text())
    assert record["note"] == "kept" and record["parent"] == sha
    assert [r["pair"] for r in record["runs"]] == [0, 0, 1, 1, 2, 2, 3, 3]
    wall = record["summary"]["w"]["metrics"]["wall_s"]
    assert record["summary"]["w"]["pairs"] == 4 and wall["change_wins"] == 4


def test_bench_pairs_runs_both_sides_from_exports_of_one_path_length(tmp_path, monkeypatch):
    bench, repo = _bench_repo(tmp_path, monkeypatch)
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "src").mkdir()
    (repo / "src" / "added.py").write_text("ADDED = 1\n")  # untracked
    (repo / "src" / "run.log").write_text("")  # ignored
    trees = {}

    def run_side(tree, workload, seed, seconds):
        tree = Path(tree)
        trees[tree.name] = (tree, sorted(str(p.relative_to(tree)) for p in tree.rglob("*")
                                         if p.is_file()))
        return 0, {}, _bench_run(0, "parent", 1.0, 1.0)["result"]

    monkeypatch.setattr(bench, "run_side", run_side)
    argv = ["--workload", "w", "--pairs", "1", "--seed", "1",
            "--out", str(tmp_path / "BENCH.json")]
    assert bench.main(argv) == 0
    (parent, parent_files), (change, change_files) = trees["parent"], trees["change"]
    assert parent != change and len(str(parent)) == len(str(change))
    assert repo not in (parent, change) and parent.parent == change.parent
    assert parent_files == ["BENCHMARK.json", "benchmark/run.py"]
    assert change_files == [".gitignore", "BENCHMARK.json", "benchmark/run.py", "src/added.py"]
