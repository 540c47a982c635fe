#!/usr/bin/env python3
"""Benchmark HEAD against the working tree in alternating pairs.

Both sides run from exports in one temporary directory (``TMPDIR``
decides where): HEAD's committed files, by ``git archive``, in
``parent/``, and the working tree's tracked files as they stand plus its
untracked files that are not ignored in ``change/``. The two paths have
one length, since peak RSS moves by about 1 MB with the length of the
tree's path on identical code. ``benchmark/run.py`` runs in both with the
same arguments, for the ``run_seconds`` that BENCHMARK.json sets. The
i-th pair of a call uses seed ``--seed + i`` on both sides; even pairs run
HEAD first, odd pairs the working tree first. ``--out`` receives every
raw result and info line and, per workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the number of pairs
the change won (ties count for neither), the median of the per-pair
ratios change / parent, and the exact two-sided sign-test p-value of the
wins among the pairs that differ: how well the pairs resolve the change
(ten pairs all won give 0.002, eight of ten 0.11). When ``--out`` already holds
runs against the same HEAD, the new runs are added to them, the summary
covers all of them and the record's other keys are kept.

    python3 scripts/bench_pairs.py --workload campbell-so3 \\
        --pairs 10 --seed 4100 --out BENCH_4.json

Exits 2 when benchmark/ or BENCHMARK.json in the working tree differ from
HEAD, untracked files included: a comparison is only fair with identical
benchmark code.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILES = ("benchmark", "BENCHMARK.json")
SIDES = ("parent", "change")


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_tree(rev, dest):
    """The committed files of ``rev``, unpacked into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest):
    """The working tree's tracked files as they stand and its untracked
    files that are not ignored, copied into ``dest``."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # not a tracked file deleted in the working tree
            target = Path(dest) / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_side(tree, workload, seed, seconds):
    """One benchmark run; returns (exit code, info line, result line)."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1, None, None
    info, result = (json.loads(line) for line in lines[-2:])
    return 0, info, result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _side_stats(values):
    q1, median, q3 = _quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    among pairs that differ (1.0 when none do)."""
    n, k = wins + losses, min(wins, losses)
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n)


def summarize(runs, spec):
    """Per workload: each end-to-end metric's quartiles per side, the pairs
    the change won, the median change against its bound, and failures."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for workload, by_pair in pairs.items():
        complete = [p for _, p in sorted(by_pair.items())
                    if all(p.get(side, {}).get("result") for side in SIDES)]
        metrics = {}
        for metric in spec["end_to_end"] if complete else ():
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            values = {side: [p[side]["result"]["metrics"][name]["value"] for p in complete]
                      for side in SIDES}
            stats = {side: _side_stats(values[side]) for side in SIDES}
            base, new = stats["parent"]["median"], stats["change"]["median"]
            rel = new / base - 1.0 if base else 0.0
            pairs_of = list(zip(values["parent"], values["change"]))
            wins = sum(sign * (c - p) < 0 for p, c in pairs_of)
            losses = sum(sign * (c - p) > 0 for p, c in pairs_of)
            ratios = [c / p for p, c in pairs_of if p]
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                **stats,
                "change_wins": wins,
                "median_change_rel": rel,
                "median_pair_ratio": statistics.median(ratios) if ratios else None,
                "sign_test_p": sign_test_p(wins, losses),
                "bound": metric["bound"],
                "within_bound": sign * rel <= metric["bound"],
                "gain_beyond_parent_iqr": sign * (base - new) > stats["parent"]["iqr"],
            }
        summary[workload] = {
            "pairs": len(complete),
            "metrics": metrics,
            "failed": {side: [p[side]["result"]["failed"] if p.get(side, {}).get("result")
                              else None for _, p in sorted(by_pair.items())]
                       for side in SIDES},
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sha = _git("rev-parse", "HEAD")
    if _git("status", "--porcelain", "--", *BENCHMARK_FILES):
        print(f"bench_pairs: {' and '.join(BENCHMARK_FILES)} differ from {sha}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"parent": sha, "change": f"working tree on {sha}", "runs": []}
    if args.out.exists():
        old = json.loads(args.out.read_text())
        if old.get("parent") != sha:
            print(f"bench_pairs: {args.out} holds runs against {old.get('parent')}",
                  file=sys.stderr)
            return 2
        record = old

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}  # names of one length
        for tree in trees.values():
            tree.mkdir()
        export_tree(sha, trees["parent"])
        export_worktree(trees["change"])
        for workload in args.workload:
            first = 1 + max((r["pair"] for r in record["runs"] if r["workload"] == workload),
                            default=-1)
            for pair in range(first, first + args.pairs):
                seed = args.seed + pair - first
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    code, info, result = run_side(trees[side], workload, seed, spec["run_seconds"])
                    record["runs"].append({
                        "workload": workload, "pair": pair, "seed": seed, "side": side,
                        "order": list(order), "exit": code, "result": result, "info": info,
                    })
                    wall = result["metrics"]["wall_s"]["value"] if result else float("nan")
                    print(f"{workload} pair {pair} seed {seed} {side}: exit {code} "
                          f"wall_s {wall:.4f}", flush=True)
                record["summary"] = summarize(record["runs"], spec)
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
