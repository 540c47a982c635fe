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

``--positive-control`` adds the workload ``positive-control``: one
fresh-process ``liestoch martingale-test`` per side at the shape of the
battery's positive control (se3, Levi-Civita at lambda 1, 10^4 replicas by
100 steps, 20 buckets, ``--workers 2``: its producer process beside the
calling one), with BLAS on one thread. Its ``wall_s`` is the
process's wall time, interpreter start included, scaled to a fixed machine
speed by ``benchmark/run.py``'s reference kernel timed right before and
after (the median of three timings each), as the benchmark scales its
passes.

``--battery`` adds the workload ``battery``: one fresh process per side
runs the verification battery, ``acceptance.ALL_CRITERIA``, with BLAS on
one thread. Each criterion's time is scaled by ``benchmark/run.py``'s
reference kernel, imported in that process and timed right before and
after the criterion (the median of three timings each), and reported as
its own metric, ``c<number>_<name>_s`` (``c5_martingale_positive_s``), held
to ``wall_s``'s bound; ``wall_s`` is their sum. A criterion that does not
pass counts as a failed operation.

Exits 2 when benchmark/ or BENCHMARK.json in the working tree differ from
HEAD, untracked files included: a comparison is only fair with identical
benchmark code.
"""

import argparse
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILES = ("benchmark", "BENCHMARK.json")
SIDES = ("parent", "change")
POSITIVE_CONTROL = "positive-control"
POSITIVE_CONTROL_ARGV = (
    "martingale-test", "--group", "se3", "--connection", "levicivita", "--lambda", "1",
    "--scheme", "ito", "--driver", "bm", "--dt", "0.01", "--steps", "100",
    "--replicas", "10000", "--buckets", "20", "--workers", "2",
)
CLI_SNIPPET = "import sys; from liestoch.cli import main; sys.exit(main())"
BATTERY = "battery"
# argv: the tree's benchmark/ directory. Prints one JSON line per criterion,
# named by its function's ``__name__``.
BATTERY_SNIPPET = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from run import Reference
from liestoch import acceptance
reference = Reference()
for number, fn in enumerate(acceptance.ALL_CRITERIA, 1):
    before = sorted(reference.seconds() for _ in range(3))[1]
    start = time.perf_counter()
    passed = bool(fn().passed)
    wall = time.perf_counter() - start
    after = sorted(reference.seconds() for _ in range(3))[1]
    print(json.dumps({"number": number, "name": fn.__name__, "raw_s": wall,
                      "reference_s": [before, after], "passed": passed}), flush=True)
"""


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


def benchmark_run_module():
    """``benchmark/run.py`` of this checkout, imported as a module."""
    spec = importlib.util.spec_from_file_location("benchmark_run", ROOT / "benchmark" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference_seconds(reference):
    """The median of three timings of the reference kernel: on a 2-core
    host, one timing right after a process exits ranged from 0.013 to
    0.023 s."""
    return sorted(reference.seconds() for _ in range(3))[1]


def run_positive_control(tree, seed, bench, reference):
    """One fresh-process ``martingale-test`` at the positive-control shape
    from ``tree``'s sources; returns (exit code, info line, result line) as
    ``run_side`` does. ``bench`` is ``benchmark_run_module()`` and
    ``reference`` its ``Reference()``."""
    tree = Path(tree)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update((var, "1") for var in bench.THREAD_VARS)
    with tempfile.TemporaryDirectory(prefix="positive_control_") as out:
        argv = [sys.executable, "-c", CLI_SNIPPET, *POSITIVE_CONTROL_ARGV,
                "--seed", str(seed), "--out", str(Path(out) / "v.json")]
        before = _reference_seconds(reference)
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        after = _reference_seconds(reference)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode, None, None
    scaled = wall * bench.REF_NOMINAL_S * 2.0 / (before + after)
    info = {"raw_wall_s": wall, "reference_s": [before, after], "stdout": proc.stdout.strip()}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": scaled, "unit": "s"}}}
    return 0, info, result


def run_battery(tree, seed, bench):
    """One fresh-process run of the battery (``BATTERY_SNIPPET``) from
    ``tree``'s sources; returns (exit code, info line, result line) as
    ``run_side`` does. The criteria fix their own seeds, so ``seed`` only
    names the pair. ``bench`` is ``benchmark_run_module()``."""
    tree = Path(tree)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update((var, "1") for var in bench.THREAD_VARS)
    proc = subprocess.run([sys.executable, "-c", BATTERY_SNIPPET, str(tree / "benchmark")],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1, None, None
    metrics = {}
    for line in lines:
        before, after = line["reference_s"]
        scaled = line["raw_s"] * bench.REF_NOMINAL_S * 2.0 / (before + after)
        short = line["name"].removeprefix("criterion_")
        metrics[f"c{line['number']}_{short}_s"] = {"value": scaled, "unit": "s"}
    failed = sum(not line["passed"] for line in lines)
    total = sum(metric["value"] for metric in metrics.values())
    result = {"correct": failed == 0, "attempted": len(lines), "failed": failed,
              "metrics": {"wall_s": {"value": total, "unit": "s"}, **metrics}}
    return 0, {"criteria": lines}, result


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


def _metric_specs(spec, complete):
    """BENCHMARK.json's end-to-end metrics, then each other metric that the
    first complete pair reports (the battery's criteria), in its order,
    lower being better and held to ``wall_s``'s bound."""
    known = {metric["name"] for metric in spec["end_to_end"]}
    wall = next(metric for metric in spec["end_to_end"] if metric["name"] == "wall_s")
    reported = complete[0]["parent"]["result"]["metrics"] if complete else {}
    return spec["end_to_end"] + [dict(wall, name=name, unit=value["unit"])
                                 for name, value in reported.items() if name not in known]


def summarize(runs, spec):
    """Per workload: each metric's quartiles per side (``_metric_specs``),
    the pairs the change won, the median change against its bound, and
    failures. A metric that some complete pair did not report is left
    out."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for workload, by_pair in pairs.items():
        complete = [p for _, p in sorted(by_pair.items())
                    if all(p.get(side, {}).get("result") for side in SIDES)]
        metrics = {}
        reported = [metric for metric in _metric_specs(spec, complete) if complete and all(
            metric["name"] in p[side]["result"]["metrics"] for p in complete for side in SIDES)]
        for metric in reported:
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
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--positive-control", action="store_true")
    parser.add_argument("--battery", action="store_true")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (args.workload or args.positive_control or args.battery):
        parser.error("give a --workload, --positive-control or --battery")

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

    runners = {workload: partial(run_side, workload=workload, seconds=spec["run_seconds"])
               for workload in args.workload}
    if args.positive_control or args.battery:
        bench = benchmark_run_module()
        bench.pin_threads()  # before numpy loads, as the benchmark does
    if args.positive_control:
        runners[POSITIVE_CONTROL] = partial(run_positive_control, bench=bench,
                                            reference=bench.Reference())
    if args.battery:
        runners[BATTERY] = partial(run_battery, bench=bench)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}  # names of one length
        for tree in trees.values():
            tree.mkdir()
        export_tree(sha, trees["parent"])
        export_worktree(trees["change"])
        for workload, runner in runners.items():
            first = 1 + max((r["pair"] for r in record["runs"] if r["workload"] == workload),
                            default=-1)
            for pair in range(first, first + args.pairs):
                seed = args.seed + pair - first
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    code, info, result = runner(trees[side], seed=seed)
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
