"""liestoch benchmark: one workload per process, timed from outside the library.

Usage (from the repository root):

    python3 benchmark/run.py --workload martingale-se3 --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 10 --trace 0

The library is imported from ``src/`` of the same checkout. BLAS and OpenMP
are pinned to one thread before numpy loads; the CLI's ``--workers 2`` pool
is then the only parallelism, so a run uses at most two threads.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
pass wall time, driver replica-steps per second, the process's peak RSS and
the median set-up time of fresh processes. Times are scaled to a fixed
machine speed (see ``REF_NOMINAL_S``); the raw ones are on the info line. ``--trace 1`` alternates plain
and traced passes and reports the per-layer metrics: self time and work
counts of each wrapped layer (see spans.py), checked against the exact
counts of the workload's shape.

Every pass is checked (its workload's verdict and a digest equal to the
warm-up pass's); the speed contracts and the membership-defect gate run
once per run. Each breach counts as a failed operation. The line before the
result carries the fingerprint, the fixed work per pass, ``failed_frac``,
``max_defect`` and the contract outcomes; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("martingale-se3", "product-so3", "campbell-so3", "export-sixgroups")
MIN_PASSES = 3          # timed passes per run, however short --seconds is
MIN_TRACED = 2          # traced and plain passes each, in a traced run
SETUP_REPEATS = 7
CHILD_TIMEOUT = 120

# Reported times are scaled to a fixed machine speed. On shared hosts the
# CPU speed swings by up to 1.8x in episodes of seconds to minutes, which
# moves a median pass time by 30-40% between runs. A fixed reference kernel
# timed right before and after each pass (and after each set-up) slows
# down with the host, and ``time * REF_NOMINAL_S / reference time`` cancels
# the swing. The reference is benchmark code only, so a change to liestoch
# moves the scaled time as much as the raw time.
REF_NOMINAL_S = 0.02

# Fresh-process set-up: import, the six group specs, both connection
# tables per group (the Levi-Civita one runs the U solve); then the
# reference kernel, for scaling.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from liestoch.connections import alpha_biinvariant, alpha_levi_civita, metric_for
from liestoch.groups import GROUP_NAMES, get_group
for name in GROUP_NAMES:
    spec = get_group(name)
    alpha_levi_civita(metric_for(spec, 1.0))
    alpha_biinvariant(spec)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import Reference
ref = Reference()
print(repr(setup), repr(sorted(ref.seconds() for _ in range(3))[1]))
"""


class Reference:
    """Fixed mixed kernel: an interpreter loop, in-cache GEMM, batched 3x3
    products and a streaming sum (about REF_NOMINAL_S on an idle host)."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.square = rng.random((64, 64))
        self.stack = rng.random((20_000, 3, 3))
        self.stream = rng.random(2_000_000)

    def seconds(self):
        start = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += i * 0.5
        for _ in range(300):
            self.square @ self.square
        for _ in range(5):
            self.stack @ self.stack
        self.stream.sum()
        return time.perf_counter() - start


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def metric_spec():
    with open(SPEC) as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": _git_sha(),
        "seed": seed,
        "machine": platform.machine(),
    }


def setup_seconds(repeats):
    """Median set-up time of ``repeats`` fresh interpreters: (scaled, raw)."""
    scaled, raw = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
        )
        setup, ref = (float(v) for v in proc.stdout.split())
        raw.append(setup)
        scaled.append(setup * REF_NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """Passes of one workload with their checks and failure accounting."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = Reference()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def one_pass(self, runner=None):
        """Time one pass and check its output; returns (wall, scaled wall,
        result)."""
        self.attempted += 1
        before = self.reference.seconds()
        start = time.perf_counter()
        try:
            result = runner(self.workload.run_pass) if runner else self.workload.run_pass()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail("pass raised")
            result = None
        wall = time.perf_counter() - start
        scaled = wall * REF_NOMINAL_S * 2.0 / (before + self.reference.seconds())
        if result is None:
            return wall, scaled, None
        problems = self.workload.check(result)
        digest = self.workload.digest(result)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("output differs from the warm-up pass")
        if problems:
            self.fail("; ".join(problems))
        return wall, scaled, result

    def gate(self, name, held):
        self.attempted += 1
        if not held:
            self.fail(f"contract breached: {name}")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(walls_plain, walls_traced, self_by_pass, coverage, counts):
    """Per-layer metric values from the traced passes."""
    from spans import LAYERS

    metrics = {}
    for modname, fname, _ in LAYERS:
        layer = f"{modname}.{fname}"
        self_s = _median([s.get(layer, 0.0) for s in self_by_pass])
        metrics[f"{layer}.self_s"] = self_s
        for key in ("matrices", "calls", "replica_steps", "bytes"):
            metrics[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0)
        matrices = metrics[f"{layer}.matrices"]
        metrics[f"{layer}.ns_per_matrix"] = 1e9 * self_s / matrices if matrices else 0.0
    calls = counts.get("calculus.mc_increments.calls", 0)
    served = counts.get("calculus.mc_increments.steplog_calls", 0)
    metrics["calculus.mc_increments.steplog_ratio"] = served / calls if calls else 0.0
    metrics["trace.coverage"] = _median(coverage)
    metrics["trace.overhead_frac"] = _median(walls_traced) / _median(walls_plain) - 1.0
    return metrics


def measure(workload, seed, seconds, trace, workdir, setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns (result line, info line)."""
    from spans import ROOT_SPAN, Tracer, self_times
    from workloads import DEFECT_LIMIT

    units = metric_spec()[trace]
    setup, raw_setup = setup_seconds(setup_repeats) if trace == 0 else (None, None)
    workload.prepare(seed, workdir)
    run = Run(workload)

    # warm-up: fills caches, sets the reference digest, gives the defect
    *_, result = run.one_pass()
    defect = workload.max_defect(result) if result is not None else float("nan")
    del result

    raw, walls, walls_traced, self_by_pass, coverage, counts = [], [], [], [], [], {}
    expected = workload.expected_counts()
    deadline = time.perf_counter() + seconds
    while (len(walls) < (MIN_TRACED if trace else MIN_PASSES)
           or len(walls_traced) < (MIN_TRACED if trace else 0)
           or time.perf_counter() < deadline):
        wall, scaled, _ = run.one_pass()
        raw.append(wall)
        walls.append(scaled)
        if not trace:
            continue
        with Tracer() as tracer:
            _, scaled, _ = run.one_pass(tracer.traced_call)
        walls_traced.append(scaled)
        selfs = self_times(tracer.spans)
        self_by_pass.append(selfs)
        _, start, end, _ = tracer.spans[0]     # the root span opens first
        coverage.append(1.0 - selfs[ROOT_SPAN] / (end - start))
        counts = dict(tracer.counts)
        wrong = {k: (counts.get(k, 0), v) for k, v in expected.items() if counts.get(k, 0) != v}
        if wrong:
            run.fail(f"traced counts (got, expected): {wrong}")

    contracts = workload.contracts()
    for name, held in contracts.items():
        run.gate(name, held)
    run.gate(f"max_defect <= {DEFECT_LIMIT:g}", defect <= DEFECT_LIMIT)

    if trace:
        values = layer_metrics(walls, walls_traced, self_by_pass, coverage, counts)
    else:
        wall = _median(walls)
        values = {
            "wall_s": wall,
            "steps_per_s": workload.replica_steps / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup,
        }
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    info = {
        "workload": workload.name,
        "trace": trace,
        "fingerprint": fingerprint(seed),
        "replica_steps_per_pass": workload.replica_steps,
        "passes": len(walls) + len(walls_traced),
        "pass_walls_s": raw,
        "scaled_walls_s": walls,
        "raw_setup_s": raw_setup,
        "failed_frac": run.failed / run.attempted,
        "max_defect": defect,
        "contracts": contracts,
        "problems": run.problems,
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, info


def _run_all(args):
    """Each workload in its own process (peak RSS is per process)."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        print(f"{name}: failed_frac={info['failed_frac']:g} max_defect={info['max_defect']:.3e} "
              f"contracts={info['contracts']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:>16.6g} {entry['unit']}")
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "liestoch" / "__init__.py").is_file():
        print(f"benchmark: no liestoch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        result, info = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                               args.trace, workdir)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
